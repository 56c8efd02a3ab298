"""Data-driven weight inference from axis probes.

When no weight model is known a priori, the coefficients along each
coordinate axis (plus the origin) are probed and a model is fitted by
minimizing the ratio norm of the probes over finite candidate grids: a
shared grid for the coordinate weights and a rate grid for the algebraic
decay.  Small fitted weights certify small fitted norms, so among all grid
points tying at the minimal objective the selection takes the smallest
decay sequence (the largest rate) and then the lexicographically smallest
coordinate weights.  The fit is scale invariant: rescaling every probe
rescales the objective without moving the minimizer.

The fitted model then drives the pilot-cone rule, with probe queries shared
through the oracle's memo so nothing is charged twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .approximation import ApproxOutcome, DEFAULT_BUDGET_CAP, PilotConeSpec, approximate_on_pilot_cone
from .enumeration import WavenumberStream
from .spaces import CoefficientOracle, SpaceConfig
from .weights import AlgebraicDecay, WeightModel

__all__ = [
    "CandidateSets",
    "InferredWeights",
    "probe_wavenumbers",
    "weight_fit_objective",
    "infer_weights",
    "approximate_with_inferred_weights",
]

Wavenumber = Tuple[int, ...]

_TIE_WINDOW = 1e-12


@dataclass(frozen=True)
class CandidateSets:
    """Finite search grids for the weight fit.

    ``coordinate_grid`` holds admissible values for every coordinate weight
    (must contain its own maximum as the a-priori cap), ``rate_grid`` the
    admissible algebraic decay rates, ``axis_degree_cap`` the highest probed
    degree per axis.
    """

    coordinate_grid: tuple
    rate_grid: tuple
    axis_degree_cap: int

    def __post_init__(self) -> None:
        w = tuple(sorted(float(v) for v in self.coordinate_grid))
        r = tuple(sorted(float(v) for v in self.rate_grid))
        if not w or w[0] < 0.0 or w[-1] <= 0.0:
            raise ValueError("coordinate grid needs nonnegative values with a positive cap")
        if not r or r[0] <= 0.0:
            raise ValueError("rate grid needs positive rates")
        if len(set(w)) != len(w) or len(set(r)) != len(r):
            raise ValueError("grids must not repeat values")
        if self.axis_degree_cap < 1:
            raise ValueError("axis degree cap must be at least 1")
        object.__setattr__(self, "coordinate_grid", w)
        object.__setattr__(self, "rate_grid", r)

    @classmethod
    def default(cls, axis_degree_cap: int = 4) -> "CandidateSets":
        """Zero plus ten halved steps down from the cap 1 (``2**-9 .. 1``); rates 0.5..6."""
        grid = [0.0] + [2.0 ** -m for m in range(9, -1, -1)]
        rates = [0.5 * i for i in range(1, 13)]
        return cls(tuple(grid), tuple(rates), axis_degree_cap)


@dataclass(frozen=True)
class InferredWeights:
    """Fitted weight model plus fit diagnostics."""

    dimension: int
    coordinate_weights: tuple
    rate: float
    interaction_weights: tuple
    objective: float

    def model(self) -> WeightModel:
        return WeightModel(
            dimension=self.dimension,
            coordinate_weights=self.coordinate_weights,
            decay=AlgebraicDecay(self.rate),
            interaction_weights=self.interaction_weights,
        )

    def to_dict(self) -> dict:
        return {
            "d": self.dimension,
            "w": list(self.coordinate_weights),
            "r": self.rate,
            "gamma": list(self.interaction_weights),
            "objective": self.objective,
        }


def probe_wavenumbers(dimension: int, axis_degree_cap: int) -> List[Wavenumber]:
    """Origin plus each axis up to the degree cap: ``dimension * cap + 1`` probes."""
    if dimension < 1 or axis_degree_cap < 1:
        raise ValueError("dimension and degree cap must be at least 1")
    probes = [(0,) * dimension]
    for axis in range(dimension):
        for degree in range(1, axis_degree_cap + 1):
            k = [0] * dimension
            k[axis] = degree
            probes.append(tuple(k))
    return probes


def _axis_data(
    samples: Mapping[Wavenumber, float], dimension: int, cap: int
) -> Tuple[float, List[List[Tuple[int, float]]]]:
    base = None
    per_axis: List[List[Tuple[int, float]]] = [[] for _ in range(dimension)]
    for k in probe_wavenumbers(dimension, cap):
        if k not in samples:
            raise KeyError(f"probe sample at {k} is missing")
        value = abs(float(samples[k]))
        if not any(k):
            base = value
            continue
        axis = next(i for i, v in enumerate(k) if v)
        if value != 0.0:
            per_axis[axis].append((k[axis], value))
    assert base is not None
    return base, per_axis


def _axis_statistic(
    data: Sequence[Tuple[int, float]], rate: float, gamma1: float, ratio_exponent: float
) -> float:
    """Norm of one axis' probe ratios at unit coordinate weight."""
    if not data:
        return 0.0
    if math.isinf(ratio_exponent):
        return max(v * float(k) ** rate for k, v in data) / gamma1
    p = ratio_exponent
    return math.fsum((v * float(k) ** rate / gamma1) ** p for k, v in data) ** (1.0 / p)


def _combine(base: float, axis_terms: Sequence[float], ratio_exponent: float) -> float:
    if math.isinf(ratio_exponent):
        top = base
        for t in axis_terms:
            if t > top:
                top = t
        return top
    p = ratio_exponent
    return (base ** p + math.fsum(t ** p for t in axis_terms)) ** (1.0 / p)


def _objective(
    base: float, stats: Sequence[float], weights: Sequence[float], ratio_exponent: float
) -> float:
    """Combine per-axis statistics at unit weight into the ratio norm at ``weights``."""
    terms = []
    for stat, w in zip(stats, weights):
        if stat == 0.0:
            terms.append(0.0)
        elif w == 0.0:
            return math.inf
        else:
            terms.append(stat / w)
    return _combine(base, terms, ratio_exponent)


def weight_fit_objective(
    samples: Mapping[Wavenumber, float],
    dimension: int,
    candidates: CandidateSets,
    config: SpaceConfig,
    coordinate_weights: Sequence[float],
    rate: float,
    interaction_weights: Optional[Sequence[float]] = None,
) -> float:
    """Ratio norm of the probes under a trial weight assignment.

    Zero coefficients contribute nothing even where the trial weight
    vanishes; a nonzero coefficient over a vanishing weight yields an
    infinite objective (the trial model cannot carry the data).
    """
    gamma1 = float(interaction_weights[1]) if interaction_weights else 1.0
    base, per_axis = _axis_data(samples, dimension, candidates.axis_degree_cap)
    p = config.ratio_exponent
    stats = [_axis_statistic(data, rate, gamma1, p) for data in per_axis]
    weights = [float(coordinate_weights[axis]) for axis in range(dimension)]
    return _objective(base, stats, weights, p)


def infer_weights(
    samples: Mapping[Wavenumber, float],
    dimension: int,
    candidates: CandidateSets,
    config: SpaceConfig,
    interaction_weights: Optional[Sequence[float]] = None,
    selection_window: Optional[float] = None,
) -> InferredWeights:
    """Fit coordinate weights and a decay rate to the axis probes.

    The grid optimum has a closed form.  Each coordinate weight divides only
    its own axis term, and a weight never exceeds the grid's cap, so at any
    rate every coordinate at the cap minimizes every axis term at once (an
    axis without data contributes zero whatever its weight).  The minimal
    objective over the whole grid is therefore the minimum over rates of
    the objective with all coordinates capped, computed exactly.

    The returned point applies the tie rule among all grid points whose
    objective stays within ``selection_window`` of that minimum
    (multiplicative; the default treats only exact ties, up to rounding, as
    equivalent): largest rate first, then lexicographically smallest
    coordinate weights, so the fitted decay is as fast as the data allows
    and unconstrained coordinates settle at zero instead of drifting with
    the data scale.  A window wider than the default trades a slightly
    larger fitted norm for a thinner fitted space; see
    ``approximate_with_inferred_weights`` for the resolution-based choice.
    """
    gamma = tuple(interaction_weights) if interaction_weights else (1.0,) * (dimension + 1)
    gamma1 = float(gamma[1])
    base, per_axis = _axis_data(samples, dimension, candidates.axis_degree_cap)
    w_grid = candidates.coordinate_grid
    r_grid = candidates.rate_grid
    p = config.ratio_exponent

    stats: Dict[float, List[float]] = {
        rate: [_axis_statistic(data, rate, gamma1, p) for data in per_axis]
        for rate in r_grid
    }

    def value(weights: Sequence[float], rate: float) -> float:
        return _objective(base, stats[rate], weights, p)

    caps = [w_grid[-1]] * dimension
    at_caps = [value(caps, rate) for rate in r_grid]
    best = min(at_caps)

    # Rate before weights matters: every axis statistic grows with the rate,
    # so a weights-first rule would pin the rate at the bottom of its tie
    # plateau and hand downstream tail norms a needlessly heavy, possibly
    # divergent space.  Rate feasibility is widest with all weights at the
    # cap; weights then shrink greedily, axis by axis, since capping the
    # remaining coordinates is the most permissive completion.
    window = 1.0 + _TIE_WINDOW if selection_window is None else float(selection_window)
    if window < 1.0 + _TIE_WINDOW:
        raise ValueError("selection window must be at least the rounding tie window")
    ceiling = best * window if best > 0.0 else 0.0
    final_rate = max(rate for rate, v in zip(r_grid, at_caps) if v <= ceiling)

    chosen: List[float] = []
    for axis in range(dimension):
        for cand in w_grid:
            trial = chosen + [cand] + caps[len(chosen) + 1 :]
            if value(trial, final_rate) <= ceiling:
                chosen.append(cand)
                break
        else:
            raise AssertionError("no feasible coordinate weight at the minimal objective")
    return InferredWeights(
        dimension=dimension,
        coordinate_weights=tuple(chosen),
        rate=final_rate,
        interaction_weights=gamma,
        objective=value(chosen, final_rate),
    )


def approximate_with_inferred_weights(
    oracle: CoefficientOracle,
    dimension: int,
    candidates: CandidateSets,
    config: SpaceConfig,
    inflation: float,
    tolerance: float,
    interaction_weights: Optional[Sequence[float]] = None,
    pilot_size: Optional[int] = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
    selection_window: Optional[float] = None,
) -> ApproxOutcome:
    """Probe, fit, then run the pilot-cone rule under the fitted model.

    The probes double as samples: queries are memoized on the oracle, so
    the reported cost counts every distinct wavenumber exactly once.  The
    pilot segment defaults to the probe count.  The outcome carries the fit
    under ``inferred``.

    The fit's outer selection window defaults to the rate grid's value
    resolution: rates one grid step apart move a degree-``cap`` probe's
    ratio by up to ``cap ** step``, so objective values within that factor
    are indistinguishable at the grid's own granularity.  Treating them as
    ties lets the selection reach the fastest decay the data supports,
    which shrinks the fitted tail norms and with them the certified cost;
    a fit pinned to exact ties systematically drags the rate down to
    whatever the noisiest probe momentarily favors.
    """
    probes = probe_wavenumbers(dimension, candidates.axis_degree_cap)
    samples = {k: oracle.query(k) for k in probes}
    if selection_window is None:
        gaps = [
            b - a
            for a, b in zip(candidates.rate_grid, candidates.rate_grid[1:])
        ]
        step = min(gaps) if gaps else 0.0
        selection_window = max(
            float(candidates.axis_degree_cap) ** step, 1.0 + _TIE_WINDOW
        )
    fitted = infer_weights(
        samples, dimension, candidates, config, interaction_weights,
        selection_window=selection_window,
    )
    model = fitted.model()
    stream = WavenumberStream(model)
    spec = PilotConeSpec(
        pilot_size=pilot_size if pilot_size is not None else len(probes),
        inflation=inflation,
    )
    outcome = approximate_on_pilot_cone(
        oracle, stream, config, model, spec, tolerance, budget_cap=budget_cap
    )
    return replace(outcome, inferred=fitted.to_dict())
