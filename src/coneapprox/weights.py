"""Weight models grading multivariate series coefficients.

A weight model assigns every wavenumber ``k`` in ``N_0^d`` a nonnegative
weight

    weight(k) = gamma[m] * prod(w[l] * s(k[l]) for active l),

where ``m`` counts the active (nonzero) coordinates of ``k``.  The three
ingredients play distinct roles: coordinate weights ``w`` grade how much each
input variable matters, the smoothness decay ``s`` grades how fast univariate
degrees fade, and interaction weights ``gamma`` grade how many variables may
act together.  Downstream modules order wavenumbers by decreasing weight,
stop adaptive sampling against weight tail norms, and infer the ingredients
from pilot coefficients.

Weights are evaluated in one canonical order (ascending coordinate index,
one multiply per active coordinate) so that equal weights compare bitwise
equal everywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    "AlgebraicDecay",
    "TableDecay",
    "WeightModel",
    "CoordinateRule",
    "TractabilityReport",
    "zeta",
    "strong_tractability",
]


# Euler-Maclaurin correction coefficients B_{2i} / (2i)! for i = 1..10,
# computed from exact Bernoulli fractions.
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
)
_EM_COEFFS = tuple(
    float(b / math.factorial(2 * i)) for i, b in enumerate(_BERNOULLI_EVEN, start=1)
)
_EM_CUT = 32


def zeta(exponent: float) -> float:
    """Riemann zeta value ``sum(k**-exponent for k >= 1)`` for ``exponent > 1``.

    Euler-Maclaurin evaluation: the series head up to a fixed cut, the
    integral and midpoint corrections, and ten Bernoulli correction terms.
    Relative accuracy is far below 1e-12 on the whole admissible range.

    Parameters
    ----------
    exponent : float
        Series exponent, strictly greater than 1.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``exponent <= 1`` (the series diverges) or is not finite.
    """
    x = float(exponent)
    if math.isnan(x) or x <= 1.0:
        raise ValueError(f"zeta requires exponent > 1, got {exponent!r}")
    if x >= 55.0 or math.isinf(x):
        # Beyond here the tail after the cut is below one ulp of 1.0.
        return float(math.fsum(k ** -x for k in range(1, _EM_CUT)) if x < math.inf else 1.0)
    n = float(_EM_CUT)
    head = math.fsum(k ** -x for k in range(1, _EM_CUT + 1))
    total = head + n ** (1.0 - x) / (x - 1.0) - 0.5 * n ** -x
    rising = x
    power = n ** (-x - 1.0)
    scale = 1.0 / (n * n)
    for i, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * rising * power
        if i < len(_EM_COEFFS):
            rising *= (x + 2.0 * i - 1.0) * (x + 2.0 * i)
            power *= scale
    return total


@dataclass(frozen=True)
class AlgebraicDecay:
    """Parametric smoothness decay ``s(k) = k**-rate`` with ``rate > 0``."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"decay rate must be positive and finite, got {self.rate!r}")

    def value(self, k: int) -> float:
        if k < 1:
            raise ValueError("decay values are indexed from 1")
        return float(k) ** -self.rate

    def power_sum(self, p: float) -> float:
        """``sum(s(k)**p for k >= 1)``; ``inf`` when ``p * rate <= 1``."""
        if p <= 0.0:
            raise ValueError("power sum exponent must be positive")
        if p * self.rate <= 1.0:
            return math.inf
        return zeta(p * self.rate)

    def to_dict(self) -> dict:
        return {"kind": "algebraic", "r": self.rate}


@dataclass(frozen=True)
class TableDecay:
    """Tabulated smoothness decay with a geometric tail.

    ``value(k)`` reads the table for ``k <= len(values)`` and continues as
    ``values[-1] * tail_ratio**(k - len(values))`` beyond it.  A zero
    ``tail_ratio`` truncates the decay: degrees past the table carry weight
    zero and disappear from enumeration.

    Parameters
    ----------
    values : sequence of float
        ``s(1), s(2), ...``, nonnegative and non-increasing, first entry
        positive.
    tail_ratio : float, optional
        Geometric continuation ratio in ``[0, 1)``.  Default 0.
    """

    values: tuple
    tail_ratio: float = 0.0

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("decay table must not be empty")
        if vals[0] <= 0.0:
            raise ValueError("leading decay value must be positive")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("decay values must be finite and nonnegative")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("decay values must be non-increasing")
        if not (0.0 <= self.tail_ratio < 1.0):
            raise ValueError(f"tail ratio must lie in [0, 1), got {self.tail_ratio!r}")

    def value(self, k: int) -> float:
        if k < 1:
            raise ValueError("decay values are indexed from 1")
        cap = len(self.values)
        if k <= cap:
            return self.values[k - 1]
        if self.tail_ratio == 0.0:
            return 0.0
        return self.values[-1] * self.tail_ratio ** (k - cap)

    def power_sum(self, p: float) -> float:
        """``sum(value(k)**p for k >= 1)``; always finite."""
        if p <= 0.0:
            raise ValueError("power sum exponent must be positive")
        head = math.fsum(v ** p for v in self.values)
        if self.tail_ratio == 0.0 or self.values[-1] == 0.0:
            return head
        q = self.tail_ratio ** p
        return head + self.values[-1] ** p * q / (1.0 - q)

    def to_dict(self) -> dict:
        return {"kind": "table", "values": list(self.values), "tail_ratio": self.tail_ratio}


@dataclass(frozen=True)
class WeightModel:
    """Weight assignment over ``N_0^d`` wavenumbers.

    Parameters
    ----------
    dimension : int
        Number of variables ``d >= 1``.
    coordinate_weights : sequence of float
        ``w[0..d-1]``, nonnegative.  A zero entry removes the coordinate:
        every wavenumber activating it gets weight zero.
    decay : AlgebraicDecay or TableDecay
        Univariate smoothness decay ``s``.
    interaction_weights : sequence of float, optional
        ``gamma[0..d]`` with ``gamma[0] == 1``, positive and non-increasing.
        Defaults to all ones (pure product weights).
    """

    dimension: int
    coordinate_weights: tuple
    decay: object
    interaction_weights: tuple = field(default=())

    def __post_init__(self) -> None:
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be at least 1")
        w = tuple(float(v) for v in self.coordinate_weights)
        if len(w) != d:
            raise ValueError(f"expected {d} coordinate weights, got {len(w)}")
        if any(not math.isfinite(v) or v < 0.0 for v in w):
            raise ValueError("coordinate weights must be finite and nonnegative")
        gamma = self.interaction_weights
        gamma = tuple(float(v) for v in gamma) if gamma else (1.0,) * (d + 1)
        if len(gamma) != d + 1:
            raise ValueError(f"expected {d + 1} interaction weights, got {len(gamma)}")
        if gamma[0] != 1.0:
            raise ValueError("interaction weight of the empty set must equal 1")
        if any(not math.isfinite(v) or v <= 0.0 for v in gamma):
            raise ValueError("interaction weights must be finite and positive")
        if any(a < b for a, b in zip(gamma, gamma[1:])):
            raise ValueError("interaction weights must be non-increasing")
        if not isinstance(self.decay, (AlgebraicDecay, TableDecay)):
            raise TypeError("decay must be AlgebraicDecay or TableDecay")
        object.__setattr__(self, "coordinate_weights", w)
        object.__setattr__(self, "interaction_weights", gamma)

    def weight(self, wavenumber: Sequence[int]) -> float:
        """Weight of one wavenumber, evaluated in the canonical order."""
        k = wavenumber
        if len(k) != self.dimension:
            raise ValueError(f"wavenumber has {len(k)} coordinates, expected {self.dimension}")
        active = 0
        for v in k:
            if v != int(v) or v < 0:
                raise ValueError(f"wavenumber coordinates must be nonnegative integers, got {k!r}")
            if v:
                active += 1
        acc = self.interaction_weights[active]
        for index in range(self.dimension):
            degree = int(k[index])
            if degree:
                acc *= self.coordinate_weights[index] * self.decay.value(degree)
        return acc

    def weight_power_sum(self, p: float) -> float:
        """``sum(weight(k)**p)`` over all of ``N_0^d``; ``inf`` on divergence.

        The sum splits by active set: with ``S = sum(s(k)**p for k >= 1)``,

            sum_k weight(k)**p = sum_m gamma[m]**p * e_m(w[0]**p * S, ...),

        ``e_m`` the elementary symmetric polynomials, evaluated with the
        stable ascending recurrence.  For all-ones ``gamma`` this collapses
        to ``prod(1 + w[l]**p * S)``.
        """
        if p <= 0.0:
            raise ValueError("power sum exponent must be positive")
        s_sum = self.decay.power_sum(p)
        if math.isinf(s_sum):
            if any(v > 0.0 for v in self.coordinate_weights):
                return math.inf
            return 1.0
        elementary = [1.0] + [0.0] * self.dimension
        for v in self.coordinate_weights:
            x = v ** p * s_sum
            for m in range(self.dimension, 0, -1):
                elementary[m] += x * elementary[m - 1]
        return math.fsum(
            g ** p * e for g, e in zip(self.interaction_weights, elementary)
        )

    def head_decay(self) -> float:
        """Leading decay value ``s(1)``."""
        return self.decay.value(1)

    def to_dict(self) -> dict:
        return {
            "d": self.dimension,
            "w": list(self.coordinate_weights),
            "s": self.decay.to_dict(),
            "gamma": list(self.interaction_weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightModel":
        d = int(data["d"])
        gamma = data.get("gamma")
        return cls(
            dimension=d,
            coordinate_weights=tuple(data["w"]),
            decay=cls.decay_from_dict(data["s"]),
            interaction_weights=tuple(gamma) if gamma else (),
        )

    @staticmethod
    def decay_from_dict(data: dict):
        """Decay from an ``s`` block, the inverse of the decays' ``to_dict``."""
        kind = data.get("kind")
        if kind == "algebraic":
            return AlgebraicDecay(rate=float(data["r"]))
        if kind == "table":
            return TableDecay(values=tuple(data["values"]), tail_ratio=float(data.get("tail_ratio", 0.0)))
        raise ValueError(f"unknown decay kind {kind!r}")


@dataclass(frozen=True)
class CoordinateRule:
    """Coordinate-weight sequence across unboundedly many variables.

    Kinds: ``"algebraic"`` gives ``w[l] = scale * l**-rate`` (1-based ``l``),
    ``"geometric"`` gives ``w[l] = scale * rate**(l-1)`` with ``rate < 1``,
    ``"constant"`` gives ``w[l] = scale``.
    """

    kind: str
    scale: float = 1.0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("algebraic", "geometric", "constant"):
            raise ValueError(f"unknown coordinate rule kind {self.kind!r}")
        if self.scale < 0.0:
            raise ValueError("rule scale must be nonnegative")
        if self.kind == "algebraic" and self.rate <= 0.0:
            raise ValueError("algebraic rule needs a positive rate")
        if self.kind == "geometric" and not (0.0 <= self.rate < 1.0):
            raise ValueError("geometric rule needs a ratio in [0, 1)")

    def prefix(self, d: int) -> tuple:
        """First ``d`` weights of the sequence."""
        if self.kind == "algebraic":
            return tuple(self.scale * float(l) ** -self.rate for l in range(1, d + 1))
        if self.kind == "geometric":
            return tuple(self.scale * self.rate ** (l - 1) for l in range(1, d + 1))
        return (self.scale,) * d

    def exponent_infimum(self) -> float:
        """Infimum of exponents with a convergent power sum (``inf`` if none)."""
        if self.scale == 0.0:
            return 0.0
        if self.kind == "algebraic":
            return 1.0 / self.rate
        if self.kind == "geometric":
            return 0.0
        return math.inf


@dataclass(frozen=True)
class TractabilityReport:
    """Verdict on dimension-independent polynomial sampling cost."""

    strongly_tractable: bool
    witness_eta: float | None
    eta_infimum: float
    note: str


def _decay_exponent_infimum(decay) -> float:
    if isinstance(decay, AlgebraicDecay):
        return 1.0 / decay.rate
    return 0.0


def strong_tractability(
    coordinate_rule: CoordinateRule,
    decay,
    eta_grid: Sequence[float],
) -> TractabilityReport:
    """Decide strong polynomial tractability of the product-weight family.

    For pure product weights (trivial interaction weights) the sampling cost
    of the family stays polynomial in ``1/eps`` uniformly in the dimension
    exactly when some exponent ``eta > 0`` makes both ``sum(s(k)**eta)`` and
    ``sum(w[l]**eta)`` finite.  The verdict is analytic; the grid only
    supplies the reported witness exponent.

    Parameters
    ----------
    coordinate_rule : CoordinateRule
        Coordinate-weight sequence across all dimensions.
    decay : AlgebraicDecay or TableDecay
        Smoothness decay shared by every coordinate.
    eta_grid : sequence of float
        Positive exponents to scan for a witness.

    Returns
    -------
    TractabilityReport
    """
    etas = sorted(float(e) for e in eta_grid)
    if any(e <= 0.0 for e in etas):
        raise ValueError("witness exponents must be positive")
    infimum = max(_decay_exponent_infimum(decay), coordinate_rule.exponent_infimum())
    if math.isfinite(infimum):
        witness = next((eta for eta in etas if eta > infimum), None)
        if witness is not None:
            note = f"both weight power sums converge at eta = {witness:g}"
        else:
            note = f"convergent exponents exist (any eta > {infimum:g}); grid holds none"
        return TractabilityReport(True, witness, infimum, note)
    if coordinate_rule.kind == "constant" and coordinate_rule.scale == 1.0:
        note = (
            "unit coordinate weights: all 2^d wavenumbers on the unit cube carry "
            "weight 1, so cost rises at least like 2^d once the tolerance drops "
            "below the head weight"
        )
    else:
        note = "coordinate weights do not decay, so no exponent sums them"
    return TractabilityReport(False, None, infimum, note)
