"""Sequence-space setup: exponents, coefficient oracles, sharp norm bounds.

The input class measures a function by the ``ratio_exponent``-norm of its
coefficients divided by their weights; the solution is measured by the
``solution_exponent``-norm of the raw coefficients.  The conjugate
``tail_exponent`` then grades weight tails: by Hoelder's inequality the
solution norm is at most (input norm) times (tail_exponent-norm of the
weights), and the bound is attained by an explicit extremal coefficient
table, built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .enumeration import WavenumberStream
from .weights import WeightModel

__all__ = [
    "DivergentNormError",
    "SpaceConfig",
    "CoefficientOracle",
    "seq_norm",
    "holder_bound",
    "tight_function",
    "solution_operator_norm",
]

Wavenumber = Tuple[int, ...]


class DivergentNormError(ValueError):
    """A required weight norm is infinite, so no finite guarantee exists."""


@dataclass(frozen=True)
class SpaceConfig:
    """Admissible exponent pair ``1 <= solution_exponent <= ratio_exponent <= inf``.

    ``tail_exponent`` is derived from the splitting identity

        1 / ratio_exponent + 1 / tail_exponent = 1 / solution_exponent,

    with the convention ``1 / inf = 0``; equal exponents give an infinite
    tail exponent.
    """

    ratio_exponent: float
    solution_exponent: float

    def __post_init__(self) -> None:
        p, q = float(self.ratio_exponent), float(self.solution_exponent)
        if math.isnan(p) or math.isnan(q) or q < 1.0 or p < q:
            raise ValueError(
                f"exponents must satisfy 1 <= solution <= ratio, got ({p!r}, {q!r})"
            )
        object.__setattr__(self, "ratio_exponent", p)
        object.__setattr__(self, "solution_exponent", q)

    @property
    def tail_exponent(self) -> float:
        p, q = self.ratio_exponent, self.solution_exponent
        if p == q:
            return math.inf
        if math.isinf(p):
            return q
        return p * q / (p - q)


def seq_norm(values: Iterable[float], exponent: float) -> float:
    """``l^exponent`` norm of a finite real sequence (0 for an empty one)."""
    if exponent < 1.0:
        raise ValueError("sequence norms need exponent >= 1")
    if isinstance(values, np.ndarray):  # one pass in numpy, the same floats as below
        vals = np.abs(values.astype(float, copy=False)).tolist()
    else:
        vals = [abs(float(v)) for v in values]
    if not vals:
        return 0.0
    if math.isinf(exponent):
        return max(vals)
    if exponent == 1.0:
        return math.fsum(vals)
    top = max(vals)
    if top == 0.0:
        return 0.0
    # scale out the peak so large exponents do not overflow
    return top * math.fsum([(v / top) ** exponent for v in vals]) ** (1.0 / exponent)


class CoefficientOracle:
    """Memoized access to real series coefficients with a query counter.

    Wraps a ``wavenumber -> coefficient`` callable, and optionally a
    vectorised evaluator taking an integer array of wavenumber rows to their
    coefficients, or a table's lookup taking a list of wavenumbers to theirs.
    Every distinct wavenumber is evaluated once, whether by
    ``query`` or ``query_rows``; the counter reports how many distinct
    queries have been made, which is the information cost charged to the
    adaptive algorithms.
    """

    def __init__(self, fn: Callable[[Wavenumber], float]):
        self._fn = fn
        self._batch: Optional[Callable[[np.ndarray], np.ndarray]] = None  # the vectorised evaluator
        self._lookup: Optional[Callable[[List[Wavenumber]], List[float]]] = None  # a table's batch of keys
        self._memo: Dict[Wavenumber, float] = {}

    @classmethod
    def from_table(cls, table: Mapping[Sequence[int], float], default: float = 0.0) -> "CoefficientOracle":
        """The coefficient at ``k`` is ``table[k]``, ``default`` off it; a batch is one pass of lookups."""
        fixed = {tuple(map(int, k)): float(c) for k, c in table.items()}
        default = float(default)
        get = fixed.get
        oracle = cls(lambda k: get(k, default))
        oracle._lookup = lambda keys: list(map(get, keys, repeat(default)))
        return oracle

    @classmethod
    def from_function(cls, fn: Callable[[Wavenumber], float]) -> "CoefficientOracle":
        return cls(fn)

    @classmethod
    def from_array(cls, dense: np.ndarray) -> "CoefficientOracle":
        """The coefficient at ``k`` is ``dense[k]`` inside the array's box, 0.0 outside it."""
        shape = dense.shape

        def one(k: Wavenumber) -> float:
            inside = len(k) == len(shape) and all(0 <= v < n for v, n in zip(k, shape))
            return float(dense[k]) if inside else 0.0

        def batch(rows: np.ndarray) -> np.ndarray:
            inside = ((rows >= 0) & (rows < shape)).all(axis=1)
            values = np.zeros(len(rows))
            values[inside] = dense[tuple(rows[inside].T)]
            return values

        oracle = cls(one)
        oracle._batch = batch
        return oracle

    @property
    def cost(self) -> int:
        """Number of distinct wavenumbers queried so far."""
        return len(self._memo)

    def query(self, wavenumber: Sequence[int]) -> float:
        return self.query_key(tuple(map(int, wavenumber)))

    def query_key(self, k: Wavenumber) -> float:
        """``query`` of a wavenumber already a tuple of Python ints, as stream entries are."""
        value = self._memo.get(k)
        if value is None:
            value = self._memo[k] = _finite_real(k, self._fn(k))
        return value

    def query_rows(self, rows: np.ndarray) -> List[Tuple[Wavenumber, float]]:
        """``(wavenumber, coefficient)`` per row of an integer array, in row order.

        Memo and cost as for ``query``: the wavenumbers not yet queried go to
        the table or the vectorised evaluator in one call, each once; without
        either, each is a ``query``.
        """
        keys = list(zip(*rows.T.tolist()))  # one tuple of ints per row
        memo = self._memo
        index = {k: i for i, k in enumerate(keys) if k not in memo}  # each new key once, with a row of it
        fresh = list(index)
        if fresh:
            if self._lookup is not None:
                values = self._lookup(fresh)
                checked = all(map(math.isfinite, values))
            elif self._batch is not None:
                array = self._batch(rows if len(fresh) == len(keys) else rows[list(index.values())])
                checked = array.dtype == np.float64 and np.isfinite(array).all()
                values = array.tolist()
            else:
                values, checked = map(self._fn, fresh), False
            if checked:
                memo.update(zip(fresh, values))
                if len(fresh) == len(keys):  # every row a new key: the values are in row order
                    return list(zip(keys, values))
            else:
                for k, value in zip(fresh, values):
                    memo[k] = _finite_real(k, value)
        return list(zip(keys, map(memo.__getitem__, keys)))


def _finite_real(k: Wavenumber, value) -> float:
    if isinstance(value, complex) or not math.isfinite(float(value)):
        raise ValueError(f"coefficient at {k} is not a finite real: {value!r}")
    return float(value)


def holder_bound(input_norm: float, weight_tail_norm: float) -> float:
    """Solution-norm bound ``input_norm * weight_tail_norm``.

    A zero input norm gives 0 even against an infinite weight norm (the zero
    function solves to zero); otherwise an infinite factor propagates.
    """
    if input_norm < 0.0 or weight_tail_norm < 0.0:
        raise ValueError("norms are nonnegative")
    if input_norm == 0.0:
        return 0.0
    return input_norm * weight_tail_norm


def tight_function(
    config: SpaceConfig,
    model: WeightModel,
    wavenumbers: Sequence[Sequence[int]],
    radius: float,
) -> CoefficientOracle:
    """Extremal coefficient table meeting the Hoelder bound with equality.

    Supported on the given wavenumbers (all of positive weight), the returned
    oracle describes a function of input norm ``radius`` whose solution norm
    equals ``radius`` times the tail_exponent-norm of the weights on that
    support.  For a finite tail exponent the mass spreads over the support in
    proportion to a power of the weights; for an infinite one it concentrates
    on a single heaviest wavenumber (lexicographically first among ties).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    support: List[Wavenumber] = []
    seen = set()
    for k in wavenumbers:
        kk = tuple(int(v) for v in k)
        if kk in seen:
            raise ValueError(f"duplicate wavenumber {kk}")
        seen.add(kk)
        support.append(kk)
    if not support:
        raise ValueError("support must not be empty")
    lams = [model.weight(k) for k in support]
    if any(lam <= 0.0 for lam in lams):
        raise ValueError("tight construction needs positive weights on the support")
    t = config.tail_exponent
    if math.isinf(t):
        peak = min((-lam, k) for k, lam in zip(support, lams))
        k_star, lam_star = peak[1], -peak[0]
        return CoefficientOracle.from_table({k_star: radius * lam_star})
    exponent = t / config.ratio_exponent  # 0 when ratio_exponent is infinite
    tail_norm = seq_norm(lams, t)
    table = {
        k: radius * lam * (lam / tail_norm) ** exponent
        for k, lam in zip(support, lams)
    }
    return CoefficientOracle.from_table(table)


def solution_operator_norm(config: SpaceConfig, model: WeightModel) -> float:
    """Sharp norm of the coefficient-identity solution operator.

    Equals the tail_exponent-norm of all weights: a lattice power sum for a
    finite tail exponent (an error if it diverges), the top stream weight for
    an infinite one.
    """
    t = config.tail_exponent
    if math.isinf(t):
        return float(WavenumberStream(model).weights(1)[0])
    power_sum = model.weight_power_sum(t)
    if math.isinf(power_sum):
        raise DivergentNormError(
            "weight power sum diverges; the solution operator is unbounded on this space"
        )
    return power_sum ** (1.0 / t)
