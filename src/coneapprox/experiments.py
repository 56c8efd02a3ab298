"""Chebyshev evaluation and the randomized experiment harness.

Test functions are random series with product weights: a keyed hash drives
both a permutation that shuffles coordinate importance and the signed
magnitudes of the coefficients, so every function is reproducible from
``(dimension, seed)`` alone, across platforms and process boundaries.  The
smoothness table is cut off at degree four, which keeps each function an
exactly representable polynomial whose coefficients fill the box
``{0..4}^d``: residual norms and grids of residual values are computed from
that dense coefficient array with no truncation error.

The harness runs the probe-and-infer pipeline per ``(dimension, tolerance,
seed)`` cell, measures true errors against the certified tolerance, and
emits CSV and JSON-lines rows in deterministic order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .approximation import ApproxOutcome, DEFAULT_BUDGET_CAP
from .enumeration import _box_weights
from .inference import CandidateSets, approximate_with_inferred_weights
from .spaces import CoefficientOracle, SpaceConfig
from .weights import TableDecay, WeightModel

__all__ = [
    "RandomSeriesFunction",
    "make_random_function",
    "EvaluationGrid",
    "chebyshev_eval",
    "grid_sup",
    "ExperimentConfig",
    "ExperimentRow",
    "run_experiment",
    "write_csv",
    "write_jsonl",
    "CSV_HEADER",
]

Wavenumber = Tuple[int, ...]

_SMOOTHNESS_TABLE = (1.0, 1.0 / 16.0, 1.0 / 81.0, 1.0 / 256.0)
_TENSOR_LIMIT = 4


def _keyed_hash(seed: int):
    """The seed's keyed 64-bit blake2b, fed no message yet."""
    return hashlib.blake2b(digest_size=8, key=_seed_key(seed))


def _unit_hash(seed: int, message: bytes) -> float:
    """Deterministic uniform draw in [0, 1) from the seed's keyed 64-bit hash."""
    h = _keyed_hash(seed)
    h.update(message)
    return int.from_bytes(h.digest(), "big") / 2.0 ** 64


def _coef_message(digits: Iterable[str]) -> bytes:
    """The hashed message of the coefficient whose wavenumber entries are ``digits``."""
    return ("coef:" + ",".join(digits)).encode()


@dataclass(frozen=True)
class RandomSeriesFunction:
    """Random polynomial with shuffled product weights and signed noise.

    ``model`` holds the generating weights; the coefficient at ``k`` is that
    weight times a uniform sign-and-magnitude draw in [-1, 1).  Weights are
    ``1 / rank**2`` with ranks given by a seeded permutation, and smoothness
    ``1 / degree**4`` up to degree four, zero beyond.
    """

    dimension: int
    seed: int
    permutation: tuple
    model: WeightModel = field(compare=False)

    def noise(self, k: Wavenumber) -> float:
        return 2.0 * _unit_hash(self.seed, _coef_message(map(str, k))) - 1.0

    def coefficient(self, k: Wavenumber) -> float:
        lam = self.model.weight(k)
        return self.noise(k) * lam if lam != 0.0 else 0.0

    def oracle(self) -> CoefficientOracle:
        """Hashes each coefficient when first queried, so it serves any dimension.

        ``CoefficientOracle.from_array(self.support())`` serves the same
        values from the box, where the box fits in memory.
        """
        return CoefficientOracle.from_function(self.coefficient)

    def support(self) -> np.ndarray:
        """Coefficients on the box ``{0..4}^d``, indexed by wavenumber; every other one is 0."""
        side = len(self.model.decay.values) + 1  # the table truncates past its end
        _, lam = _box_weights(self.model, [range(side)] * self.dimension)
        # the same messages and hash as ``noise``, in the box's C order, converted in one pass
        table = _message_table if side ** self.dimension <= _MESSAGE_TABLE_LIMIT else _message_table.__wrapped__
        copy, digests = _keyed_hash(self.seed).copy, []
        append = digests.append
        for message in table(side, self.dimension):
            h = copy()
            h.update(message)
            append(h.digest())
        u = np.frombuffer(b"".join(digests), ">u8").astype(np.float64) / 2.0 ** 64
        noise = 2.0 * u - 1.0
        return (noise * lam).reshape((side,) * self.dimension)


@functools.lru_cache(maxsize=64)
def _seed_key(seed: int) -> bytes:
    return hashlib.blake2b(f"series-seed:{seed}".encode(), digest_size=16).digest()


# boxes up to the harness's d=7 keep their messages (about 5 MB there); a d=10 box would pin ~600 MB
_MESSAGE_TABLE_LIMIT = 5 ** 7


@functools.lru_cache(maxsize=8)
def _message_table(side: int, dimension: int) -> Tuple[bytes, ...]:
    """``_coef_message`` of every wavenumber of the box ``{0..side-1}^dimension``, in C order.

    The messages do not depend on the seed, so every function of the box's
    shape hashes the same table under its own key.
    """
    digits = [str(i) for i in range(side)]
    return tuple(map(_coef_message, itertools.product(digits, repeat=dimension)))


def make_random_function(dimension: int, seed: int) -> RandomSeriesFunction:
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    ranks = list(range(1, dimension + 1))
    for i in range(dimension - 1, 0, -1):
        j = int(_unit_hash(seed, f"perm:{i}".encode()) * (i + 1))
        ranks[i], ranks[j] = ranks[j], ranks[i]
    weights = tuple(1.0 / r ** 2 for r in ranks)
    model = WeightModel(
        dimension=dimension,
        coordinate_weights=weights,
        decay=TableDecay(_SMOOTHNESS_TABLE, 0.0),
    )
    return RandomSeriesFunction(dimension, seed, tuple(ranks), model)


def chebyshev_eval(terms: Iterable[Tuple[Wavenumber, float]], x: Sequence[float]) -> float:
    """Evaluate sum of coef * prod_l T_{k_l}(x_l) at one point in [-1, 1]^d."""
    point = [float(v) for v in x]
    if any(abs(v) > 1.0 for v in point):
        raise ValueError("evaluation point must lie in [-1, 1]^d")
    thetas = [math.acos(v) for v in point]
    total = 0.0
    for k, coef in terms:
        value = float(coef)
        for axis, degree in enumerate(k):
            if degree:
                value *= math.cos(degree * thetas[axis])
        total += value
    return total


def _first_primes(count: int) -> List[int]:
    primes: List[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def _radical_inverses(base: int, count: int) -> np.ndarray:
    """Van der Corput radical inverses of the indices ``1..count`` in ``base``."""
    index = np.arange(1, count + 1)
    inv, scale = np.zeros(count), 1.0 / base
    while index.any():
        inv += scale * (index % base)  # finished indices add an exact zero
        index //= base
        scale /= base
    return inv


class EvaluationGrid:
    """Point set in [-1, 1]^d for residual evaluation.

    Tensor grids keep only the per-axis Chebyshev-extrema angles and exploit
    the product structure; scatter grids hold low-discrepancy points
    explicitly.  ``for_dimension`` picks tensor up to ``_TENSOR_LIMIT`` axes
    and scatter beyond, where a tensor grid would be astronomically large.
    """

    def __init__(self, dimension: int, kind: str, axis_angles=None, points=None):
        if kind not in ("tensor", "scatter"):
            raise ValueError("grid kind must be tensor or scatter")
        self.dimension = dimension
        self.kind = kind
        self.axis_angles = axis_angles
        self.points = points

    @classmethod
    def tensor(cls, dimension: int, axis_points: int = 33) -> "EvaluationGrid":
        if axis_points < 2:
            raise ValueError("tensor grid needs at least two points per axis")
        angles = np.pi * np.arange(axis_points) / (axis_points - 1)
        return cls(dimension, "tensor", axis_angles=angles)

    @classmethod
    def scatter(cls, dimension: int, count: int = 2 ** 14) -> "EvaluationGrid":
        if count < 1:
            raise ValueError("scatter grid needs at least one point")
        bases = _first_primes(dimension)
        pts = np.empty((count, dimension))
        for axis, base in enumerate(bases):
            pts[:, axis] = 2.0 * _radical_inverses(base, count) - 1.0
        return cls(dimension, "scatter", points=pts)

    @classmethod
    def for_dimension(
        cls, dimension: int, axis_points: int = 33, scatter_count: int = 2 ** 14
    ) -> "EvaluationGrid":
        if dimension <= _TENSOR_LIMIT:
            return cls.tensor(dimension, axis_points)
        return cls.scatter(dimension, scatter_count)

    @property
    def count(self) -> int:
        if self.kind == "tensor":
            return len(self.axis_angles) ** self.dimension
        return self.points.shape[0]


def grid_sup(coefficients: np.ndarray, grid: EvaluationGrid) -> float:
    """Max absolute value over the grid of the series whose coefficient at ``k`` is ``coefficients[k]``.

    The series is finite and evaluated exactly, so the only slack is the
    grid resolution itself; the result never exceeds the true sup norm.
    Non-finite coefficients raise ``ValueError`` on both grid kinds.

    On a tensor grid the series is contracted axis by axis over the whole
    product grid.  On a scatter grid a BLAS screen (``_screen``) first marks
    the points where the maximum may lie, and only those are evaluated
    exactly, by ``_chunk_sup`` in blocks of ``_chunk_size`` points.  That
    kernel gives each point the same value however many points it evaluates
    together, so the result is bitwise the maximum of ``_chunk_sup`` over
    every chunk of the grid, whatever the number of BLAS threads.
    """
    if not np.isfinite(coefficients).all():
        raise ValueError("coefficients must be finite")
    if not coefficients.any():
        return 0.0
    # trimmed to the nonzero extent, so the contraction below sees the smallest shapes
    extent = [int(i.max()) + 1 for i in np.nonzero(coefficients)]
    dense = np.ascontiguousarray(coefficients[tuple(map(slice, extent))])
    if dense.size > 2 ** 24:
        raise ValueError("nonzero coefficients span too broad a lattice for dense evaluation")
    if grid.kind == "tensor":
        tables = [
            np.cos(np.outer(np.arange(n), grid.axis_angles)) for n in dense.shape
        ]
        values = dense
        for table in tables:
            values = np.tensordot(values, table, axes=([0], [0]))
        return _abs_max(values)
    tables = _scatter_tables(dense.shape, grid.points)
    candidates = np.flatnonzero(_screen(dense, tables))
    tables = [table[:, candidates] for table in tables]
    chunk = _chunk_size(dense, candidates.size)
    return max(
        _chunk_sup(dense, tables, start, min(start + chunk, candidates.size))
        for start in range(0, candidates.size, chunk)
    )


def _abs_max(values: np.ndarray) -> float:
    """``max(abs(values))`` without the temporary array of absolute values."""
    return abs(float(max(values.max(), -values.min())))  # abs: a -0.0 maximum reads 0.0


def _scatter_tables(shape: Sequence[int], points: np.ndarray) -> List[np.ndarray]:
    """Per axis, ``T_k(x)`` for the degrees ``k < shape[axis]`` (rows) at every point (columns)."""
    thetas = np.arccos(np.clip(points, -1.0, 1.0))
    return [np.cos(np.outer(np.arange(n), thetas[:, axis])) for axis, n in enumerate(shape)]


def _chunk_size(dense: np.ndarray, total: int) -> int:
    """Points per chunk of the sweep: its widest intermediate stays near ``2**22`` doubles."""
    trailing = dense.size // dense.shape[0]
    return max(16, min(total, 2 ** 22 // max(1, trailing)))


def _chunk_sup(dense: np.ndarray, tables: Sequence[np.ndarray], start: int, stop: int) -> float:
    """Max absolute series value over the points (table columns) ``start:stop``.

    The value at each point is ``_contract``'s, which does not depend on the
    other points evaluated with it: a point's value is bitwise the same in a
    chunk of any size, at any BLAS thread count.
    """
    return _abs_max(_contract(dense.reshape(-1, 1), [table[:, start:stop] for table in tables]))


# doubles per product term that ``_contract`` holds besides its results
_TERM_SIZE = 2 ** 16


def _contract(values: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """The series at each point (table column), contracting the leading axes of ``values`` one at a time.

    ``values`` has one row per wavenumber of the tables' axes, in C order,
    and one column per point, or a single column that every point shares.
    Each axis adds its degrees' terms in ascending order with elementwise
    products and sums, no ``einsum`` and no BLAS, so each point's value is
    the same sequence of IEEE operations however many points are
    contracted together.  Terms are formed about ``_TERM_SIZE`` doubles at
    a time, so besides that buffer the widest intermediates are the results
    of two consecutive axes.
    """
    count = tables[0].shape[1]
    rows = max(1, _TERM_SIZE // count)
    term = np.empty((min(rows, len(values) // len(tables[0])), count))
    for table in tables:
        terms = values.reshape(len(table), -1, values.shape[1])
        values = np.empty((terms.shape[1], count))
        for lo in range(0, len(values), rows):
            out = values[lo : lo + rows]
            part = term[: len(out)]
            np.multiply(terms[0, lo : lo + rows], table[0], out=out)
            for degree in range(1, len(table)):
                np.multiply(terms[degree, lo : lo + rows], table[degree], out=part)
                out += part
    return values.reshape(-1)


def _screen(dense: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the points where ``_chunk_sup``'s sweep may attain its maximum.

    The axes split into two groups, and per block of points one BLAS
    product ``C^T TA`` contracts the first group, with ``C`` the
    coefficients as a matrix and ``TA`` the first group's product table;
    ``_contract`` then contracts the second group axis by axis.  This value
    ``w`` and the sweep's ``v`` are floating-point sums of the same
    ``dense.size`` products of ``d + 1`` factors, each table entry at most 1
    in magnitude, so each lies within ``gamma_m * sum|c|`` of the exact sum
    (``m = dense.size + d``): ``|w - v| <= e = 2 gamma_m sum|c|``, plus an
    allowance for the at most ``d * m`` products per value that may
    underflow, by ``2**-1075`` each at a sensitivity of at most ``max(1,
    sum|c|)``.  The sweep's maximiser ``p`` then has ``|w(p)| >= max|w| -
    2e``; the threshold keeps a margin of ``4e`` so that its own rounding
    cannot exclude ``p``.  The BLAS result may change with the thread count,
    but the bound holds for every summation order.
    """
    total = tables[0].shape[1]
    scale = float(np.abs(dense).sum())
    if not math.isfinite(2.0 * scale):  # overflow voids the bound
        return np.ones(total, dtype=bool)
    split = dense.ndim // 2
    matrix = dense.reshape(math.prod(dense.shape[:split]), -1).T
    block = max(1, 2 ** 22 // (matrix.shape[1] + 2 * matrix.shape[0]))
    w = np.empty(total)
    for start in range(0, total, block):
        part = [table[:, start : start + block] for table in tables]
        ta = _product_table(part[:split], part[0].shape[1])
        w[start : start + block] = _contract(matrix @ ta, part[split:])
    m = dense.size + dense.ndim
    gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
    e = 2.0 * gamma * scale + dense.ndim * m * (1.0 + scale) * 2.0 ** -1074
    magnitude = np.abs(w)
    return magnitude >= float(np.max(magnitude)) - 4.0 * e


def _product_table(tables: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Rows ``prod_l tables[l][k_l]`` at ``count`` points, one per wavenumber ``k`` in C order."""
    product = np.ones((1, count))
    for table in tables:
        product = (product[:, None, :] * table[None, :, :]).reshape(-1, count)
    return product


@dataclass(frozen=True)
class ExperimentRow:
    d: int
    eps: float
    seed: int
    n_used: int
    sup_error: float
    ratio: float
    g_norm_error: float
    inferred_r: float
    status: str
    wall_ms: int
    cone_violated: bool = False  # observed data falsified the fitted cone; voids the bound

    def to_csv(self) -> str:
        return ",".join(map(str, astuple(self)))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


@dataclass(frozen=True)
class ExperimentConfig:
    """One harness invocation: the cross product of cells below."""

    dimensions: tuple
    tolerances: tuple
    seeds: tuple
    inflation: float = 1.1
    axis_degree_cap: int = 4
    budget_cap: int = DEFAULT_BUDGET_CAP
    axis_points: int = 33
    scatter_count: int = 2 ** 14
    timing: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(int(d) for d in self.dimensions))
        object.__setattr__(self, "tolerances", tuple(float(t) for t in self.tolerances))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.dimensions or not self.tolerances or not self.seeds:
            raise ValueError("dimensions, tolerances, and seeds must all be nonempty")
        if any(d < 1 for d in self.dimensions) or any(t <= 0 for t in self.tolerances):
            raise ValueError("dimensions must be positive and tolerances > 0")
        if self.inflation <= 1.0:
            raise ValueError("inflation must exceed 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        body = dict(data)
        seeds = body.get("seeds", 20)
        if isinstance(seeds, int):
            body["seeds"] = tuple(range(seeds))
        return cls(**body)


def _run_cell(config: ExperimentConfig, cell: Tuple[int, float, int], residual: np.ndarray) -> ExperimentRow:
    """One cell on its function's box, which serves the oracle and then, sampled entries zeroed, the residual."""
    d, eps, seed = cell
    started = time.perf_counter() if config.timing else 0.0
    try:
        oracle = CoefficientOracle.from_array(residual)
        space = SpaceConfig(math.inf, 1.0)
        # Candidate rates are trimmed to spaces with finite tail norms; a
        # rate at or below 1/tail_exponent could never certify anything.
        full = CandidateSets.default(axis_degree_cap=config.axis_degree_cap)
        rates = tuple(r for r in full.rate_grid if r * space.tail_exponent > 1.0)
        outcome = approximate_with_inferred_weights(
            oracle,
            d,
            CandidateSets(full.coordinate_grid, rates, config.axis_degree_cap),
            space,
            inflation=config.inflation,
            tolerance=eps,
            budget_cap=config.budget_cap,
        )
        sampled = np.fromiter(itertools.chain.from_iterable(k for k, _ in outcome.terms), np.intp).reshape(-1, d)
        # the oracle read these very entries; beyond the box every coefficient is 0
        residual[tuple(sampled[(sampled < residual.shape).all(axis=1)].T)] = 0.0
        g_norm = math.fsum(np.abs(residual).ravel().tolist())  # Python floats sum faster than numpy scalars
        grid = EvaluationGrid.for_dimension(d, config.axis_points, config.scatter_count)
        sup = grid_sup(residual, grid)
        measured = dict(
            n_used=outcome.n_used,
            sup_error=sup,
            ratio=sup / eps,
            g_norm_error=g_norm,
            inferred_r=float(outcome.inferred["r"]),
            status=outcome.stopped_by,
            cone_violated=outcome.cone_violated,
        )
    except Exception as exc:  # noqa: BLE001 - a bad cell must not sink the run
        measured = _failure(exc)
    wall = int(round((time.perf_counter() - started) * 1000.0)) if config.timing else 0
    return ExperimentRow(d=d, eps=eps, seed=seed, wall_ms=wall, **measured)


def _failure(exc: Exception) -> dict:
    """The measured fields of a cell that raised ``exc``."""
    return dict(
        n_used=0,
        sup_error=math.nan,
        ratio=math.nan,
        g_norm_error=math.nan,
        inferred_r=math.nan,
        status=f"failed:{type(exc).__name__}",
    )


def _run_function(config: ExperimentConfig, function: Tuple[int, int]) -> List[ExperimentRow]:
    """The cells of function ``(d, seed)``, one per tolerance, on one build of its box."""
    d, seed = function
    try:
        box = make_random_function(d, seed).support()
    except Exception as exc:  # noqa: BLE001 - a bad cell must not sink the run
        return [ExperimentRow(d=d, eps=eps, seed=seed, wall_ms=0, **_failure(exc)) for eps in config.tolerances]
    # each cell zeroes its sampled entries, so each gets its own copy
    return [_run_cell(config, (d, eps, seed), box.copy()) for eps in config.tolerances]


def run_experiment(config: ExperimentConfig) -> List[ExperimentRow]:
    """All cells in deterministic (dimension, tolerance, seed) order."""
    functions = list(itertools.product(config.dimensions, config.seeds))
    run_function = functools.partial(_run_function, config)
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            done = list(pool.map(run_function, functions))
    else:
        done = [run_function(function) for function in functions]
    # done[i * len(seeds) + j][t] is cell (dimensions[i], tolerances[t], seeds[j])
    seeds = len(config.seeds)
    order = itertools.product(range(len(config.dimensions)), range(len(config.tolerances)), range(seeds))
    return [done[i * seeds + j][t] for i, t, j in order]


def write_csv(rows: Sequence[ExperimentRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for row in rows:
            handle.write(row.to_csv() + "\n")


def write_jsonl(rows: Sequence[ExperimentRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(row.to_json() + "\n")
