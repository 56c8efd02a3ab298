"""Lazy enumeration of wavenumbers by decreasing weight.

The stream emits ``N_0^d`` in bands of weight.  A band holds every
wavenumber whose weight lies in ``[tau, floor)``, where ``floor`` is the
previous band's threshold, so the bands laid end to end are the exhaustive
order: decreasing weight, ties broken lexicographically (smallest wavenumber
first), zero weights never emitted.

A band is enumerated with numpy, one axis at a time.  A partial wavenumber
(the first axes fixed, the rest zero) is kept only while some completion can
still reach ``tau``: a later axis raises a weight at most by its boost
``max(1, w * s(1))``, so the partial weight times the later boosts bounds
every completion.  As ``s`` is non-increasing, the degrees of one axis that
keep a partial above a threshold run from 1 up to a count, which
``searchsorted`` finds on the axis's factor table ``w * s(k)``.  The
threshold is widened far beyond rounding; near underflow, where rounding is
absolute rather than relative, the degree past each run is checked on the
exact products as well.  On the last axis only the band itself is
materialised and then filtered on its exact weights.  Every weight is
multiplied in the canonical order of ``WeightModel.weight`` (``_canonical``),
so the two agree bit for bit; the box scan of ``brute_force_order`` uses the
same kernel.  Candidates come out in lexicographic order, so one stable sort
on decreasing weight gives the tie order.

Each threshold is extrapolated from the counts of the bands before it, so
that one band usually covers a request.  A band that would hold more than
twice the entries asked for is not materialised: its threshold is raised
and the band is enumerated again.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .weights import WeightModel

__all__ = ["StreamExhausted", "WavenumberStream", "brute_force_order", "write_prefix_csv"]

Entry = Tuple[Tuple[int, ...], float]

_WIDEN = 2.0 ** -40  # relative widening of a searchsorted threshold, far above rounding
_TINIEST = 5e-324  # the least positive float: a band down to it holds every positive weight
_MIN_BAND = 32  # fewest entries a refill asks for
_FIRST_RANK = 256  # most single-axis factors per axis a first threshold is ranked from
_NORMAL = 2.0 ** -900  # times the squared weight ceiling: below it rounding is checked exactly
_ALPHA = 0.5  # assumed log-log slope of the weight count before two bands measure it
_ALPHA_MIN, _ALPHA_MAX = 0.05, 8.0  # the slopes an extrapolation may use
_BUILD_CHUNK = 2 ** 14  # rows turned into tuples at a time
_COLLAPSE = 2.0 ** -30  # a threshold bracket this narrow (relative) holds a tie: take it whole


class StreamExhausted(IndexError):
    """All remaining wavenumbers carry weight zero."""


def _canonical(gammas: np.ndarray, columns: Sequence[np.ndarray], tables: Sequence[np.ndarray]) -> np.ndarray:
    """``gammas * tables[0][k_1] * tables[1][k_2] * ...`` in the canonical order of
    ``WeightModel.weight``; ``tables[l][k] = w[l] * s(k)`` with ``tables[l][0] = 1.0``,
    and multiplying by 1.0 on an inactive axis is exact."""
    lam = gammas
    for k, table in zip(columns, tables):
        lam = lam * table[k]
    return lam


def _factors(model: WeightModel, axis: int, lo: int, hi: int) -> List[float]:
    """Factors ``w[axis] * s(k)`` for ``lo <= k < hi``, as ``WeightModel.weight`` forms them."""
    w, decay = model.coordinate_weights[axis], model.decay
    return [w * decay.value(k) for k in range(lo, hi)]


def _log_mid(lo: float, hi: float) -> float:
    return math.exp(0.5 * (math.log(lo) + math.log(hi)))


class WavenumberStream:
    """Monotone wavenumber stream over one weight model.

    Emits ``(wavenumber, weight)`` pairs with non-increasing weights and
    lexicographic tie order.  Emissions are cached, so a stream doubles as a
    replay buffer: ``entry(i)`` and ``prefix(n)`` are stable under repeated
    calls and two streams over equal models emit identical sequences.  The
    enumerated weights sit in one growable float64 array, which
    ``weights(n)`` exposes as a read-only view, and the wavenumbers in an
    int32 array; ``(wavenumber, weight)`` tuples are built only when
    ``entry`` or ``prefix`` asks for them.  Enumeration runs ahead of the
    requests by whole bands; ``emitted_count`` counts the entries served,
    the most that any one request has asked for.
    """

    def __init__(self, model: WeightModel):
        self.model = model
        d = model.dimension
        s1 = model.head_decay()
        boost = [max(1.0, w * s1) for w in model.coordinate_weights]
        # boosts of the axes after each axis, and their product for threshold estimates
        self._boosts = [tuple(b for b in boost[axis + 1 :] if b != 1.0) for axis in range(d)]
        self._reach = [math.prod(boost[axis + 1 :]) for axis in range(d)]
        self._ceiling = 2.0 * math.prod(boost)  # above every weight, as gamma <= 1
        self._gamma = np.asarray(model.interaction_weights)
        self._tables = [np.ones(1) for _ in range(d)]  # 1.0, then the positive factors w * s(k)
        self._negated = [np.empty(0) for _ in range(d)]  # -table[1:], ascending for searchsorted
        self._complete = [False] * d  # the table holds every positive factor of its axis
        self._floor = math.inf  # every wavenumber weighing at least this is enumerated
        self._bands: List[Tuple[float, int]] = []  # (floor, entries enumerated) after each band
        self._count = 0  # entries enumerated
        self._served = 0  # entries served
        self._exhausted = False
        self._weights = self._readonly = np.empty(0)  # enumerated weights; a read-only view
        self._rows = np.empty((0, d), np.int32)  # enumerated wavenumbers
        self._entries: List[Entry] = []  # tuples built so far

    @property
    def emitted_count(self) -> int:
        return self._served

    def entry(self, index: int) -> Entry:
        """The ``index``-th emission (0-based); raises StreamExhausted past the end."""
        if index >= self._served or index < 0:
            if index < 0:
                raise IndexError("stream entries are indexed from 0")
            if self._fill(index + 1) <= index:
                raise StreamExhausted("weight stream exhausted: remaining weights are all zero")
        if index >= len(self._entries):
            self._build(min(self._count, max(index + 1, 2 * len(self._entries), _MIN_BAND)))
        return self._entries[index]

    def prefix(self, count: int) -> List[Entry]:
        """First ``count`` emissions; shorter if the stream exhausts first."""
        count = self._fill(count)
        if count > len(self._entries):
            self._build(count)
        return self._entries[:count]

    def weights(self, count: int) -> np.ndarray:
        """Read-only view of the first ``count`` emitted weights, like ``prefix``."""
        if count > self._served:
            count = self._fill(count)  # may reallocate the buffer, so fill before slicing
        return self._readonly[:count]

    def __iter__(self) -> Iterator[Entry]:
        index = 0
        while True:
            try:
                yield self.entry(index)
            except StreamExhausted:
                return
            index += 1

    def _build(self, count: int) -> None:
        for start in range(len(self._entries), count, _BUILD_CHUNK):  # bounds the temporary lists
            stop = min(start + _BUILD_CHUNK, count)
            self._entries.extend(
                zip(map(tuple, self._rows[start:stop].tolist()), self._weights[start:stop].tolist())
            )

    def _fill(self, count: int) -> int:
        """Serve up to ``count`` entries; returns how many exist (fewer at exhaustion)."""
        goal = max(count, 2 * self._count, _MIN_BAND)  # geometric growth across requests
        while self._count < count and not self._exhausted:
            self._next_band(goal)
        count = min(count, self._count)
        if count > self._served:
            self._served = count
        return count

    def _next_band(self, target: int) -> None:
        """Enumerate the next band, aiming at ``target`` entries in all."""
        hi = self._floor
        limit: Optional[int] = 2 * (target - self._count) + 1024
        band = None
        if all(self._complete):  # finite support: perhaps all the rest fits in one band
            tau = _TINIEST
            band = self._scan(tau, hi, limit)
        if band is None:
            tau = self._estimate(target + (target - self._count) // 4)  # aim past: a top-up costs a scan
            over, up = None, min(hi, self._ceiling)  # thresholds known too full, and empty
            while True:
                band = self._scan(tau, hi, limit)
                if band is None:
                    over = tau
                elif len(band[1]) or over is None or limit is None:
                    break
                else:
                    up = tau
                tau = _log_mid(over, up)
                if not over < tau < up * (1.0 - _COLLAPSE):  # nothing between: a tie, take it whole
                    tau, limit = over, None
        rows, lam = band
        self._append(rows, lam)
        self._floor = tau
        self._bands.append((tau, self._count))
        self._exhausted = tau <= _TINIEST

    def _estimate(self, target: int) -> float:
        """Threshold below the floor whose weight count should reach ``target``."""
        count = self._count
        if not count:
            # no count yet: rank the single-axis wavenumbers; past _FIRST_RANK per
            # axis the wavenumbers with several axes active dominate the count, so
            # the threshold then ranks no deeper than that
            d = self.model.dimension
            per = -(-(target - 1) // d)
            rank = target - 2
            if per > _FIRST_RANK and d > 1:
                per = rank = _FIRST_RANK
            ranked = []
            for axis in range(d):
                ranked.extend(self._cover(axis, per + 1)[1 : per + 1].tolist())
            if not ranked:
                return _TINIEST
            ranked.sort(reverse=True)
            return self.model.interaction_weights[1] * ranked[min(rank, len(ranked) - 1)]
        floor = self._floor
        alpha = _ALPHA
        fewer = [(f, c) for f, c in self._bands if c < count]
        if fewer:
            above, below = fewer[-1]
            alpha = min(max(math.log(count / below) / math.log(above / floor), _ALPHA_MIN), _ALPHA_MAX)
        return max(floor * (target / count) ** (-1.0 / alpha), _TINIEST)

    def _cover(self, axis: int, length: int, threshold: float = math.inf, cap: Optional[int] = None):
        """Grow the axis's factor table to ``length`` entries or more, the last below
        ``threshold``, or to its last positive factor; None if that takes over ``cap`` factors."""
        table = self._tables[axis]
        start = len(table)
        while not (self._complete[axis] or (len(table) >= max(length, 2) and table[-1] < threshold)):
            if cap is not None and len(table) - start > cap:
                return None
            k = len(table)
            grown = np.array(_factors(self.model, axis, k, k + max(length - k, k // 4, 16)))
            if not grown[-1] > 0.0:  # s is non-increasing: past its first zero every factor is zero
                grown = grown[: (grown > 0.0).argmin()]
                self._complete[axis] = True
            table = self._tables[axis] = np.concatenate((table, grown))
            self._negated[axis] = -table[1:]
        return table

    def _run_end(self, axis: int, base: np.ndarray, count: np.ndarray, tau: float) -> np.ndarray:
        """Raise each count while the next degree's bound still reaches ``tau``."""
        boosts = self._boosts[axis]
        while True:
            table = self._tables[axis]
            nxt = np.minimum(count + 1, len(table) - 1)
            bound = base * table[nxt]
            for b in boosts:
                bound = bound * b
            reach = bound >= tau
            more = reach & (count < nxt)
            if more.any():
                count = count + more
            elif self._complete[axis] or not (reach & (count == nxt)).any():
                return count
            else:  # a run reaches the end of the table: the next degree decides
                self._cover(axis, 2 * len(table))

    def _scan(self, tau: float, hi: float, limit: Optional[int]):
        """Every wavenumber weighing within ``[tau, hi)``, in stream order, as int32 rows and
        weights; None when that takes more than ``limit`` candidates (no limit if None)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._scan_unguarded(tau, hi, limit)

    def _scan_unguarded(self, tau, hi, limit):
        d = self.model.dimension
        gamma = self._gamma
        # Above this every product that can reach tau is a normal float, so rounding moves
        # it far less than _WIDEN and the widened estimates need no check.
        normal = tau >= _NORMAL * self._ceiling ** 2
        columns: List[np.ndarray] = []
        active = np.zeros(1, np.intp)
        g = np.ones(1)  # canonical weight of each partial wavenumber, later axes zero
        for axis in range(d):
            last = axis == d - 1
            h = _canonical(gamma[active + 1], columns, self._tables)  # prefix once the axis activates
            # -(tau / bound), widened: degrees 1..top may keep a partial above tau
            lowered = (tau * (_WIDEN - 1.0)) / (h * self._reach[axis])
            table = self._cover(axis, 2, -float(lowered.max()), limit)
            if table is None:
                return None
            negated = self._negated[axis]
            top = negated.searchsorted(lowered, "right")
            if not normal:
                top = self._run_end(axis, h, top, tau)
            bound = g
            for b in self._boosts[axis]:
                bound = bound * b
            zero = bound >= tau  # the axis left at degree 0
            bottom = 0
            if last and hi < math.inf:
                # degrees 1..bottom weigh at least hi: enumerated in an earlier band
                zero &= g < hi
                bottom = negated.searchsorted((hi * (-1.0 - _WIDEN)) / h, "right")
                while not normal:
                    short = (bottom > 0) & (h * table[bottom] < hi)
                    if not short.any():
                        break
                    bottom = bottom - short
            counts = zero + (top - bottom)
            ends = np.add.accumulate(counts)
            total = int(ends[-1])
            # a partial weighing tau or more is itself a wavenumber of weight tau or more:
            # partials far beyond the entries that weigh that much mean tau is too low
            if limit is not None and total > (limit if last else 4 * (self._count + limit)):
                return None
            if not total:
                return np.empty((0, d), np.int32), np.empty(0)
            starts = ends - counts
            parent = np.arange(len(counts)).repeat(counts)
            # each partial's degrees: 0 if it may stay inactive, then bottom+1..top
            k = np.arange(total) - (starts - (bottom + 1 - zero)).repeat(counts)
            firsts = starts[zero]
            k[firsts] = 0
            lam = h[parent] * table[k]
            lam[firsts] = g[zero]
            columns = [c[parent] for c in columns] + [k]
            if last:
                keep = (lam >= tau) & (lam < hi)
                lam = lam[keep]
                order = (-lam).argsort(kind="stable")  # candidates are in lexicographic order
                rows = np.empty((len(lam), d), np.int32)
                for index, c in enumerate(columns):
                    rows[:, index] = c[keep][order]
                return rows, lam[order]
            active = active[parent] + 1
            active[firsts] -= 1
            g = lam
        raise AssertionError("unreachable")

    def _append(self, rows: np.ndarray, lam: np.ndarray) -> None:
        count, new = self._count, len(lam)
        if count + new > len(self._weights):
            size = max(count + new, 2 * len(self._weights), _MIN_BAND)
            weights = np.empty(size)
            weights[:count] = self._weights[:count]
            grown = np.empty((size, self.model.dimension), np.int32)
            grown[:count] = self._rows[:count]
            self._weights, self._rows = weights, grown
            self._readonly = weights.view()
            self._readonly.flags.writeable = False
        self._weights[count : count + new] = lam
        self._rows[count : count + new] = rows
        self._count = count + new


def _box_weights(model: WeightModel, degrees: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Wavenumbers (columns) of the box ``degrees[0] x ... x degrees[d-1]`` and their weights,
    multiplied in the canonical order of ``WeightModel.weight``."""
    ks = np.stack([g.ravel() for g in np.meshgrid(*map(np.asarray, degrees), indexing="ij")])
    top = int(ks.max()) + 1
    tables = [np.array([1.0] + _factors(model, axis, 1, top)) for axis in range(model.dimension)]
    gammas = np.asarray(model.interaction_weights)[np.count_nonzero(ks, axis=0)]
    return ks, _canonical(gammas, ks, tables)


def brute_force_order(model: WeightModel, box_cap: int, count: int) -> List[Entry]:
    """Reference ordering from an exhaustive box scan.

    Sorts all wavenumbers in ``{0..box_cap}^d`` by decreasing weight with
    lexicographic ties and returns the first ``count``.  The prefix is
    certified against the rest of the lattice: every point outside the box
    is dominated by a point of the first excluded shell (one component at
    ``box_cap + 1``, the rest clipped into the box, preserving the zero
    pattern), so the cut is sound when the ``count``-th weight strictly
    exceeds the largest shell weight (otherwise this raises, asking for a
    larger box).  Intended as an oracle for the stream at small dimensions;
    cost grows like ``box_cap**d``.
    """
    if box_cap < 1:
        raise ValueError("box cap must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    d = model.dimension
    inside = range(box_cap + 1)
    ks, lam = _box_weights(model, [inside] * d)
    ks, lam = ks[:, lam > 0.0], lam[lam > 0.0]
    faces = [[[box_cap + 1] if other == axis else inside for other in range(d)] for axis in range(d)]
    shell_max = max(float(_box_weights(model, face)[1].max()) for face in faces)
    # stable sort: decreasing weight first, then k_1, ..., k_d ascending
    order = np.lexsort(tuple(ks[::-1]) + (-lam,))[:count]
    entries = list(zip(map(tuple, ks[:, order].T.tolist()), lam[order].tolist()))
    if len(entries) < count:
        if shell_max == 0.0:
            return entries
        raise ValueError("box too small: fewer positive weights than requested")
    if entries[count - 1][1] <= shell_max:
        raise ValueError(
            f"box too small to certify {count} entries: cut weight "
            f"{entries[count - 1][1]!r} does not dominate shell weight {shell_max!r}"
        )
    return entries


def write_prefix_csv(model: WeightModel, count: int, target) -> int:
    """Write the first ``count`` stream rows as CSV ``k_1..k_d,lambda``.

    ``target`` is a writable text file or a path.  Returns the number of
    rows written (fewer than ``count`` when the stream exhausts).
    """
    stream = WavenumberStream(model)
    rows = stream.prefix(count)
    header = [f"k_{i}" for i in range(1, model.dimension + 1)] + ["lambda"]
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        handle: io.TextIOBase = open(target, "w", newline="")
        own = True
    else:
        handle, own = target, False
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for k, lam in rows:
            writer.writerow([*k, repr(lam)])
    finally:
        if own:
            handle.close()
    return len(rows)
