"""Lazy enumeration of wavenumbers by decreasing weight.

The stream walks ``N_0^d`` through a frontier heap: every wavenumber except
the origin has exactly one canonical parent (drop one from its last nonzero
coordinate), so each node is generated once and no visited set is needed.
Ties in weight break lexicographically, smallest wavenumber first.

Weights need not peak at the origin: a coordinate with ``w * s(1) > 1``
boosts its children above their parent.  Frontier nodes therefore carry a
certified bound on every descendant's weight, and any node whose bound could
still beat the pending emission is expanded first.  When no boost exceeds 1
the bound equals the weight itself and the stream degenerates to the plain
best-first walk.
"""

from __future__ import annotations

import csv
import io
from heapq import heappop, heappush
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .weights import WeightModel

__all__ = ["StreamExhausted", "WavenumberStream", "brute_force_order", "write_prefix_csv"]

Entry = Tuple[Tuple[int, ...], float]

# Slack absorbing re-rounding between a fresh canonical product and the
# parent-times-boost bound; expansion is always safe, only emission order
# is not, so the bound errs upward.
_BOUND_INFLATION = 1.0 + 1e-12


class StreamExhausted(IndexError):
    """All remaining wavenumbers carry weight zero."""


class WavenumberStream:
    """Monotone wavenumber stream over one weight model.

    Emits ``(wavenumber, weight)`` pairs with non-increasing weights and
    lexicographic tie order.  Emissions are cached, so a stream doubles as a
    replay buffer: ``entry(i)`` and ``prefix(n)`` are stable under repeated
    calls and two streams over equal models emit identical sequences.  The
    emitted weights also sit in one growable float64 array, which
    ``weights(n)`` exposes as a read-only view for vectorised consumers.
    """

    def __init__(self, model: WeightModel):
        self.model = model
        d = model.dimension
        s1 = model.head_decay()
        boost = [max(1.0, w * s1) for w in model.coordinate_weights]
        suffix = [1.0] * (d + 1)
        for index in range(d - 1, -1, -1):
            suffix[index] = boost[index] * suffix[index + 1]
        self._boost_suffix = suffix
        self._emit_heap: list = []
        self._boost_heap: list = []
        self._expanded: set = set()
        self._emitted: List[Entry] = []
        self._weights = self._readonly = np.empty(0)  # emitted weights; a read-only view
        root = (0,) * d
        self._push(root, model.weight(root), 0)

    def _push(self, k: Tuple[int, ...], lam: float, next_lnz: int) -> None:
        heappush(self._emit_heap, (-lam, k))
        bound_factor = self._boost_suffix[next_lnz]
        if bound_factor != 1.0:
            heappush(self._boost_heap, (-lam * bound_factor * _BOUND_INFLATION, k))

    def _expand(self, k: Tuple[int, ...]) -> None:
        self._expanded.add(k)
        d = self.model.dimension
        lnz = -1
        for index in range(d - 1, -1, -1):
            if k[index]:
                lnz = index
                break
        for index in range(max(lnz, 0), d):
            child = k[:index] + (k[index] + 1,) + k[index + 1 :]
            lam = self.model.weight(child)
            if lam > 0.0:
                self._push(child, lam, index + 1)

    def _advance(self) -> None:
        emit, boost = self._emit_heap, self._boost_heap
        if not emit:
            raise StreamExhausted("weight stream exhausted: remaining weights are all zero")
        # Expand every node whose descendants could still outrank the head.
        while boost and -boost[0][0] >= -emit[0][0]:
            _, k = heappop(boost)
            if k not in self._expanded:
                self._expand(k)
        neg_lam, k = heappop(emit)
        if k not in self._expanded:
            self._expand(k)
        count = len(self._emitted)
        if count == len(self._weights):
            self._weights = np.concatenate((self._weights, np.empty(max(count, 64))))
            self._readonly = self._weights.view()
            self._readonly.flags.writeable = False
        self._weights[count] = -neg_lam
        self._emitted.append((k, -neg_lam))

    @property
    def emitted_count(self) -> int:
        return len(self._emitted)

    def entry(self, index: int) -> Entry:
        """The ``index``-th emission (0-based); raises StreamExhausted past the end."""
        if index < 0:
            raise IndexError("stream entries are indexed from 0")
        while len(self._emitted) <= index:
            self._advance()
        return self._emitted[index]

    def _fill(self, count: int) -> int:
        """Emit up to ``count`` entries; returns how many exist (fewer at exhaustion)."""
        try:
            while len(self._emitted) < count:
                self._advance()
        except StreamExhausted:
            pass
        return min(count, len(self._emitted))

    def prefix(self, count: int) -> List[Entry]:
        """First ``count`` emissions; shorter if the stream exhausts first."""
        return self._emitted[: self._fill(count)]

    def weights(self, count: int) -> np.ndarray:
        """Read-only view of the first ``count`` emitted weights, like ``prefix``."""
        if count > len(self._emitted):
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


def _box_weights(model: WeightModel, degrees: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Wavenumbers (columns) of the box ``degrees[0] x ... x degrees[d-1]`` and their weights,
    multiplied in the canonical order of ``WeightModel.weight`` (1.0 on inactive axes is exact)."""
    ks = np.stack([g.ravel() for g in np.meshgrid(*map(np.asarray, degrees), indexing="ij")])
    lam = np.asarray(model.interaction_weights)[np.count_nonzero(ks, axis=0)]
    for axis, w in enumerate(model.coordinate_weights):
        factor = [1.0] + [w * model.decay.value(k) for k in range(1, int(ks.max()) + 1)]
        lam = lam * np.array(factor)[ks[axis]]
    return ks, lam


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
