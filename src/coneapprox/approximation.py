"""Adaptive series truncation with certified error bounds.

Three stopping rules share one engine.  The ball rule serves inputs of known
norm radius: it cuts the stream where the weight tail norm clears the
tolerance, without looking at a single coefficient.  The pilot rule serves a
cone of inputs whose norm is dominated by an inflated pilot-segment norm: it
grows the truncation one wavenumber at a time, re-certifying against what it
has seen.  The tracking rule serves a cone whose successive block norms decay
geometrically: it grows block by block, certifying against the observed block
and the decaying weight of everything ahead.

Every algorithm returns an ApproxOutcome carrying the sampled terms, the
distinct-query cost, the terminal bound, why it stopped, and whether the
observed data already falsified cone membership (recorded, never fatal;
a falsified cone voids the bound).  Alongside the algorithms sit their
a-priori cost bounds, information-complexity lower bounds, and the
optimality factors tying the two together.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .enumeration import WavenumberStream
from .spaces import CoefficientOracle, DivergentNormError, SpaceConfig, seq_norm
from .weights import WeightModel

__all__ = [
    "TOLERANCE_MET",
    "BUDGET_EXHAUSTED",
    "DEFAULT_BUDGET_CAP",
    "ApproxOutcome",
    "PilotConeSpec",
    "TrackingConeSpec",
    "RegularityConstants",
    "RegularityReport",
    "prefix_approximation",
    "tail_weight_norm",
    "approximate_on_ball",
    "ball_cost_bound",
    "pilot_error_bound",
    "approximate_on_pilot_cone",
    "pilot_cost_bound",
    "pilot_complexity_lower",
    "pilot_necessary_check",
    "pilot_optimality_factor",
    "block_ratio_norm",
    "block_weight_norm",
    "tracking_tail_norm",
    "tracking_error_bound",
    "approximate_on_tracking_cone",
    "tracking_cost_bound",
    "tracking_complexity_lower",
    "tracking_necessary_check",
    "tracking_pilot_inflation",
    "tracking_optimality_factor",
    "verify_regularity",
]

TOLERANCE_MET = "ToleranceMet"
BUDGET_EXHAUSTED = "BudgetExhausted"
DEFAULT_BUDGET_CAP = 10 ** 6

_EPS = sys.float_info.epsilon
# A bracket below zero, or an observed value above its cone bound, by at most
# this relative window is round-off; beyond it, a precondition or the cone fails.
_CLAMP = 1e3 * _EPS
_SLACK = 64.0 * _EPS  # upward rounding allowance of a certified power sum, relative
_ROOT_SLACK = 1.0 + 8.0 * _EPS  # upward rounding of a few arithmetic steps on a root
# A tail value is accepted once its unverified part (the slack of a plain
# subtraction, or the bound past a window) is at most this share of its p-th
# power; subtraction so serves while the tail keeps about 2**-20 of the total.
_TIGHT = 2.0 ** -26
_WINDOW_CAP = 8192  # longest window summed term by term
_TIE_SLACK = 1.0 + 1e-12
_BLOCK_CAP = 64  # most blocks the tracking cost bound and complexity floor examine
_WALK_GUARD = 65536  # stream position past which a tracking tail norm takes its remainder bound


@dataclass(frozen=True)
class ApproxOutcome:
    """Result of one truncation run.

    ``terms`` lists sampled ``(wavenumber, coefficient)`` pairs in stream
    order; ``n_used`` is the oracle's distinct-query count at return;
    ``final_error_bound`` is the certificate at the stop (``None`` for a
    plain fixed-length truncation, void when ``cone_violated``).  The ball
    and pilot rules report the bound that settled their stop: the scale
    times the subtraction bound of the tail norm where that product is
    within the tolerance, else the scale times ``tail_weight_norm``.
    """

    terms: tuple
    n_used: int
    final_error_bound: Optional[float]
    stopped_by: Optional[str]
    cone_violated: bool = False
    inferred: Optional[dict] = None

    def coefficient_table(self) -> dict:
        return {k: c for k, c in self.terms}

    def to_dict(self) -> dict:
        payload = {
            "terms": [{"k": list(k), "coef": c} for k, c in self.terms],
            "n_used": self.n_used,
            "final_error_bound": self.final_error_bound,
            "stopped_by": self.stopped_by,
            "cone_violated": self.cone_violated,
        }
        if self.inferred is not None:
            payload["inferred"] = self.inferred
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ApproxOutcome":
        return cls(
            terms=tuple((tuple(t["k"]), float(t["coef"])) for t in data["terms"]),
            n_used=int(data["n_used"]),
            final_error_bound=data.get("final_error_bound"),
            stopped_by=data.get("stopped_by"),
            cone_violated=bool(data.get("cone_violated", False)),
            inferred=data.get("inferred"),
        )


@dataclass(frozen=True)
class PilotConeSpec:
    """Pilot cone: input norm at most ``inflation`` times the pilot-segment norm."""

    pilot_size: int
    inflation: float

    def __post_init__(self) -> None:
        if self.pilot_size < 1:
            raise ValueError("pilot size must be at least 1")
        if not self.inflation > 1.0:
            raise ValueError("inflation must exceed 1")

    @classmethod
    def from_dict(cls, data: dict) -> "PilotConeSpec":
        """Spec from a ``{"size": ..., "inflation": ...}`` config block."""
        return cls(pilot_size=int(data["size"]), inflation=float(data["inflation"]))


@dataclass(frozen=True)
class TrackingConeSpec:
    """Tracking cone: block ratio norms obey sigma[j+r] <= inflation * decay**r * sigma[j].

    Block ``j`` covers stream positions ``size(j-1)..size(j)-1`` where the
    block-boundary sequence is either geometric, ``size(j) = start * factor**j``,
    or arithmetic, ``size(j) = start + j * step``.
    """

    start: int
    inflation: float
    decay: float
    kind: str = "geometric"
    factor: int = 2
    step: int = 0

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("block sequence must start at 1 or later")
        if not self.inflation > 1.0:
            raise ValueError("inflation must exceed 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie strictly between 0 and 1")
        if self.kind == "geometric":
            if self.factor < 2:
                raise ValueError("geometric block growth needs factor >= 2")
        elif self.kind == "arithmetic":
            if self.step < 1:
                raise ValueError("arithmetic block growth needs step >= 1")
        else:
            raise ValueError(f"unknown block sequence kind {self.kind!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "TrackingConeSpec":
        """Spec from a CLI config block; keys that are not fields are ignored."""
        return cls(
            start=int(data["start"]),
            inflation=float(data["inflation"]),
            decay=float(data["decay"]),
            kind=data.get("kind", "geometric"),
            factor=int(data.get("factor", 2)),
            step=int(data.get("step", 0)),
        )

    def size(self, j: int) -> int:
        """Stream position ending block ``j`` (``j = -1`` gives 0)."""
        if j < 0:
            return 0
        if self.kind == "geometric":
            return self.start * self.factor ** j
        return self.start + j * self.step

    def block_range(self, j: int) -> Tuple[int, int]:
        return self.size(j - 1), self.size(j)


@dataclass(frozen=True)
class RegularityConstants:
    """Declared regularity of block weight norms, validated numerically.

    ``slack >= 1`` and geometric rates ``lower_rate <= upper_rate < 1``
    bracket the block weight norms:
    ``lower_rate**r * L[j] / slack <= L[j+r] <= slack * upper_rate**r * L[j]``.
    ``weight_spread >= 1`` caps first-to-last weight ratios inside one block,
    and ``retained_fraction`` in (0, 1] floors the share of every block that
    survives any competing sampling plan of equal size.
    """

    slack: float
    lower_rate: float
    upper_rate: float
    weight_spread: float
    retained_fraction: float

    def __post_init__(self) -> None:
        if self.slack < 1.0:
            raise ValueError("slack must be at least 1")
        if not 0.0 < self.lower_rate <= self.upper_rate < 1.0:
            raise ValueError("rates must satisfy 0 < lower <= upper < 1")
        if self.weight_spread < 1.0:
            raise ValueError("weight spread must be at least 1")
        if not 0.0 < self.retained_fraction <= 1.0:
            raise ValueError("retained fraction must lie in (0, 1]")


@dataclass
class RegularityReport:
    decay_ok: bool
    spread_ok: bool
    retention_ok: bool
    worst_decay_excess: float
    worst_spread: float
    worst_retention: float

    @property
    def all_ok(self) -> bool:
        return self.decay_ok and self.spread_ok and self.retention_ok


class _Accumulator:
    """Neumaier compensated running sum (deterministic, order-fixed).

    ``add`` takes one Neumaier step.  ``running`` forms the same sums as a
    loop of those steps, bit for bit, in two sequential passes: the plain
    running sums first, then the running sum of each step's error term,
    chosen elementwise as the step chooses it.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        total = self._sum
        t = total + x
        if abs(total) >= abs(x):
            self._comp += (total - t) + x
        else:
            self._comp += (x - t) + total
        self._sum = t

    def running(self, values) -> np.ndarray:
        """Add the values in turn; returns the compensated sum after each."""
        x = np.asarray(values, dtype=float) if isinstance(values, np.ndarray) else np.fromiter(values, float)
        if not len(x):
            return x
        with np.errstate(invalid="ignore", over="ignore"):
            sums = np.add.accumulate(np.concatenate(((self._sum,), x)))
            before, sums = sums[:-1], sums[1:]
            errors = np.where(np.abs(before) >= np.abs(x), (before - sums) + x, (x - sums) + before)
            comps = np.add.accumulate(np.concatenate(((self._comp,), errors)))[1:]
            self._sum, self._comp = float(sums[-1]), float(comps[-1])
            return sums + comps

    @property
    def value(self) -> float:
        return self._sum + self._comp


def _pow_up(x: float, e: float) -> float:
    """Upper bound on ``x**e`` for an ``e`` within two ulps of the intended exponent.

    pow rounds within an ulp, and each ulp of ``e`` moves the result by
    ``|ln x**e|`` ulps.  A root ``x**(1/p)`` so errs by ulps of the root,
    about ``p`` ulps of ``x``, which no fixed slack on ``x`` covers at large
    ``p``.
    """
    y = x ** e
    return y * (1.0 + (2.0 + 2.0 * abs(math.log(y))) * _EPS) if y > 0.0 else y


def _window_offsets() -> np.ndarray:
    """Scheduled window ends past the window's start: 1, then a quarter more at a time, up to the cap."""
    offsets = [1]
    while offsets[-1] < _WINDOW_CAP:
        offsets.append(min(offsets[-1] + max(1, offsets[-1] // 4), _WINDOW_CAP))
    return np.array(offsets)


_WINDOW_ENDS = _window_offsets()


class _TailNorms:
    """Certified tail norms of the weight stream, each a pure function of its position.

    ``tail(n)`` bounds from above the tail_exponent-norm of all weights after
    the first ``n`` stream entries: the next weight at an infinite exponent,
    and at a finite exponent ``p`` the formula ``S(n, N) + R(N)`` raised to
    ``1/p``.  ``S(n, N)`` sums the powers of the emitted weights at positions
    ``n..N-1`` term by term (all positive, so nothing cancels).  ``R(N)``
    bounds the mass past the window by the tighter of the analytic power sum
    minus the compensated prefix sum plus a slack, and ``weight(N)**(p-q)``
    times the mass left at an auxiliary exponent ``q < p``.  As ``S(n, N)``
    plus the subtraction at ``N`` is the subtraction at ``n``, that tighter
    of two reads ``min(subtraction at n, S(n, N) + auxiliary bound at N)``.

    The window is empty (plain subtraction plus slack) while the slack is at
    most ``_TIGHT`` of the value.  Else it starts at ``n`` itself, and its
    end is the first of the scheduled ends ``_WINDOW_ENDS`` past ``n`` where
    the auxiliary bound, unrounded, is at most ``_TIGHT`` of the value, the
    end of the stream (nothing remains past it), or the cap ``_WINDOW_CAP``
    entries on (certified, but then not within ``_TIGHT``).  Which window
    serves ``n`` so depends on ``n`` alone, and no value depends on the
    queries before it: values are kept by position, so no window is grown
    twice.  Every sum carries its own error bound, and every root is rounded
    upward by ``_pow_up``, so no exponent, however large, lets a value
    undershoot.  Negative subtractions beyond the round-off clamp raise.

    ``floors`` bounds ``tail`` from below over the entries the stream has
    enumerated, so a scan can skip the positions that cannot stop, and
    ``subtraction`` bounds it from above without a window, so a stop test
    grows one only where that bound does not settle the stop.
    """

    def __init__(self, config: SpaceConfig, model: WeightModel, stream: WavenumberStream):
        if stream.model is not model and stream.model != model:
            raise ValueError("stream was built over a different weight model")
        self.stream = stream
        self.config = config
        self._blocks: dict = {}  # (spec, j) -> block_weight_norm, filled by block_norm
        self._values: dict = {}  # n -> tail(n), exact as the value is pure
        p = self.exponent = config.tail_exponent
        if math.isinf(p):
            self.total = None
            return
        self.total = model.weight_power_sum(p)
        if math.isinf(self.total):
            raise DivergentNormError(
                "weight power sum diverges at the tail exponent; "
                "no finite certificate exists on this space"
            )
        self._powers = np.empty(0)  # powers[i]: weight i to the p
        self._sums = np.zeros(1)  # sums[i]: compensated sum of the first i powers
        self._acc = _Accumulator()
        self._slack = _SLACK * self.total
        # auxiliary bound: the smallest grid exponent q < p with a finite power sum
        grid = ((p * frac, model.weight_power_sum(p * frac)) for frac in (0.125, 0.25, 0.5, 0.75, 0.875))
        self._aux = next(((q, t) for q, t in grid if math.isfinite(t)), None)
        self._q_sums = np.zeros(1)  # q_sums[i]: sequential sum of the first i auxiliary powers
        self._close = (_TIGHT / (1.0 - _TIGHT)) ** (1.0 / p)  # share of the window norm

    def tail(self, n: int) -> float:
        """The tight value: ``subtraction(n)``, or a window's value where a window may lower it.

        ``tail_weight_norm`` returns it.  A stop test asks for it only where
        the subtraction bound does not settle the stop (``_stop_bound``), so
        a rule's certificate may be that bound instead.
        """
        value = self._values.get(n)
        if value is None:
            root, loose = self.subtraction(n)
            value = self._values[n] = min(root, self._window(n)) if loose else root
        return value

    def subtraction(self, n: int) -> Tuple[float, bool]:
        """The empty window's value, an upper bound of ``tail(n)``, and whether a window may lower it.

        At a finite exponent it is ``(total - S_n + slack)**(1/p)``, rounded
        up; a window may lower it only while the slack is more than
        ``_TIGHT`` of the value.  At an infinite exponent it is ``tail(n)``.
        """
        if n < 0:
            raise ValueError("tail position must be nonnegative")
        if math.isinf(self.exponent):
            weights = self.stream.weights(n + 1)
            return (float(weights[n]) if len(weights) > n else 0.0), False
        self._extend(n)
        if len(self._sums) <= n:  # the stream ends before n: nothing remains
            return 0.0, False
        remainder = self.total - float(self._sums[n])
        if remainder < -_CLAMP * max(self.total, 1.0):
            raise ArithmeticError(
                f"tail power sum went negative beyond round-off at n={n}: {remainder!r}"
            )
        slack = self._slack
        root = _pow_up(remainder + slack, 1.0 / self.exponent)
        return root, slack > _TIGHT * (remainder + slack) and self._aux is not None

    def floors(self, n: int, cap: int) -> np.ndarray:
        """Lower bounds of ``tail(m)`` for ``m`` from ``n`` up to ``cap`` or the last entry enumerated.

        Empty when ``n`` is at the cap or at the end of the stream.  At an
        infinite exponent they are the tails themselves.  At a finite ``p``
        the exact ``tail(m)**p`` is at least the powers of the enumerated
        weights past ``m`` and at least the subtraction less twice its slack;
        each is rounded down, as is the root, so no floor exceeds ``tail(m)``.
        """
        if n >= cap:
            return np.empty(0)
        ahead = self.stream.enumerated()
        if len(ahead) <= n:
            self.stream.weights(n + 1)  # the stream grows as its own requests make it
            ahead = self.stream.enumerated()
        hi = min(cap, len(ahead))
        if hi <= n:
            return np.empty(0)
        if math.isinf(self.exponent):
            return ahead[n:hi]
        self._extend(len(ahead))
        # a sum of count positive powers, each within two ulps, errs by under count + 2 ulps,
        # and below the normal range an ulp is the smallest subnormal, which no factor removes
        ulps = len(ahead) - np.arange(n, hi) + 2.0
        inside = np.cumsum(self._powers[n:][::-1])[::-1][: hi - n]
        inside = inside * (1.0 - ulps * _EPS) - 2.0 * ulps * math.ulp(0.0)
        power = np.maximum(inside, (self.total - self._sums[n:hi]) - 2.0 * self._slack)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = power ** (1.0 / self.exponent)
            return np.where(root > 0.0, root * (1.0 - (4.0 + 2.0 * np.abs(np.log(root))) * _EPS), 0.0)

    def block_norm(self, spec: TrackingConeSpec, j: int) -> float:
        """``block_weight_norm`` of block ``j``, computed once per spec and block."""
        key = (spec, j)
        norm = self._blocks.get(key)
        if norm is None:
            norm = self._blocks[key] = block_weight_norm(self.stream, self.config, spec, j)
        return norm

    def _extend(self, count: int) -> None:
        """Power sums over the first ``count`` entries, or over twice as many as before if enumerated."""
        have = len(self._sums) - 1
        if count <= have:
            return
        self.stream.weights(count)
        new = self.stream.enumerated()[have : max(count, 2 * have)]
        if not len(new):
            return
        p = self.exponent
        powers = new ** p
        self._powers = np.concatenate((self._powers, powers))
        self._sums = np.concatenate((self._sums, self._acc.running(powers)))

    def _window(self, n: int) -> float:
        """``(S(n, N) + auxiliary bound at N)**(1/p)`` over the window from ``n`` to its end ``N``.

        The scheduled ends are screened together, unrounded: which end closes
        the window is no part of the certificate, as its value is rounded up.
        """
        p, stream = self.exponent, self.stream
        if len(stream.weights(n + 1)) == n:
            return 0.0
        q, q_total = self._aux
        lift = (p - q) / p  # within an ulp, where 1 - q/p could be off by 8
        head = float(stream.enumerated()[n])
        ends = n + _WINDOW_ENDS  # those not yet screened
        forward = np.zeros(1)  # forward[i]: S(n, n + i) / head**p, summed in sequence
        while True:
            if len(stream.enumerated()) <= ends[0]:
                stream.weights(int(ends[0]) + 1)
            ahead = stream.enumerated()
            j = int(np.searchsorted(ends, len(ahead)))  # ends[:j] have a weight past them
            top = int(ends[j - 1]) if j else len(ahead)
            new = (ahead[n + len(forward) - 1 : top] / head) ** p
            forward = np.concatenate((forward, np.add.accumulate(np.concatenate((forward[-1:], new)))[1:]))
            if not j:  # the stream ends before ends[0]: nothing remains past it
                return self._value(head, float(forward[-1]), top - n, 0.0)
            have = len(self._q_sums) - 1
            if have < top:  # the auxiliary powers are formed only where a window screens them
                q_powers = np.concatenate((self._q_sums[-1:], ahead[have : max(top, 2 * have)] ** q))
                self._q_sums = np.concatenate((self._q_sums, np.add.accumulate(q_powers)[1:]))
            candidates, ends = ends[:j], ends[j:]
            scaled = forward[candidates - n]
            # the first end q-powers, within an ulp each, sum to within end - 1 ulps of q_sums[end]
            q_left = q_total * (1.0 + _SLACK) - self._q_sums[candidates] * (1.0 - (candidates + 1) * _EPS)
            rest = ahead[candidates] ** lift * np.maximum(q_left, 0.0) ** (1.0 / p)
            # a capped window may not grow, so it serves as it is (certified, if loose)
            passes = (rest <= self._close * head * scaled ** (1.0 / p)) | (candidates - n >= _WINDOW_CAP)
            if passes.any():
                at = int(np.argmax(passes))
                left = _pow_up(max(float(q_left[at]), 0.0), 1.0 / p)
                rest = _pow_up(float(ahead[candidates[at]]), lift) * left * _ROOT_SLACK
                return self._value(head, float(scaled[at]), int(candidates[at]) - n, rest)

    def _value(self, head: float, scaled: float, count: int, rest: float) -> float:
        """``(head**p * scaled + rest**p)**(1/p)``, rounded up, for ``scaled`` a sum of ``count`` powers."""
        p = self.exponent
        # each of the count terms is within (p/2 + 1) ulps, their sum within count ulps
        norm = head * _pow_up(scaled * (1.0 + (count + p + 2) * _EPS), 1.0 / p)
        top = max(norm, rest)
        return top * _pow_up((norm / top) ** p + (rest / top) ** p, 1.0 / p) * _ROOT_SLACK


def tail_weight_norm(
    config: SpaceConfig, model: WeightModel, stream: WavenumberStream, n: int
) -> float:
    """Tail_exponent-norm of all weights after the first ``n`` stream entries."""
    return _TailNorms(config, model, stream).tail(n)


def _sample_prefix(oracle: CoefficientOracle, stream: WavenumberStream, n: int) -> tuple:
    return tuple(oracle.query_rows(stream.rows(n)))


def prefix_approximation(
    oracle: CoefficientOracle, stream: WavenumberStream, n: int
) -> ApproxOutcome:
    """Fixed-length truncation: sample the first ``n`` stream wavenumbers.

    ``n = 0`` yields the zero approximation.  Carries no certificate; the
    adaptive rules below wrap this with one.
    """
    if n < 0:
        raise ValueError("truncation length must be nonnegative")
    terms = _sample_prefix(oracle, stream, n)
    return ApproxOutcome(
        terms=terms,
        n_used=oracle.cost,
        final_error_bound=None,
        stopped_by=None,
    )


def _stop_bound(tails: _TailNorms, scale: float, tolerance: float, n: int, cap: int) -> Optional[float]:
    """Certificate at ``n`` if a rule stops there, else None.

    A rule stops when ``scale * tail(n)`` is within the tolerance, at the
    cap, or at the end of the stream, where the bound is 0.0 even at an
    infinite scale.  The subtraction bound is tried first: ``tail(n)`` is
    at most it, so where ``scale`` times it is within the tolerance the rule
    stops at the same ``n`` and reports that product, a certificate within
    the tolerance though perhaps above ``scale * tail(n)``.  Only where it
    does not settle the stop is a window grown, and the bound is then
    ``scale * tail(n)``.
    """
    root, loose = tails.subtraction(n)
    bound = scale * root
    if loose and not bound <= tolerance:
        bound = scale * tails.tail(n)
    if bound <= tolerance or n >= cap:
        return bound
    if len(tails.stream.weights(n + 1)) <= n:
        return 0.0
    return None


def _scan(tails: _TailNorms, scale: float, tolerance: float, start: int, cap: int) -> Tuple[int, float]:
    """First stop ``n >= start`` of a rule whose scale stays fixed, and its bound.

    A position whose tail floor times the scale exceeds the tolerance cannot
    stop, so ``_stop_bound`` decides only the others (a NaN product among
    them), in order.  After a position that does not stop, the floors are
    formed afresh once the stream has grown, as they tighten with it.
    """
    n = start
    while True:
        floors = tails.floors(n, cap)
        if not len(floors):  # at the cap or the end of the stream, where the rule stops
            return n, _stop_bound(tails, scale, tolerance, n, cap)
        seen = len(tails.stream.enumerated())
        with np.errstate(invalid="ignore"):
            survivors = np.flatnonzero(~(scale * floors > tolerance)) + n
        n += len(floors)
        for m in survivors.tolist():
            if (bound := _stop_bound(tails, scale, tolerance, m, cap)) is not None:
                return m, bound
            if len(tails.stream.enumerated()) > seen:
                n = m + 1
                break


def _least_stop(
    config: SpaceConfig, model: WeightModel, radius: float, factor: float, tolerance: float, start: int, cap: int
) -> Optional[int]:
    """Least ``n >= start`` where ``factor * radius * tail(n)`` meets the tolerance, or None past ``cap``."""
    _check_radius(radius)
    n, bound = _scan(_TailNorms(config, model, WavenumberStream(model)), factor * radius, tolerance, start, cap)
    return n if bound <= tolerance and n <= cap else None


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")


def approximate_on_ball(
    oracle: CoefficientOracle,
    stream: WavenumberStream,
    config: SpaceConfig,
    model: WeightModel,
    radius: float,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> ApproxOutcome:
    """Certified truncation for inputs of norm at most ``radius``.

    Stops at the least ``n`` with ``radius * tail(n) <= tolerance``; that
    length is both sufficient and, over the whole ball, necessary.  No
    coefficient influences the stopping point, only the returned terms.
    """
    _check_radius(radius)
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    n, bound = _scan(_TailNorms(config, model, stream), radius, tolerance, 0, budget_cap)
    return ApproxOutcome(
        terms=_sample_prefix(oracle, stream, n),
        n_used=oracle.cost,
        final_error_bound=bound,
        stopped_by=TOLERANCE_MET if bound <= tolerance else BUDGET_EXHAUSTED,
    )


def ball_cost_bound(
    config: SpaceConfig,
    model: WeightModel,
    radius: float,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Optional[int]:
    """Exact sample count of the ball rule, without touching coefficients.

    The least ``n`` with ``radius * tail(n) <= tolerance``, the product the
    rule compares, or None when that ``n`` exceeds ``budget_cap``.
    """
    return _least_stop(config, model, radius, 1.0, tolerance, 0, budget_cap)


def _pilot_bracket_root(
    ratio_exponent: float, inflation: float, pilot_sum: float, partial_sum: float
) -> Tuple[float, bool]:
    """Bracket root of the pilot certificate per unit pilot norm, and a cone-violation flag.

    The sums are the ``p``-th power sums of the pilot's and of all sampled
    ratios (their largest ratios at an infinite ``p``).  The root is
    ``(A**p - partial_sum / pilot_sum)**(1/p)``, clamped at zero: exactly the
    factor ``pilot_cost_bound`` prices on pilot-supported inputs, whose
    quotient is 1.  At an infinite ``p`` it is ``A``.  A zero pilot gives 0.
    """
    if not pilot_sum:
        return 0.0, partial_sum > 0.0
    p = ratio_exponent
    if math.isinf(p):
        return inflation, partial_sum > inflation * pilot_sum * (1.0 + _CLAMP)
    cap = inflation ** p
    growth = partial_sum / pilot_sum
    return max(cap - growth, 0.0) ** (1.0 / p), growth > cap * (1.0 + _CLAMP)


def pilot_error_bound(
    config: SpaceConfig,
    inflation: float,
    pilot_norm: float,
    partial_norm: float,
    tail: float,
) -> float:
    """Pilot certificate: bracket root times the weight tail norm.

    Raises when the partial norm exceeds the inflated pilot norm beyond
    round-off; inside the cone that cannot happen.
    """
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1")
    p = config.ratio_exponent
    finite = math.isfinite(p) and pilot_norm > 0.0
    sums = (1.0, (partial_norm / pilot_norm) ** p) if finite else (pilot_norm, partial_norm)
    root, violated = _pilot_bracket_root(p, inflation, *sums)
    if violated:
        raise ValueError(
            "partial ratio norm exceeds the inflated pilot norm: "
            "the input lies outside the pilot cone"
        )
    return pilot_norm * root * tail


def approximate_on_pilot_cone(
    oracle: CoefficientOracle,
    stream: WavenumberStream,
    config: SpaceConfig,
    model: WeightModel,
    spec: PilotConeSpec,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> ApproxOutcome:
    """Adaptive truncation on the pilot cone.

    Samples the pilot segment, then extends one wavenumber at a time until
    the certificate clears the tolerance.  Ratio power sums grow incrementally in
    one fixed order, so reruns are bitwise identical.  A cone violation is
    recorded on the outcome and voids the certificate, but the run continues
    under the cone's arithmetic.  At an infinite ratio exponent the samples
    after the pilot do not move the certificate, so the stop follows from
    the tail norms alone and the extension is sampled in one batch.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if spec.pilot_size > budget_cap:
        raise ValueError("pilot does not fit inside the budget cap")
    p = config.ratio_exponent
    tails = _TailNorms(config, model, stream)
    terms = list(_sample_prefix(oracle, stream, spec.pilot_size))
    pilot = n = len(terms)  # may fall short of pilot_size on a finite stream
    ratios = [abs(c) / lam for (_, c), lam in zip(terms, stream.weights(n).tolist())]
    pilot_norm = seq_norm(ratios, p)
    if math.isinf(p):
        root, _ = _pilot_bracket_root(p, spec.inflation, pilot_norm, pilot_norm)
        n, bound = _scan(tails, pilot_norm * root, tolerance, pilot, budget_cap)
        terms += oracle.query_rows(stream.rows(n)[pilot:])
        # weights are positive and coefficients finite, so a ratio may overflow
        # to inf but is never nan, and the array max is the running max of the
        # samples in stream order; the sup only grows, so its final value
        # decides the violation
        with np.errstate(over="ignore"):
            later = np.abs([c for _, c in terms[pilot:]]) / stream.weights(n)[pilot:]
        top = float(np.max(later, initial=pilot_norm))
        _, violated = _pilot_bracket_root(p, spec.inflation, pilot_norm, top)
    else:
        power_acc = _Accumulator()
        for r in ratios:  # a handful of values: scalar steps beat running's array set-up
            power_acc.add(r ** p)
        pilot_sum = power_acc.value
        violated = False
        floors: list = []  # tail floors from position lo on, as in _scan
        lo = seen = n
        while True:
            root, bad = _pilot_bracket_root(p, spec.inflation, pilot_sum, power_acc.value)
            violated = violated or bad
            scale = pilot_norm * root
            if n - lo >= len(floors):
                floors, lo = tails.floors(n, budget_cap).tolist(), n
                seen = len(stream.enumerated())
            if n - lo == len(floors) or not scale * floors[n - lo] > tolerance:
                if (bound := _stop_bound(tails, scale, tolerance, n, budget_cap)) is not None:
                    break
                if len(stream.enumerated()) > seen:
                    floors = []
            k, lam = stream.entry(n)
            coef = oracle.query_key(k)
            terms.append((k, coef))
            power_acc.add((abs(coef) / lam) ** p)
            n += 1

    return ApproxOutcome(
        terms=tuple(terms),
        n_used=oracle.cost,
        final_error_bound=bound,
        stopped_by=TOLERANCE_MET if bound <= tolerance else BUDGET_EXHAUSTED,
        cone_violated=violated,
    )


def pilot_cost_bound(
    config: SpaceConfig,
    model: WeightModel,
    spec: PilotConeSpec,
    radius: float,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Optional[int]:
    """Worst-case pilot-rule cost over cone members of norm <= ``radius``.

    Least ``n >= pilot_size`` with ``((A**p - 1)**(1/p) * radius) * tail(n)
    <= tolerance`` (``A * radius`` at an infinite ratio exponent), or None
    past ``budget_cap``.  At every exponent this product is the pilot rule's
    own on a pilot-supported input with ``radius = seq_norm`` of its pilot
    ratios, so such an input costs exactly this.
    """
    factor, _ = _pilot_bracket_root(config.ratio_exponent, spec.inflation, 1.0, 1.0)
    return _least_stop(config, model, radius, factor, tolerance, spec.pilot_size, budget_cap)


def pilot_complexity_lower(
    config: SpaceConfig,
    model: WeightModel,
    spec: PilotConeSpec,
    radius: float,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Optional[int]:
    """Information-cost floor on the pilot cone intersected with the ball.

    No algorithm meeting ``tolerance`` on that class can query fewer than
    the least ``n >= pilot_size`` with
    ``((1 - 1/A) * radius) * tail(n) <= 2 * tolerance``; None when that
    ``n`` exceeds ``budget_cap``.
    """
    factor = 1.0 - 1.0 / spec.inflation
    return _least_stop(config, model, radius, factor, 2.0 * tolerance, spec.pilot_size, budget_cap)


def pilot_optimality_factor(config: SpaceConfig, inflation: float) -> float:
    """Tolerance shrink under which the pilot cost floor meets its ceiling."""
    root, _ = _pilot_bracket_root(config.ratio_exponent, inflation, 1.0, 1.0)
    return (1.0 - 1.0 / inflation) / (2.0 * root)


def pilot_necessary_check(
    oracle: CoefficientOracle,
    stream: WavenumberStream,
    config: SpaceConfig,
    spec: PilotConeSpec,
    n: int,
) -> bool:
    """Observable cone test on ``n`` samples: False exactly when a pilot run of ``n`` flags them."""
    if n < spec.pilot_size:
        raise ValueError("check needs at least the pilot segment")
    samples = oracle.query_rows(stream.rows(n))
    ratios = [abs(c) / lam for (_, c), lam in zip(samples, stream.weights(n).tolist())]
    p = config.ratio_exponent
    pilot = ratios[: spec.pilot_size]
    if math.isinf(p):
        sums = max(pilot, default=0.0), max(ratios, default=0.0)
    else:
        running = np.concatenate(((0.0,), _Accumulator().running(r ** p for r in ratios)))
        sums = float(running[len(pilot)]), float(running[-1])
    return not _pilot_bracket_root(p, spec.inflation, *sums)[1]


def block_ratio_norm(
    oracle: CoefficientOracle,
    stream: WavenumberStream,
    config: SpaceConfig,
    spec: TrackingConeSpec,
    j: int,
) -> float:
    """Ratio norm of block ``j`` (coefficients over weights, block entries only)."""
    lo, hi = spec.block_range(j)
    samples = oracle.query_rows(stream.rows(hi)[lo:])
    ratios = [abs(c) / lam for (_, c), lam in zip(samples, stream.weights(hi)[lo:].tolist())]
    return seq_norm(ratios, config.ratio_exponent)


def block_weight_norm(
    stream: WavenumberStream, config: SpaceConfig, spec: TrackingConeSpec, j: int
) -> float:
    """Tail_exponent-norm of the weights inside block ``j``."""
    lo, hi = spec.block_range(j)
    return seq_norm(stream.weights(hi)[lo:], config.tail_exponent)


def tracking_tail_norm(
    config: SpaceConfig,
    model: WeightModel,
    stream: WavenumberStream,
    spec: TrackingConeSpec,
    j: int,
    _tails: Optional[_TailNorms] = None,
) -> float:
    """Certified value of ``norm((decay**r * L[j+r]) for r >= 1)`` in the solution exponent.

    Truncates the series under a geometric remainder bound: every later
    block norm is dominated by the running weight tail norm, so the cut
    error is a known geometric sum.  The cut comes once that remainder is
    at most the running maximum (``t`` infinite) or its ``t``-th power is at
    most ``_TIGHT`` of the running sum, the rule the tail windows close
    under.  The remainder bound and an allowance for the rounding of every
    term and of their sum are folded into the returned value, whose root is
    rounded upward, so it never undershoots the true norm; it only loosens
    (still certified) when slow decay meets fast-growing blocks and the
    scan reaches ``_WALK_GUARD``, where the remainder bound ends it.
    """
    t = config.solution_exponent
    b = spec.decay
    tails = _tails if _tails is not None else _TailNorms(config, model, stream)
    if (tails.stream, tails.config, stream.model) != (stream, config, model):
        raise ValueError("the tail engine was built over another stream, config or model")
    acc = _Accumulator()
    sup = 0.0
    b_pow = 1.0
    r = 0
    while True:
        r += 1
        b_pow *= b
        lam_block = tails.block_norm(spec, j + r)
        term = b_pow * lam_block
        if math.isinf(t):
            if term > sup:
                sup = term
        else:
            acc.add(term ** t)
        cap = tails.tail(spec.size(j + r))
        guard_hit = spec.size(j + r) >= _WALK_GUARD
        # b_pow carries r - 1 roundings and a block norm (a root of a sum of
        # powers) at most 16 ulps, so a term or the remainder errs by at most
        # r + 17 ulps; the allowance doubles its count for second-order terms
        if math.isinf(t):
            rem = b_pow * b * cap
            if rem <= sup or guard_hit:
                return max(sup, rem) * (1.0 + 2.0 * (r + 17) * _EPS)
        else:
            denominator = 1.0 - b ** t
            rem = b_pow * b * cap / denominator ** (1.0 / t)
            if rem ** t <= _TIGHT * acc.value or guard_hit:
                # t-th powers multiply those ulps by t and add one; the
                # denominator adds 1 / denominator and the compensated sum two
                ulps = t * (r + 17) + 1.0 / denominator + 4.0
                return _pow_up((acc.value + rem ** t) * (1.0 + 2.0 * ulps * _EPS), 1.0 / t)


def tracking_error_bound(
    config: SpaceConfig,
    model: WeightModel,
    stream: WavenumberStream,
    spec: TrackingConeSpec,
    sigma_j: float,
    j: int,
) -> float:
    """Tracking certificate after block ``j``: inflated block norm times tail."""
    return spec.inflation * sigma_j * tracking_tail_norm(config, model, stream, spec, j)


def tracking_necessary_check(
    sigmas: Sequence[float], inflation: float, decay: float
) -> bool:
    """Observable cone test on block norms indexed from 1 upward, with the ``_CLAMP`` allowance."""
    for i, low in enumerate(sigmas):
        for r, high in enumerate(sigmas[i + 1 :], start=1):
            if high > inflation * decay ** r * low * (1.0 + _CLAMP):
                return False
    return True


def approximate_on_tracking_cone(
    oracle: CoefficientOracle,
    stream: WavenumberStream,
    config: SpaceConfig,
    model: WeightModel,
    spec: TrackingConeSpec,
    tolerance: float,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> ApproxOutcome:
    """Adaptive truncation on the tracking cone, growing block by block.

    After sampling block ``j`` the certificate multiplies the inflated block
    ratio norm with the certified decay-weighted norm of all later block
    weights; the first block clearing the tolerance ends the run.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    tails = _TailNorms(config, model, stream)
    sigmas: List[float] = []
    violated = False
    bound: Optional[float] = None
    j = 0
    while True:
        j += 1
        n_j = spec.size(j)
        if n_j > budget_cap:
            stopped = BUDGET_EXHAUSTED
            n_j = min(spec.size(j - 1), budget_cap)  # size(0) = start may exceed the cap
            break
        sigma_j = block_ratio_norm(oracle, stream, config, spec, j)
        sigmas.append(sigma_j)
        if not tracking_necessary_check(sigmas, spec.inflation, spec.decay):
            violated = True
        # a zero block norm makes the bound zero whatever the tail
        tail = tracking_tail_norm(config, model, stream, spec, j, _tails=tails) if sigma_j else 0.0
        bound = spec.inflation * sigma_j * tail
        if bound <= tolerance:
            stopped = TOLERANCE_MET
            break
    terms = _sample_prefix(oracle, stream, n_j)
    return ApproxOutcome(
        terms=terms,
        n_used=oracle.cost,
        final_error_bound=bound,
        stopped_by=stopped,
        cone_violated=violated,
    )


def _one_minus_decay_root(ratio_exponent: float, decay: float, j: Optional[int] = None) -> float:
    """((1 - decay**(j*p)) / (1 - decay**p))**(1/p), or its j-free floor; 1 at p = inf."""
    p = ratio_exponent
    if math.isinf(p):
        return 1.0
    if j is None:
        return (1.0 - decay ** p) ** (1.0 / p)
    return ((1.0 - decay ** (j * p)) / (1.0 - decay ** p)) ** (1.0 / p)


def tracking_cost_bound(
    config: SpaceConfig,
    model: WeightModel,
    stream: WavenumberStream,
    spec: TrackingConeSpec,
    radius: float,
    tolerance: float,
) -> Optional[Tuple[int, int]]:
    """Worst-case tracking cost over cone members of norm <= ``radius``.

    Returns ``(j, size(j))`` for the least block index ``j >= 1`` with

        decay**j * tailnorm(j) <= decay * tol / (radius * inflation**2) * root(j),

    where ``tailnorm`` is the certified decay-weighted norm of later block
    weights and ``root(j)`` the finite-exponent correction (1 at infinity).
    None past ``_BLOCK_CAP`` blocks or ``DEFAULT_BUDGET_CAP`` entries, as the other cost bounds.
    """
    _check_radius(radius)
    a, b = spec.inflation, spec.decay
    tails = _TailNorms(config, model, stream)
    base = b * tolerance / (radius * a * a)
    b_pow = 1.0
    for j in range(1, _BLOCK_CAP + 1):
        if spec.size(j) > DEFAULT_BUDGET_CAP:
            break
        b_pow *= b
        lhs = b_pow * tracking_tail_norm(config, model, stream, spec, j, _tails=tails)
        rhs = base * _one_minus_decay_root(config.ratio_exponent, b, j)
        if lhs <= rhs:
            return j, spec.size(j)
    return None


def _spread_bracket(config: SpaceConfig, constants: RegularityConstants) -> float:
    """(1 + (1/S2 - 1) * S1**p)**(1/p) with its infinite-exponent limit."""
    p = config.ratio_exponent
    c = 1.0 / constants.retained_fraction - 1.0
    if math.isinf(p):
        return max(1.0, constants.weight_spread) if c > 0.0 else 1.0
    return (1.0 + c * constants.weight_spread ** p) ** (1.0 / p)


def tracking_complexity_lower(
    config: SpaceConfig,
    model: WeightModel,
    stream: WavenumberStream,
    spec: TrackingConeSpec,
    constants: RegularityConstants,
    radius: float,
    tolerance: float,
) -> Tuple[int, int]:
    """Information-cost floor on the tracking cone intersected with the ball.

    Returns ``(j, size(j))`` for the largest block index ``j >= 1`` whose
    single-block weight norm still towers over the tolerance:

        decay**(j+1) * L[j+1] > 2 a alpha tol / (R (a-1) root) * spread,

    so any algorithm meeting the tolerance must look past block ``j``.
    ``j = 0`` means the tolerance is too loose for a nontrivial floor.
    """
    _check_radius(radius)
    a, b = spec.inflation, spec.decay
    tails = _TailNorms(config, model, stream)
    root = _one_minus_decay_root(config.ratio_exponent, b)
    threshold = (
        2.0 * a * constants.slack * tolerance
        / (radius * (a - 1.0) * root)
        * _spread_bracket(config, constants)
    )
    best = 0
    b_pow = b
    for j in range(1, _BLOCK_CAP + 1):
        b_pow *= b  # decay**(j+1)
        if b_pow * tails.block_norm(spec, j + 1) > threshold:
            best = j
        elif b_pow * tails.tail(spec.size(j)) <= threshold:
            break  # every later block norm is already dominated
    return best, spec.size(best) if best else 0


def tracking_pilot_inflation(config: SpaceConfig, inflation: float, decay: float) -> float:
    """Pilot-cone inflation certified for every tracking-cone member.

    ``(1 + a**p b**p / (1 - b**p))**(1/p)``, degenerating to
    ``max(1, a*b)`` at an infinite ratio exponent.
    """
    p = config.ratio_exponent
    a, b = inflation, decay
    if math.isinf(p):
        return max(1.0, a * b)
    return (1.0 + a ** p * b ** p / (1.0 - b ** p)) ** (1.0 / p)


def tracking_optimality_factor(
    config: SpaceConfig, spec: TrackingConeSpec, constants: RegularityConstants
) -> float:
    """Tolerance shrink under which the tracking floor meets its ceiling.

    Shrinking the tolerance by this factor pushes the complexity floor past
    the cost ceiling, so the tracking rule spends at most what any algorithm
    must spend at the shrunken tolerance.
    """
    a, b = spec.inflation, spec.decay
    t = config.solution_exponent
    if math.isinf(t):
        mixed = 1.0
    else:
        mixed = (1.0 - (constants.upper_rate * b) ** t) ** (1.0 / t)
    return (
        (a - 1.0)
        * b ** 3
        * constants.lower_rate ** 2
        * _one_minus_decay_root(config.ratio_exponent, b)
        * mixed
        / (2.0 * a ** 3 * constants.slack ** 4)
        / _spread_bracket(config, constants)
    )


def verify_regularity(
    config: SpaceConfig,
    model: WeightModel,
    stream: WavenumberStream,
    spec: TrackingConeSpec,
    constants: RegularityConstants,
    block_window: int = 8,
) -> RegularityReport:
    """Numeric check of the declared regularity over a finite block window.

    Verifies the geometric bracket on block weight norms for every pair in
    the window, the first-to-last weight spread inside each block, and the
    retained fraction against the sharp continuous floor
    ``1 - size(j)/size(j+1)``.  A pass certifies the window only; the
    constants remain the caller's declaration beyond it.
    """
    if block_window < 2:
        raise ValueError("window must cover at least two blocks")
    norms = [
        block_weight_norm(stream, config, spec, j) for j in range(1, block_window + 1)
    ]
    decay_ok = True
    worst_excess = 0.0
    for i, base in enumerate(norms):
        if base == 0.0:
            continue
        for r in range(0, block_window - i):
            other = norms[i + r]
            low = constants.lower_rate ** r * base / constants.slack
            high = constants.slack * constants.upper_rate ** r * base
            if other > high * _TIE_SLACK or other < low / _TIE_SLACK:
                decay_ok = False
                excess = max(other / high if high else math.inf, low / other if other else math.inf)
                worst_excess = max(worst_excess, excess)
    spread_ok = True
    worst_spread = 1.0
    for j in range(1, block_window + 1):
        lo, hi = spec.block_range(j)
        weights = stream.weights(hi)[lo:]
        if not len(weights):
            continue
        first, last = float(weights[0]), float(weights[-1])
        if last == 0.0:
            continue
        spread = first / last
        worst_spread = max(worst_spread, spread)
        if spread > constants.weight_spread * _TIE_SLACK:
            spread_ok = False
    retention_ok = True
    worst_retention = 1.0
    for j in range(0, block_window):
        floor = 1.0 - spec.size(j) / spec.size(j + 1)
        worst_retention = min(worst_retention, floor)
        if constants.retained_fraction > floor * _TIE_SLACK:
            retention_ok = False
    return RegularityReport(
        decay_ok=decay_ok,
        spread_ok=spread_ok,
        retention_ok=retention_ok,
        worst_decay_excess=worst_excess,
        worst_spread=worst_spread,
        worst_retention=worst_retention,
    )
