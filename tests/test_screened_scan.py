"""Tail norms as pure functions of the position, and the screened stop scan.

``_TailNorms.tail(n)`` must not depend on the calls a tail-norm object has
served before, so a scan may skip positions.  The scan skips the positions
whose tail floor rules out a stop and confirms the rest with ``_stop_bound``.
A copy of the one-position-at-a-time loop it replaced is kept below as the
reference: the screened scan, the ball rule and the three cost bounds must
give its stop and its bound, bit for bit.  A second copy compares
``scale * tail(n)`` at every position, as the stop test did before it tried
the subtraction bound first: the rules and cost bounds must stop where it
stops.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coneapprox import (
    BUDGET_EXHAUSTED,
    TOLERANCE_MET,
    AlgebraicDecay,
    CoefficientOracle,
    PilotConeSpec,
    SpaceConfig,
    TableDecay,
    WavenumberStream,
    WeightModel,
    approximate_on_ball,
    ball_cost_bound,
    pilot_complexity_lower,
    pilot_cost_bound,
)
from coneapprox.approximation import _Accumulator, _pilot_bracket_root, _scan, _stop_bound, _TailNorms

from conftest import scratch_stream, settled_by_subtraction, tail_calls

# spaces with tail exponents 2, 1, 3 and infinity
_SPACES = (SpaceConfig(2.0, 1.0), SpaceConfig(math.inf, 1.0), SpaceConfig(3.0, 1.5), SpaceConfig(2.0, 2.0))


def _reference_scan(tails, scale, tolerance, start, cap):
    """The stop scan with one ``_stop_bound`` call per position."""
    n = start
    while (bound := _stop_bound(tails, scale, tolerance, n, cap)) is None:
        n += 1
    return n, bound


@st.composite
def _models(draw):
    """Fast or slow algebraic decay, or a finite stream: a truncated table or a zero coordinate weight."""
    d = draw(st.integers(1, 3))
    weights = [draw(st.floats(0.2, 1.0)) for _ in range(d)]
    decay = draw(st.one_of(
        st.builds(AlgebraicDecay, st.floats(2.5, 6.0)),
        st.builds(
            TableDecay,
            st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4).map(
                lambda v: tuple(np.cumprod(sorted(v, reverse=True)).tolist())
            ),
            st.just(0.0),
        ),
    ))
    if isinstance(decay, TableDecay) and draw(st.booleans()):
        weights[draw(st.integers(0, d - 1))] = 0.0
    return WeightModel(d, tuple(weights), decay)


@settings(max_examples=80, deadline=None)
@given(
    model=_models(),
    space=st.sampled_from(_SPACES),
    earlier=st.lists(st.integers(0, 3000), max_size=12),
    probe=st.integers(0, 3000),
)
@example(model=WeightModel(1, (0.7,), AlgebraicDecay(4.0)), space=_SPACES[0], earlier=[40, 41, 300], probe=301)
def test_tail_norm_is_a_pure_function_of_the_position(model, space, earlier, probe):
    used = _TailNorms(space, model, WavenumberStream(model))
    for n in earlier:
        used.tail(n)
    fresh = _TailNorms(space, model, scratch_stream(model))
    assert used.tail(probe).hex() == fresh.tail(probe).hex()
    for n in earlier[-3:]:
        assert used.tail(n).hex() == _TailNorms(space, model, scratch_stream(model)).tail(n).hex()


@settings(max_examples=60, deadline=None)
@given(model=_models(), space=st.sampled_from(_SPACES), start=st.integers(0, 200), probe=st.integers(0, 4000))
def test_tail_floors_never_exceed_the_tail(model, space, start, probe):
    tails = _TailNorms(space, model, WavenumberStream(model))
    tails.tail(probe)  # let the stream grow past start
    floors = tails.floors(start, 10 ** 6)
    fresh = _TailNorms(space, model, scratch_stream(model))
    for m in sorted({0, len(floors) // 2, len(floors) - 1} if len(floors) else ()):
        assert floors[m] <= fresh.tail(start + m)


_SCALES = st.one_of(st.floats(0.05, 20.0), st.sampled_from([0.0, math.inf]))


@settings(max_examples=120, deadline=None)
@given(
    model=_models(),
    space=st.sampled_from(_SPACES),
    scale=_SCALES,
    tolerance_exponent=st.floats(-9.0, 0.0),
    start=st.integers(0, 12),
    cap=st.one_of(st.just(3000), st.integers(0, 60)),
)
def test_screened_scan_equals_the_one_position_loop(model, space, scale, tolerance_exponent, start, cap):
    tolerance = 10.0 ** tolerance_exponent
    got = _scan(_TailNorms(space, model, WavenumberStream(model)), scale, tolerance, start, cap)
    want = _reference_scan(_TailNorms(space, model, scratch_stream(model)), scale, tolerance, start, cap)
    assert (got[0], got[1].hex()) == (want[0], want[1].hex())


def _full_tail_scan(tails, scale, tolerance, start, cap):
    """The one-position loop comparing ``scale * tail(n)`` at every position."""
    n = start
    while True:
        bound = scale * tails.tail(n)
        if bound <= tolerance or n >= cap:
            return n, bound
        if len(tails.stream.weights(n + 1)) <= n:
            return n, 0.0
        n += 1


def _reference_least_stop(space, model, factor, radius, tolerance, start, cap, scan=_reference_scan):
    tails = _TailNorms(space, model, scratch_stream(model))
    n, bound = scan(tails, factor * radius, tolerance, start, cap)
    return n if bound <= tolerance and n <= cap else None


@settings(max_examples=80, deadline=None)
@given(
    model=_models(),
    space=st.sampled_from(_SPACES),
    radius=st.floats(0.1, 10.0),
    tolerance_exponent=st.floats(-7.0, 0.0),
    pilot_size=st.integers(1, 6),
    inflation=st.floats(1.05, 2.0),
    cap=st.one_of(st.just(3000), st.integers(6, 60)),
)
def test_ball_rule_and_cost_bounds_equal_the_one_position_loop(
    model, space, radius, tolerance_exponent, pilot_size, inflation, cap
):
    tolerance = 10.0 ** tolerance_exponent
    oracle = CoefficientOracle.from_table({})
    out = approximate_on_ball(oracle, WavenumberStream(model), space, model, radius, tolerance, budget_cap=cap)
    n, bound = _reference_scan(_TailNorms(space, model, scratch_stream(model)), radius, tolerance, 0, cap)
    assert (out.n_used, out.final_error_bound.hex()) == (n, bound.hex())
    assert out.stopped_by == (TOLERANCE_MET if bound <= tolerance else BUDGET_EXHAUSTED)
    assert ball_cost_bound(space, model, radius, tolerance, cap) == _reference_least_stop(
        space, model, 1.0, radius, tolerance, 0, cap
    )
    spec = PilotConeSpec(pilot_size, inflation)
    factor, _ = _pilot_bracket_root(space.ratio_exponent, inflation, 1.0, 1.0)
    assert pilot_cost_bound(space, model, spec, radius, tolerance, cap) == _reference_least_stop(
        space, model, factor, radius, tolerance, pilot_size, cap
    )
    assert pilot_complexity_lower(space, model, spec, radius, tolerance, cap) == _reference_least_stop(
        space, model, 1.0 - 1.0 / inflation, radius, 2.0 * tolerance, pilot_size, cap
    )


@settings(max_examples=80, deadline=None)
@given(
    model=_models(),
    space=st.sampled_from(_SPACES),
    radius=st.floats(0.1, 10.0),
    tolerance_exponent=st.floats(-7.0, 0.0),
    pilot_size=st.integers(1, 6),
    inflation=st.floats(1.05, 2.0),
    cap=st.one_of(st.just(3000), st.integers(6, 60)),
    tie=st.one_of(st.none(), st.integers(0, 400)),
)
def test_ball_rule_and_cost_bounds_stop_where_the_full_tail_loop_stops(
    model, space, radius, tolerance_exponent, pilot_size, inflation, cap, tie
):
    # a tie tolerance radius * tail(tie) sits below the subtraction bound
    # wherever a window lowers the tail, so only the full tail stops there
    tolerance = 10.0 ** tolerance_exponent
    if tie is not None:
        # past the end of a finite stream the tail is 0, not a tolerance
        tolerance = radius * _TailNorms(space, model, scratch_stream(model)).tail(tie) or tolerance
    table = {k: (-1.0) ** i * lam for i, (k, lam) in enumerate(scratch_stream(model).prefix(40))}
    oracle = CoefficientOracle.from_table(table)
    with tail_calls() as calls:
        out = approximate_on_ball(oracle, WavenumberStream(model), space, model, radius, tolerance, budget_cap=cap)
    n, bound = _full_tail_scan(_TailNorms(space, model, scratch_stream(model)), radius, tolerance, 0, cap)
    want = CoefficientOracle.from_table(table)
    terms = want.query_rows(scratch_stream(model).rows(n))
    assert [(k, c.hex()) for k, c in out.terms] == [(k, c.hex()) for k, c in terms]
    assert list(oracle._memo) == list(want._memo)
    assert out.n_used == n
    assert out.stopped_by == (TOLERANCE_MET if bound <= tolerance else BUDGET_EXHAUSTED)
    # the bound is the full-tail one unless the subtraction bound settled the
    # stop, and then lies between it and the tolerance
    if out.stopped_by == TOLERANCE_MET and settled_by_subtraction(calls):
        assert bound <= out.final_error_bound <= tolerance
    else:
        assert out.final_error_bound.hex() == bound.hex()
    spec = PilotConeSpec(pilot_size, inflation)
    factor, _ = _pilot_bracket_root(space.ratio_exponent, inflation, 1.0, 1.0)
    for got, (scale, level, start) in [
        (ball_cost_bound(space, model, radius, tolerance, cap), (1.0, tolerance, 0)),
        (pilot_cost_bound(space, model, spec, radius, tolerance, cap), (factor, tolerance, pilot_size)),
        (
            pilot_complexity_lower(space, model, spec, radius, tolerance, cap),
            (1.0 - 1.0 / inflation, 2.0 * tolerance, pilot_size),
        ),
    ]:
        assert got == _reference_least_stop(space, model, scale, radius, level, start, cap, scan=_full_tail_scan)


def test_accumulator_running_sums_equal_its_steps_bit_for_bit():
    rng = np.random.default_rng(7)
    for trial in range(300):
        size = int(rng.integers(0, 60))
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        if trial % 3 == 0:
            values = np.abs(values)
        stepped, batched = _Accumulator(), _Accumulator()
        stepped.add(float(trial))
        batched.add(float(trial))
        want = []
        for x in values.tolist():
            stepped.add(x)
            want.append(stepped.value)
        got = batched.running(values)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert batched.value.hex() == stepped.value.hex()


@settings(max_examples=200, deadline=None)
@given(
    ratios=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
)
def test_accumulator_steps_over_a_few_pilot_powers_equal_running_bit_for_bit(ratios, p):
    # the pilot rule adds its pilot powers a step at a time, and
    # pilot_necessary_check forms the same sums with running
    stepped, batched = _Accumulator(), _Accumulator()
    want = []
    for r in ratios:
        stepped.add(r ** p)
        want.append(stepped.value)
    got = batched.running(r ** p for r in ratios)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert batched.value.hex() == stepped.value.hex()
