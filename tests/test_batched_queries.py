"""Batched coefficient queries, and the pilot rule that samples in one batch.

At an infinite ratio exponent the pilot rule finds its stop from the tail
norms alone and then samples the whole extension in one batch.  A copy of
the one-query-per-step loop it replaced is kept below as the reference:
every outcome field and the oracle's memo must match it exactly, and the
rule's tail-norm calls (subtraction bounds and full tails) must be some of
the reference's, in its order, ending at the same call.  The same loop with
the full ``tail(n)`` in every stop test, as the rules had before they tried
the subtraction bound first, checks that the stops did not move.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coneapprox import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET_CAP,
    TOLERANCE_MET,
    AlgebraicDecay,
    ApproxOutcome,
    CoefficientOracle,
    PilotConeSpec,
    SpaceConfig,
    TableDecay,
    WavenumberStream,
    WeightModel,
    approximate_on_pilot_cone,
    make_random_function,
    pilot_necessary_check,
    seq_norm,
)
from coneapprox.approximation import _Accumulator, _pilot_bracket_root, _TailNorms
from coneapprox.enumeration import StreamExhausted

from conftest import settled_by_subtraction, tail_calls


def _reference_pilot(
    oracle, stream, config, model, spec, tolerance, budget_cap=DEFAULT_BUDGET_CAP, full_tail=False
):
    """The pilot rule with one ``stream.entry(n)`` and one query per step.

    Each stop test tries ``scale`` times the subtraction bound first and
    takes ``scale * tail(n)`` only where that does not settle the stop; with
    ``full_tail`` it takes ``scale * tail(n)`` at every position.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if spec.pilot_size > budget_cap:
        raise ValueError("pilot does not fit inside the budget cap")
    p = config.ratio_exponent
    tails = _TailNorms(config, model, stream)
    terms = [(k, oracle.query(k)) for k, _ in stream.prefix(spec.pilot_size)]
    n = len(terms)
    ratios = [abs(c) / lam for (_, c), lam in zip(terms, stream.weights(n).tolist())]
    pilot_norm = sup_ratio = seq_norm(ratios, p)
    power_acc = _Accumulator()
    if not math.isinf(p):
        power_acc.running(r ** p for r in ratios)
    pilot_sum = sup_ratio if math.isinf(p) else power_acc.value
    violated = False

    while True:
        partial_sum = sup_ratio if math.isinf(p) else power_acc.value
        root, bad = _pilot_bracket_root(p, spec.inflation, pilot_sum, partial_sum)
        violated = violated or bad
        scale = pilot_norm * root
        if full_tail:
            bound = scale * tails.tail(n)
        else:
            rung, loose = tails.subtraction(n)
            bound = scale * rung
            if loose and not bound <= tolerance:
                bound = scale * tails.tail(n)
        if bound <= tolerance or n >= budget_cap:
            stopped = TOLERANCE_MET if bound <= tolerance else BUDGET_EXHAUSTED
            break
        try:
            k, lam = stream.entry(n)
        except StreamExhausted:
            bound = 0.0
            stopped = TOLERANCE_MET
            break
        coef = oracle.query(k)
        terms.append((k, coef))
        ratio = abs(coef) / lam
        if math.isinf(p):
            sup_ratio = max(sup_ratio, ratio)
        else:
            power_acc.add(ratio ** p)
        n += 1

    return ApproxOutcome(
        terms=tuple(terms),
        n_used=oracle.cost,
        final_error_bound=bound,
        stopped_by=stopped,
        cone_violated=violated,
    )


# --- the pilot rule against the reference loop ----------------------------------------


def _oracle(kind, table):
    if kind == "table":
        return CoefficientOracle.from_table(table)
    shape = tuple(max(k[axis] for k in table) + 1 for axis in range(len(next(iter(table)))))
    dense = np.zeros(shape)
    for k, c in table.items():
        dense[k] = c
    return CoefficientOracle.from_array(dense)


@st.composite
def _pilot_cases(draw):
    """A model, a space, a pilot spec, a coefficient table over a stream prefix, a tolerance and a cap.

    The draws cover finite streams (a truncated table decay, a zero
    coordinate weight), zero pilot norms, later ratios above the inflated
    pilot norm (falsified cones) and budget caps inside the run.
    """
    d = draw(st.integers(1, 3))
    weights = [draw(st.floats(0.2, 1.0)) for _ in range(d)]
    if draw(st.booleans()):
        weights[draw(st.integers(0, d - 1))] = 0.0
    decay = draw(st.one_of(
        st.builds(AlgebraicDecay, st.floats(2.5, 5.0)),
        st.builds(
            TableDecay,
            st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4).map(
                lambda v: tuple(np.cumprod(sorted(v, reverse=True)).tolist())
            ),
            st.sampled_from([0.0, 0.0, 0.1, 0.4]),
        ),
    ))
    model = WeightModel(d, tuple(weights), decay)
    space = SpaceConfig(*draw(st.sampled_from(
        [(math.inf, 1.0), (math.inf, 2.0), (math.inf, math.inf), (2.0, 1.0), (2.0, 2.0)]
    )))
    spec = PilotConeSpec(draw(st.integers(1, 6)), draw(st.floats(1.05, 2.0)))
    entries = WavenumberStream(model).prefix(spec.pilot_size + draw(st.integers(0, 30)))
    live = draw(st.sampled_from([1.0] * 9 + [0.0]))  # else the pilot norm is zero
    pilot = [live * draw(st.floats(0.05, 1.0)) for _ in entries[: spec.pilot_size]]
    top = max(pilot + [1e-3])
    later = [draw(st.floats(0.0, 1.5 * spec.inflation)) * top for _ in entries[spec.pilot_size :]]
    scale = 10.0 ** draw(st.integers(-6, 3))
    table = {
        k: draw(st.sampled_from([-1.0, 1.0])) * scale * ratio * lam
        for (k, lam), ratio in zip(entries, pilot + later)
    }
    tolerance = 10.0 ** draw(st.floats(-6.0, -1.0)) * scale
    cap = draw(st.one_of(st.just(3000), st.integers(spec.pilot_size, spec.pilot_size + 40)))
    return model, space, spec, table, tolerance, cap


def _run_traced(rule, case, kind):
    model, space, spec, table, tolerance, cap = case
    oracle = _oracle(kind, table)
    with tail_calls() as calls:
        out = rule(oracle, WavenumberStream(model), space, model, spec, tolerance, budget_cap=cap)
    return out, list(oracle._memo.items()), calls


_OVERFLOW = (  # the third ratio overflows, so the certificate at the stream's end is inf * 0 = nan
    WeightModel(1, (1.0,), TableDecay((1.0, 1e-300), 0.0)),
    SpaceConfig(math.inf, 1.0),
    PilotConeSpec(3, 1.5),
    {(0,): 1.0, (1,): 0.5, (2,): 1e10},
    1e-3,
    3000,
)
# the same input with the overflowing ratio after a two-entry pilot, and a
# tolerance below the certificate there, so the rule must sample it
_OVERFLOW_LATE = _OVERFLOW[:2] + (PilotConeSpec(2, 1.5),) + _OVERFLOW[3:4] + (1e-306, 3000)


@settings(max_examples=200, deadline=None)
@example(case=_OVERFLOW, kind="table")
@example(case=_OVERFLOW, kind="array")
@example(case=_OVERFLOW_LATE, kind="table")
@example(case=_OVERFLOW_LATE, kind="array")
@given(case=_pilot_cases(), kind=st.sampled_from(["table", "array"]))
def test_pilot_rule_equals_the_one_query_per_step_loop(case, kind):
    want, want_memo, want_calls = _run_traced(_reference_pilot, case, kind)
    got, got_memo, got_calls = _run_traced(approximate_on_pilot_cone, case, kind)
    assert [(k, c.hex()) for k, c in got.terms] == [(k, c.hex()) for k, c in want.terms]
    assert got.n_used == want.n_used
    assert got.final_error_bound.hex() == want.final_error_bound.hex()
    assert (got.stopped_by, got.cone_violated) == (want.stopped_by, want.cone_violated)
    assert [(k, c.hex()) for k, c in got_memo] == [(k, c.hex()) for k, c in want_memo]
    # the rule screens positions that cannot stop, so it asks for some of the
    # reference's subtraction bounds and tail norms only, in order, and for
    # the same last one
    remaining = iter(want_calls)
    assert all(n in remaining for n in got_calls)
    assert got_calls[-1:] == want_calls[-1:]


def _window_tie(space, m):
    """A pilot-supported input whose tolerance is the rule's full-tail certificate at ``m``.

    At the positions used, a window lowers ``tail(m)`` below the subtraction
    bound, so only the full tail settles the stop there.
    """
    model = WeightModel(1, (0.7,), AlgebraicDecay(3.0))
    spec = PilotConeSpec(2, 1.5)
    table = {k: 0.5 * lam for k, lam in WavenumberStream(model).prefix(2)}
    p = space.ratio_exponent
    scale = seq_norm([0.5, 0.5], p) * _pilot_bracket_root(p, spec.inflation, 1.0, 1.0)[0]
    tails = _TailNorms(space, model, WavenumberStream(model))
    assert tails.tail(m) < tails.subtraction(m)[0]
    return model, space, spec, table, scale * tails.tail(m), 3000


@settings(max_examples=200, deadline=None)
@example(case=_OVERFLOW, kind="table")
@example(case=_OVERFLOW_LATE, kind="array")
@example(case=_window_tie(SpaceConfig(2.0, 1.0), 14), kind="table")
@example(case=_window_tie(SpaceConfig(3.0, 1.5), 21), kind="array")
@given(case=_pilot_cases(), kind=st.sampled_from(["table", "array"]))
def test_pilot_rule_stops_where_the_full_tail_loop_stops(case, kind):
    # the subtraction bound is at least tail(n), so trying it first moves no
    # stop; the certificate is the full-tail one unless that bound settled
    # the stop, and then lies between it and the tolerance
    full_tail = functools.partial(_reference_pilot, full_tail=True)
    want, want_memo, _ = _run_traced(full_tail, case, kind)
    got, got_memo, got_calls = _run_traced(approximate_on_pilot_cone, case, kind)
    assert [(k, c.hex()) for k, c in got.terms] == [(k, c.hex()) for k, c in want.terms]
    assert [(k, c.hex()) for k, c in got_memo] == [(k, c.hex()) for k, c in want_memo]
    assert (got.n_used, got.stopped_by, got.cone_violated) == (want.n_used, want.stopped_by, want.cone_violated)
    tolerance = case[4]
    if got.stopped_by == TOLERANCE_MET and settled_by_subtraction(got_calls):
        assert want.final_error_bound <= got.final_error_bound <= tolerance
    else:
        assert got.final_error_bound.hex() == want.final_error_bound.hex()


@settings(max_examples=200, deadline=None)
@example(case=_OVERFLOW, kind="table")
@example(case=_OVERFLOW_LATE, kind="array")
@given(case=_pilot_cases(), kind=st.sampled_from(["table", "array"]))
def test_pilot_rule_flags_the_cone_exactly_when_the_necessary_check_fails(case, kind):
    model, space, spec, table, tolerance, cap = case
    out = approximate_on_pilot_cone(
        _oracle(kind, table), WavenumberStream(model), space, model, spec, tolerance, budget_cap=cap
    )
    if out.n_used >= spec.pilot_size:  # else the stream ended inside the pilot
        member = pilot_necessary_check(_oracle(kind, table), WavenumberStream(model), space, spec, out.n_used)
        assert out.cone_violated == (not member)


def test_an_overflowing_ratio_after_the_pilot_falsifies_the_cone():
    model, space, spec, table, tolerance, cap = _OVERFLOW_LATE
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), space, model, spec, tolerance,
    )
    assert out.n_used == 3
    assert out.final_error_bound == 0.0  # the stream ends after the third entry
    assert out.stopped_by == TOLERANCE_MET
    assert out.cone_violated


# --- the box oracle ---------------------------------------------------------------


def test_box_oracle_is_the_random_function_bitwise():
    fn = make_random_function(4, 3)
    box = fn.support()
    inside = [tuple(k) for k in np.ndindex(box.shape)]
    outside = [(5, 0, 0, 0), (0, 0, 0, 9), (7, 6, 5, 5), (4, 4, 4, 5)]
    want = [fn.coefficient(k).hex() for k in inside + outside]
    single = CoefficientOracle.from_array(box)
    assert [single.query(k).hex() for k in inside + outside] == want
    rows = np.array(inside + outside, dtype=np.int32)
    assert [c.hex() for _, c in CoefficientOracle.from_array(box).query_rows(rows)] == want
    assert [c.hex() for _, c in fn.oracle().query_rows(rows)] == want


def test_box_oracle_rows_and_keys_outside_the_box():
    oracle = CoefficientOracle.from_array(np.arange(1.0, 7.0).reshape(2, 3))
    rows = np.array([[1, 2], [2, 0], [0, 3], [-1, 0], [0, 0]], dtype=np.int32)
    assert oracle.query_rows(rows) == [
        ((1, 2), 6.0), ((2, 0), 0.0), ((0, 3), 0.0), ((-1, 0), 0.0), ((0, 0), 1.0)
    ]
    assert oracle.query((1, 1)) == 5.0
    assert oracle.query((0, 0, 0)) == 0.0


# --- batch semantics ----------------------------------------------------------------


def _counting_oracle(values):
    """An oracle with a vectorised evaluator over ``values[k[0]]``; logs both evaluators' calls."""
    log = {"one": [], "batch": []}

    def one(k):
        log["one"].append(k)
        return values[k[0]]

    def batch(rows):
        log["batch"].append([tuple(r) for r in rows.tolist()])
        return np.array([values[r[0]] for r in rows.tolist()])

    oracle = CoefficientOracle(one)
    oracle._batch = batch
    return oracle, log


def test_batch_evaluates_each_new_key_once():
    oracle, log = _counting_oracle([0.5, -1.0, 2.0, 3.0])
    assert oracle.query((1, 0)) == -1.0
    rows = np.array([[0, 0], [1, 0], [0, 0], [2, 0], [2, 0]], dtype=np.int32)
    assert oracle.query_rows(rows) == [
        ((0, 0), 0.5), ((1, 0), -1.0), ((0, 0), 0.5), ((2, 0), 2.0), ((2, 0), 2.0)
    ]
    assert log == {"one": [(1, 0)], "batch": [[(0, 0), (2, 0)]]}
    assert oracle.cost == 3
    # all memoised now: no evaluator runs
    assert [c for _, c in oracle.query_rows(rows[::-1])] == [2.0, 2.0, 0.5, -1.0, 0.5]
    assert oracle.query((2, 0)) == 2.0
    assert len(log["batch"]) == 1 and len(log["one"]) == 1
    assert oracle.query_rows(np.zeros((0, 2), dtype=np.int32)) == []


def test_batch_without_an_evaluator_queries_row_by_row():
    calls = []

    def fn(k):
        calls.append(k)
        return float(sum(k))

    oracle = CoefficientOracle.from_function(fn)
    oracle.query((1, 1))
    rows = np.array([[1, 1], [0, 3], [0, 3]], dtype=np.int32)
    assert oracle.query_rows(rows) == [((1, 1), 2.0), ((0, 3), 3.0), ((0, 3), 3.0)]
    assert calls == [(1, 1), (0, 3)]
    assert oracle.cost == 2


@pytest.mark.parametrize(
    "bad, vectorised",
    # a complex value would turn a vectorised evaluator's whole array complex
    [(v, True) for v in (math.nan, math.inf, -math.inf)] + [(v, False) for v in (math.nan, math.inf, 1j)],
)
def test_batch_rejects_a_value_that_is_not_a_finite_real(bad, vectorised):
    values = [1.0, bad, 2.0]
    if vectorised:
        oracle, _ = _counting_oracle(values)
    else:
        oracle = CoefficientOracle.from_function(lambda k: values[k[0]])
    rows = np.array([[0], [1], [2]], dtype=np.int32)
    with pytest.raises(ValueError, match=r"coefficient at \(1,\) is not a finite real"):
        oracle.query_rows(rows)
    with pytest.raises(ValueError, match=r"coefficient at \(1,\) is not a finite real"):
        oracle.query((1,))
    assert oracle.query((0,)) == 1.0
    assert oracle.cost == 1  # the values after the bad one are not kept, as row-by-row queries would not


# --- the table oracle: one lookup pass against row-by-row queries --------------


def _row_by_row(oracle, rows):
    """``query_rows`` as a loop of ``query``; on a raise, the pairs made so far and the error."""
    pairs = []
    try:
        for row in rows.tolist():
            pairs.append((tuple(row), oracle.query(row)))
    except ValueError as error:
        return pairs, str(error)
    return pairs, None


def _batched(oracle, rows):
    try:
        return oracle.query_rows(rows), None
    except ValueError as error:
        return None, str(error)


def _memo(oracle):
    return [(k, c.hex()) for k, c in oracle._memo.items()]


@st.composite
def _table_batches(draw):
    """A table over a small box (some keys off it), a default, earlier queries and a batch.

    The batch repeats rows and reuses keys already queried; a non-finite
    table value or default appears in some draws.
    """
    d = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, 3)] * d)
    finite = st.floats(-10.0, 10.0, allow_nan=False)
    value = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf])) if draw(st.booleans()) else finite
    table = draw(st.dictionaries(keys, value, max_size=20))
    default = draw(st.one_of(st.just(0.0), finite, st.just(math.nan)))
    earlier = draw(st.lists(keys, max_size=6))
    batch = draw(st.lists(st.one_of(keys, st.sampled_from(earlier or [(0,) * d])), max_size=30))
    return table, default, earlier, np.array(batch, dtype=np.int32).reshape(len(batch), d)


@settings(max_examples=300, deadline=None)
@example(case=({(0,): 1.0, (2,): math.nan}, 0.0, [(1,)], np.array([[0], [1], [0], [2], [3]], np.int32)))
@example(case=({(0, 1): math.inf}, 0.5, [(0, 0)], np.array([[0, 0], [3, 3], [0, 1]], np.int32)))
@given(case=_table_batches())
def test_table_batch_equals_row_by_row_queries(case):
    table, default, earlier, rows = case
    batch, single = (CoefficientOracle.from_table(table, default) for _ in range(2))
    for oracle in (batch, single):
        for k in earlier:
            try:
                oracle.query(k)
            except ValueError:
                pass
    got, got_error = _batched(batch, rows)
    want, want_error = _row_by_row(single, rows)
    assert got_error == want_error
    if want_error is None:
        assert [(k, c.hex()) for k, c in got] == [(k, c.hex()) for k, c in want]
    assert _memo(batch) == _memo(single)
    assert batch.cost == single.cost


def test_table_batch_serves_duplicates_earlier_keys_and_the_default_once_each():
    oracle = CoefficientOracle.from_table({(0, 0): 1.5, (1, 0): -2.0, (0, 1): 0.25}, default=-0.5)
    assert oracle.query((0, 1)) == 0.25
    rows = np.array([[1, 0], [0, 1], [1, 0], [3, 3], [0, 0], [3, 3]], dtype=np.int32)
    assert oracle.query_rows(rows) == [
        ((1, 0), -2.0), ((0, 1), 0.25), ((1, 0), -2.0), ((3, 3), -0.5), ((0, 0), 1.5), ((3, 3), -0.5)
    ]
    assert list(oracle._memo) == [(0, 1), (1, 0), (3, 3), (0, 0)]
    assert oracle.cost == 4
    assert all(type(c) is float for c in oracle._memo.values())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_batch_rejects_a_non_finite_value_where_row_by_row_queries_do(bad):
    table = {(0,): 1.0, (1,): bad, (2,): 2.0}
    rows = np.array([[0], [3], [1], [2]], dtype=np.int32)
    batch, single = CoefficientOracle.from_table(table), CoefficientOracle.from_table(table)
    with pytest.raises(ValueError, match=r"coefficient at \(1,\) is not a finite real") as got:
        batch.query_rows(rows)
    _, want = _row_by_row(single, rows)
    assert str(got.value) == want
    assert _memo(batch) == _memo(single) == [((0,), (1.0).hex()), ((3,), (0.0).hex())]
    # a non-finite default is rejected off the table, as a query rejects it
    off = CoefficientOracle.from_table({(0,): 1.0}, default=bad)
    with pytest.raises(ValueError, match=r"coefficient at \(5,\) is not a finite real"):
        off.query_rows(np.array([[0], [5]], dtype=np.int32))
    assert off.cost == 1


# --- the pilot step's lookup ----------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1j])
def test_query_key_is_query_for_a_normalised_key(bad):
    values = {(0, 1): 0.5, (2, 0): bad}
    oracles = [CoefficientOracle.from_function(lambda k: values.get(k, 0.0)) for _ in range(2)]
    if not isinstance(bad, complex):
        oracles.append(CoefficientOracle.from_table(values))
    for oracle in oracles:
        assert oracle.query_key((0, 1)) == 0.5
        assert oracle.query_key((0, 1)) == oracle.query(np.array([0, 1]))
        assert oracle.query_key((1, 1)) == 0.0
        with pytest.raises(ValueError) as got:
            oracle.query_key((2, 0))
        with pytest.raises(ValueError) as want:
            oracle.query((2, 0))
        assert str(got.value) == str(want.value)
        assert "coefficient at (2, 0) is not a finite real" in str(got.value)
        assert list(oracle._memo) == [(0, 1), (1, 1)]


def test_finite_exponent_pilot_rule_raises_on_a_non_finite_coefficient_as_the_reference_loop():
    model = WeightModel(2, (0.5, 0.4), AlgebraicDecay(4.5))
    space, spec = SpaceConfig(2.0, 1.0), PilotConeSpec(3, 1.4)
    entries = WavenumberStream(model).prefix(8)
    table = {k: 0.5 * lam for k, lam in entries}
    table[entries[5][0]] = math.nan  # after the pilot: only a step of the loop queries it
    errors, memos = [], []
    for rule in (approximate_on_pilot_cone, _reference_pilot):
        oracle = CoefficientOracle.from_table(table)
        with pytest.raises(ValueError) as error:
            rule(oracle, WavenumberStream(model), space, model, spec, 1e-12)
        errors.append(str(error.value))
        memos.append(_memo(oracle))
    assert errors[0] == errors[1]
    assert f"coefficient at {entries[5][0]} is not a finite real" in errors[0]
    assert memos[0] == memos[1] and len(memos[0]) == 5
