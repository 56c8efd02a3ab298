"""Batched coefficient queries, and the pilot rule that samples in one batch.

At an infinite ratio exponent the pilot rule finds its stop from the tail
norms alone and then samples the whole extension in one batch.  A copy of
the one-query-per-step loop it replaced is kept below as the reference:
every outcome field and the oracle's memo must match it exactly, and the
rule's tail-norm calls must be some of the reference's, in its order, ending
at the same position.
"""

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


def _reference_pilot(oracle, stream, config, model, spec, tolerance, budget_cap=DEFAULT_BUDGET_CAP):
    """The pilot rule with one ``stream.entry(n)`` and one query per step."""
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
        bound = pilot_norm * root * tails.tail(n)
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
    calls = []
    tail = _TailNorms.tail

    def traced(self, n):
        calls.append(n)
        return tail(self, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_TailNorms, "tail", traced)
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
    # reference's tail norms only, in order, and for the same last one
    remaining = iter(want_calls)
    assert all(n in remaining for n in got_calls)
    assert got_calls[-1:] == want_calls[-1:]


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
