"""Stopping rules, certificates, and cost diagnostics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneapprox import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET_CAP,
    TOLERANCE_MET,
    AlgebraicDecay,
    ApproxOutcome,
    CoefficientOracle,
    PilotConeSpec,
    RegularityConstants,
    SpaceConfig,
    TableDecay,
    TrackingConeSpec,
    WavenumberStream,
    WeightModel,
    approximate_on_ball,
    approximate_on_pilot_cone,
    approximate_on_tracking_cone,
    ball_cost_bound,
    block_ratio_norm,
    block_weight_norm,
    pilot_complexity_lower,
    pilot_cost_bound,
    pilot_error_bound,
    pilot_necessary_check,
    pilot_optimality_factor,
    prefix_approximation,
    seq_norm,
    solution_operator_norm,
    tail_weight_norm,
    tight_function,
    tracking_complexity_lower,
    tracking_cost_bound,
    tracking_error_bound,
    tracking_necessary_check,
    tracking_optimality_factor,
    tracking_pilot_inflation,
    tracking_tail_norm,
    verify_regularity,
    zeta,
)

from coneapprox.approximation import _TailNorms
from conftest import (
    exact_residual,
    pilot_cone_member,
    random_model,
    random_space,
    scratch_stream,
    tracking_cone_member,
)


def _model_1d(rate=2.0):
    return WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(rate))


def _model_2d():
    return WeightModel(
        dimension=2, coordinate_weights=(1.0, 0.5), decay=AlgebraicDecay(2.0)
    )


# --- fixed-length truncation -------------------------------------------------

def test_prefix_zero_terms():
    oracle = CoefficientOracle.from_table({})
    out = prefix_approximation(oracle, WavenumberStream(_model_2d()), 0)
    assert out.terms == ()
    assert out.n_used == 0


def test_prefix_exact_recovery():
    model = _model_2d()
    entries = WavenumberStream(model).prefix(2)
    table = {k: 0.3 * lam for k, lam in entries}
    cfg = SpaceConfig(2.0, 2.0)
    out = prefix_approximation(CoefficientOracle.from_table(table), WavenumberStream(model), 2)
    assert exact_residual(out, table, cfg) == 0.0


def test_prefix_residual_is_tail_coefficient_norm():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 1.0)
    support = [k for k, _ in WavenumberStream(model).prefix(3)]
    oracle = tight_function(cfg, model, support, 1.0)
    out = prefix_approximation(oracle, WavenumberStream(model), 1)
    expected = seq_norm(
        [oracle.query(support[1]), oracle.query(support[2])], cfg.solution_exponent
    )
    table = {k: oracle.query(k) for k in support}
    assert exact_residual(out, table, cfg) == pytest.approx(expected, rel=1e-14)


# --- weight tail norms --------------------------------------------------------

def test_tail_norm_sup_case():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)  # tail exponent infinite
    assert tail_weight_norm(cfg, model, WavenumberStream(model), 2) == 0.5


def test_tail_norm_at_zero_is_operator_norm():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 1.0)
    assert tail_weight_norm(cfg, model, WavenumberStream(model), 0) == pytest.approx(
        solution_operator_norm(cfg, model), rel=1e-14
    )


def test_tail_norm_single_axis_value():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 1.0)  # tail exponent 2
    expected = math.sqrt(zeta(4.0) - 1.0)
    assert tail_weight_norm(cfg, model, WavenumberStream(model), 2) == pytest.approx(
        expected, rel=1e-12
    )


def test_tail_norm_clamps_round_off():
    model = WeightModel(
        dimension=1, coordinate_weights=(1.0,), decay=TableDecay((1.0, 0.5), 0.0)
    )
    cfg = SpaceConfig(2.0, 1.0)
    assert tail_weight_norm(cfg, model, WavenumberStream(model), 3) == 0.0


def _exact_tail_powers(model, p):
    """Exact ``sum(lam**p)`` past every depth of a finite stream, for integer ``p``."""
    powers = [Fraction(lam) ** p for lam in WavenumberStream(model).weights(10 ** 6).tolist()]
    tails = [Fraction(0)]
    for value in reversed(powers):
        tails.append(tails[-1] + value)
    return tails[::-1]


def test_tail_norm_never_undershoots_pinned_model():
    # 64 live wavenumbers; plain subtraction without slack undershot the
    # exact tail at 15 of these 65 depths
    model = WeightModel(3, (0.9, 0.6, 0.3), TableDecay((1.0, 0.5, 0.2), 0.0))
    cfg = SpaceConfig(2.0, 1.0)
    stream = WavenumberStream(model)
    exact = _exact_tail_powers(model, 2)
    assert len(exact) == 65
    for n, tail_power in enumerate(exact):
        assert Fraction(tail_weight_norm(cfg, model, stream, n)) ** 2 >= tail_power


def test_tail_norm_never_undershoots_at_a_large_exponent():
    # at p = 400 the rounding of the root alone, about p/2 ulps of the p-th
    # power, exceeds a fixed slack on the power sum: a 64-ulp slack there
    # undershot at 30 of these 65 depths, plain subtraction at 33
    model = WeightModel(3, (0.9, 0.6, 0.3), TableDecay((1.0, 0.5, 0.2), 0.0))
    cfg = SpaceConfig(math.inf, 400.0)
    stream = WavenumberStream(model)
    exact = _exact_tail_powers(model, 400)
    for n, tail_power in enumerate(exact):
        assert Fraction(tail_weight_norm(cfg, model, stream, n)) ** 400 >= tail_power


# spaces with integer tail exponents 1, 2, 3 and 4, so exact sums are rational
_INTEGER_TAIL_SPACES = (
    SpaceConfig(math.inf, 1.0), SpaceConfig(2.0, 1.0), SpaceConfig(3.0, 1.5), SpaceConfig(4.0, 2.0)
)


@st.composite
def _truncated_models(draw):
    d = draw(st.integers(1, 3))
    ratios = draw(st.lists(st.floats(0.05, 1.0), min_size=0, max_size=3))
    values = [1.0]
    for r in ratios:
        values.append(values[-1] * r)
    gamma = [1.0]
    for _ in range(d):
        gamma.append(gamma[-1] * draw(st.floats(0.3, 1.0)))
    return WeightModel(
        dimension=d,
        coordinate_weights=tuple(draw(st.floats(0.05, 1.5)) for _ in range(d)),
        decay=TableDecay(tuple(values), 0.0),
        interaction_weights=tuple(gamma),
    )


@settings(max_examples=60, deadline=5000)
@given(model=_truncated_models(), cfg=st.sampled_from(_INTEGER_TAIL_SPACES))
def test_tail_norm_never_undershoots_truncated_tables(model, cfg):
    p = int(cfg.tail_exponent)
    stream = WavenumberStream(model)
    for n, tail_power in enumerate(_exact_tail_powers(model, p)):
        assert Fraction(tail_weight_norm(cfg, model, stream, n)) ** p >= tail_power


# long truncated tables whose deep positions need windows, most of which close
# before the end of the stream, where the auxiliary bound covers what lies past
_LONG_TABLE_SPACES = (
    (WeightModel(2, (0.9, 0.6), TableDecay(tuple(0.7 ** i for i in range(40)), 0.0)), SpaceConfig(2.0, 1.0)),
    (WeightModel(2, (0.9, 0.6), TableDecay(tuple(0.8 ** i for i in range(100)), 0.0)), SpaceConfig(math.inf, 1.0)),
)


@pytest.mark.parametrize(("model", "cfg"), _LONG_TABLE_SPACES, ids=("1681-entries-p2", "10201-entries-p1"))
def test_tail_norm_never_undershoots_where_windows_close_early(monkeypatch, model, cfg):
    # without the window sum's allowance the p = 1 table undershot at 121 positions
    early = []
    value = _TailNorms._value

    def logged(self, head, scaled, count, rest):
        early.append(rest > 0.0)  # a bound past the window's end: it closed before the stream's
        return value(self, head, scaled, count, rest)

    monkeypatch.setattr(_TailNorms, "_value", logged)
    p = int(cfg.tail_exponent)
    tails = _TailNorms(cfg, model, WavenumberStream(model))
    for n, tail_power in enumerate(_exact_tail_powers(model, p)):
        assert Fraction(tails.tail(n)) ** p >= tail_power
    assert sum(early) > 0


def _floors_exceed_exact(model, cfg):
    """Positions whose floor, over a fully enumerated stream, lies above the exact tail."""
    p = int(cfg.tail_exponent)
    stream = WavenumberStream(model)
    stream.weights(10 ** 6)  # every weight past each position is enumerated: the tightest floors
    floors = _TailNorms(cfg, model, stream).floors(0, 10 ** 6).tolist()
    exact = _exact_tail_powers(model, p)
    assert len(floors) == len(exact) - 1
    return [m for m, floor in enumerate(floors) if Fraction(floor) ** p > exact[m]]


_PINNED_64 = WeightModel(3, (0.9, 0.6, 0.3), TableDecay((1.0, 0.5, 0.2), 0.0))


@pytest.mark.parametrize(
    ("model", "cfg"),
    ((_PINNED_64, SpaceConfig(3.0, 1.5)), (_PINNED_64, SpaceConfig(math.inf, 400.0))) + _LONG_TABLE_SPACES,
    ids=("64-entries-p3", "64-entries-p400", "1681-entries-p2", "10201-entries-p1"),
)
def test_tail_floors_never_exceed_the_exact_tail(model, cfg):
    # against the exact tail, not tail(), which rounds up; at p = 400 the powers
    # past position 12 are subnormal, and a relative rounding alone left its floor above
    assert not _floors_exceed_exact(model, cfg)


@settings(max_examples=60, deadline=5000)
@given(model=_truncated_models(), cfg=st.sampled_from(_INTEGER_TAIL_SPACES))
def test_tail_floors_never_exceed_the_exact_tail_of_truncated_tables(model, cfg):
    assert not _floors_exceed_exact(model, cfg)


def test_tail_norm_non_increasing(rng):
    model = random_model(rng, max_dim=3, min_rate=2.0)
    cfg = random_space(rng)
    stream = WavenumberStream(model)
    values = [tail_weight_norm(cfg, model, stream, n) for n in range(40)]
    for a, b in zip(values, values[1:]):
        assert b <= a * (1.0 + 1e-12)


# --- ball rule ----------------------------------------------------------------

def test_ball_loose_tolerance_needs_nothing():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    oracle = CoefficientOracle.from_table({(0, 0): 0.5})
    out = approximate_on_ball(oracle, WavenumberStream(model), cfg, model, 1.0, 1.5)
    assert out.n_used == 0
    assert out.stopped_by == TOLERANCE_MET


def test_ball_worked_example():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    oracle = CoefficientOracle.from_table({})
    out = approximate_on_ball(oracle, WavenumberStream(model), cfg, model, 1.0, 0.6)
    assert out.n_used == 2
    assert ball_cost_bound(cfg, model, 1.0, 0.6) == 2


def test_ball_cost_matches_direct_scan(rng):
    for _ in range(20):
        model = random_model(rng, max_dim=3, min_rate=2.0)
        cfg = random_space(rng)
        radius = rng.uniform(0.5, 3.0)
        eps = 10.0 ** rng.uniform(-3, 0)
        stream = WavenumberStream(model)
        n = 0
        while radius * tail_weight_norm(cfg, model, stream, n) > eps:
            n += 1
        oracle = CoefficientOracle.from_table({})
        out = approximate_on_ball(oracle, WavenumberStream(model), cfg, model, radius, eps)
        assert out.n_used == n == ball_cost_bound(cfg, model, radius, eps)
        assert out.final_error_bound <= eps


def test_ball_guarantee_on_members(rng):
    for _ in range(20):
        model = random_model(rng, max_dim=3, min_rate=2.5)
        cfg = random_space(rng)
        radius = rng.uniform(0.5, 2.0)
        entries = WavenumberStream(model).prefix(30)
        # any coefficient table with ratio norm <= radius lies in the ball
        table = {k: rng.uniform(-1, 1) * lam for k, lam in entries}
        norm = seq_norm([abs(v) / lam for (k, lam), v in zip(entries, table.values())],
                        cfg.ratio_exponent)
        table = {k: v * radius / (norm * 1.25) for k, v in table.items()}
        eps = 10.0 ** rng.uniform(-2, 0)
        oracle = CoefficientOracle.from_table(table)
        out = approximate_on_ball(oracle, WavenumberStream(model), cfg, model, radius, eps)
        assert out.stopped_by == TOLERANCE_MET
        assert exact_residual(out, table, cfg) <= eps


def test_ball_budget_exhaustion():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 1.0)
    oracle = CoefficientOracle.from_table({})
    out = approximate_on_ball(
        oracle, WavenumberStream(model), cfg, model, 1.0, 1e-9, budget_cap=50
    )
    assert out.stopped_by == BUDGET_EXHAUSTED
    assert out.n_used == 50
    assert ball_cost_bound(cfg, model, 1.0, 1e-9, budget_cap=50) is None


def test_ball_rule_and_cost_bound_agree_at_tie_tolerances():
    # tolerances at radius * tail(n) and its two float neighbours: the rule
    # reports the bound it compared, and the cost bound makes the same test
    model = _model_2d()
    rng = random.Random(0)
    for pair in [(2.0, 2.0), (math.inf, 1.0), (2.0, 1.0)]:
        cfg = SpaceConfig(*pair)
        tails = _TailNorms(cfg, model, WavenumberStream(model))
        for n in range(24):
            radius = rng.uniform(0.3, 3.0)
            tie = radius * tails.tail(n)
            for eps in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)):
                out = approximate_on_ball(
                    CoefficientOracle.from_table({}), WavenumberStream(model), cfg, model,
                    radius, eps,
                )
                assert out.stopped_by == TOLERANCE_MET
                assert out.final_error_bound <= eps
                assert out.n_used == ball_cost_bound(cfg, model, radius, eps)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_ball_rule_and_cost_bounds_reject_a_bad_radius(radius):
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = PilotConeSpec(3, 1.5)
    with pytest.raises(ValueError, match="radius"):
        approximate_on_ball(
            CoefficientOracle.from_table({}), WavenumberStream(model), cfg, model, radius, 0.1
        )
    with pytest.raises(ValueError, match="radius"):
        ball_cost_bound(cfg, model, radius, 0.1)
    with pytest.raises(ValueError, match="radius"):
        pilot_cost_bound(cfg, model, spec, radius, 0.1)
    with pytest.raises(ValueError, match="radius"):
        pilot_complexity_lower(cfg, model, spec, radius, 0.1)
    # outside (0, inf) no tracking block can meet the cost test, and on an
    # endless stream the walk towards block 64 exhausts memory; a finite
    # stream keeps a missing check from doing so here
    finite = WeightModel(1, (1.0,), TableDecay((1.0, 0.5), 0.0))
    tracking = TrackingConeSpec(start=2, inflation=2.0, decay=0.5)
    constants = RegularityConstants(2.0, 0.3, 0.6, 4.0, 0.5)
    with pytest.raises(ValueError, match="radius"):
        tracking_cost_bound(cfg, finite, WavenumberStream(finite), tracking, radius, 0.1)
    with pytest.raises(ValueError, match="radius"):
        tracking_complexity_lower(
            cfg, finite, WavenumberStream(finite), tracking, constants, radius, 0.1
        )


def test_rules_reject_a_nan_tolerance():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    oracle = CoefficientOracle.from_table({})
    with pytest.raises(ValueError, match="tolerance"):
        approximate_on_ball(oracle, WavenumberStream(model), cfg, model, 1.0, math.nan)
    with pytest.raises(ValueError, match="tolerance"):
        approximate_on_pilot_cone(
            oracle, WavenumberStream(model), cfg, model, PilotConeSpec(3, 1.5), math.nan
        )
    with pytest.raises(ValueError, match="tolerance"):
        approximate_on_tracking_cone(
            oracle, WavenumberStream(model), cfg, model,
            TrackingConeSpec(start=1, inflation=2.0, decay=0.5), math.nan,
        )


def test_fixed_length_rule_is_fooled_at_the_tail_norm():
    # supported entirely past the sampled prefix, norm R: the fixed rule
    # returns zero while the solution norm approaches R times the tail norm
    model = _model_2d()
    cfg = SpaceConfig(2.0, 1.0)
    radius = 2.0
    n = 5
    entries = WavenumberStream(model).prefix(400)
    support = [k for k, _ in entries[n:]]
    fool = tight_function(cfg, model, support, radius)
    out = prefix_approximation(fool, WavenumberStream(model), n)
    assert all(coef == 0.0 for _, coef in out.terms)
    table = {k: fool.query(k) for k in support}
    err = exact_residual(out, table, cfg)
    cap = radius * tail_weight_norm(cfg, model, WavenumberStream(model), n)
    assert err <= cap * (1.0 + 1e-12)
    assert err >= 0.9 * cap


# --- pilot certificate ---------------------------------------------------------

def test_pilot_error_bound_equal_norms():
    cfg = SpaceConfig(2.0, 1.0)
    p = 0.8
    got = pilot_error_bound(cfg, 2.0, p, p, 0.5)
    assert got == pytest.approx(p * math.sqrt(3.0) * 0.5, rel=1e-14)


def test_pilot_error_bound_zero_function():
    assert pilot_error_bound(SpaceConfig(2.0, 1.0), 1.5, 0.0, 0.0, 0.7) == 0.0


def test_pilot_error_bound_worked_value():
    cfg = SpaceConfig(2.0, 1.0)
    norm = math.sqrt(1.25)
    assert pilot_error_bound(cfg, 2.0, norm, norm, 0.5) == pytest.approx(
        0.9682458365518543, rel=1e-13
    )


def test_pilot_error_bound_rejects_cone_violation():
    cfg = SpaceConfig(2.0, 1.0)
    with pytest.raises(ValueError):
        pilot_error_bound(cfg, 1.1, 1.0, 5.0, 0.5)


def test_pilot_error_bound_sup_exponent_limit():
    cfg = SpaceConfig(math.inf, 1.0)
    assert pilot_error_bound(cfg, 1.5, 1.0, 1.2, 0.25) == pytest.approx(
        1.5 * 1.0 * 0.25, rel=1e-14
    )


# --- pilot rule -----------------------------------------------------------------

def test_pilot_zero_function():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table({}),
        WavenumberStream(model),
        cfg,
        model,
        PilotConeSpec(4, 1.5),
        0.1,
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.n_used == 4
    assert out.final_error_bound == 0.0
    assert not out.cone_violated


@pytest.mark.parametrize("pair", [(2.0, 1.0), (math.inf, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("pilot_size", [20, 2])  # past the 16 live entries, and inside them
def test_pilot_on_a_stream_that_runs_out(pair, pilot_size):
    # degrees 0..3 on both axes are live, so the stream ends after 16 entries;
    # a tolerance below every positive bound makes the rule sample all of them
    model = WeightModel(2, (1.0, 0.5), TableDecay((1.0, 0.5, 0.25), 0.0), (1.0, 0.8, 0.6))
    table = {k: (-1.0) ** i * lam for i, (k, lam) in enumerate(WavenumberStream(model).prefix(100))}
    cfg = SpaceConfig(*pair)
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
        PilotConeSpec(pilot_size, 4.0), 1e-300,
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.final_error_bound == 0.0
    assert out.n_used == len(table) == 16
    expected = prefix_approximation(CoefficientOracle.from_table(table), WavenumberStream(model), 100)
    assert out.terms == expected.terms
    assert not out.cone_violated


def test_pilot_worked_instance_matches_direct_loop():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    stream = WavenumberStream(model)
    pilot_keys = [k for k, _ in stream.prefix(2)]
    oracle = tight_function(cfg, model, pilot_keys, 1.0)
    out = approximate_on_pilot_cone(
        oracle, WavenumberStream(model), cfg, model, PilotConeSpec(2, 1.1), 0.05
    )
    # direct loop over the weight sequence: the certificate is
    # sqrt(A^2 - 1) * pilot_norm * tail(n) with pilot_norm = 1
    lam = [l for _, l in WavenumberStream(model).prefix(40)]
    threshold = 0.05 / math.sqrt(1.1 ** 2 - 1.0)
    n = 2
    while lam[n] > threshold:
        n += 1
    assert n == 9
    assert out.n_used == n
    assert out.stopped_by == TOLERANCE_MET


def test_pilot_supported_cost_equals_formula(rng):
    for _ in range(15):
        model = random_model(rng, max_dim=3, min_rate=2.0)
        cfg = random_space(rng)
        spec = PilotConeSpec(rng.randint(2, 8), rng.uniform(1.05, 2.5))
        entries = WavenumberStream(model).prefix(spec.pilot_size)
        if len(entries) < spec.pilot_size:
            continue
        table = {k: rng.uniform(0.2, 1.0) * rng.choice([-1, 1]) * lam for k, lam in entries}
        radius = seq_norm([abs(v) / lam for (k, lam), v in zip(entries, table.values())],
                          cfg.ratio_exponent)
        eps = 10.0 ** rng.uniform(-4, -1)
        out = approximate_on_pilot_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
            spec, eps,
        )
        assert out.stopped_by == TOLERANCE_MET
        assert out.n_used == pilot_cost_bound(cfg, model, spec, radius, eps)
        assert not out.cone_violated


def test_pilot_supported_cost_equals_formula_at_tie_tolerances():
    # a pilot-supported input of full norm R = seq_norm(pilot ratios) runs the
    # rule on (factor * R) * tail(n), with factor (A**p - 1)**(1/p) or A at
    # p = inf, the product the cost bound compares; tolerances at that
    # product and its two float neighbours must give the same count
    model = _model_2d()
    for pair in [(math.inf, 1.0), (2.0, 2.0), (2.0, 1.0)]:
        cfg = SpaceConfig(*pair)
        p = cfg.ratio_exponent
        rng = random.Random(0)
        for _ in range(12):
            spec = PilotConeSpec(rng.randint(2, 5), rng.uniform(1.1, 2.0))
            factor = spec.inflation if math.isinf(p) else (spec.inflation ** p - 1.0) ** (1.0 / p)
            entries = WavenumberStream(model).prefix(spec.pilot_size)
            table = {k: rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0) * lam for k, lam in entries}
            radius = seq_norm([abs(table[k]) / lam for k, lam in entries], p)
            tails = _TailNorms(cfg, model, WavenumberStream(model))
            for n in range(spec.pilot_size, spec.pilot_size + 3):
                tie = factor * radius * tails.tail(n)
                for eps in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)):
                    out = approximate_on_pilot_cone(
                        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
                        spec, eps,
                    )
                    assert out.final_error_bound <= eps
                    assert out.n_used == pilot_cost_bound(cfg, model, spec, radius, eps)


def test_pilot_guarantee_on_cone_members(rng):
    for _ in range(25):
        model = random_model(rng, max_dim=3, min_rate=2.5)
        cfg = random_space(rng)
        spec = PilotConeSpec(rng.randint(2, 6), rng.uniform(1.1, 2.0))
        try:
            table = pilot_cone_member(rng, model, cfg, spec.pilot_size, spec.inflation)
        except ValueError:
            continue
        eps = 10.0 ** rng.uniform(-3, -1)
        out = approximate_on_pilot_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
            spec, eps,
        )
        if out.stopped_by == TOLERANCE_MET:
            residual = exact_residual(out, table, cfg)
            assert residual <= eps
            assert residual <= out.final_error_bound
            assert out.final_error_bound <= eps
        assert not out.cone_violated


def test_pilot_flags_cone_violation_and_continues():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    entries = WavenumberStream(model).prefix(3)
    table = {
        entries[0][0]: 0.1 * entries[0][1],
        entries[1][0]: 0.0,
        entries[2][0]: 10.0 * entries[2][1],
    }
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table),
        WavenumberStream(model),
        cfg,
        model,
        PilotConeSpec(2, 1.1),
        1e-5,
    )
    assert out.cone_violated
    assert out.n_used >= 3


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_pilot_cone_violation_flag_is_scale_invariant(scale):
    # the partial ratio norm escapes the inflated pilot norm by a relative
    # 1e-9, far beyond round-off, so the flag must not depend on the scale
    model = _model_1d()
    cfg = SpaceConfig(2.0, 1.0)
    spec = PilotConeSpec(2, 1.5)
    entries = WavenumberStream(model).prefix(3)
    third = math.sqrt(2.0 * (1.5 ** 2 * (1.0 + 1e-9) ** 2 - 1.0))
    table = {k: scale * ratio * lam for (k, lam), ratio in zip(entries, (1.0, 1.0, third))}
    assert not pilot_necessary_check(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, spec, 3
    )
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
        spec, 1e-300, budget_cap=3,
    )
    assert out.n_used == 3
    assert out.cone_violated


@pytest.mark.parametrize("pair", [(math.inf, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("excess, outside", [(5e-13, True), (5e-14, False)])
def test_pilot_rule_and_necessary_check_share_one_membership_slack(pair, excess, outside):
    # pilot ratios (1, 0.5) and a third that lifts the partial ratio norm a
    # relative excess above the inflated pilot norm: 5e-13 is past the
    # round-off window, where the rule and the check must both see a
    # violation, and 5e-14 is inside it, where neither may
    model = WeightModel(1, (0.5,), AlgebraicDecay(3.0))
    cfg = SpaceConfig(*pair)
    spec = PilotConeSpec(2, 1.5)
    pilot_norm = seq_norm([1.0, 0.5], cfg.ratio_exponent)
    partial_norm = spec.inflation * pilot_norm * (1.0 + excess)
    third = partial_norm if math.isinf(cfg.ratio_exponent) else math.sqrt(partial_norm ** 2 - 1.25)
    entries = WavenumberStream(model).prefix(3)
    table = {k: ratio * lam for (k, lam), ratio in zip(entries, (1.0, 0.5, third))}
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
        spec, 1e-300, budget_cap=3,
    )
    assert out.n_used == 3
    assert out.cone_violated == outside
    assert pilot_necessary_check(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, spec, 3
    ) == (not outside)


def test_pilot_budget_exhaustion_reports_the_certificate_at_the_cap():
    # the input lives on the pilot segment, so the partial norm stays the
    # pilot norm and the bound at the cap is A * pilot_norm * tail(7)
    model = _model_2d()
    cfg = SpaceConfig(math.inf, 1.0)
    entries = WavenumberStream(model).prefix(3)
    table = {k: ratio * lam for (k, lam), ratio in zip(entries, (1.0, -0.5, 0.25))}
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
        PilotConeSpec(3, 1.5), 1e-12, budget_cap=7,
    )
    assert out.stopped_by == BUDGET_EXHAUSTED
    assert out.n_used == len(out.terms) == 7
    tail = tail_weight_norm(cfg, model, WavenumberStream(model), 7)
    assert out.final_error_bound == pilot_error_bound(cfg, 1.5, 1.0, 1.0, tail) > 1e-12
    assert not out.cone_violated


def test_pilot_stops_on_an_exhausted_stream_when_the_bound_is_nan():
    # the third weight is 1e-300, so its ratio overflows to inf and the
    # certificate at the end of the stream is inf * 0 = nan, which clears no
    # tolerance: only the exhausted stream stops the rule
    model = WeightModel(1, (1.0,), TableDecay((1.0, 1e-300), 0.0))
    table = {(0,): 1.0, (1,): 0.5, (2,): 1e10}
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model),
        SpaceConfig(math.inf, 1.0), model, PilotConeSpec(3, 1.5), 1e-3,
    )
    assert out.n_used == 3
    assert out.final_error_bound == 0.0
    assert out.stopped_by == TOLERANCE_MET
    assert [k for k, _ in out.terms] == [(0,), (1,), (2,)]


def test_pilot_cost_monotone_in_tolerance(rng):
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = PilotConeSpec(3, 1.2)
    table = pilot_cone_member(rng, model, cfg, 3, 1.2)
    costs = []
    for eps in [0.3, 0.1, 0.03, 0.01, 0.003]:
        out = approximate_on_pilot_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
            spec, eps,
        )
        costs.append(out.n_used)
    assert costs == sorted(costs)


def test_pilot_scale_equivariance(rng):
    model = _model_2d()
    cfg = SpaceConfig(2.0, 1.0)
    spec = PilotConeSpec(3, 1.3)
    table = pilot_cone_member(rng, model, cfg, 3, 1.3)
    scaled = {k: -7.5 * v for k, v in table.items()}
    eps = 0.02
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model, spec, eps
    )
    out_scaled = approximate_on_pilot_cone(
        CoefficientOracle.from_table(scaled), WavenumberStream(model), cfg, model, spec,
        7.5 * eps,
    )
    assert out.n_used == out_scaled.n_used
    assert [k for k, _ in out.terms] == [k for k, _ in out_scaled.terms]
    assert out_scaled.final_error_bound == pytest.approx(
        7.5 * out.final_error_bound, rel=1e-12
    )


def test_pilot_cost_bounds_trivial_tolerance():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = PilotConeSpec(5, 1.5)
    assert pilot_cost_bound(cfg, model, spec, 1.0, 100.0) == 5
    assert pilot_complexity_lower(cfg, model, spec, 1.0, 100.0) == 5


def test_pilot_essential_optimality_grid():
    model = _model_2d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = PilotConeSpec(4, 1.5)
    omega = pilot_optimality_factor(cfg, spec.inflation)
    assert 0.0 < omega < 1.0
    expected = (1.0 - 1.0 / 1.5) / (2.0 * math.sqrt(1.5 ** 2 - 1.0))
    assert omega == pytest.approx(expected, rel=1e-14)
    for eps in [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]:
        cost = pilot_cost_bound(cfg, model, spec, 1.0, eps)
        floor = pilot_complexity_lower(cfg, model, spec, 1.0, omega * eps)
        assert cost <= floor


def test_pilot_necessary_check_behaviour():
    model = _model_1d()
    entries = WavenumberStream(model).prefix(3)
    spec = PilotConeSpec(2, 1.5)
    cfg = SpaceConfig(2.0, 2.0)
    supported = CoefficientOracle.from_table(
        {k: 0.5 * lam for k, lam in entries[:2]}, default=0.0
    )
    assert pilot_necessary_check(supported, WavenumberStream(model), cfg, spec, 3)
    hidden = CoefficientOracle.from_table({entries[2][0]: 0.3}, default=0.0)
    assert not pilot_necessary_check(hidden, WavenumberStream(model), cfg, spec, 3)
    with pytest.raises(ValueError):
        pilot_necessary_check(hidden, WavenumberStream(model), cfg, spec, 1)


# --- block norms -----------------------------------------------------------------

def test_block_weight_norms_single_axis():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    stream = WavenumberStream(model)
    assert block_weight_norm(stream, cfg, spec, 1) == 1.0
    assert block_weight_norm(stream, cfg, spec, 2) == 0.25


def test_block_ratio_norm_zero_function():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    oracle = CoefficientOracle.from_table({})
    stream = WavenumberStream(model)
    for j in range(1, 6):
        assert block_ratio_norm(oracle, stream, cfg, spec, j) == 0.0


def test_block_ratio_norm_single_block_support():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    stream = WavenumberStream(model)
    lo, hi = spec.block_range(3)
    k, lam = stream.prefix(hi)[lo]
    oracle = CoefficientOracle.from_table({k: 0.4 * lam})
    hits = [j for j in range(1, 7)
            if block_ratio_norm(oracle, stream, cfg, spec, j) > 0.0]
    assert hits == [3]


# --- tracking certificate ---------------------------------------------------------

def test_tracking_error_bound_zero_sigma():
    model = _model_1d()
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    cfg = SpaceConfig(2.0, 2.0)
    assert tracking_error_bound(cfg, model, WavenumberStream(model), spec, 0.0, 1) == 0.0


def test_tracking_zero_block_skips_the_tail_norm():
    # block norm 0 gives bound 0 whatever the tail, so no entry past the
    # block is enumerated (the tail norm would walk to its 65,536-entry guard)
    model = _model_1d(3.0)
    spec = TrackingConeSpec(start=4, inflation=2.0, decay=0.5)
    stream = WavenumberStream(model)
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table({}), stream, SpaceConfig(math.inf, 1.0), model, spec, 1e-6
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.final_error_bound == 0.0
    assert out.n_used == stream.emitted_count == spec.size(1) == 8


def test_cone_specs_from_config_blocks():
    assert PilotConeSpec.from_dict({"size": "4", "inflation": 1.5}) == PilotConeSpec(4, 1.5)
    spec = TrackingConeSpec.from_dict(
        {"start": 2, "inflation": 2.0, "decay": 0.5, "regularity": {"slack": 1.0}}
    )
    assert spec == TrackingConeSpec(start=2, inflation=2.0, decay=0.5)
    arithmetic = TrackingConeSpec.from_dict(
        {"start": 3, "inflation": 1.5, "decay": 0.4, "kind": "arithmetic", "step": 5}
    )
    assert arithmetic.block_range(2) == (8, 13)
    with pytest.raises(ValueError):
        PilotConeSpec.from_dict({"size": 0, "inflation": 1.5})


def test_tracking_error_bound_one_block_tail():
    model = WeightModel(
        dimension=1, coordinate_weights=(1.0,), decay=TableDecay((1.0, 0.5), 0.0)
    )
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    for cfg in [SpaceConfig(2.0, 2.0), SpaceConfig(2.0, 1.0), SpaceConfig(math.inf, 1.0)]:
        got = tracking_error_bound(cfg, model, WavenumberStream(model), spec, 0.7, 1)
        assert got == pytest.approx(2.0 * 0.7 * 0.5 * 0.5, rel=1e-14)


def test_tracking_tail_norm_against_truncated_sum():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    got = tracking_tail_norm(cfg, model, WavenumberStream(model), spec, 1)
    acc = 0.0
    stream = WavenumberStream(model)
    r = 1
    while True:
        term = 0.5 ** r * block_weight_norm(stream, cfg, spec, 1 + r)
        acc += term * term
        if term < 1e-15:
            break
        r += 1
    oracle_value = math.sqrt(acc)
    assert got >= oracle_value * (1.0 - 1e-12)
    assert got == pytest.approx(oracle_value, rel=1e-9)


def _tracking_tail_undershoots(model, cfg, spec, j):
    """Whether ``tracking_tail_norm`` falls below the exact sum over a finite stream.

    Works at (inf, 1), where block norms are sums, and at (2, 2), where they
    are maxima; the solution exponent is 1 or 2, so the sum is rational.
    """
    got = tracking_tail_norm(cfg, model, WavenumberStream(model), spec, j)
    weights = [Fraction(lam) for _, lam in WavenumberStream(model)]
    t, b = int(cfg.solution_exponent), Fraction(spec.decay)
    exact, r = Fraction(0), 1
    while spec.size(j + r - 1) < len(weights):
        lo, hi = spec.block_range(j + r)
        block = weights[lo:hi]
        exact += (b ** r * (max(block) if t == 2 else sum(block))) ** t
        r += 1
    return Fraction(got) ** t < exact


def test_tracking_tail_norm_never_undershoots_pinned_model():
    # the unrounded close returned 0.003238298371270502 here, below the exact sum
    model = WeightModel(
        1,
        (0.10189544801599963,),
        TableDecay(
            (1.0, 0.12409535504370536, 0.10056691771283474, 0.0470504343620909, 0.03519081107364323),
            0.0,
        ),
    )
    spec = TrackingConeSpec(start=2, inflation=1.5, decay=0.3864313923200817)
    assert not _tracking_tail_undershoots(model, SpaceConfig(math.inf, 1.0), spec, 1)


_PINNED_TABLE_MODEL = WeightModel(
    1,
    (0.10189544801599963,),
    TableDecay(
        (1.0, 0.12409535504370536, 0.10056691771283474, 0.0470504343620909, 0.03519081107364323),
        0.0,
    ),
)


_PINNED_SPEC = TrackingConeSpec(start=2, inflation=1.5, decay=0.3864313923200817)
# one-entry blocks: every block asks for the tail at the next position
_ONE_ENTRY_MODEL = WeightModel(2, (0.9, 0.7), AlgebraicDecay(3.0))
_ONE_ENTRY_SPEC = TrackingConeSpec(start=1, inflation=1.5, decay=0.9, kind="arithmetic", step=1)


@pytest.mark.parametrize(
    ("model", "spec"),
    (
        (_PINNED_TABLE_MODEL, _PINNED_SPEC),
        (WeightModel(2, (0.8, 0.5), AlgebraicDecay(3.0), (1.0, 0.9, 0.7)), _PINNED_SPEC),
        (_ONE_ENTRY_MODEL, _ONE_ENTRY_SPEC),
    ),
    ids=("table", "algebraic", "one-entry-blocks"),
)
def test_tracking_tail_norm_memoised_block_norms_are_bitwise_fresh(model, spec):
    # one shared tail engine memoises block norms across j; fresh calls share nothing
    for cfg in (SpaceConfig(math.inf, 1.0), SpaceConfig(2.0, 1.0), SpaceConfig(2.0, 2.0)):
        shared = WavenumberStream(model)
        tails = _TailNorms(cfg, model, shared)
        for j in range(1, 9):
            memoised = tracking_tail_norm(cfg, model, shared, spec, j, _tails=tails)
            fresh = tracking_tail_norm(cfg, model, scratch_stream(model), spec, j)
            assert memoised == fresh, (cfg, j)


def test_a_tail_engine_grows_each_window_once(monkeypatch):
    # a window starts at its own position and values are kept by position, so no
    # engine grows a position's window twice; a four-window memo grew 3,720 windows
    # for 109 in the walk
    grown = []
    window = _TailNorms._window

    def logged(self, n):
        grown.append((self, n))  # the engine itself, as a freed engine's id recurs
        return window(self, n)

    monkeypatch.setattr(_TailNorms, "_window", logged)
    cfg = SpaceConfig(2.0, 1.0)
    stream = WavenumberStream(_ONE_ENTRY_MODEL)
    tails = _TailNorms(cfg, _ONE_ENTRY_MODEL, stream)
    for j in range(1, 41):
        tracking_tail_norm(cfg, _ONE_ENTRY_MODEL, stream, _ONE_ENTRY_SPEC, j, _tails=tails)
    assert len(set(grown)) == len(grown) > 100
    # a solve that grew 71 windows for 8 under that memo
    del grown[:]
    model = WeightModel(2, (0.9, 0.7), AlgebraicDecay(2.0))
    spec = TrackingConeSpec(start=1, inflation=1.5, decay=0.8)
    entries = WavenumberStream(model).prefix(spec.size(14))
    table = {}
    for j in range(1, 15):  # one coefficient per block, decaying faster than the cone
        k, lam = entries[spec.block_range(j)[0]]
        table[k] = lam * 0.4 ** j
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model, spec, 1e-6
    )
    assert out.stopped_by == TOLERANCE_MET and not out.cone_violated
    assert len(set(grown)) == len(grown) > 4


def test_tracking_tail_norm_rejects_an_engine_over_other_inputs():
    # an engine over another model returned 0.0275 here, below the certified 0.0816
    model = WeightModel(2, (0.8, 0.5), AlgebraicDecay(3.0))
    other = WeightModel(2, (0.5, 0.5), AlgebraicDecay(4.0))
    cfg = SpaceConfig(2.0, 1.0)
    spec = TrackingConeSpec(start=1, inflation=1.5, decay=0.5)
    stream = WavenumberStream(model)
    for tails in (
        _TailNorms(cfg, other, WavenumberStream(other)),
        _TailNorms(cfg, model, WavenumberStream(model)),
        _TailNorms(SpaceConfig(2.0, 2.0), model, stream),
    ):
        with pytest.raises(ValueError, match="another stream, config or model"):
            tracking_tail_norm(cfg, model, stream, spec, 2, _tails=tails)
    with pytest.raises(ValueError, match="another stream, config or model"):
        tracking_tail_norm(cfg, other, stream, spec, 2, _tails=_TailNorms(cfg, model, stream))
    got = tracking_tail_norm(cfg, model, stream, spec, 2, _tails=_TailNorms(cfg, model, stream))
    assert got == tracking_tail_norm(cfg, model, scratch_stream(model), spec, 2) > 0.08


def test_tracking_tail_norm_never_undershoots_truncated_tables():
    # the unrounded close undershot about half of these cases
    rng = random.Random(11)
    undershoots = []
    for _ in range(40):
        d = rng.randint(1, 3)
        values = [1.0]
        for _ in range(rng.randint(0, 4)):
            values.append(values[-1] * rng.uniform(0.05, 1.0))
        model = WeightModel(
            d, tuple(rng.uniform(0.05, 1.5) for _ in range(d)), TableDecay(tuple(values), 0.0)
        )
        spec = TrackingConeSpec(start=rng.randint(1, 4), inflation=1.5, decay=rng.uniform(0.05, 0.95))
        live = len(WavenumberStream(model).prefix(10 ** 4))
        for cfg in (SpaceConfig(math.inf, 1.0), SpaceConfig(2.0, 2.0)):
            j = 0
            while spec.size(j) < live:
                if _tracking_tail_undershoots(model, cfg, spec, j):
                    undershoots.append((model, cfg, spec, j))
                j += 1
    assert not undershoots


def test_tracking_necessary_check():
    assert tracking_necessary_check([1.0, 0.4, 0.2], 2.0, 0.5)
    assert not tracking_necessary_check([0.1, 1.0], 2.0, 0.5)


# --- tracking rule ------------------------------------------------------------------

def test_tracking_zero_function():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=2, inflation=2.0, decay=0.5)
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table({}), WavenumberStream(model), cfg, model, spec, 0.1
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.n_used == spec.size(1)  # first block boundary, start * factor
    assert out.n_used == 4
    assert out.final_error_bound == 0.0


def test_tracking_geometric_regression_fixture():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    entries = WavenumberStream(model).prefix(4096)
    index = {k: i for i, (k, _) in enumerate(entries, start=1)}
    lam = dict(entries)
    oracle = CoefficientOracle.from_function(lambda k: lam[k] * 2.0 ** (-index[k]))
    out = approximate_on_tracking_cone(
        oracle, WavenumberStream(model), cfg, model, spec, 1e-3
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.n_used == 8
    assert out.final_error_bound == pytest.approx(0.0005671647562151647, rel=1e-12)
    assert not out.cone_violated


def test_tracking_guarantee_and_cost_bound(rng):
    for _ in range(25):
        model = random_model(rng, max_dim=2, min_rate=2.0)
        cfg = random_space(rng)
        spec = TrackingConeSpec(
            start=rng.choice([1, 2]), inflation=rng.uniform(1.3, 2.5),
            decay=rng.uniform(0.3, 0.7),
        )
        table = tracking_cone_member(rng, model, cfg, spec)
        if not table:
            continue
        eps = 10.0 ** rng.uniform(-3, -1)
        out = approximate_on_tracking_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
            spec, eps,
        )
        if out.stopped_by != TOLERANCE_MET:
            continue
        residual = exact_residual(out, table, cfg)
        assert residual <= eps
        assert residual <= out.final_error_bound
        radius = seq_norm(
            [abs(v) / model.weight(k) for k, v in table.items()], cfg.ratio_exponent
        )
        bound = tracking_cost_bound(cfg, model, WavenumberStream(model), spec, radius, eps)
        if bound is not None:
            assert out.n_used <= bound[1]


def test_tracking_budget_exhaustion():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    entries = WavenumberStream(model).prefix(64)
    table = {k: lam for k, lam in entries}  # slow interior decay
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
        spec, 1e-12, budget_cap=16,
    )
    assert out.stopped_by == BUDGET_EXHAUSTED
    assert out.n_used <= 16


def test_tracking_budget_below_the_first_block_caps_the_samples():
    # block j - 1 fit the cap for every j >= 2, but size(0) is the spec's
    # start, which the cap may undercut
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=10, inflation=2.0, decay=0.5)
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table({}), WavenumberStream(model), cfg, model,
        spec, 1e-3, budget_cap=5,
    )
    assert out.stopped_by == BUDGET_EXHAUSTED
    assert out.n_used == len(out.terms) == 5


def test_tracking_cost_bound_loose_tolerance():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    got = tracking_cost_bound(cfg, model, WavenumberStream(model), spec, 1.0, 1e9)
    assert got == (1, spec.size(1))
    assert got == (1, 2)


def test_tracking_cost_bound_none_past_its_block_cap():
    # arithmetic blocks of one entry each with decay 0.9 cannot reach 1e-12
    # within the 64 blocks the bound examines
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.9, kind="arithmetic", step=1)
    assert tracking_cost_bound(cfg, model, WavenumberStream(model), spec, 1.0, 1e-12) is None


def test_tracking_cost_bound_stops_at_the_budget():
    # slow weight decay and slow cone decay: at tolerance 1e-3 a walk to
    # block 64 with no budget emits 16.8 M entries and takes 2.2 GiB
    model = WeightModel(2, (0.9, 0.7), AlgebraicDecay(1.2))
    spec = TrackingConeSpec(start=1, inflation=1.5, decay=0.9)
    cfg = SpaceConfig(2.0, 1.0)
    stream = WavenumberStream(model)
    assert tracking_cost_bound(cfg, model, stream, spec, 1.0, 1e-3) is None
    assert stream.emitted_count <= 2 * DEFAULT_BUDGET_CAP
    # a passing block past the 65,536-entry walk guard is found from the loose remainder bound
    assert tracking_cost_bound(cfg, model, WavenumberStream(model), spec, 1.0, 1e-2) == (15, 32768)


def test_tracking_certificate_in_the_sup_solution_norm(rng):
    # both exponents infinite: block ratio norms and the decay-weighted tail
    # norm are maxima, and the tail norm cuts once the remainder is below its
    # running maximum
    cfg = SpaceConfig(math.inf, math.inf)
    for _ in range(10):
        model = random_model(rng, max_dim=2, min_rate=2.0)
        spec = TrackingConeSpec(
            start=rng.choice([1, 2]), inflation=rng.uniform(1.3, 2.5),
            decay=rng.uniform(0.3, 0.7),
        )
        table = tracking_cone_member(rng, model, cfg, spec)
        eps = 10.0 ** rng.uniform(-3, -1)
        out = approximate_on_tracking_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), cfg, model,
            spec, eps,
        )
        assert out.stopped_by == TOLERANCE_MET
        assert exact_residual(out, table, cfg) <= out.final_error_bound <= eps
        assert not out.cone_violated


def _regular_setup():
    model = _model_1d()
    cfg = SpaceConfig(2.0, 2.0)
    spec = TrackingConeSpec(start=1, inflation=2.0, decay=0.5)
    constants = RegularityConstants(
        slack=1.05, lower_rate=0.25, upper_rate=0.25,
        weight_spread=4.0, retained_fraction=0.5,
    )
    return model, cfg, spec, constants


def test_regularity_verifier_accepts_true_constants():
    model, cfg, spec, constants = _regular_setup()
    report = verify_regularity(cfg, model, WavenumberStream(model), spec, constants)
    assert report.all_ok


def test_regularity_verifier_rejects_false_constants():
    model, cfg, spec, _ = _regular_setup()
    wrong = RegularityConstants(
        slack=1.0, lower_rate=0.5, upper_rate=0.5,
        weight_spread=1.5, retained_fraction=0.9,
    )
    report = verify_regularity(cfg, model, WavenumberStream(model), spec, wrong)
    assert not report.all_ok


def test_regularity_constants_validation():
    with pytest.raises(ValueError):
        RegularityConstants(0.9, 0.25, 0.25, 4.0, 0.5)
    with pytest.raises(ValueError):
        RegularityConstants(1.5, 0.5, 0.25, 4.0, 0.5)
    with pytest.raises(ValueError):
        RegularityConstants(1.5, 0.25, 1.0, 4.0, 0.5)
    with pytest.raises(ValueError):
        RegularityConstants(1.5, 0.25, 0.5, 4.0, 0.0)


def test_tracking_floor_meets_ceiling_under_shrunken_tolerance():
    model, cfg, spec, constants = _regular_setup()
    omega = tracking_optimality_factor(cfg, spec, constants)
    assert 0.0 < omega < 1.0
    stream = WavenumberStream(model)
    for eps in [0.1, 0.03, 0.01, 0.003, 0.001]:
        dagger = tracking_cost_bound(cfg, model, stream, spec, 1.0, eps)
        ddagger = tracking_complexity_lower(
            cfg, model, stream, spec, constants, 1.0, omega * eps
        )
        assert dagger is not None
        assert dagger[0] < ddagger[0] or dagger[1] <= ddagger[1]


def test_tracking_pilot_inflation_values():
    assert tracking_pilot_inflation(SpaceConfig(math.inf, 1.0), 2.0, 0.5) == 1.0
    got = tracking_pilot_inflation(SpaceConfig(2.0, 1.0), 2.0, 0.5)
    assert got == pytest.approx(math.sqrt(1.0 + 1.0 / (1.0 - 0.25)), rel=1e-14)


# --- outcome serialization -----------------------------------------------------------

def test_outcome_round_trip():
    out = ApproxOutcome(
        terms=(((0, 1), 0.5), ((2, 0), -0.25)),
        n_used=2,
        final_error_bound=0.125,
        stopped_by=TOLERANCE_MET,
    )
    again = ApproxOutcome.from_dict(out.to_dict())
    assert again == out
    assert out.coefficient_table() == {(0, 1): 0.5, (2, 0): -0.25}
