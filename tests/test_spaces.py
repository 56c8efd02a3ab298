"""Exponent triples, sequence norms, the sharp bound, operator norms."""

import math
import random

import pytest

from coneapprox import (
    AlgebraicDecay,
    CoefficientOracle,
    DivergentNormError,
    SpaceConfig,
    TableDecay,
    WavenumberStream,
    WeightModel,
    holder_bound,
    seq_norm,
    solution_operator_norm,
    tight_function,
    zeta,
)

from conftest import random_model, random_space


# --- exponents ------------------------------------------------------------

def test_tail_exponent_identity():
    for rho in [1.0, 1.5, 2.0, 3.0, 7.0]:
        for tau in [1.0, 1.25, 2.0, 3.0]:
            if tau > rho:
                continue
            cfg = SpaceConfig(rho, tau)
            lhs = 1.0 / rho + (0.0 if math.isinf(cfg.tail_exponent) else 1.0 / cfg.tail_exponent)
            assert lhs == pytest.approx(1.0 / tau, abs=1e-15)


def test_tail_exponent_special_cases():
    assert math.isinf(SpaceConfig(2.0, 2.0).tail_exponent)
    assert SpaceConfig(math.inf, 1.0).tail_exponent == 1.0
    assert SpaceConfig(2.0, 1.0).tail_exponent == 2.0


def test_exponent_validation():
    with pytest.raises(ValueError):
        SpaceConfig(0.5, 0.5)  # below 1
    with pytest.raises(ValueError):
        SpaceConfig(2.0, 3.0)  # solution exponent above ratio exponent


# --- sequence norms ---------------------------------------------------------

def test_seq_norm_pythagorean():
    assert seq_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)


def test_seq_norm_sup():
    assert seq_norm([1.0, -2.0, 3.0], math.inf) == 3.0


def test_seq_norm_geometric():
    assert seq_norm([0.5 ** j for j in range(60)], 1.0) == pytest.approx(2.0, rel=1e-12)


def test_seq_norm_empty():
    assert seq_norm([], 2.0) == 0.0
    assert seq_norm([], math.inf) == 0.0


def test_seq_norm_scales(rng):
    vals = [rng.uniform(-2, 2) for _ in range(20)]
    for p in [1.0, 1.7, 2.0, math.inf]:
        assert seq_norm([3.0 * v for v in vals], p) == pytest.approx(
            3.0 * seq_norm(vals, p), rel=1e-13
        )


def test_seq_norm_of_an_array_is_the_list_norm_bit_for_bit(rng):
    import numpy as np

    for _ in range(20):
        vals = [rng.uniform(-2, 2) * 10.0 ** rng.randint(-300, 300) for _ in range(rng.randint(0, 200))]
        vals += [0.0, -0.0]
        rng.shuffle(vals)
        for p in [1.0, 1.7, 2.0, 3.0, math.inf]:
            want = seq_norm(vals, p).hex()
            assert seq_norm(np.array(vals), p).hex() == want
            assert seq_norm(iter(vals), p).hex() == want
    assert seq_norm(np.array([3, -4]), 2.0) == seq_norm([3.0, 4.0], 2.0)  # integers as floats


# --- oracle cost accounting -------------------------------------------------

def test_oracle_counts_distinct_queries():
    oracle = CoefficientOracle.from_table({(0, 0): 1.0, (1, 0): 0.5})
    assert oracle.cost == 0
    oracle.query((0, 0))
    oracle.query((0, 0))
    oracle.query((1, 0))
    oracle.query((5, 5))  # default zero, still counted
    assert oracle.cost == 3


def test_oracle_is_deterministic(rng):
    calls = []

    def fn(k):
        calls.append(k)
        return float(sum(k))

    oracle = CoefficientOracle.from_function(fn)
    assert oracle.query((1, 2)) == oracle.query((1, 2))
    assert len(calls) == 1  # memoized


def test_oracle_table_copies_and_coerces_keys():
    oracle = CoefficientOracle.from_table({(1.0, 0.0): 0.25}, default=-1.0)
    assert oracle.query((1, 0)) == 0.25
    assert oracle.query((0, 1)) == -1.0


# --- the sharp bound ---------------------------------------------------------

def test_holder_bound_values():
    assert holder_bound(1.0, 0.5) == 0.5
    assert holder_bound(0.0, 123.0) == 0.0


def _exact_norms(cfg, model, oracle, support):
    ratios = [abs(oracle.query(k)) / model.weight(k) for k in support]
    coefs = [abs(oracle.query(k)) for k in support]
    lams = [model.weight(k) for k in support]
    return (
        seq_norm(ratios, cfg.ratio_exponent),
        seq_norm(coefs, cfg.solution_exponent),
        seq_norm(lams, cfg.tail_exponent),
    )


def test_holder_property_random(rng):
    for _ in range(500):
        model = random_model(rng, max_dim=3)
        cfg = random_space(rng)
        entries = WavenumberStream(model).prefix(rng.randint(3, 30))
        support = [k for k, _ in entries]
        table = {k: rng.uniform(-1, 1) * lam for (k, lam) in entries}
        oracle = CoefficientOracle.from_table(table)
        f_norm, sol_norm, lam_norm = _exact_norms(cfg, model, oracle, support)
        assert sol_norm <= holder_bound(f_norm, lam_norm) * (1.0 + 1e-12)


def test_tight_spike_when_tail_exponent_infinite():
    cfg = SpaceConfig(2.0, 2.0)
    model = WeightModel(dimension=2, coordinate_weights=(1.0, 0.5), decay=AlgebraicDecay(2.0))
    oracle = tight_function(cfg, model, [(0, 0), (1, 0)], 1.0)
    # both candidates weigh 1; the lexicographically first carries the spike
    assert oracle.query((0, 0)) == 1.0
    assert oracle.query((1, 0)) == 0.0


def test_tight_flat_case_values():
    cfg = SpaceConfig(math.inf, 1.0)  # tail exponent 1
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    support = [(0,), (1,), (2,)]
    oracle = tight_function(cfg, model, support, 2.0)
    for k in support:
        assert oracle.query(k) == pytest.approx(2.0 * model.weight(k), rel=1e-15)
    sol_norm = seq_norm([oracle.query(k) for k in support], 1.0)
    assert sol_norm == pytest.approx(4.5, rel=1e-14)


def test_tight_intermediate_exponent():
    cfg = SpaceConfig(2.0, 1.0)  # tail exponent 2
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=TableDecay((0.5,), 0.0))
    support = [(0,), (1,)]  # weights 1 and 0.5
    oracle = tight_function(cfg, model, support, 1.0)
    lam_norm = math.sqrt(1.25)
    f_norm, sol_norm, _ = _exact_norms(cfg, model, oracle, support)
    assert f_norm == pytest.approx(1.0, rel=1e-12)
    assert sol_norm == pytest.approx(lam_norm, rel=1e-12)


def test_tightness_random(rng):
    for _ in range(100):
        model = random_model(rng, max_dim=3)
        cfg = random_space(rng)
        entries = [e for e in WavenumberStream(model).prefix(rng.randint(2, 25))]
        support = [k for k, _ in entries]
        radius = rng.uniform(0.1, 10.0)
        oracle = tight_function(cfg, model, support, radius)
        f_norm, sol_norm, lam_norm = _exact_norms(cfg, model, oracle, support)
        assert f_norm == pytest.approx(radius, rel=1e-10)
        assert sol_norm == pytest.approx(radius * lam_norm, rel=1e-10)


def test_tight_rejects_bad_support():
    cfg = SpaceConfig(2.0, 1.0)
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=TableDecay((0.5,), 0.0))
    with pytest.raises(ValueError):
        tight_function(cfg, model, [], 1.0)
    with pytest.raises(ValueError):
        tight_function(cfg, model, [(0,), (5,)], 1.0)  # zero weight at degree 5
    with pytest.raises(ValueError):
        tight_function(cfg, model, [(0,), (0,)], 1.0)  # duplicate


# --- operator norm -----------------------------------------------------------

def test_operator_norm_infinite_tail_exponent():
    model = WeightModel(dimension=2, coordinate_weights=(1.0, 0.5), decay=AlgebraicDecay(2.0))
    assert solution_operator_norm(SpaceConfig(2.0, 2.0), model) == 1.0


def test_operator_norm_takes_stream_head():
    # a coordinate weight above one moves the maximum off the origin
    model = WeightModel(dimension=1, coordinate_weights=(1.5,), decay=AlgebraicDecay(2.0))
    assert solution_operator_norm(SpaceConfig(3.0, 3.0), model) == 1.5


def test_operator_norm_finite_tail_exponent():
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    expected = math.sqrt(1.0 + zeta(4.0))
    assert solution_operator_norm(SpaceConfig(2.0, 1.0), model) == pytest.approx(
        expected, rel=1e-12
    )


def test_operator_norm_divergence():
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(1.0))
    with pytest.raises(DivergentNormError):
        solution_operator_norm(SpaceConfig(math.inf, 1.0), model)
