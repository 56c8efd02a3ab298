"""Weight fitting from axis probes: objective, closed-form fit, selection, pipeline."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneapprox import (
    TOLERANCE_MET,
    AlgebraicDecay,
    CandidateSets,
    CoefficientOracle,
    SpaceConfig,
    WeightModel,
    approximate_with_inferred_weights,
    infer_weights,
    probe_wavenumbers,
    weight_fit_objective,
)


def _truth_model():
    return WeightModel(
        dimension=4,
        coordinate_weights=[1.0, 0.25, 0.125, 0.0625],
        decay=AlgebraicDecay(4.0),
    )


def _noiseless_samples(model, cap=4):
    return {k: model.weight(k) for k in probe_wavenumbers(model.dimension, cap)}


# --- probes and candidate grids ----------------------------------------------------


def test_probe_counts_and_shape():
    for d, cap in [(1, 2), (2, 2), (4, 4), (7, 3)]:
        probes = probe_wavenumbers(d, cap)
        assert len(probes) == d * cap + 1
        assert probes[0] == (0,) * d
        assert len(set(probes)) == len(probes)
        for k in probes[1:]:
            active = [v for v in k if v > 0]
            assert len(active) == 1 and 1 <= active[0] <= cap


def test_probe_validation():
    with pytest.raises(ValueError):
        probe_wavenumbers(0, 2)
    with pytest.raises(ValueError):
        probe_wavenumbers(2, 0)


def test_default_candidate_grids():
    cands = CandidateSets.default()
    assert cands.coordinate_grid[0] == 0.0
    assert cands.coordinate_grid[-1] == 1.0
    assert len(cands.coordinate_grid) == 11
    assert cands.coordinate_grid[1] == 2.0 ** -9
    assert cands.rate_grid == tuple(0.5 * i for i in range(1, 13))
    assert cands.axis_degree_cap == 4


def test_candidate_grid_validation():
    with pytest.raises(ValueError):
        CandidateSets((), (1.0,), 2)
    with pytest.raises(ValueError):
        CandidateSets((-0.5, 1.0), (1.0,), 2)
    with pytest.raises(ValueError):
        CandidateSets((0.0,), (1.0,), 2)  # cap must be positive
    with pytest.raises(ValueError):
        CandidateSets((0.5, 0.5, 1.0), (1.0,), 2)
    with pytest.raises(ValueError):
        CandidateSets((1.0,), (0.0, 1.0), 2)
    with pytest.raises(ValueError):
        CandidateSets((1.0,), (1.0,), 0)


# --- fit objective ------------------------------------------------------------------


def test_objective_zero_samples():
    cands = CandidateSets.default()
    samples = {k: 0.0 for k in probe_wavenumbers(3, 4)}
    for rho in (2.0, math.inf):
        cfg = SpaceConfig(rho, 1.0)
        assert weight_fit_objective(samples, 3, cands, cfg, [1.0, 1.0, 1.0], 4.0) == 0.0


def test_objective_at_truth_sup_config():
    # coefficients equal to the weights make every probe ratio at most one,
    # with the origin pinning the sup at exactly one
    truth = _truth_model()
    cands = CandidateSets.default()
    cfg = SpaceConfig(math.inf, 1.0)
    samples = _noiseless_samples(truth)
    got = weight_fit_objective(
        samples, 4, cands, cfg, truth.coordinate_weights, 4.0
    )
    assert got == pytest.approx(1.0, rel=1e-12)


def test_objective_zero_weight_with_data_is_infinite():
    truth = _truth_model()
    cands = CandidateSets.default()
    cfg = SpaceConfig(2.0, 1.0)
    samples = _noiseless_samples(truth)
    got = weight_fit_objective(samples, 4, cands, cfg, [1.0, 0.0, 1.0, 1.0], 4.0)
    assert math.isinf(got)


def test_objective_monotone_in_weights():
    truth = _truth_model()
    cands = CandidateSets.default()
    cfg = SpaceConfig(2.0, 1.0)
    samples = _noiseless_samples(truth)
    lo = weight_fit_objective(samples, 4, cands, cfg, [1.0] * 4, 4.0)
    hi = weight_fit_objective(samples, 4, cands, cfg, [0.5] * 4, 4.0)
    assert hi > lo


def test_objective_absolutely_homogeneous():
    truth = _truth_model()
    cands = CandidateSets.default()
    cfg = SpaceConfig(2.0, 1.0)
    samples = _noiseless_samples(truth)
    base = weight_fit_objective(samples, 4, cands, cfg, [1.0] * 4, 4.0)
    for c in (3.0, -2.5):
        scaled = {k: c * v for k, v in samples.items()}
        got = weight_fit_objective(scaled, 4, cands, cfg, [1.0] * 4, 4.0)
        assert got == pytest.approx(abs(c) * base, rel=1e-12)


# --- fit and selection -------------------------------------------------------------


def test_infer_zero_function_most_permissive_point():
    # nothing constrains the fit, so the rate tops out and weights vanish
    cands = CandidateSets.default()
    cfg = SpaceConfig(math.inf, 1.0)
    samples = {k: 0.0 for k in probe_wavenumbers(3, 4)}
    got = infer_weights(samples, 3, cands, cfg)
    assert got.coordinate_weights == (0.0, 0.0, 0.0)
    assert got.rate == 6.0
    assert got.objective == 0.0


def test_infer_noiseless_recovery():
    truth = _truth_model()
    cands = CandidateSets.default()
    cfg = SpaceConfig(math.inf, 1.0)
    got = infer_weights(_noiseless_samples(truth), 4, cands, cfg)
    assert got.coordinate_weights == (1.0, 0.25, 0.125, 0.0625)
    assert got.rate == 4.0
    assert got.objective == pytest.approx(1.0, rel=1e-12)


def test_infer_stops_on_tied_rates():
    # the objective rises by less than the tie window per rate step from 0.5
    # to 4.0; only rates within the window of the exact minimum (at 0.5)
    # may be picked, so a chain of pairwise ties must not reach 4.0
    samples = {(0,): 0.0, (1,): -11.365325334262685, (2,): -1.0926769960920603e-06,
               (3,): 0.0, (4,): 0.0}
    got = infer_weights(samples, 1, CandidateSets.default(), SpaceConfig(2.0, 1.0))
    assert got.coordinate_weights == (1.0,)
    assert got.rate == 3.5
    assert got.objective == 11.365325334269409


def _exhaustive_optimum(samples, dimension, cands, cfg, window):
    """Scan the whole grid; among near-ties take largest rate, then lex-min weights."""
    best = math.inf
    for rate in cands.rate_grid:
        for w in itertools.product(cands.coordinate_grid, repeat=dimension):
            v = weight_fit_objective(samples, dimension, cands, cfg, w, rate)
            if v < best:
                best = v
    ceiling = best * window if best > 0.0 else 0.0
    for rate in sorted(cands.rate_grid, reverse=True):
        for w in itertools.product(cands.coordinate_grid, repeat=dimension):
            v = weight_fit_objective(samples, dimension, cands, cfg, w, rate)
            if v <= ceiling:
                return w, rate, best
    raise AssertionError("no grid point reaches the ceiling")


def test_infer_matches_exhaustive_grid_search():
    rng = random.Random(11)
    cands = CandidateSets((0.0, 0.5, 1.0), (1.0, 2.0, 3.0), 2)
    window = 1.0 + 1e-12
    for trial in range(12):
        d = rng.randint(1, 3)
        cfg = SpaceConfig(rng.choice([2.0, math.inf]), 1.0)
        samples = {
            k: rng.uniform(-1, 1) if rng.random() < 0.7 else 0.0
            for k in probe_wavenumbers(d, 2)
        }
        got = infer_weights(samples, d, cands, cfg)
        w_star, r_star, best = _exhaustive_optimum(samples, d, cands, cfg, window)
        assert got.rate == r_star, (trial, got, r_star)
        assert got.coordinate_weights == w_star, (trial, got, w_star)
        assert got.objective <= best * window + 1e-300


@st.composite
def _tie_prone_probes(draw):
    """Axis probes ``k**-r`` times 1, 1/2 or 1/4, some zero: objectives tie across rates."""
    d = draw(st.integers(1, 2))
    rates = CandidateSets.default().rate_grid
    axis_rates = [draw(st.sampled_from(rates)) for _ in range(d)]
    samples = {}
    for k in probe_wavenumbers(d, 4):
        factor = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
        if any(k):
            axis = next(i for i, v in enumerate(k) if v)
            factor *= float(k[axis]) ** -axis_rates[axis]
        samples[k] = draw(st.sampled_from((1.0, -1.0))) * factor
    return d, samples


@settings(max_examples=150, deadline=None)
@given(
    probes=_tie_prone_probes(),
    ratio_exponent=st.sampled_from((2.0, math.inf)),
    window=st.sampled_from((1.0 + 1e-12, 1.5, 2.0)),
)
def test_infer_equals_exhaustive_optimum_on_tie_prone_probes(probes, ratio_exponent, window):
    d, samples = probes
    cands = CandidateSets.default()
    cfg = SpaceConfig(ratio_exponent, 1.0)
    got = infer_weights(samples, d, cands, cfg, selection_window=window)
    w_star, r_star, best = _exhaustive_optimum(samples, d, cands, cfg, window)
    assert (got.coordinate_weights, got.rate) == (w_star, r_star)
    assert got.objective <= best * window
    assert got.objective == weight_fit_objective(
        samples, d, cands, cfg, got.coordinate_weights, got.rate
    )


def test_infer_scale_invariant_argmin():
    rng = random.Random(3)
    cands = CandidateSets.default()
    cfg = SpaceConfig(2.0, 1.0)
    samples = {
        k: rng.uniform(-1, 1) if rng.random() < 0.8 else 0.0
        for k in probe_wavenumbers(3, 4)
    }
    base = infer_weights(samples, 3, cands, cfg)
    for c in (3.0, -2.5):
        scaled = {k: c * v for k, v in samples.items()}
        got = infer_weights(scaled, 3, cands, cfg)
        assert got.coordinate_weights == base.coordinate_weights
        assert got.rate == base.rate
        assert got.objective == pytest.approx(abs(c) * base.objective, rel=1e-12)


def test_selection_window_below_tie_window_rejected():
    cands = CandidateSets.default()
    samples = _noiseless_samples(_truth_model())
    with pytest.raises(ValueError):
        infer_weights(samples, 4, cands, SpaceConfig(2.0, 1.0), selection_window=0.5)


def test_inferred_weights_serialization():
    got = infer_weights(
        _noiseless_samples(_truth_model()), 4, CandidateSets.default(),
        SpaceConfig(math.inf, 1.0),
    )
    d = got.to_dict()
    assert set(d) == {"d", "w", "r", "gamma", "objective"}
    assert d["d"] == 4
    assert d["w"] == [1.0, 0.25, 0.125, 0.0625]
    assert d["r"] == 4.0
    model = got.model()
    assert model.weight((1, 0, 0, 0)) == 1.0


# --- probe-then-approximate pipeline ------------------------------------------------


def test_pipeline_zero_function_costs_only_probes():
    cands = CandidateSets.default()
    out = approximate_with_inferred_weights(
        oracle=CoefficientOracle.from_table({}, default=0.0),
        dimension=3,
        candidates=cands,
        config=SpaceConfig(2.0, 1.0),
        inflation=1.5,
        tolerance=1e-4,
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.n_used == len(probe_wavenumbers(3, cands.axis_degree_cap)) == 13
    assert out.final_error_bound == 0.0
    assert out.inferred["w"] == [0.0, 0.0, 0.0]
    assert out.inferred["r"] == 6.0


def test_pipeline_exact_tie_window_regression():
    # exact ties recover the generating model; the certificate then holds
    truth = _truth_model()
    out = approximate_with_inferred_weights(
        oracle=CoefficientOracle.from_function(lambda k: truth.weight(k)),
        dimension=4,
        candidates=CandidateSets.default(),
        config=SpaceConfig(math.inf, 1.0),
        inflation=1.1,
        tolerance=1e-3,
        selection_window=1.0 + 1e-12,
    )
    assert out.stopped_by == TOLERANCE_MET
    assert not out.cone_violated
    assert out.inferred["r"] == 4.0
    assert out.inferred["w"] == [1.0, 0.25, 0.125, 0.0625]
    assert out.n_used == 335
    assert out.final_error_bound == pytest.approx(0.0009954886131338992, rel=1e-12)
    assert out.final_error_bound <= 1e-3


def test_pipeline_default_window_trades_rate_for_thinner_space():
    # the resolution window accepts the faster rate the probes cannot rule
    # out; the run then flags that deeper data escapes the fitted cone
    truth = _truth_model()
    out = approximate_with_inferred_weights(
        oracle=CoefficientOracle.from_function(lambda k: truth.weight(k)),
        dimension=4,
        candidates=CandidateSets.default(),
        config=SpaceConfig(math.inf, 1.0),
        inflation=1.1,
        tolerance=1e-3,
    )
    assert out.stopped_by == TOLERANCE_MET
    assert out.inferred["r"] == 4.5
    assert out.cone_violated
    assert out.n_used == 216
    assert out.final_error_bound == pytest.approx(0.000997586930826002, rel=1e-12)


def test_pipeline_scale_equivariance():
    truth = _truth_model()
    runs = {}
    for c in (1.0, 3.0, -2.5):
        runs[c] = approximate_with_inferred_weights(
            oracle=CoefficientOracle.from_function(lambda k, c=c: c * truth.weight(k)),
            dimension=4,
            candidates=CandidateSets.default(),
            config=SpaceConfig(math.inf, 1.0),
            inflation=1.1,
            tolerance=abs(c) * 1e-3,
        )
    base = runs[1.0]
    for c in (3.0, -2.5):
        got = runs[c]
        assert got.n_used == base.n_used
        assert [k for k, _ in got.terms] == [k for k, _ in base.terms]
        assert got.final_error_bound == pytest.approx(
            abs(c) * base.final_error_bound, rel=1e-12
        )
