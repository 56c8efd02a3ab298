"""Random-series harness: generators, evaluation grids, rows, and reruns."""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import coneapprox.experiments as experiments
from coneapprox import (
    CSV_HEADER,
    EvaluationGrid,
    ExperimentConfig,
    ExperimentRow,
    WavenumberStream,
    approximate_with_inferred_weights,
    chebyshev_eval,
    grid_sup,
    make_random_function,
    run_experiment,
    write_csv,
    write_jsonl,
)


# --- random series functions --------------------------------------------------------


def test_random_function_seed_zero_fixture():
    fn = make_random_function(4, 0)
    assert fn.permutation == (2, 1, 4, 3)
    assert fn.model.coordinate_weights == (0.25, 1.0, 0.0625, 0.1111111111111111)
    support = fn.support()
    assert support.shape == (5, 5, 5, 5)  # five degrees per axis, zero smoothness beyond
    assert np.count_nonzero(support) == 625
    assert np.all(np.abs(support) <= 1.0)


def test_support_matches_the_weight_stream():
    # the support is read off the coefficient box; the stream is the reference
    for d, seed in [(1, 4), (2, 0), (3, 5), (4, 2)]:
        fn = make_random_function(d, seed)
        want = np.zeros((5,) * d)
        for k, lam in WavenumberStream(fn.model):
            want[k] = fn.noise(k) * lam
        assert np.array_equal(fn.support(), want)


def test_support_is_the_oracle_coefficient_bitwise():
    fn = make_random_function(4, 0)
    support = fn.support()
    box = list(itertools.product(range(5), repeat=4))
    assert [float(support[k]).hex() for k in box] == [fn.coefficient(k).hex() for k in box]


def test_random_function_noise_properties():
    fn = make_random_function(3, 7)
    k = (1, 0, 2)
    u = fn.noise(k)
    assert -1.0 <= u < 1.0
    assert fn.noise(k) == u  # pure function of (seed, wavenumber)
    assert fn.coefficient(k) == u * fn.model.weight(k)
    assert fn.coefficient((9, 9, 9)) == 0.0  # beyond the smoothness table
    again = make_random_function(3, 7)
    assert again.permutation == fn.permutation
    assert again.noise(k) == u
    other = make_random_function(3, 8)
    assert other.noise(k) != u


def test_random_function_oracle_counts_distinct_queries():
    fn = make_random_function(2, 1)
    oracle = fn.oracle()
    oracle.query((0, 0))
    oracle.query((0, 0))
    oracle.query((1, 0))
    assert oracle.cost == 2


def test_random_function_validation():
    with pytest.raises(ValueError):
        make_random_function(0, 1)


# --- chebyshev evaluation -----------------------------------------------------------


def test_chebyshev_eval_constant_and_quadratic():
    assert chebyshev_eval([((0, 0), 2.5)], [0.3, -0.7]) == 2.5
    x = 0.42
    got = chebyshev_eval([((2,), 1.0)], [x])
    assert got == pytest.approx(2.0 * x * x - 1.0, abs=1e-14)


def test_chebyshev_eval_matches_numpy():
    rng = np.random.default_rng(5)
    terms = {}
    for a, b, c in zip(
        rng.integers(0, 6, 12), rng.integers(0, 5, 12), rng.normal(size=12)
    ):
        key = (int(a), int(b))
        terms[key] = terms.get(key, 0.0) + float(c)
    dense = np.zeros((6, 5))
    for (a, b), c in terms.items():
        dense[a, b] += c
    for pt in ([0.37, -0.81], [1.0, 0.0], [-1.0, 1.0], [0.0, 0.25]):
        want = npcheb.chebval(pt[1], npcheb.chebval(pt[0], dense))
        got = chebyshev_eval(list(terms.items()), pt)
        assert got == pytest.approx(want, abs=1e-12)


def test_chebyshev_eval_rejects_outside_domain():
    with pytest.raises(ValueError):
        chebyshev_eval([((1,), 1.0)], [1.5])


# --- evaluation grids ---------------------------------------------------------------


def test_grid_counts_and_dispatch():
    assert EvaluationGrid.tensor(2, 5).count == 25
    assert EvaluationGrid.tensor(3).count == 33 ** 3
    assert EvaluationGrid.scatter(5, 100).count == 100
    assert EvaluationGrid.for_dimension(4).kind == "tensor"
    assert EvaluationGrid.for_dimension(5).kind == "scatter"
    assert EvaluationGrid.for_dimension(5).count == 2 ** 14


def test_grid_validation():
    with pytest.raises(ValueError):
        EvaluationGrid.tensor(2, 1)
    with pytest.raises(ValueError):
        EvaluationGrid.scatter(2, 0)
    with pytest.raises(ValueError):
        EvaluationGrid(2, "mesh")


def test_scatter_grid_deterministic_and_in_domain():
    a = EvaluationGrid.scatter(5, 64).points
    b = EvaluationGrid.scatter(5, 64).points
    assert np.array_equal(a, b)
    assert a.shape == (64, 5)
    assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_scatter_grid_matches_plain_radical_inverse():
    def radical_inverse(base, index):
        inv, scale = 0.0, 1.0 / base
        while index:
            inv += scale * (index % base)
            index //= base
            scale /= base
        return inv

    points = EvaluationGrid.scatter(7, 1000).points
    for axis, base in enumerate((2, 3, 5, 7, 11, 13, 17)):
        want = [2.0 * radical_inverse(base, i) - 1.0 for i in range(1, 1001)]
        assert points[:, axis].tolist() == want  # bitwise


# --- grid sup -----------------------------------------------------------------------


def _dense(terms, shape):
    coefficients = np.zeros(shape)
    for k, c in terms.items():
        coefficients[k] = c
    return coefficients


def test_grid_sup_trivia():
    assert grid_sup(np.zeros((5, 5)), EvaluationGrid.tensor(2, 5)) == 0.0
    got = grid_sup(_dense({(0, 1): 0.5, (2, 3): -0.25}, (3, 4)), EvaluationGrid.tensor(2, 5))
    assert got == pytest.approx(0.75, abs=1e-14)


def test_grid_sup_matches_pointwise_evaluation():
    terms = {(0, 0): 0.3, (1, 2): -0.8, (3, 1): 0.45, (2, 0): 0.2}
    grid = EvaluationGrid.tensor(2, 9)
    fast = grid_sup(_dense(terms, (4, 3)), grid)
    xs = np.cos(grid.axis_angles)
    slow = max(
        abs(chebyshev_eval(list(terms.items()), [x0, x1])) for x0 in xs for x1 in xs
    )
    assert fast == pytest.approx(slow, rel=1e-12)
    scatter = EvaluationGrid.scatter(2, 200)
    fast2 = grid_sup(_dense(terms, (4, 3)), scatter)
    slow2 = max(
        abs(chebyshev_eval(list(terms.items()), list(pt))) for pt in scatter.points
    )
    assert fast2 == pytest.approx(slow2, rel=1e-12)


def test_grid_sup_never_exceeds_true_sup():
    # a single basis term has sup exactly |c|, attained at the endpoints,
    # which every tensor grid contains
    got = grid_sup(_dense({(4, 0): -0.6}, (5, 1)), EvaluationGrid.tensor(2, 5))
    assert got == pytest.approx(0.6, abs=1e-14)


def test_grid_sup_ignores_zero_padding():
    # zero rows and columns past the nonzero extent are trimmed before the contraction
    terms = {(0, 0): 0.3, (1, 2): -0.8, (3, 1): 0.45, (2, 0): 0.2}
    for grid in (EvaluationGrid.tensor(2, 9), EvaluationGrid.scatter(2, 200)):
        assert grid_sup(_dense(terms, (7, 5)), grid) == grid_sup(_dense(terms, (4, 3)), grid)


# --- residual bookkeeping -----------------------------------------------------------


def test_cell_residual_is_support_minus_sampled_terms(monkeypatch):
    # a pinned d=7 cell: record what the pipeline sampled and what grid_sup was given
    seen = {}

    def pipeline(*args, **kwargs):
        seen["outcome"] = approximate_with_inferred_weights(*args, **kwargs)
        return seen["outcome"]

    def sup(coefficients, grid):
        seen["residual"] = coefficients.copy()
        return grid_sup(coefficients, grid)

    monkeypatch.setattr(experiments, "approximate_with_inferred_weights", pipeline)
    monkeypatch.setattr(experiments, "grid_sup", sup)
    (row,) = run_experiment(
        ExperimentConfig(dimensions=(7,), tolerances=(1e-1,), seeds=(3,), scatter_count=4096)
    )
    fn = make_random_function(7, 3)
    support = fn.support()
    sampled = [k for k, _ in seen["outcome"].terms]
    inside = [k for k in sampled if max(k) < 5]
    assert [float(support[k]).hex() for k in inside] == [fn.coefficient(k).hex() for k in inside]
    assert all(fn.coefficient(k) == 0.0 for k in sampled if max(k) >= 5)
    residual = seen["residual"]
    kept = set(map(tuple, np.argwhere(residual).tolist()))
    assert kept == set(map(tuple, np.argwhere(support).tolist())) - set(sampled)
    assert all(residual[k] == support[k] for k in kept)
    assert row.g_norm_error == math.fsum(abs(support[k]) for k in kept)


# --- rows and configuration ---------------------------------------------------------


def test_csv_header_and_row_shapes():
    assert CSV_HEADER == (
        "d,eps,seed,n_used,sup_error,ratio,g_norm_error,inferred_r,status,wall_ms,cone_violated"
    )
    row = ExperimentRow(2, 0.1, 3, 12, 0.01, 0.1, 0.02, 4.5, "ToleranceMet", 7)
    assert row.to_csv().endswith(",7,False")
    assert len(row.to_csv().split(",")) == len(CSV_HEADER.split(","))
    decoded = json.loads(row.to_json())
    assert list(decoded) == CSV_HEADER.split(",")
    assert decoded["seed"] == 3 and decoded["status"] == "ToleranceMet"


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"dimensions": [2], "tolerances": [0.1], "seeds": 2, "typo": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(dimensions=(), tolerances=(0.1,), seeds=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dimensions=(2,), tolerances=(0.0,), seeds=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dimensions=(2,), tolerances=(0.1,), seeds=(0,), inflation=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dimensions=(2,), tolerances=(0.1,), seeds=(0,), jobs=0)
    cfg = ExperimentConfig.from_dict({"dimensions": [2], "tolerances": [0.1], "seeds": 3})
    assert cfg.seeds == (0, 1, 2)


# --- runs ---------------------------------------------------------------------------


def _small_config(**kw):
    base = dict(dimensions=(2,), tolerances=(1e-1, 1e-2), seeds=(0, 1), inflation=1.1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_fixture_and_order():
    rows = run_experiment(_small_config())
    assert [(r.d, r.eps, r.seed) for r in rows] == [
        (2, 0.1, 0), (2, 0.1, 1), (2, 0.01, 0), (2, 0.01, 1)
    ]
    assert [r.n_used for r in rows] == [12, 12, 14, 14]
    assert [r.inferred_r for r in rows] == [4.5, 5.0, 4.5, 5.0]
    assert all(r.status == "ToleranceMet" for r in rows)
    assert all(0.0 < r.ratio <= 1.0 for r in rows)
    assert all(r.g_norm_error >= r.sup_error for r in rows)
    assert all(r.wall_ms == 0 for r in rows)  # timing off


def test_run_experiment_reports_falsified_cone():
    # the fitted cone is falsified by the samples; the row says so beside its status
    rows = run_experiment(_small_config(tolerances=(1e-2,), seeds=(0,)))
    assert rows[0].status == "ToleranceMet"
    assert rows[0].cone_violated is True
    assert rows[0].to_csv().endswith(",True")
    assert json.loads(rows[0].to_json())["cone_violated"] is True


def test_run_experiment_pinned_rows():
    rows = run_experiment(
        ExperimentConfig(dimensions=(4,), tolerances=(1e-3,), seeds=(0,), inflation=1.1)
    )
    assert rows[0].to_csv() == (
        "4,0.001,0,168,0.00020665955715969085,0.20665955715969084,"
        "0.000644180469122477,4.5,ToleranceMet,0,True"
    )
    rows = run_experiment(
        ExperimentConfig(dimensions=(7,), tolerances=(1e-1,), seeds=(3,), scatter_count=4096)
    )
    assert rows[0].to_csv() == (
        "7,0.1,3,103,0.003460638736152751,0.034606387361527505,"
        "0.025385735915913633,4.5,ToleranceMet,0,False"
    )
    # the default 16,384-point scatter grid, as gate 07 runs it
    rows = run_experiment(ExperimentConfig(dimensions=(7,), tolerances=(1e-2,), seeds=(3,)))
    assert rows[0].to_csv() == (
        "7,0.01,3,474,0.0001800844960710742,0.01800844960710742,"
        "0.002286526102118449,4.5,ToleranceMet,0,True"
    )


def test_run_experiment_jobs_match_serial():
    serial = run_experiment(_small_config())
    pooled = run_experiment(_small_config(jobs=2))
    assert [r.to_csv() for r in pooled] == [r.to_csv() for r in serial]


def test_run_experiment_rerun_is_identical():
    rows = run_experiment(_small_config())
    again = run_experiment(_small_config())
    assert [r.to_csv() for r in rows] == [r.to_csv() for r in again]


def test_run_experiment_written_files_identical(tmp_path):
    rows = run_experiment(_small_config())
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_jl, b_jl = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_csv(rows, str(a_csv))
    write_csv(run_experiment(_small_config()), str(b_csv))
    write_jsonl(rows, str(a_jl))
    write_jsonl(run_experiment(_small_config()), str(b_jl))
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_jl.read_bytes() == b_jl.read_bytes()
    text = a_csv.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 5


def test_run_experiment_failure_rows_are_marked():
    rows = run_experiment(_small_config(budget_cap=2))
    assert all(r.status == "failed:ValueError" for r in rows)
    assert all(r.n_used == 0 for r in rows)
    assert all(math.isnan(r.sup_error) and math.isnan(r.ratio) for r in rows)


def test_run_experiment_timing_flag():
    rows = run_experiment(_small_config(timing=True, tolerances=(1e-1,), seeds=(0,)))
    assert rows[0].wall_ms >= 0
