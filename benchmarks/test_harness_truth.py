"""Harness ground-truth micro-benchmarks, run with pytest-benchmark.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_harness_truth.py --benchmark-only

Tier-1 does not collect this directory (``testpaths = ["tests"]``).  The
cell is gate 07's ``d = 7, eps = 1e-2, seed = 3``; one run of it records the
sampled terms and the residual handed to ``grid_sup``.  Then:

* ``test_support_and_residual``: ``support()`` of the cell's function and
  the zeroing of its sampled terms inside the box, as the cell does it;
* ``test_grid_sup``: ``grid_sup`` of that residual on the scatter grid of
  4,096 and of 16,384 points (the grid is built outside the timing);
* ``test_tensor_grid_sup``: ``grid_sup`` of the residual of cell ``d = 4,
  eps = 1e-3, seed = 0`` on the 33^4-point tensor grid that cell uses.
"""

import itertools

import numpy as np
import pytest

import coneapprox.experiments as experiments
from coneapprox import (
    EvaluationGrid,
    ExperimentConfig,
    approximate_with_inferred_weights,
    grid_sup,
    make_random_function,
    run_experiment,
)

D, EPS, SEED = 7, 1e-2, 3


def _record(d, eps, seed):
    """One run of cell ``(d, eps, seed)``: its sampled terms and the residual handed to ``grid_sup``."""
    seen = {}

    def pipeline(*args, **kwargs):
        outcome = approximate_with_inferred_weights(*args, **kwargs)
        seen["terms"] = outcome.terms
        return outcome

    def sup(coefficients, grid):
        seen["residual"] = coefficients.copy()
        return grid_sup(coefficients, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "approximate_with_inferred_weights", pipeline)
        patch.setattr(experiments, "grid_sup", sup)
        run_experiment(ExperimentConfig(dimensions=(d,), tolerances=(eps,), seeds=(seed,)))
    return seen


@pytest.fixture(scope="module")
def cell():
    return _record(D, EPS, SEED)


def test_support_and_residual(benchmark, cell):
    fn = make_random_function(D, SEED)

    def run():
        residual = fn.support()
        sampled = np.fromiter(itertools.chain.from_iterable(k for k, _ in cell["terms"]), np.intp).reshape(-1, D)
        residual[tuple(sampled[(sampled < residual.shape).all(axis=1)].T)] = 0.0
        return residual

    assert (benchmark.pedantic(run, rounds=5) == cell["residual"]).all()


@pytest.mark.parametrize("points", (4096, 16384))
def test_grid_sup(benchmark, cell, points):
    grid = EvaluationGrid.scatter(D, points)
    assert benchmark.pedantic(grid_sup, (cell["residual"], grid), rounds=3) > 0.0


def test_tensor_grid_sup(benchmark):
    residual = _record(4, 1e-3, 0)["residual"]
    grid = EvaluationGrid.for_dimension(4)
    assert grid.kind == "tensor"
    assert benchmark.pedantic(grid_sup, (residual, grid), rounds=10) > 0.0
