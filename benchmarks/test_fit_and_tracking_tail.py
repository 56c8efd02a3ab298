"""Weight-fit and tracking-tail micro-benchmarks, run with pytest-benchmark.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_fit_and_tracking_tail.py --benchmark-only

Tier-1 does not collect this directory (``testpaths = ["tests"]``).

* ``test_infer_weights``: the weight fit on the axis probes of the harness
  function ``d = 7, seed = 0``, on the harness's rate grid (trimmed to
  finite tail norms on space ``(inf, 1)``) and with the pipeline's default
  selection window;
* ``test_tracking_tail_norm``: ``tracking_tail_norm`` for blocks
  ``j = 1 .. 5`` on a fresh stream of a d=3, rate-3 model at space
  ``(2, 1)`` with block decay 0.6, so each round enumerates the stream anew.
"""

import math

from coneapprox import (
    AlgebraicDecay,
    CandidateSets,
    SpaceConfig,
    TrackingConeSpec,
    WavenumberStream,
    WeightModel,
    infer_weights,
    make_random_function,
    probe_wavenumbers,
    tracking_tail_norm,
)

D, SEED = 7, 0


def test_infer_weights(benchmark):
    space = SpaceConfig(math.inf, 1.0)
    full = CandidateSets.default()
    rates = tuple(r for r in full.rate_grid if r * space.tail_exponent > 1.0)
    cands = CandidateSets(full.coordinate_grid, rates, full.axis_degree_cap)
    # the pipeline's default window: the rate grid's value resolution
    window = float(cands.axis_degree_cap) ** min(b - a for a, b in zip(rates, rates[1:]))
    oracle = make_random_function(D, SEED).oracle()
    samples = {k: oracle.query(k) for k in probe_wavenumbers(D, cands.axis_degree_cap)}
    fitted = benchmark(infer_weights, samples, D, cands, space, selection_window=window)
    assert fitted.objective > 0.0


def test_tracking_tail_norm(benchmark):
    model = WeightModel(3, (1.0, 0.9, 0.81), AlgebraicDecay(3.0))
    space = SpaceConfig(2.0, 1.0)
    spec = TrackingConeSpec(start=1, inflation=1.5, decay=0.6)

    def run():
        stream = WavenumberStream(model)
        return [tracking_tail_norm(space, model, stream, spec, j) for j in range(1, 6)]

    tails = benchmark.pedantic(run, rounds=5)
    assert all(a >= b > 0.0 for a, b in zip(tails, tails[1:]))
