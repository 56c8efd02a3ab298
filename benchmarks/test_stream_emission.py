"""Stream emission micro-benchmarks, run with pytest-benchmark.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Tier-1 does not collect this directory (``testpaths = ["tests"]``).  Each
timing builds fresh streams, so it covers stream construction too:

* ``test_emission_rate``: the first 10**5 entries of one stream at d = 1, 3
  and 7, reported also as entries per second (``extra_info``);
* ``test_small_streams``: 300 fresh streams asked for 32 entries each, the
  size of the streams the benchmark workloads build their instances from.
"""

import random

import pytest

from coneapprox import AlgebraicDecay, WavenumberStream, WeightModel

ENTRIES = 10 ** 5


def _models(count: int, seed: int = 1):
    rng = random.Random(seed)
    models = []
    for index in range(count):
        d = 1 + index % 4
        gamma = [1.0]
        for _ in range(d):
            gamma.append(gamma[-1] * rng.uniform(0.5, 1.0))
        w = tuple(rng.uniform(0.2, 1.0) for _ in range(d))
        models.append(WeightModel(d, w, AlgebraicDecay(rng.uniform(3.0, 5.0)), tuple(gamma)))
    return models


@pytest.mark.parametrize("d", (1, 3, 7))
def test_emission_rate(benchmark, d):
    model = WeightModel(d, tuple(0.9 ** i for i in range(d)), AlgebraicDecay(3.0))
    weights = benchmark.pedantic(lambda: WavenumberStream(model).weights(ENTRIES), rounds=5)
    assert len(weights) == ENTRIES
    benchmark.extra_info["entries_per_s"] = ENTRIES / benchmark.stats.stats.median


def test_small_streams(benchmark):
    models = _models(300)

    def run():
        return [len(WavenumberStream(model).prefix(32)) for model in models]

    assert benchmark.pedantic(run, rounds=20) == [32] * len(models)
