"""Stream emission micro-benchmarks, run with pytest-benchmark.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Tier-1 does not collect this directory (``testpaths = ["tests"]``).  Each
timing builds fresh streams, so it covers stream construction too:

* ``test_emission_rate``: the first 10**5 entries of one stream at d = 1, 3
  and 7, reported also as entries per second (``extra_info``, when timed);
* ``test_small_streams``: 300 fresh streams asked for 32 entries each, the
  size of the streams the benchmark workloads build their instances from;
* ``test_prefix_reads``: repeated ``prefix(n)`` or ``rows(n)`` of 10**4
  entries on a warm stream at d = 3, which emits nothing: ``prefix`` builds
  its tuples from the arrays on every call, ``rows`` returns a view.
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
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["entries_per_s"] = ENTRIES / benchmark.stats.stats.median


def test_small_streams(benchmark):
    models = _models(300)

    def run():
        return [len(WavenumberStream(model).prefix(32)) for model in models]

    assert benchmark.pedantic(run, rounds=20) == [32] * len(models)


@pytest.mark.parametrize("read", ("prefix", "rows"))
def test_prefix_reads(benchmark, read):
    stream = WavenumberStream(WeightModel(3, (1.0, 0.9, 0.81), AlgebraicDecay(3.0)))
    stream.weights(ENTRIES // 10)
    assert len(benchmark(getattr(stream, read), ENTRIES // 10)) == ENTRIES // 10
