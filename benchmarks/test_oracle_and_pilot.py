"""Oracle-query and pilot-rule micro-benchmarks, run with pytest-benchmark.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_oracle_and_pilot.py --benchmark-only

Tier-1 does not collect this directory (``testpaths = ["tests"]``).  The
function is the harness's ``d = 7, seed = 0``, whose coefficient box
``{0..4}^7`` holds 78,125 entries.

* ``test_oracle_queries``: a fresh oracle asked for the first 10**4
  wavenumbers of the function's weight stream, one ``query`` at a time or
  in one ``query_rows`` batch, for a table oracle over the box and for the
  box oracle ``from_array`` (the oracle and the rows are built outside the
  timing);
* ``test_pilot_rule_on_the_fitted_model``: ``approximate_on_pilot_cone`` at
  space ``(inf, 1)`` and tolerance 1e-3, on the model the pipeline fits to
  the function's probes, with the pipeline's pilot size and the harness
  inflation 1.1.  Each round builds a fresh stream and a fresh box oracle.
"""

import math

import numpy as np
import pytest

from coneapprox import (
    TOLERANCE_MET,
    CandidateSets,
    CoefficientOracle,
    PilotConeSpec,
    SpaceConfig,
    WavenumberStream,
    approximate_on_pilot_cone,
    infer_weights,
    make_random_function,
    probe_wavenumbers,
)

D, SEED, EPS, INFLATION = 7, 0, 1e-3, 1.1
QUERIES = 10 ** 4


@pytest.fixture(scope="module")
def box():
    return make_random_function(D, SEED).support()


@pytest.mark.parametrize("read", ("single", "batch"))
@pytest.mark.parametrize("source", ("from_table", "from_array"))
def test_oracle_queries(benchmark, box, source, read):
    rows = WavenumberStream(make_random_function(D, SEED).model).rows(QUERIES)
    keys = list(zip(*rows.T.tolist()))
    if source == "from_table":
        table = {k: float(box[k]) for k in np.ndindex(box.shape)}

        def fresh():
            return CoefficientOracle.from_table(table)
    else:

        def fresh():
            return CoefficientOracle.from_array(box)

    def run(oracle):
        if read == "single":
            return [oracle.query(k) for k in keys]
        return [c for _, c in oracle.query_rows(rows)]

    values = benchmark.pedantic(run, setup=lambda: ((fresh(),), {}), rounds=5)
    assert values == [float(box[k]) if max(k) < box.shape[0] else 0.0 for k in keys]


def test_pilot_rule_on_the_fitted_model(benchmark, box):
    space = SpaceConfig(math.inf, 1.0)
    full = CandidateSets.default()
    rates = tuple(r for r in full.rate_grid if r * space.tail_exponent > 1.0)
    cands = CandidateSets(full.coordinate_grid, rates, full.axis_degree_cap)
    # the pipeline's default window: the rate grid's value resolution
    window = float(cands.axis_degree_cap) ** min(b - a for a, b in zip(rates, rates[1:]))
    probes = probe_wavenumbers(D, cands.axis_degree_cap)
    oracle = CoefficientOracle.from_array(box)
    samples = {k: oracle.query(k) for k in probes}
    model = infer_weights(samples, D, cands, space, selection_window=window).model()
    spec = PilotConeSpec(len(probes), INFLATION)

    def run():
        return approximate_on_pilot_cone(
            CoefficientOracle.from_array(box), WavenumberStream(model), space, model, spec, EPS
        )

    outcome = benchmark.pedantic(run, rounds=5)
    assert outcome.stopped_by == TOLERANCE_MET
