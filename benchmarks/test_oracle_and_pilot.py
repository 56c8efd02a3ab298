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
* ``test_table_batch_mostly_off_the_table``: one ``query_rows`` batch of the
  same 10**4 rows on a fresh table oracle that holds only the first 64 of
  them, so that almost every row takes the default, as in the pilot
  workload's members;
* ``test_pilot_rule_on_the_fitted_model``: ``approximate_on_pilot_cone`` at
  space ``(inf, 1)`` and tolerance 1e-3, on the model the pipeline fits to
  the function's probes, with the pipeline's pilot size and the harness
  inflation 1.1.  Each round builds a fresh stream and a fresh box oracle;
* ``test_pilot_rule_at_a_finite_exponent``: ``approximate_on_pilot_cone`` at
  space ``(2, 1)`` and tolerance 1e-6 on a pilot-supported input of full
  norm, whose cost is ``pilot_cost_bound``.  Each round builds a fresh
  stream and a fresh table oracle;
* ``test_ball_rule_at_tail_exponent_one``: ``approximate_on_ball`` on
  ``WeightModel(3, (0.6, 0.5, 0.4), AlgebraicDecay(5.0))`` at space
  ``(inf, 1)``, radius 1 and tolerance 1e-6, a stop at position 841 that
  the subtraction bound settles, so no window is grown past it.  Each round
  builds a fresh stream;
* ``test_ball_cost_bound_deep_in_the_stream``: ``ball_cost_bound`` on
  ``WeightModel(2, (0.9, 0.7), AlgebraicDecay(1.2))`` at space ``(2, 1)``,
  radius 1 and tolerance 1e-3, a scan to position 740,858.
"""

import math

import numpy as np
import pytest

from coneapprox import (
    TOLERANCE_MET,
    AlgebraicDecay,
    CandidateSets,
    CoefficientOracle,
    PilotConeSpec,
    SpaceConfig,
    WavenumberStream,
    WeightModel,
    approximate_on_ball,
    approximate_on_pilot_cone,
    ball_cost_bound,
    infer_weights,
    make_random_function,
    pilot_cost_bound,
    probe_wavenumbers,
    seq_norm,
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


def test_table_batch_mostly_off_the_table(benchmark, box):
    rows = WavenumberStream(make_random_function(D, SEED).model).rows(QUERIES)
    keys = list(zip(*rows.T.tolist()))
    table = {k: float(box[k]) for k in keys[:64]}

    def run(oracle):
        return [c for _, c in oracle.query_rows(rows)]

    values = benchmark.pedantic(run, setup=lambda: ((CoefficientOracle.from_table(table),), {}), rounds=20)
    assert values == [table.get(k, 0.0) for k in keys]


def test_pilot_rule_on_the_fitted_model(benchmark, box, from_scratch):
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

    outcome = benchmark.pedantic(run, setup=from_scratch, rounds=5)
    assert outcome.stopped_by == TOLERANCE_MET


def test_pilot_rule_at_a_finite_exponent(benchmark, from_scratch):
    space = SpaceConfig(2.0, 1.0)
    model = WeightModel(2, (0.5, 0.4), AlgebraicDecay(4.5))
    spec = PilotConeSpec(4, 1.4)
    ratios = (1.0, 0.6, 0.8, 0.3)
    table = {k: ratio * lam for (k, lam), ratio in zip(WavenumberStream(model).prefix(4), ratios)}

    def run():
        return approximate_on_pilot_cone(
            CoefficientOracle.from_table(table), WavenumberStream(model), space, model, spec, 1e-6
        )

    outcome = benchmark.pedantic(run, setup=from_scratch, rounds=5)
    assert outcome.stopped_by == TOLERANCE_MET
    assert outcome.n_used == pilot_cost_bound(space, model, spec, seq_norm(ratios, 2.0), 1e-6)


def test_ball_rule_at_tail_exponent_one(benchmark, from_scratch):
    space = SpaceConfig(math.inf, 1.0)
    model = WeightModel(3, (0.6, 0.5, 0.4), AlgebraicDecay(5.0))

    def run():
        return approximate_on_ball(
            CoefficientOracle.from_table({}), WavenumberStream(model), space, model, 1.0, 1e-6
        )

    outcome = benchmark.pedantic(run, setup=from_scratch, rounds=20)
    assert outcome.stopped_by == TOLERANCE_MET
    assert outcome.n_used == 841 == ball_cost_bound(space, model, 1.0, 1e-6)


def test_ball_cost_bound_deep_in_the_stream(benchmark, from_scratch):
    model = WeightModel(2, (0.9, 0.7), AlgebraicDecay(1.2))
    cost = benchmark.pedantic(
        ball_cost_bound, (SpaceConfig(2.0, 1.0), model, 1.0, 1e-3), setup=from_scratch, rounds=3
    )
    assert cost == 740858
