"""Certificates never undershoot the exact residual on constructed cone members.

Members are built as the benchmark workloads build them: a pilot-cone member
carries ratios on the pilot segment and a tail whose norm stays within the
inflation's room (an extremal one lives on the pilot segment alone, at full
norm); a tracking-cone member carries one coefficient per block with block
ratio norms decaying faster than the cone's factor.  The residual is
computed exactly in rational arithmetic, so the check is on the certified
quantity itself, not on a rounded estimate of it.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coneapprox import (
    TOLERANCE_MET,
    AlgebraicDecay,
    CoefficientOracle,
    PilotConeSpec,
    SpaceConfig,
    TrackingConeSpec,
    WavenumberStream,
    WeightModel,
    approximate_on_pilot_cone,
    approximate_on_tracking_cone,
    seq_norm,
)

PAIRS = [(2.0, 2.0), (math.inf, 1.0), (2.0, 1.0), (math.inf, math.inf)]
TAIL_TERMS = 40
BLOCKS = 5


@st.composite
def _models(draw):
    d = draw(st.integers(1, 3))
    gamma = [1.0]
    for _ in range(d):
        gamma.append(gamma[-1] * draw(st.floats(0.5, 1.0)))
    return WeightModel(
        dimension=d,
        coordinate_weights=tuple(draw(st.floats(0.3, 1.0)) for _ in range(d)),
        decay=AlgebraicDecay(draw(st.floats(3.0, 5.0))),
        interaction_weights=tuple(gamma),
    )


def _pilot_member(rng, model, space, spec, extremal):
    """Finite member of the pilot cone; an extremal one lives on the pilot segment at full norm."""
    p = space.ratio_exponent
    count = spec.pilot_size if extremal else spec.pilot_size + TAIL_TERMS
    entries = WavenumberStream(model).prefix(count)
    pilot = [rng.uniform(0.3, 1.0) for _ in range(spec.pilot_size)]
    pilot_norm = seq_norm(pilot, p)
    tail = []
    if not extremal:
        use = rng.uniform(0.2, 0.9)  # share of the room the tail takes
        if math.isinf(p):
            tail = [use * pilot_norm * rng.uniform(0.1, 1.0) for _ in range(TAIL_TERMS)]
        else:
            room = (spec.inflation ** p - 1.0) ** (1.0 / p) * pilot_norm * use
            raw = [rng.uniform(0.1, 1.0) * 0.7 ** i for i in range(TAIL_TERMS)]
            scale = room / seq_norm(raw, p)
            tail = [scale * v for v in raw]
    scale = rng.uniform(0.8, 1.25) / pilot_norm if extremal else 1.0
    return {
        k: rng.choice((-1.0, 1.0)) * scale * ratio * lam
        for (k, lam), ratio in zip(entries, pilot + tail)
    }


def _tracking_member(rng, model, spec, edge):
    """One nonzero coefficient per block, block ratio norms decaying by ``q < decay``.

    An edge member sits on the cone's boundary instead: after block 1 its
    block ratio norms jump by the inflation and then decay by exactly the
    cone's factor, each on its block's heaviest weight.
    """
    q = spec.decay if edge else spec.decay * rng.uniform(0.4, 0.95)
    sigma = rng.uniform(0.2, 2.0)
    stream = WavenumberStream(model)
    table = {}
    for j in range(1, BLOCKS + 1):
        lo, hi = spec.block_range(j)
        k, lam = stream.prefix(hi)[lo if edge else rng.randrange(lo, hi)]
        table[k] = rng.choice((-1.0, 1.0)) * sigma * lam
        sigma *= q * (spec.inflation if edge and j == 1 else 1.0)
    return table


def _assert_certified(outcome, table, space, tolerance):
    """Exact residual <= certificate <= tolerance, with the residual summed in rationals."""
    assert outcome.stopped_by == TOLERANCE_MET
    assert not outcome.cone_violated
    bound = outcome.final_error_bound
    assert bound <= tolerance
    sampled = {k for k, _ in outcome.terms}
    rest = [Fraction(abs(c)) for k, c in table.items() if k not in sampled]
    q = space.solution_exponent
    if math.isinf(q):
        assert max(rest, default=0) <= Fraction(bound)
    else:
        assert sum(r ** int(q) for r in rest) <= Fraction(bound) ** int(q)


@settings(max_examples=150, deadline=None)
@given(
    model=_models(),
    pair=st.sampled_from(PAIRS),
    pilot_size=st.integers(2, 6),
    inflation=st.floats(1.2, 2.0),
    extremal=st.booleans(),
    tolerance_exponent=st.floats(-5.0, -1.0),
    rng=st.randoms(use_true_random=False),
)
def test_pilot_certificate_never_undershoots(model, pair, pilot_size, inflation, extremal, tolerance_exponent, rng):
    space = SpaceConfig(*pair)
    spec = PilotConeSpec(pilot_size, inflation)
    table = _pilot_member(rng, model, space, spec, extremal)
    tolerance = 10.0 ** tolerance_exponent
    out = approximate_on_pilot_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), space, model, spec, tolerance,
    )
    _assert_certified(out, table, space, tolerance)


@settings(max_examples=150, deadline=None)
@given(
    model=_models(),
    pair=st.sampled_from(PAIRS),
    inflation=st.floats(1.2, 2.0),
    decay=st.floats(0.3, 0.7),
    edge=st.booleans(),
    tolerance_exponent=st.floats(-5.0, -1.0),
    rng=st.randoms(use_true_random=False),
)
def test_tracking_certificate_never_undershoots(model, pair, inflation, decay, edge, tolerance_exponent, rng):
    space = SpaceConfig(*pair)
    spec = TrackingConeSpec(start=1, inflation=inflation, decay=decay)
    table = _tracking_member(rng, model, spec, edge)
    tolerance = 10.0 ** tolerance_exponent
    out = approximate_on_tracking_cone(
        CoefficientOracle.from_table(table), WavenumberStream(model), space, model, spec, tolerance,
    )
    _assert_certified(out, table, space, tolerance)
