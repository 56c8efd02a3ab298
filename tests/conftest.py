"""Shared builders for randomized test inputs."""

import contextlib
import math
import random

import pytest

from coneapprox import (
    AlgebraicDecay,
    SpaceConfig,
    TableDecay,
    WavenumberStream,
    WeightModel,
)
from coneapprox import enumeration
from coneapprox.approximation import _TailNorms


def random_model(rng: random.Random, max_dim: int = 4, min_rate: float = 1.5) -> WeightModel:
    """Random weight model with decay fast enough for convergent sums."""
    d = rng.randint(1, max_dim)
    w = tuple(rng.uniform(0.05, 1.0) for _ in range(d))
    if rng.random() < 0.3:
        n_vals = rng.randint(2, 5)
        vals = [1.0]
        for _ in range(n_vals - 1):
            vals.append(vals[-1] * rng.uniform(0.1, 0.9))
        decay = TableDecay(tuple(vals), rng.choice([0.0, rng.uniform(0.05, 0.4)]))
    else:
        decay = AlgebraicDecay(rng.uniform(min_rate, 5.0))
    gamma = [1.0]
    for _ in range(d):
        gamma.append(gamma[-1] * rng.uniform(0.5, 1.0))
    return WeightModel(
        dimension=d, coordinate_weights=w, decay=decay, interaction_weights=tuple(gamma)
    )


def random_space(rng: random.Random) -> SpaceConfig:
    """Random exponent pair, mixing finite and infinite cases."""
    choice = rng.random()
    if choice < 0.25:
        return SpaceConfig(math.inf, rng.choice([1.0, 2.0]))
    rho = rng.choice([1.5, 2.0, 3.0, 4.0])
    if choice < 0.5:
        return SpaceConfig(rho, rho)
    tau = rng.uniform(1.0, rho * 0.9)
    return SpaceConfig(rho, tau)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def _streams_start_from_scratch():
    """No test starts from the enumeration of a stream another test built."""
    enumeration.forget_shared()


def scratch_stream(model: WeightModel) -> WavenumberStream:
    """A stream that enumerates from scratch, not from the enumeration of an earlier stream."""
    enumeration.forget_shared()
    return WavenumberStream(model)


@contextlib.contextmanager
def tail_calls():
    """Log ``(name, n)`` of each ``_TailNorms.subtraction`` and ``tail`` call, on its return.

    A full tail logs the subtraction it starts from first, unless its value
    is already kept by position; either way a stop test that took the full
    tail at ``n`` ends the log with ``("tail", n)``.
    """
    calls = []

    def traced(name):
        method = getattr(_TailNorms, name)

        def call(self, n):
            value = method(self, n)
            calls.append((name, n))
            return value

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in ("subtraction", "tail"):
            patch.setattr(_TailNorms, name, traced(name))
        yield calls


def settled_by_subtraction(calls) -> bool:
    """Whether the last stop test of a traced rule stopped without taking the full tail."""
    return not calls or calls[-1][0] != "tail"


def stream_entries(model: WeightModel, count: int):
    return WavenumberStream(model).prefix(count)


def pilot_cone_member(rng, model, cfg, pilot_size, inflation, tail_terms=40):
    """Finite-support coefficient table guaranteed inside the pilot cone.

    Nonzero pilot ratios fix the pilot norm; the remaining ratio mass stays
    within the inflation budget at every prefix, so the membership condition
    holds for all n.  Returns (table, oracle-ready dict) keyed by wavenumber.
    """
    entries = stream_entries(model, pilot_size + tail_terms)
    if len(entries) < pilot_size + 2:
        raise ValueError("model support too small for the requested pilot")
    rho = cfg.ratio_exponent
    ratios = [rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]) for _ in range(pilot_size)]
    from coneapprox import seq_norm

    pilot_norm = seq_norm(ratios, rho)
    n_tail = len(entries) - pilot_size
    use = rng.uniform(0.2, 0.9)
    if math.isinf(rho):
        cap = use * pilot_norm  # stays below the pilot peak, within budget
        tail = [cap * rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]) for _ in range(n_tail)]
    else:
        budget = (inflation ** rho - 1.0) ** (1.0 / rho) * pilot_norm * use
        raw = [rng.uniform(0.1, 1.0) * 0.7 ** i for i in range(n_tail)]
        scale = budget / seq_norm(raw, rho)
        tail = [rng.choice([-1.0, 1.0]) * scale * v for v in raw]
    table = {}
    for (k, lam), ratio in zip(entries, ratios + tail):
        table[k] = ratio * lam
    return table


def tracking_cone_member(rng, model, cfg, spec, blocks=5):
    """Finite-support table with geometrically decaying block ratio norms.

    Each block carries a single nonzero coefficient whose ratio equals the
    target block norm, so the decay condition holds with room to spare.
    """
    q = spec.decay * rng.uniform(0.4, 0.95)
    sigma1 = rng.uniform(0.2, 2.0)
    table = {}
    stream = WavenumberStream(model)
    for j in range(1, blocks + 1):
        lo, hi = spec.block_range(j)
        entries = stream.prefix(hi)[lo:]
        if not entries:
            break
        k, lam = entries[rng.randrange(len(entries))]
        table[k] = rng.choice([-1.0, 1.0]) * sigma1 * q ** (j - 1) * lam
    return table


def exact_residual(outcome, table, cfg):
    """Solution-norm distance to the finite-support truth, exactly."""
    from coneapprox import seq_norm

    sampled = {k for k, _ in outcome.terms}
    return seq_norm(
        [coef for k, coef in table.items() if k not in sampled], cfg.solution_exponent
    )
