"""The three benchmark workloads: instances, one timed operation each, checks.

A workload builds its instance set from the run seed alone.  ``run`` is the
timed operation a user of coneapprox waits for; ``check`` compares its output
with the benchmark's own computations and with what the method guarantees,
and returns a list of problems (empty when the output is correct).  Checks
never compare with a stored copy of an earlier output.

Library functions that the traced run wraps are looked up through their
module at call time (``approximation.approximate_on_tracking_cone``), so the
wrappers installed by ``tracing.py`` see the calls made from here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import coneapprox.approximation as approximation
import coneapprox.experiments as experiments
from coneapprox import (
    TOLERANCE_MET,
    AlgebraicDecay,
    CoefficientOracle,
    ExperimentConfig,
    PilotConeSpec,
    SpaceConfig,
    TrackingConeSpec,
    WavenumberStream,
    WeightModel,
)

Wavenumber = Tuple[int, ...]

# Exponent pairs (ratio, solution): tail exponents inf, 1 and 2.
PAIRS = ((2.0, 2.0), (math.inf, 1.0), (2.0, 1.0))


# --- the benchmark's own arithmetic -------------------------------------------------


def own_weight(model: WeightModel, k: Wavenumber) -> float:
    """``gamma[m] * prod(w[l] * s(k[l]))`` in ascending axis order, from the model's numbers."""
    active = sum(1 for v in k if v)
    acc = model.interaction_weights[active]
    for axis, degree in enumerate(k):
        if degree:
            acc *= model.coordinate_weights[axis] * float(degree) ** -model.decay.rate
    return acc


def own_norm(values, exponent: float) -> float:
    """l^exponent norm of a finite sequence with an exactly rounded sum of powers."""
    mags = [abs(v) for v in values]
    if not mags:
        return 0.0
    if math.isinf(exponent):
        return max(mags)
    if exponent == 1.0:
        return math.fsum(mags)
    return math.fsum(v ** exponent for v in mags) ** (1.0 / exponent)


def _random_model(rng: random.Random, d: int, rate_lo: float, rate_hi: float, w_lo: float, w_hi: float) -> WeightModel:
    gamma = [1.0]
    for _ in range(d):
        gamma.append(gamma[-1] * rng.uniform(0.5, 1.0))
    return WeightModel(
        dimension=d,
        coordinate_weights=tuple(rng.uniform(w_lo, w_hi) for _ in range(d)),
        decay=AlgebraicDecay(rng.uniform(rate_lo, rate_hi)),
        interaction_weights=tuple(gamma),
    )


def check_certified(outcome, table: Dict[Wavenumber, float], model, space, tolerance, what: str) -> List[str]:
    """Checks shared by the ball, pilot and tracking rules on a finite member table."""
    problems = []
    if outcome.stopped_by != TOLERANCE_MET:
        problems.append(f"{what}: stopped by {outcome.stopped_by}")
    if outcome.cone_violated:
        problems.append(f"{what}: cone reported violated on a member built inside it")
    sampled = [k for k, _ in outcome.terms]
    if len(set(sampled)) != len(sampled):
        problems.append(f"{what}: sampled wavenumbers repeat")
    if outcome.n_used != len(set(sampled)):
        problems.append(f"{what}: n_used {outcome.n_used} != {len(set(sampled))} distinct samples")
    wrong = [k for k, c in outcome.terms if c != table.get(k, 0.0)]
    if wrong:
        problems.append(f"{what}: {len(wrong)} sampled coefficients differ from the table, first at {wrong[0]}")
    weights = [own_weight(model, k) for k in sampled]
    rises = sum(1 for a, b in zip(weights, weights[1:]) if b > a)
    if rises:
        problems.append(f"{what}: sampled weights increase {rises} times along the stream")
    taken = set(sampled)
    residual = own_norm([c for k, c in table.items() if k not in taken], space.solution_exponent)
    bound = outcome.final_error_bound
    if bound is None or not residual <= bound <= tolerance:
        problems.append(f"{what}: need residual {residual!r} <= bound {bound!r} <= tolerance {tolerance!r}")
    return problems


# --- battery: experiment-harness cells ----------------------------------------------

BATTERY_TOLERANCES = (1e-1, 1e-2, 1e-3)
BATTERY_INFLATION = 1.1
# d=7 cells score the residual on a scatter grid of 4,096 points, a quarter
# of the harness default, so that a pass with 21 d=7 cells stays near 25 s;
# ground truth (support, then grid_sup) still takes most of a d=7 cell.
BATTERY_SCATTER = 2 ** 12
# The d=7 cells are functions 0-6 at every tolerance in every run.  Their
# query cost is heavy-tailed across functions (at eps=1e-3 from 1,562 to
# 69,665 over functions 0-59), which a dozen or two cells cannot average out;
# the seed draws the d=4 functions and the order of all cells.  The 21 d=7
# cells are a fifth of a pass, so the 90th percentile falls in the middle of
# their group rather than on its lower edge: at the edge it read the two
# fastest d=7 cells of the run and spread by 0.4 across runs.
D7_FUNCTIONS = tuple(range(7))
D4_FUNCTIONS_PER_RUN = 28
# Functions 0-199 whose d=4 cells break ``n_used <= 5**d`` on some tolerance:
# the fitted pilot rule samples past the polynomial's 625 nonzero coefficients
# (up to 51,571 queries).  Left out so that no operation fails on some seeds
# only; CHANGES.md names the fault.
D4_EXCLUDED = frozenset(
    (9, 20, 21, 23, 33, 47, 57, 59, 85, 89, 94, 99, 100, 106, 109,
     122, 131, 139, 140, 148, 158, 162, 169, 171, 175, 187, 188, 195)
)
D4_POOL = tuple(s for s in range(200) if s not in D4_EXCLUDED)
# sup_error comes from a float tensor contraction, g_norm_error from an exact sum.
SUP_ROUNDOFF = 1e-9


@dataclass(frozen=True)
class Cell:
    d: int
    eps: float
    function_seed: int

    @property
    def label(self) -> str:
        return f"cell d={self.d} eps={self.eps:g} function={self.function_seed}"


class Battery:
    name = "battery"
    has_cells = True

    def instances(self, seed: int, smoke: bool) -> List[Cell]:
        rng = random.Random(seed)
        if smoke:
            cells = [Cell(4, eps, rng.choice(D4_POOL)) for eps in BATTERY_TOLERANCES]
            cells.append(Cell(7, BATTERY_TOLERANCES[0], D7_FUNCTIONS[0]))
        else:
            chosen = rng.sample(D4_POOL, D4_FUNCTIONS_PER_RUN)
            cells = [Cell(4, eps, f) for f in chosen for eps in BATTERY_TOLERANCES]
            cells += [Cell(7, eps, f) for f in D7_FUNCTIONS for eps in BATTERY_TOLERANCES]
        rng.shuffle(cells)
        return cells

    def run(self, cell: Cell):
        config = ExperimentConfig(
            dimensions=(cell.d,), tolerances=(cell.eps,), seeds=(cell.function_seed,),
            inflation=BATTERY_INFLATION, scatter_count=BATTERY_SCATTER, jobs=1,
        )
        return experiments.run_experiment(config)

    def cost(self, rows) -> int:
        return sum(row.n_used for row in rows)

    def check(self, cell: Cell, rows) -> List[str]:
        if len(rows) != 1:
            return [f"expected one row, got {len(rows)}"]
        row = rows[0]
        problems = []
        if (row.d, row.eps, row.seed) != (cell.d, cell.eps, cell.function_seed):
            problems.append(f"row is for d={row.d} eps={row.eps} seed={row.seed}")
        if row.status != TOLERANCE_MET:
            problems.append(f"status {row.status}")
        if not row.g_norm_error <= cell.eps:
            problems.append(f"g_norm_error {row.g_norm_error!r} > eps")
        if not 0.0 < row.sup_error <= row.g_norm_error * (1.0 + SUP_ROUNDOFF):
            problems.append(f"sup_error {row.sup_error!r} outside (0, g_norm_error {row.g_norm_error!r}]")
        if not cell.d * 4 + 1 <= row.n_used <= 5 ** cell.d:
            problems.append(f"n_used {row.n_used} outside [{cell.d * 4 + 1}, {5 ** cell.d}]")
        return problems


# --- tracking: block-tracking rule on decay-cone members ----------------------------

TRACKING_TOLERANCES = (1e-4, 1e-5, 1e-6)
TRACKING_BLOCKS = 5
# A (2,1) or (inf,1) solve walks the stream to the 65,536-entry guard of the
# tail norm (about 1 s); a (2,2) solve stops after 2**k + 1 entries, k from 8
# to 13 and growing with the dimension (milliseconds).  Each (dimension,
# tolerance) gets one (inf,1) and two (2,1) solves, so about one solve in six
# is on the long walk and the 90th percentile lies among them, and a pass
# stays near 30 s.  The (2,2) solves are all at d=3, where most of them emit
# 4,097 entries: the median solve is then one of a homogeneous group.  With
# (2,2) solves at d=1 and d=2 too, the median fell on d=2 or d=3 solves, or on
# the edge of a 2**k cluster, depending on the seed, and moved by up to 50%.
TRACKING_LIGHT = {1: 0, 2: 0, 3: 42}  # (2,2) solves per (dimension, tolerance)
TRACKING_HEAVY = (PAIRS[1], PAIRS[2], PAIRS[2])
# Weight decay rates and cone decay factors for which every (inf,1) and (2,1)
# solve reaches that guard: with faster decay some stop short of it at
# random, and the pass time would then depend on the seed.
TRACKING_RATES = (3.0, 3.5)
TRACKING_DECAYS = (0.45, 0.6)


@dataclass
class Solve:
    label: str
    model: WeightModel
    space: SpaceConfig
    tolerance: float
    table: Dict[Wavenumber, float]
    spec: object
    radius: float = 0.0
    extremal: bool = False
    expected_cost: Optional[int] = field(default=None, repr=False)


def tracking_member(rng: random.Random, model: WeightModel, spec: TrackingConeSpec) -> Dict[Wavenumber, float]:
    """One nonzero coefficient per block, block ratio norms decaying by ``q < decay``."""
    q = spec.decay * rng.uniform(0.4, 0.95)
    sigma = rng.uniform(0.2, 2.0)
    stream = WavenumberStream(model)
    table = {}
    for j in range(1, TRACKING_BLOCKS + 1):
        lo, hi = spec.block_range(j)
        k, lam = stream.prefix(hi)[rng.randrange(lo, hi)]
        table[k] = rng.choice((-1.0, 1.0)) * sigma * lam
        sigma *= q
    return table


class Tracking:
    name = "tracking"
    has_cells = False

    def instances(self, seed: int, smoke: bool) -> List[Solve]:
        rng = random.Random(seed)
        plan = []
        dims = (1,) if smoke else (1, 2, 3)
        tols = TRACKING_TOLERANCES[:1] if smoke else TRACKING_TOLERANCES
        for d in dims:
            for tol in tols:
                light = 1 if smoke else TRACKING_LIGHT[d]
                heavy = PAIRS[1:] if smoke else TRACKING_HEAVY
                plan += [(d, tol, PAIRS[0])] * light + [(d, tol, pair) for pair in heavy]
        solves = []
        for d, tol, pair in plan:
            model = _random_model(rng, d, *TRACKING_RATES, 0.2, 1.0)
            spec = TrackingConeSpec(
                start=1, inflation=rng.uniform(1.2, 2.0), decay=rng.uniform(*TRACKING_DECAYS)
            )
            solves.append(Solve(
                label=f"tracking d={d} pair={pair} tol={tol:g}",
                model=model, space=SpaceConfig(*pair), tolerance=tol,
                table=tracking_member(rng, model, spec), spec=spec,
            ))
        rng.shuffle(solves)
        return solves

    def run(self, s: Solve):
        return approximation.approximate_on_tracking_cone(
            CoefficientOracle.from_table(s.table), WavenumberStream(s.model),
            s.space, s.model, s.spec, s.tolerance,
        )

    def cost(self, outcome) -> int:
        return outcome.n_used

    def check(self, s: Solve, outcome) -> List[str]:
        return check_certified(outcome, s.table, s.model, s.space, s.tolerance, "tracking")


# --- pilot: pilot rule plus ball rule on pilot-cone members -------------------------

PILOT_TOLERANCES = (1e-3, 1e-4, 1e-5, 1e-6)
PILOT_TAIL_TERMS = 40
# Decay rates stay between 4.5 and 5: at rate 2.5, d=4 and tolerance <= 1e-5
# the rules exhaust the default budget of 10**6 samples (the honest
# BudgetExhausted of the method), and at rates near 3 single (inf,1) solves at
# d=4 take 10-20 s and 400,000 queries, which no run can average out.  The
# narrow rate, weight, inflation and radius ranges keep the query count of a
# pass within a few percent across seeds.
PILOT_RATES = (4.5, 5.0)
PILOT_WEIGHTS = (0.4, 0.6)
PILOT_REPEATS = 3  # each (dimension, pair, tolerance): one extremal and two general members, thrice


def pilot_member(rng: random.Random, model, space, spec, extremal: bool):
    """Finite member of the pilot cone; extremal ones live on the pilot segment at full norm."""
    p = space.ratio_exponent
    count = spec.pilot_size if extremal else spec.pilot_size + PILOT_TAIL_TERMS
    entries = WavenumberStream(model).prefix(count)
    pilot = [rng.uniform(0.3, 1.0) for _ in range(spec.pilot_size)]
    pilot_norm = own_norm(pilot, p)
    tail: List[float] = []
    if not extremal:
        use = rng.uniform(0.2, 0.9)
        if math.isinf(p):
            tail = [use * pilot_norm * rng.uniform(0.1, 1.0) for _ in range(PILOT_TAIL_TERMS)]
        else:
            room = (spec.inflation ** p - 1.0) ** (1.0 / p) * pilot_norm * use
            raw = [rng.uniform(0.1, 1.0) * 0.7 ** i for i in range(PILOT_TAIL_TERMS)]
            scale = room / own_norm(raw, p)
            tail = [scale * v for v in raw]
    scale = rng.uniform(0.8, 1.25) / pilot_norm if extremal else 1.0
    return {
        k: rng.choice((-1.0, 1.0)) * scale * ratio * lam
        for (k, lam), ratio in zip(entries, pilot + tail)
    }


class Pilot:
    name = "pilot"
    has_cells = False

    def instances(self, seed: int, smoke: bool) -> List[Solve]:
        rng = random.Random(seed)
        dims = (1, 2) if smoke else (1, 2, 3, 4)
        tols = PILOT_TOLERANCES[:1] if smoke else PILOT_TOLERANCES
        solves = []
        for d in dims:
            for pair in PAIRS:
                for tol in tols:
                    for extremal in ((True, False) if smoke else (True, False, False) * PILOT_REPEATS):
                        model = _random_model(rng, d, *PILOT_RATES, *PILOT_WEIGHTS)
                        space = SpaceConfig(*pair)
                        spec = PilotConeSpec(
                            pilot_size=rng.randint(2, 6), inflation=rng.uniform(1.2, 1.6)
                        )
                        table = pilot_member(rng, model, space, spec, extremal)
                        radius = own_norm(
                            [abs(c) / own_weight(model, k) for k, c in table.items()],
                            space.ratio_exponent,
                        )
                        kind = "extremal" if extremal else "member"
                        solves.append(Solve(
                            label=f"pilot {kind} d={d} pair={pair} tol={tol:g}",
                            model=model, space=space, tolerance=tol, table=table,
                            spec=spec, radius=radius, extremal=extremal,
                        ))
        rng.shuffle(solves)
        return solves

    def run(self, s: Solve):
        pilot = approximation.approximate_on_pilot_cone(
            CoefficientOracle.from_table(s.table), WavenumberStream(s.model),
            s.space, s.model, s.spec, s.tolerance,
        )
        ball = approximation.approximate_on_ball(
            CoefficientOracle.from_table(s.table), WavenumberStream(s.model),
            s.space, s.model, s.radius, s.tolerance,
        )
        return pilot, ball

    def cost(self, outcomes) -> int:
        return outcomes[0].n_used + outcomes[1].n_used

    def check(self, s: Solve, outcomes) -> List[str]:
        pilot, ball = outcomes
        problems = check_certified(pilot, s.table, s.model, s.space, s.tolerance, "pilot rule")
        problems += check_certified(ball, s.table, s.model, s.space, s.tolerance, "ball rule")
        if s.extremal:
            # worst-case cost theorem: pilot-supported inputs of full norm attain the bound
            if s.expected_cost is None:
                s.expected_cost = approximation.pilot_cost_bound(
                    s.space, s.model, s.spec, s.radius, s.tolerance
                )
            if pilot.n_used != s.expected_cost:
                problems.append(
                    f"pilot rule: n_used {pilot.n_used} != pilot_cost_bound {s.expected_cost}"
                )
        return problems


WORKLOADS = {w.name: w for w in (Battery(), Tracking(), Pilot())}
