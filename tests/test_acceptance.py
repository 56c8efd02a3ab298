"""End-to-end acceptance gate: ten criteria, one verdict line each.

Every test prints its verdict through the capture-disabled channel so the
gate reads as a checklist under any pytest verbosity.  Tolerances and
instance counts are pinned; the randomized suites use fixed seeds, so a
verdict never flips between runs.
"""

import itertools
import math
import random
import statistics
import time

from conftest import (
    exact_residual,
    pilot_cone_member,
    random_model,
    random_space,
    tracking_cone_member,
)

from coneapprox import (
    TOLERANCE_MET,
    AlgebraicDecay,
    CandidateSets,
    CoefficientOracle,
    CoordinateRule,
    ExperimentConfig,
    PilotConeSpec,
    RegularityConstants,
    SpaceConfig,
    TableDecay,
    TrackingConeSpec,
    WavenumberStream,
    WeightModel,
    approximate_on_pilot_cone,
    approximate_on_tracking_cone,
    brute_force_order,
    infer_weights,
    pilot_complexity_lower,
    pilot_cost_bound,
    pilot_optimality_factor,
    probe_wavenumbers,
    run_experiment,
    seq_norm,
    strong_tractability,
    tail_weight_norm,
    tight_function,
    tracking_complexity_lower,
    tracking_cost_bound,
    tracking_optimality_factor,
    verify_regularity,
    weight_fit_objective,
    write_csv,
    write_jsonl,
)

SPACES = (SpaceConfig(2.0, 2.0), SpaceConfig(math.inf, 1.0), SpaceConfig(2.0, 1.0))
TOLERANCES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


# --- 1: certified error on 200 random cone members ---------------------------------


def test_acceptance_01_certified_error_on_cone_members(capsys):
    started = time.perf_counter()
    rng = random.Random(11)
    failures = 0
    worst = 0.0

    for i in range(100):
        cfg = SPACES[i % 3]
        eps = TOLERANCES[i % 5]
        model = random_model(rng, max_dim=3, min_rate=2.5)
        spec = PilotConeSpec(pilot_size=rng.randint(2, 6), inflation=rng.uniform(1.05, 2.0))
        if i % 2 == 0:
            for _ in range(50):
                try:
                    table = pilot_cone_member(rng, model, cfg, spec.pilot_size, spec.inflation)
                    break
                except ValueError:  # support too small for the pilot, redraw
                    model = random_model(rng, max_dim=3, min_rate=2.5)
            else:
                raise AssertionError("could not draw a pilot cone member")
        else:
            # extremal member concentrated on the pilot segment itself
            support = [k for k, _ in WavenumberStream(model).prefix(spec.pilot_size)]
            if len(support) < spec.pilot_size:
                spec = PilotConeSpec(pilot_size=len(support), inflation=spec.inflation)
            source = tight_function(cfg, model, support, rng.uniform(0.25, 4.0))
            table = {k: source.query(k) for k in support}
            table = {k: v for k, v in table.items() if v != 0.0}
        oracle = CoefficientOracle.from_table(table)
        out = approximate_on_pilot_cone(oracle, WavenumberStream(model), cfg, model, spec, eps)
        residual = exact_residual(out, table, cfg)
        worst = max(worst, residual / eps)
        if out.stopped_by != TOLERANCE_MET or out.cone_violated or residual > eps * (1 + 1e-12):
            failures += 1

    for i in range(100):
        cfg = SPACES[i % 3]
        eps = TOLERANCES[i % 5]
        model = random_model(rng, max_dim=3, min_rate=2.5)
        spec = TrackingConeSpec(
            start=rng.choice([1, 2]), inflation=rng.uniform(1.2, 2.0),
            decay=rng.uniform(0.25, 0.7),
        )
        table = tracking_cone_member(rng, model, cfg, spec, blocks=5)
        assert table, "tracking member construction produced no coefficients"
        oracle = CoefficientOracle.from_table(table)
        out = approximate_on_tracking_cone(oracle, WavenumberStream(model), cfg, model, spec, eps)
        residual = exact_residual(out, table, cfg)
        worst = max(worst, residual / eps)
        if out.stopped_by != TOLERANCE_MET or out.cone_violated or residual > eps * (1 + 1e-12):
            failures += 1

    elapsed = time.perf_counter() - started
    _verdict(
        capsys,
        "acceptance 01 certified error on 200 cone members",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, worst residual/tolerance={worst:.3g}, {elapsed:.1f}s < 60s",
    )


# --- 2: stream prefix equals the exhaustive reference -------------------------------

_START_BOX = {1: 2100, 2: 128, 3: 26, 4: 16}
_MAX_BOX = {1: 16800, 2: 1024, 3: 128, 4: 24}


def _geometric_decay(rng, lo, hi):
    values = [1.0]
    for _ in range(rng.randint(1, 3)):
        values.append(values[-1] * rng.uniform(0.3, 0.9))
    return TableDecay(tuple(values), rng.uniform(lo, hi))


def _enumeration_model(rng, d, index):
    """Random model whose top 2000 weights provably fit a small reference box."""
    if d == 1:
        w = (rng.uniform(0.05, 1.0),)
        if rng.random() < 0.4:
            decay = _geometric_decay(rng, 0.05, 0.4)
            if rng.random() < 0.4:
                decay = TableDecay(decay.values, 0.0)
        else:
            decay = AlgebraicDecay(rng.uniform(1.5, 5.0))
        return WeightModel(dimension=1, coordinate_weights=w, decay=decay)
    if d == 2:
        w = tuple(rng.uniform(0.1, 1.0) for _ in range(2))
        if rng.random() < 0.4:
            decay = _geometric_decay(rng, 0.1, 0.5)
        else:
            decay = AlgebraicDecay(rng.uniform(1.5, 4.0))
        gamma = (1.0, 1.0, rng.uniform(0.6, 1.0))
        return WeightModel(
            dimension=2, coordinate_weights=w, decay=decay, interaction_weights=gamma
        )
    if d == 3:
        if index < 2:
            # two dense hyperbolic-cross models; products dominate, box 96 certifies
            w = tuple(rng.uniform(0.8, 1.0) for _ in range(3))
            return WeightModel(
                dimension=3, coordinate_weights=w, decay=AlgebraicDecay(rng.uniform(1.4, 1.5))
            )
        w = tuple(rng.uniform(0.4, 1.0) for _ in range(3))
        return WeightModel(dimension=3, coordinate_weights=w, decay=_geometric_decay(rng, 0.15, 0.38))
    w = tuple(rng.uniform(0.6, 1.0) for _ in range(4))
    return WeightModel(dimension=4, coordinate_weights=w, decay=_geometric_decay(rng, 0.18, 0.34))


def test_acceptance_02_enumeration_matches_exhaustive_reference(capsys):
    started = time.perf_counter()
    rng = random.Random(22)
    prefix_len = 2000
    seen = {1: 0, 2: 0, 3: 0, 4: 0}
    mismatches = 0
    for i in range(50):
        d = 1 + i % 4
        model = _enumeration_model(rng, d, seen[d])
        dense3 = d == 3 and seen[d] < 2
        seen[d] += 1
        box = 96 if dense3 else _START_BOX[d]
        while True:
            try:
                reference = brute_force_order(model, box, prefix_len)
                break
            except ValueError:
                box *= 2
                assert box <= _MAX_BOX[d], f"model {i} needs an infeasible reference box"
        got = WavenumberStream(model).prefix(prefix_len)
        short = len(got) < prefix_len and len(reference) > len(got)
        if got != reference[: len(got)] or short:
            mismatches += 1
    elapsed = time.perf_counter() - started
    _verdict(
        capsys,
        "acceptance 02 lazy enumeration equals exhaustive order, 50 models",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches}, prefix {prefix_len}, {elapsed:.1f}s < 30s",
    )


# --- 3: extremal functions meet both norms ------------------------------------------


def test_acceptance_03_tight_function_attains_both_norms(capsys):
    rng = random.Random(33)
    worst = 0.0
    checked = 0
    while checked < 100:
        model = random_model(rng, max_dim=4)
        cfg = random_space(rng)
        entries = [e for e in WavenumberStream(model).prefix(rng.randint(3, 40)) if e[1] > 0.0]
        if len(entries) < 2:
            continue
        picked = rng.sample(entries, rng.randint(1, len(entries)))
        radius = 10.0 ** rng.uniform(-3, 3)
        oracle = tight_function(cfg, model, [k for k, _ in picked], radius)
        coefs = {k: oracle.query(k) for k, _ in picked}
        ratios = [abs(coefs[k]) / lam for k, lam in picked]
        in_norm = seq_norm(ratios, cfg.ratio_exponent)
        out_norm = seq_norm(list(coefs.values()), cfg.solution_exponent)
        lam_norm = seq_norm([lam for _, lam in picked], cfg.tail_exponent)
        worst = max(worst, abs(in_norm - radius) / radius)
        worst = max(worst, abs(out_norm - radius * lam_norm) / (radius * lam_norm))
        checked += 1
    _verdict(
        capsys,
        "acceptance 03 extremal input and solution norms, 100 draws",
        worst <= 1e-10,
        f"worst relative deviation {worst:.3g} <= 1e-10",
    )


# --- 4: pilot rule cost formula and essential optimality ----------------------------


def test_acceptance_04_pilot_cost_formula_and_optimality(capsys):
    rng = random.Random(44)
    mismatches = 0
    floor_violations = 0
    for i in range(50):
        cfg = SPACES[i % 3]
        d = rng.randint(1, 3)
        model = WeightModel(
            dimension=d,
            coordinate_weights=tuple(rng.uniform(0.1, 1.0) for _ in range(d)),
            decay=AlgebraicDecay(rng.uniform(2.5, 5.0)),
        )
        spec = PilotConeSpec(pilot_size=rng.randint(2, 6), inflation=rng.uniform(1.05, 2.0))
        radius = rng.uniform(0.3, 3.0)
        eps = rng.choice([1e-2, 1e-3, 1e-4]) * rng.uniform(0.5, 2.0)
        entries = WavenumberStream(model).prefix(spec.pilot_size)
        p = cfg.ratio_exponent
        if math.isinf(p):
            ratios = [radius] + [radius * rng.uniform(0.2, 1.0) for _ in entries[1:]]
        else:
            raw = [rng.uniform(0.3, 1.0) for _ in entries]
            scale = radius / seq_norm(raw, p)
            ratios = [scale * v for v in raw]
        table = {k: r * lam for (k, lam), r in zip(entries, ratios)}
        oracle = CoefficientOracle.from_table(table)
        predicted = pilot_cost_bound(cfg, model, spec, radius, eps)
        out = approximate_on_pilot_cone(oracle, WavenumberStream(model), cfg, model, spec, eps)
        if predicted is None or out.n_used != predicted or out.stopped_by != TOLERANCE_MET:
            mismatches += 1
        omega = pilot_optimality_factor(cfg, spec.inflation)
        for s in (1e-2, 1e-3, 1e-4):
            cost = pilot_cost_bound(cfg, model, spec, radius, s)
            floor = pilot_complexity_lower(cfg, model, spec, radius, omega * s)
            if cost is None or floor is None or cost > floor:
                floor_violations += 1
    _verdict(
        capsys,
        "acceptance 04 pilot cost equals its formula and meets the shrunken floor",
        mismatches == 0 and floor_violations == 0,
        f"50 worst-case instances exact, {mismatches} mismatches; "
        f"{floor_violations} floor violations over 150 grid points",
    )


# --- 5: tracking rule cost ceiling and essential optimality --------------------------


def test_acceptance_05_tracking_cost_ceiling_and_optimality(capsys):
    rng = random.Random(55)
    ceiling_failures = 0
    missing = 0
    for i in range(100):
        cfg = SPACES[i % 3]
        eps = (1e-1, 1e-2, 1e-3)[i % 3]
        model = random_model(rng, max_dim=3, min_rate=2.5)
        spec = TrackingConeSpec(
            start=rng.choice([1, 2]), inflation=rng.uniform(1.2, 2.0),
            decay=rng.uniform(0.25, 0.7),
        )
        table = tracking_cone_member(rng, model, cfg, spec, blocks=5)
        if not table:
            missing += 1
            continue
        radius = seq_norm(
            [abs(c) / model.weight(k) for k, c in table.items()], cfg.ratio_exponent
        )
        stream = WavenumberStream(model)
        bound = tracking_cost_bound(cfg, model, stream, spec, radius, eps)
        if bound is None:
            missing += 1
            continue
        out = approximate_on_tracking_cone(
            CoefficientOracle.from_table(table), stream, cfg, model, spec, eps
        )
        if out.stopped_by != TOLERANCE_MET or out.n_used > bound[1]:
            ceiling_failures += 1

    # optimality on a parameter grid whose declared regularity verifies numerically
    model1 = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    cfg = SpaceConfig(2.0, 2.0)
    constants = RegularityConstants(
        slack=1.05, lower_rate=0.25, upper_rate=0.25,
        weight_spread=4.0, retained_fraction=0.5,
    )
    gap_failures = 0
    combos = 0
    for a in (1.5, 2.0):
        for b in (0.25, 0.4, 0.5):
            spec = TrackingConeSpec(start=1, inflation=a, decay=b)
            stream = WavenumberStream(model1)
            report = verify_regularity(cfg, model1, stream, spec, constants, block_window=8)
            if not report.all_ok:
                gap_failures += 1
                continue
            omega = tracking_optimality_factor(cfg, spec, constants)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                combos += 1
                ceiling = tracking_cost_bound(cfg, model1, stream, spec, 1.0, eps)
                floor = tracking_complexity_lower(
                    cfg, model1, stream, spec, constants, 1.0, omega * eps
                )
                if ceiling is None or floor[0] < 1 or not ceiling[0] < floor[0]:
                    gap_failures += 1
    _verdict(
        capsys,
        "acceptance 05 tracking cost ceiling on 100 members plus optimality gap",
        ceiling_failures == 0 and missing == 0 and gap_failures == 0 and combos == 30,
        f"ceiling failures={ceiling_failures}, missing bounds={missing}, "
        f"strict gap failures={gap_failures} over {combos} verified grid points",
    )


# --- 6: analytic tail norms against million-term sums --------------------------------

_TAIL_MODELS = (
    WeightModel(dimension=1, coordinate_weights=(0.7,), decay=AlgebraicDecay(4.0)),
    WeightModel(dimension=2, coordinate_weights=(1.0, 0.35), decay=AlgebraicDecay(5.0)),
    WeightModel(dimension=3, coordinate_weights=(0.9, 0.4, 0.2), decay=AlgebraicDecay(4.0)),
)
_TAIL_CFGS = {
    1.0: SpaceConfig(math.inf, 1.0),
    2.0: SpaceConfig(2.0, 1.0),
    math.inf: SpaceConfig(2.0, 2.0),
}
# Deepest truncation per (dimension, tail exponent) at which a double-precision
# million-term oracle can still adjudicate 1e-8 agreement: past these depths
# either the oracle's own truncation bias or the certified noise-floor guard
# of the analytic side exceeds the tolerance being tested.
_TAIL_DEPTH = {
    (1, 1.0): 33, (1, 2.0): 129, (1, math.inf): 513,
    (2, 1.0): 65, (2, 2.0): 257, (2, math.inf): 513,
    (3, 1.0): 65, (3, 2.0): 65, (3, math.inf): 513,
}
_TAIL_GRID = (0, 1, 3, 7, 17, 33, 65, 129, 257, 513)


def test_acceptance_06_tail_norms_match_brute_force(capsys):
    terms = 10 ** 6
    worst = 0.0
    points = 0
    for model in _TAIL_MODELS:
        stream = WavenumberStream(model)
        lams = [lam for _, lam in stream.prefix(terms)]
        assert len(lams) == terms
        for rho_prime, cfg in _TAIL_CFGS.items():
            assert cfg.tail_exponent == rho_prime
            depth = _TAIL_DEPTH[(model.dimension, rho_prime)]
            for n in _TAIL_GRID:
                if n > depth:
                    break
                if math.isinf(rho_prime):
                    brute = lams[n]
                else:
                    brute = math.fsum(v ** rho_prime for v in lams[n:]) ** (1.0 / rho_prime)
                got = tail_weight_norm(cfg, model, stream, n)
                worst = max(worst, abs(got - brute) / brute)
                points += 1
        del stream, lams
    _verdict(
        capsys,
        "acceptance 06 analytic tail norms vs million-term sums",
        worst <= 1e-8 and points >= 60,
        f"worst relative error {worst:.3g} <= 1e-8 over {points} depths",
    )


# --- 7: desk-scale reproduction of the adaptive-advantage experiment -----------------


def test_acceptance_07_desk_scale_experiment_battery(capsys):
    started = time.perf_counter()
    config = ExperimentConfig(
        dimensions=(4, 7), tolerances=(1e-1, 1e-2, 1e-3), seeds=tuple(range(20)),
        inflation=1.1, jobs=1,
    )
    rows = run_experiment(config)
    elapsed = time.perf_counter() - started
    assert len(rows) == 120
    hard_bad = sum(
        1 for r in rows if r.status != TOLERANCE_MET or not 0.0 < r.ratio <= 1.0
    )
    # the certificate on space (inf, 1) bounds g_norm_error; sup_error, a grid
    # maximum, is only a lower bound of the sup norm
    over_eps = sum(1 for r in rows if not r.g_norm_error <= r.eps)
    violated = sum(1 for r in rows if r.cone_violated)
    median4 = statistics.median(r.ratio for r in rows if r.d == 4)
    median7 = statistics.median(r.ratio for r in rows if r.d == 7)
    per_eps7 = [
        statistics.median(r.ratio for r in rows if r.d == 7 and r.eps == e)
        for e in config.tolerances
    ]
    decreasing = per_eps7[0] > per_eps7[1] > per_eps7[2]
    ok = (
        hard_bad == 0
        and over_eps == 0
        and 0.1 <= median4 <= 0.7
        and median7 < median4
        and decreasing
        and elapsed < 600.0
    )
    _verdict(
        capsys,
        "acceptance 07 desk-scale battery, 120 cells",
        ok,
        f"hard violations={hard_bad}, g_norm_error > eps in {over_eps}, "
        f"cone_violated in {violated} (not gated), median ratio d4={median4:.3f} in [0.1,0.7], "
        f"d7={median7:.3f} < d4, d7 per-tolerance {per_eps7[0]:.3f}>{per_eps7[1]:.3f}"
        f">{per_eps7[2]:.3f}, {elapsed:.0f}s < 600s",
    )


# --- 8: strong tractability verdicts -------------------------------------------------


def test_acceptance_08_tractability_verdicts(capsys):
    eta_grid = [0.05 * i for i in range(1, 41)]
    fast = strong_tractability(
        CoordinateRule("algebraic", rate=2.0), AlgebraicDecay(4.0), eta_grid
    )
    flat = strong_tractability(
        CoordinateRule("constant", scale=1.0), AlgebraicDecay(4.0), eta_grid
    )
    ok = (
        fast.strongly_tractable
        and fast.witness_eta is not None
        and math.isfinite(fast.eta_infimum)
        and not flat.strongly_tractable
        and flat.witness_eta is None
        and "2^d" in flat.note
    )
    _verdict(
        capsys,
        "acceptance 08 tractability verdicts",
        ok,
        f"decaying weights: witness eta={fast.witness_eta}, "
        f"unit weights: not tractable with 2^d note",
    )


# --- 9: inference fit, exhaustive oracle, scale invariance ----------------------------


def _exhaustive_optimum(samples, dimension, cands, cfg, window):
    best = math.inf
    for rate in cands.rate_grid:
        for w in itertools.product(cands.coordinate_grid, repeat=dimension):
            best = min(best, weight_fit_objective(samples, dimension, cands, cfg, w, rate))
    ceiling = best * window if best > 0.0 else 0.0
    for rate in sorted(cands.rate_grid, reverse=True):
        for w in itertools.product(cands.coordinate_grid, repeat=dimension):
            if weight_fit_objective(samples, dimension, cands, cfg, w, rate) <= ceiling:
                return w, rate, best
    raise AssertionError("no grid point reaches the ceiling")


def _misses_oracle(samples, dimension, cands, cfg, window):
    got = infer_weights(samples, dimension, cands, cfg)
    w_star, r_star, best = _exhaustive_optimum(samples, dimension, cands, cfg, window)
    return (
        got.rate != r_star
        or got.coordinate_weights != w_star
        or got.objective > best * window + 1e-300
    )


def test_acceptance_09_inference_descent_and_oracle(capsys):
    rng = random.Random(99)
    default_cands = CandidateSets.default()
    window = 1.0 + 1e-12
    default_checked = default_mismatches = 0
    for _ in range(100):
        d = rng.randint(1, 4)
        cfg = SpaceConfig(rng.choice([2.0, math.inf]), 1.0)
        samples = {
            k: rng.uniform(-1, 1) if rng.random() < 0.8 else 0.0
            for k in probe_wavenumbers(d, 4)
        }
        if d > 2:
            continue  # the exhaustive scan of the default grid grows as 11**d
        default_checked += 1
        default_mismatches += _misses_oracle(samples, d, default_cands, cfg, window)

    coarse = CandidateSets((0.0, 0.5, 1.0), (1.0, 2.0, 3.0), 2)
    oracle_mismatches = 0
    for _ in range(30):
        d = rng.randint(1, 3)
        cfg = SpaceConfig(rng.choice([2.0, math.inf]), 1.0)
        samples = {
            k: rng.uniform(-1, 1) if rng.random() < 0.7 else 0.0
            for k in probe_wavenumbers(d, 2)
        }
        oracle_mismatches += _misses_oracle(samples, d, coarse, cfg, window)

    cfg = SpaceConfig(2.0, 1.0)
    samples = {
        k: rng.uniform(-1, 1) if rng.random() < 0.8 else 0.0
        for k in probe_wavenumbers(3, 4)
    }
    base = infer_weights(samples, 3, default_cands, cfg)
    scale_breaks = 0
    for c in (3.0, -2.5, 1e3):
        scaled = infer_weights(samples={k: c * v for k, v in samples.items()},
                               dimension=3, candidates=default_cands, config=cfg)
        if (
            scaled.coordinate_weights != base.coordinate_weights
            or scaled.rate != base.rate
            or abs(scaled.objective - abs(c) * base.objective) > 1e-9 * abs(c) * base.objective
        ):
            scale_breaks += 1
    _verdict(
        capsys,
        "acceptance 09 inference fit, exhaustive oracle, scale invariance",
        default_mismatches == 0 and oracle_mismatches == 0 and scale_breaks == 0,
        f"default-grid mismatches={default_mismatches}/{default_checked}, "
        f"coarse-grid mismatches={oracle_mismatches}/30, scale breaks={scale_breaks}/3",
    )


# --- 10: byte-identical reruns --------------------------------------------------------


def test_acceptance_10_byte_identical_reruns(capsys, tmp_path):
    config = ExperimentConfig(
        dimensions=(2, 3), tolerances=(1e-1, 1e-2), seeds=(0, 1, 2), jobs=1
    )
    first = run_experiment(config)
    second = run_experiment(config)
    files = {}
    for tag, rows in (("a", first), ("b", second)):
        csv_path = tmp_path / f"{tag}.csv"
        jsonl_path = tmp_path / f"{tag}.jsonl"
        write_csv(rows, str(csv_path))
        write_jsonl(rows, str(jsonl_path))
        files[tag] = (csv_path.read_bytes(), jsonl_path.read_bytes())
    ok = first == second and files["a"] == files["b"] and len(files["a"][0]) > 0
    _verdict(
        capsys,
        "acceptance 10 byte-identical reruns",
        ok,
        f"{len(first)} rows, CSV {len(files['a'][0])} bytes and JSONL "
        f"{len(files['a'][1])} bytes identical across runs",
    )
