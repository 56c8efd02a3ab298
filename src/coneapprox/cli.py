"""Command-line front end.

Subcommands::

    coneapprox approx     --config cfg.json [--out out.json]
    coneapprox infer      --config cfg.json [--out out.json]
    coneapprox experiment --config cfg.json [--out results] [--jobs N]
    coneapprox diagnose   --config cfg.json [--out out.json]
    coneapprox enumerate  --config cfg.json [--out out.csv]

Shared flags: ``--set key=value`` (repeatable, dotted keys reach into
nested objects, values parse as JSON with a plain-string fallback) patches
the config after loading.  ``--seed N`` and ``--jobs N`` are overrides applied
right after the ``--set`` ones: for ``experiment``, ``--seed`` sets
``seeds = [N]`` and ``--jobs`` sets ``jobs``; for ``approx`` and ``infer``,
``--seed`` sets ``coefficients.generator.seed`` of a generator-backed
coefficient source.  ``--show-config`` builds every object the run builds
from the config, so it fails on any block the run rejects, then prints the
config that will run, defaults filled in, as JSON and exits without running.
Standard output carries data only; complaints go to standard error.  Exit
codes: 0 success / tolerance met, 1 usage or config error, 2 budget
exhausted, 3 experiment finished with failed rows.

Config schemas by subcommand (JSON; exponents are read by ``float``, so
``"inf"`` or ``"Infinity"`` give an infinite one).  The ``space``,
``candidates``, ``regularity`` and ``coordinate_rule`` blocks are passed to
their types as keyword arguments and so reject unknown keys:

* ``approx``: ``algorithm`` (``ball`` | ``pilot`` | ``tracking``), ``model``
  (weight-model object: ``d``, ``w``, ``s``, optional ``gamma``), ``space``
  (``ratio_exponent``, ``solution_exponent``), ``tolerance``,
  ``coefficients`` (either ``{"table": {"1,0": 0.5, ...}, "default": 0}``
  or ``{"generator": {"seed": 7}}``), plus ``radius`` for ``ball``,
  ``pilot`` (``size``, ``inflation``) for ``pilot``, ``tracking``
  (``start``, ``inflation``, ``decay``, optional ``kind``/``factor``/
  ``step``) for ``tracking``, optional ``budget_cap``.
* ``infer``: ``dimension``, ``space``, ``coefficients``, optional
  ``candidates`` (``coordinate_grid``, ``rate_grid``, ``axis_degree_cap``),
  ``gamma``, and, to run the full probe-fit-approximate pipeline, a
  ``tolerance`` plus optional ``inflation``/``pilot_size``/``budget_cap``/
  ``selection_window``.  Without ``tolerance`` only the fit is reported.
* ``experiment``: ``dimensions``, ``tolerances``, ``seeds`` (list or count),
  optional ``inflation``, ``axis_degree_cap``, ``budget_cap``,
  ``axis_points``, ``scatter_count``, ``timing``, ``jobs``.
* ``diagnose``: ``model``, ``space``, optional ``radius``, ``tolerance``,
  ``pilot``, ``tracking`` (with optional nested ``regularity`` constants:
  ``slack``, ``lower_rate``, ``upper_rate``, ``weight_spread``,
  ``retained_fraction``), ``tractability`` (``coordinate_rule`` object and
  ``eta_grid``; decay defaults to the model's).
* ``enumerate``: ``model``, ``count``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from .approximation import (
    DEFAULT_BUDGET_CAP,
    TOLERANCE_MET,
    PilotConeSpec,
    RegularityConstants,
    TrackingConeSpec,
    approximate_on_ball,
    approximate_on_pilot_cone,
    approximate_on_tracking_cone,
    ball_cost_bound,
    pilot_complexity_lower,
    pilot_cost_bound,
    pilot_optimality_factor,
    tracking_complexity_lower,
    tracking_cost_bound,
    tracking_optimality_factor,
)
from .enumeration import WavenumberStream, write_prefix_csv
from .experiments import (
    CSV_HEADER,
    ExperimentConfig,
    make_random_function,
    run_experiment,
    write_csv,
    write_jsonl,
)
from .inference import (
    CandidateSets,
    approximate_with_inferred_weights,
    infer_weights,
    probe_wavenumbers,
)
from .spaces import CoefficientOracle, DivergentNormError, SpaceConfig, solution_operator_norm
from .weights import CoordinateRule, WeightModel, strong_tractability

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    """Config or argument problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _oracle_from(spec: dict, dimension: int) -> CoefficientOracle:
    if "table" in spec:
        table = {}
        for key, value in spec["table"].items():
            k = tuple(int(part) for part in str(key).split(","))
            if len(k) != dimension:
                raise _UsageError(f"coefficient key {key!r} has wrong dimension")
            table[k] = float(value)
        return CoefficientOracle.from_table(table, float(spec.get("default", 0.0)))
    if "generator" in spec:
        return make_random_function(dimension, int(spec["generator"].get("seed", 0))).oracle()
    raise _UsageError("coefficients need either a 'table' or a 'generator' entry")


def _candidates_from(config: dict) -> CandidateSets:
    """Fit grids from the ``candidates`` block, written back as the fit reads them.

    Without the block the fit uses the default grids; without an
    ``axis_degree_cap``, the default grids' cap.
    """
    defaults = dataclasses.asdict(CandidateSets.default())
    block = config.get("candidates")
    if block is None:
        block = defaults
    candidates = CandidateSets(**{"axis_degree_cap": defaults["axis_degree_cap"], **block})
    config["candidates"] = dataclasses.asdict(candidates)
    return candidates


def _set_by_path(config: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise _UsageError(f"override path {dotted!r} crosses a non-object")
    node[parts[-1]] = value


def _apply_overrides(config: dict, pairs: List[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_by_path(config, key, value)


def _apply_flags(config: dict, args) -> None:
    """``--seed`` and ``--jobs`` as the overrides they stand for."""
    if args.subcommand == "experiment":
        if args.seed is not None:
            config["seeds"] = [args.seed]
        if args.jobs is not None:
            config["jobs"] = args.jobs
    elif args.seed is not None and "generator" in config.get("coefficients", {}):
        _set_by_path(config, "coefficients.generator.seed", args.seed)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        raise _UsageError("--config is required")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("config root must be a JSON object")
    return data


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _show(config: dict) -> int:
    sys.stdout.write(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_approx(config: dict, args) -> int:
    model = WeightModel.from_dict(config["model"])
    space = SpaceConfig(**config["space"])
    tolerance = float(config["tolerance"])
    budget = config["budget_cap"] = int(config.get("budget_cap", DEFAULT_BUDGET_CAP))
    algorithm = config["algorithm"]
    oracle = _oracle_from(config["coefficients"], model.dimension)
    # The ball rule takes the radius where the cone rules take their spec.
    if algorithm == "ball":
        rule, cone = approximate_on_ball, float(config["radius"])
    elif algorithm == "pilot":
        rule, cone = approximate_on_pilot_cone, PilotConeSpec.from_dict(config["pilot"])
    elif algorithm == "tracking":
        rule, cone = approximate_on_tracking_cone, TrackingConeSpec.from_dict(config["tracking"])
    else:
        raise _UsageError(f"unknown algorithm {algorithm!r}")
    if args.show_config:
        return _show(config)
    outcome = rule(oracle, WavenumberStream(model), space, model, cone, tolerance, budget)
    _emit(outcome.to_json(), args.out)
    return EXIT_OK if outcome.stopped_by == TOLERANCE_MET else EXIT_BUDGET


def _cmd_infer(config: dict, args) -> int:
    dimension = int(config["dimension"])
    space = SpaceConfig(**config["space"])
    candidates = _candidates_from(config)
    gamma = config.get("gamma")
    oracle = _oracle_from(config["coefficients"], dimension)
    pipeline = None
    if "tolerance" in config:
        pipeline = dict(
            inflation=float(config.setdefault("inflation", 1.1)),
            tolerance=float(config["tolerance"]),
            interaction_weights=gamma,
            pilot_size=config.get("pilot_size"),
            budget_cap=int(config.setdefault("budget_cap", DEFAULT_BUDGET_CAP)),
            selection_window=config.get("selection_window"),
        )
        size = pipeline["pilot_size"]  # the pipeline's pilot segment defaults to the probes
        probes = len(probe_wavenumbers(dimension, candidates.axis_degree_cap))
        PilotConeSpec(probes if size is None else size, pipeline["inflation"])
    if args.show_config:
        return _show(config)
    if pipeline is not None:
        outcome = approximate_with_inferred_weights(oracle, dimension, candidates, space, **pipeline)
        _emit(outcome.to_json(), args.out)
        return EXIT_OK if outcome.stopped_by == TOLERANCE_MET else EXIT_BUDGET
    samples = {k: oracle.query(k) for k in probe_wavenumbers(dimension, candidates.axis_degree_cap)}
    fitted = infer_weights(samples, dimension, candidates, space, gamma)
    _emit(json.dumps(fitted.to_dict()), args.out)
    return EXIT_OK


def _cmd_experiment(config: dict, args) -> int:
    cfg = ExperimentConfig.from_dict(config)
    if args.show_config:
        return _show(dataclasses.asdict(cfg))
    rows = run_experiment(cfg)
    if args.out is None:
        sys.stdout.write(CSV_HEADER + "\n")
        for row in rows:
            sys.stdout.write(row.to_csv() + "\n")
    else:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        write_csv(rows, base + ".csv")
        write_jsonl(rows, base + ".jsonl")
    failed = sum(1 for row in rows if row.status.startswith("failed:"))
    if failed:
        sys.stderr.write(f"{failed} of {len(rows)} rows failed\n")
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_diagnose(config: dict, args) -> int:
    model = WeightModel.from_dict(config["model"])
    space = SpaceConfig(**config["space"])
    radius = config["radius"] = float(config.get("radius", 1.0))
    tolerance = config.get("tolerance")
    pilot = tracking = constants = None
    if tolerance is not None:
        tolerance = float(tolerance)
        if "pilot" in config:
            pilot = PilotConeSpec.from_dict(config["pilot"])
        if "tracking" in config:
            block = config["tracking"]
            tracking = TrackingConeSpec.from_dict(block)
            if "regularity" in block:
                constants = RegularityConstants(**block["regularity"])
    if "tractability" in config:
        tract = config["tractability"]
        rule = CoordinateRule(**tract["coordinate_rule"])
        decay = WeightModel.decay_from_dict(tract["decay"]) if "decay" in tract else model.decay
        verdict = strong_tractability(rule, decay, tract["eta_grid"])
    if args.show_config:
        return _show(config)
    report: dict = {}
    try:
        report["operator_norm"] = solution_operator_norm(space, model)
    except DivergentNormError as exc:
        report["operator_norm"] = {"error": type(exc).__name__, "detail": str(exc)}
    if tolerance is not None:
        report["ball"] = {"cost": ball_cost_bound(space, model, radius, tolerance)}
        if pilot is not None:
            report["pilot"] = {
                "cost": pilot_cost_bound(space, model, pilot, radius, tolerance),
                "complexity_lower": pilot_complexity_lower(space, model, pilot, radius, tolerance),
                "optimality_factor": pilot_optimality_factor(space, pilot.inflation),
            }
        if tracking is not None:
            stream = WavenumberStream(model)
            cost = tracking_cost_bound(space, model, stream, tracking, radius, tolerance)
            entry: dict = {
                "cost": None if cost is None else {"block": cost[0], "samples": cost[1]}
            }
            if constants is not None:
                lower = tracking_complexity_lower(
                    space, model, stream, tracking, constants, radius, tolerance
                )
                entry["complexity_lower"] = {"block": lower[0], "samples": lower[1]}
                entry["optimality_factor"] = tracking_optimality_factor(space, tracking, constants)
            report["tracking"] = entry
    if "tractability" in config:
        report["tractability"] = {
            "strongly_tractable": verdict.strongly_tractable,
            "witness_eta": verdict.witness_eta,
            "eta_infimum": verdict.eta_infimum,
            "note": verdict.note,
        }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_enumerate(config: dict, args) -> int:
    model = WeightModel.from_dict(config["model"])
    count = config["count"] = int(config.get("count", 100))
    if args.show_config:
        return _show(config)
    write_prefix_csv(model, count, sys.stdout if args.out is None else args.out)
    return EXIT_OK


_COMMANDS = {
    "approx": _cmd_approx,
    "infer": _cmd_infer,
    "experiment": _cmd_experiment,
    "diagnose": _cmd_diagnose,
    "enumerate": _cmd_enumerate,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="coneapprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in _COMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", required=False, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, dotted keys allowed; repeatable",
        )
        p.add_argument(
            "--show-config",
            action="store_true",
            help="print the effective config and exit",
        )
        if name == "experiment":
            p.add_argument("--jobs", type=int, default=None, help="parallel row workers")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        config = _load_config(args.config)
        _apply_overrides(config, args.overrides)
        _apply_flags(config, args)
        return _COMMANDS[args.subcommand](config, args)
    except _UsageError as exc:
        sys.stderr.write(f"coneapprox: error: {exc}\n")
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"coneapprox: config error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
