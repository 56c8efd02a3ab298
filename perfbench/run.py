"""Benchmark of certified solves with coneapprox.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery|tracking|pilot --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds the workload's instances from the seed, then makes whole passes
over them, one timed operation per instance, until ``--seconds`` have passed
or the next pass would overrun them (at least one pass).  Every output is
checked outside the timed region.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced pass and one traced pass, prints the per-layer
metrics of the traced pass and the tracing overhead, and checks that both
passes made the same coefficient queries.  ``--smoke`` runs every workload
at a tiny size, traced and untraced, with every check on, and exits 1 on
any failure.

The benchmark imports coneapprox from ``src/`` of the checkout it sits in
and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

# One thread per process, set before numpy is imported: OpenBLAS would start
# one thread per core, and on a shared host the timings would then measure
# the scheduler.  The set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load(workload: str, seed: int, smoke: bool):
    """Import coneapprox and build the instances; returns (workload, instances, seconds)."""
    started = time.perf_counter()
    import workloads  # imports coneapprox

    bench = workloads.WORKLOADS[workload]
    instances = bench.instances(seed, smoke)
    return bench, instances, time.perf_counter() - started


def _setup_probe(workload: str, seed: int) -> float:
    """One more set-up in a fresh interpreter, as a user starting a solve would pay it."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


class Pass:
    """Timings, query costs and check results of one pass over the instances."""

    def __init__(self) -> None:
        self.times = []
        self.costs = []
        self.failures = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(bench, instances, tracer=None) -> Pass:
    done = Pass()
    for inst in instances:
        label = inst.label
        start = time.perf_counter()
        try:
            with tracer.operation(label) if tracer else nullcontext():
                start = time.perf_counter()
                out = bench.run(inst)
                done.times.append(time.perf_counter() - start)
        except Exception as exc:  # an operation that raises is a failed operation
            done.times.append(time.perf_counter() - start)
            done.costs.append(None)
            done.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        done.costs.append(bench.cost(out))
        problems = bench.check(inst, out)
        if problems:
            done.failures.append(f"{label}: " + "; ".join(problems))
    return done


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def _summarise(passes, problems):
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for line in p.failures:
            print("FAILED " + line, file=sys.stderr)
    # a seeded rerun must make exactly the same queries
    first = passes[0].costs
    for index, p in enumerate(passes[1:], start=2):
        if p.costs != first:
            problems.append(f"pass {index} made other queries than pass 1")
    for line in problems:
        print("INCORRECT " + line, file=sys.stderr)
    return attempted, failed


def _coef_queries(one_pass: Pass) -> int:
    return sum(c for c in one_pass.costs if c is not None)


def measure(bench, instances, seconds: float):
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(bench, instances))
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pass_start) > seconds:
            return passes


def end_to_end(passes, setup_samples) -> dict:
    times = [t for p in passes for t in p.times]
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_s_median": (statistics.median(times), "s"),
        "op_s_p90": (_p90(times), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "coef_queries": (_coef_queries(passes[0]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced(bench, instances, plain: Pass, workload: str, seed: int, problems):
    """One traced pass after the untraced ``plain`` one; returns the per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(bench, instances, tracer)
    finally:
        tracer.uninstall()
    plain_queries, traced_queries = _coef_queries(plain), _coef_queries(traced_pass)
    if traced_queries != plain_queries:
        problems.append(f"traced coef_queries {traced_queries} != untraced {plain_queries}")
    print(
        f"tracing overhead: traced wall_s {traced_pass.wall:.4f} s - untraced wall_s "
        f"{plain.wall:.4f} s = {traced_pass.wall - plain.wall:.4f} s"
    )
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload}-seed{seed}-spans.jsonl")
    return traced_pass, tracer.layer_metrics(max(traced_queries, 1), bench.has_cells)


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _print_metrics(metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")


def smoke() -> int:
    bad = 0
    for name in ("battery", "tracking", "pilot"):
        bench, instances, setup = _load(name, 0, True)
        problems = []
        plain = run_pass(bench, instances)
        metrics = end_to_end([plain], [setup])
        traced_pass, layers = traced(bench, instances, plain, f"smoke-{name}", 0, problems)
        attempted, failed = _summarise([plain, traced_pass], problems)
        _print_metrics({**metrics, **layers})
        print(json.dumps(_result(not problems, attempted, failed, metrics)))
        print(json.dumps(_result(not problems, attempted, failed, layers)))
        bad += failed + len(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("battery", "tracking", "pilot"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "coneapprox" / "__init__.py").is_file():
        print(f"error: no coneapprox sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    bench, instances, setup = _load(args.workload, args.seed, False)
    if args.setup_probe:
        print(repr(setup))
        return 0
    problems = []
    if args.trace:
        plain = run_pass(bench, instances)
        traced_pass, metrics = traced(bench, instances, plain, args.workload, args.seed, problems)
        passes = [plain, traced_pass]
    else:
        setup_samples = [setup] + [_setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        passes = measure(bench, instances, args.seconds)
        metrics = end_to_end(passes, setup_samples)
    attempted, failed = _summarise(passes, problems)
    result = _result(not problems, attempted, failed, metrics)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"passes": len(passes), "instances": len(instances), **result}, handle, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) over {len(instances)} instances")
    _print_metrics(metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
