"""Append end-to-end benchmark records to ``BENCH_e2e.json``.

Usage, from the root of a checkout:

    python3 benchmarks/record.py [--workload battery|tracking|pilot ...] [--seed N]
        [--checkout DIR] [--out FILE]
    python3 benchmarks/record.py --smoke --out FILE

Each run is one ``perfbench/run.py --workload W --seed N --trace 0`` of the
checkout ``DIR`` (this one by default), in a subprocess, at the benchmark's
own run length.  Every run appends one record to ``FILE``
(``BENCH_e2e.json`` at the root of this checkout by default): the checkout's
git SHA and whether its tracked files differ from it, the machine (nproc,
platform, the Python and numpy versions, the BLAS thread variables the run
was given), the workload and seed, ``correct``, ``attempted``, ``failed`` and
the six end-to-end metrics.  Records already in the file are kept as they
are; a file that does not parse is an error, never overwritten.

``--smoke`` runs ``perfbench/run.py --smoke`` once instead, which covers
every workload at a tiny size, and records each workload's end-to-end
metrics marked ``"smoke": true``; it checks that the script still works,
and measures nothing.  The exit status is 1 when a run fails, is incorrect
or has failed operations, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("battery", "tracking", "pilot")
METRICS = ("wall_s", "op_s_median", "op_s_p90", "setup_s", "coef_queries", "peak_rss_mb")
# perfbench/run.py pins these to 1 itself; they are passed on explicitly so that the record
# states the setting the run had
BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def source(checkout: Path) -> dict:
    """The checkout's commit, and whether its tracked files differ from it."""
    return {
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def _json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _run(checkout: Path, args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, **BLAS_THREADS}
    return subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), *args],
        cwd=checkout, env=env, capture_output=True, text=True,
    )


def _record(result: dict, **fields) -> dict:
    metrics = result["metrics"]
    return {
        **fields,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in METRICS},
    }


def measure(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run of ``workload`` at ``seed``; its record (without the shared fields)."""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    done = _run(checkout, ["--workload", workload, "--seed", str(seed), "--trace", "0"])
    fields = {"started": started, "workload": workload, "seed": seed, "smoke": False}
    lines = _json_lines(done.stdout)
    if done.returncode or not lines:
        return {**fields, "error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return _record(lines[-1], **fields)


def smoke(checkout: Path) -> list:
    """``perfbench/run.py --smoke``: one record per workload, from its end-to-end line."""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    done = _run(checkout, ["--smoke"])
    lines = _json_lines(done.stdout)
    # per workload, in this order, one end-to-end line and then one per-layer line
    if len(lines) != 2 * len(WORKLOADS):
        return [{"started": started, "workload": "all", "seed": 0, "smoke": True,
                 "error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}]
    return [
        _record(line, started=started, workload=workload, seed=0, smoke=True)
        for workload, line in zip(WORKLOADS, lines[::2])
    ]


def append(path: Path, records: list) -> None:
    """Add ``records`` after those already in ``path``, replacing the file in one step."""
    history = []
    if path.exists():
        history = json.loads(path.read_text(encoding="utf-8"))["records"]
    handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            json.dump({"records": history + records}, out, indent=1)
            out.write("\n")
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _bad(record: dict) -> bool:
    return "error" in record or not record["correct"] or record["failed"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; all three by default)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to benchmark")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_e2e.json")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    shared = {**source(checkout), "machine": machine()}
    bad = False
    if args.smoke:
        runs = smoke(checkout)
    else:
        runs = [measure(checkout, workload, args.seed) for workload in args.workload or WORKLOADS]
    records = [{**shared, **run} for run in runs]
    append(args.out, records)
    for record in records:
        bad = bad or _bad(record)
        summary = record.get("error") or " ".join(
            f"{name}={value['value']!r}" for name, value in record["metrics"].items()
        )
        print(f"{record['sha'][:10]} {record['workload']} seed {record['seed']}: {summary}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
