"""Mutation check of the round-off allowances that keep certificates safe.

Usage, from the root of a checkout:

    python3 benchmarks/mutants.py
    python3 benchmarks/mutants.py --check

Each mutant is one textual edit of ``src/coneapprox/approximation.py`` that
removes an allowance: an upward one on a certified tail or tracking value, a
downward one on a floor, or the round-off clamp of the membership tests.
The script applies one edit at a time to a copy of this checkout under a
temporary directory, runs Tier-1 there (stopping at its first failure), and
prints whether the tests killed the mutant (the first failing test) or let
it survive.  A survivor is an allowance that no test checks.

``--check`` runs no tests: it only confirms that every mutant's target text
occurs exactly once in the source, so that a renamed line cannot make a
mutant vanish silently.  The exit status is 1 when a target is missing or
repeated (or, without ``--check``, when a copy fails to import the mutated
source), and 0 otherwise; survivors do not change it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src") / "coneapprox" / "approximation.py"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out")

# (name, text in the source, its replacement)
MUTANTS = (
    ("_pow_up allowance",
     "return y * (1.0 + (2.0 + 2.0 * abs(math.log(y))) * _EPS) if y > 0.0 else y",
     "return y"),
    ("_SLACK",
     "_SLACK = 64.0 * _EPS",
     "_SLACK = 0.0"),
    ("_ROOT_SLACK",
     "_ROOT_SLACK = 1.0 + 8.0 * _EPS",
     "_ROOT_SLACK = 1.0"),
    ("floors: sum rounded down",
     "inside * (1.0 - ulps * _EPS)",
     "inside"),
    ("floors: subnormal allowance",
     " - 2.0 * ulps * math.ulp(0.0)",
     ""),
    ("floors: root rounded down",
     "root * (1.0 - (4.0 + 2.0 * np.abs(np.log(root))) * _EPS)",
     "root"),
    ("window sum allowance",
     "scaled * (1.0 + (count + p + 2) * _EPS)",
     "scaled"),
    ("auxiliary sum allowance",
     "q_total * (1.0 + _SLACK) - self._q_sums[candidates] * (1.0 - (candidates + 1) * _EPS)",
     "q_total - self._q_sums[candidates]"),
    ("tracking allowance, t infinite",
     "max(sup, rem) * (1.0 + 2.0 * (r + 17) * _EPS)",
     "max(sup, rem)"),
    ("tracking allowance, t finite",
     "(acc.value + rem ** t) * (1.0 + 2.0 * ulps * _EPS)",
     "(acc.value + rem ** t)"),
    ("_CLAMP",
     "_CLAMP = 1e3 * _EPS",
     "_CLAMP = 0.0"),
)


def check(text: str) -> list:
    """Problems with the mutant table against the source ``text``: targets missing or repeated."""
    problems = []
    for name, old, _ in MUTANTS:
        count = text.count(old)
        if count != 1:
            problems.append(f"{name}: target occurs {count} times in {SOURCE}: {old!r}")
    return problems


def run(old: str, new: str) -> tuple:
    """Tier-1 on a copy with one edit; ``(verdict, detail)``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / SOURCE
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run(
            [sys.executable, "-c", "import coneapprox.approximation as a; print(a.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        if imported.returncode or Path(imported.stdout.strip()).resolve() != target.resolve():
            return "error", f"the copy does not import its own source: {imported.stderr.strip()[-500:]}"
        done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True)
    last = (done.stdout.strip().splitlines() or [done.stderr.strip()[-500:]])[-1]
    if done.returncode == 0:
        return "survived", last
    failed = [line.split(" ", 1)[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", (failed[0] if failed else last).split(" - ")[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only confirm every target occurs once")
    args = parser.parse_args(argv)

    problems = check((ROOT / SOURCE).read_text(encoding="utf-8"))
    for problem in problems:
        print(problem)
    if args.check or problems:
        if not problems:
            print(f"all {len(MUTANTS)} mutant targets occur once in {SOURCE}")
        return 1 if problems else 0
    bad = False
    for name, old, new in MUTANTS:
        started = time.perf_counter()
        verdict, detail = run(old, new)
        bad = bad or verdict == "error"
        print(f"{verdict:8}  {name:32}  {time.perf_counter() - started:6.0f} s  {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
