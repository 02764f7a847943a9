#!/usr/bin/env python3
"""Do two source trees of augburgers give the same results?

Usage, from the root of a source checkout:

    python3 tools/same_results.py PARENT_TREE

Each command runs once on this tree and once on ``PARENT_TREE`` (the root
of another checkout), each in a fresh process that imports the package
from that tree's ``src/``, on one BLAS/OpenMP thread:

- ``run`` and ``rates`` with the argument lists of the benchmark workloads
  ``run-ref`` and ``rates-ref`` (read from ``perfbench/workloads.py``) for
  seeds 0-4;
- ``check --seed S`` for S = 0-59.

For each command it prints one line: ``identical`` when the exit codes,
stdout and every output file agree byte for byte, else ``different`` with
the largest absolute difference of each CSV file's values, the other
outputs that differ, and the two exit codes.  The exit status is 0 when
every line reads ``identical``, else 1.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SEEDS = range(5)
CHECK_SEEDS = range(60)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_same_results_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def commands(run_seeds=RUN_SEEDS, check_seeds=CHECK_SEEDS):
    """``(label, argv_of(out_dir))`` of every command compared."""
    workloads = _workloads()
    out = []
    for name, command in (("run-ref", "run"), ("rates-ref", "rates")):
        for seed in run_seeds:
            out.append((f"{command} seed {seed}",
                        lambda d, w=workloads[name], s=seed: w.argv(s, d)))
    for seed in check_seeds:
        out.append((f"check seed {seed}",
                    lambda d, s=seed: ["check", "--out", d, "--seed", str(s)]))
    return out


def run_tree(tree: str, argv_of, workdir: str):
    """Exit code, stdout and output files of one command on ``tree``."""
    out_dir = os.path.join(workdir, "out")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, "-m", "augburgers.cli", *argv_of(out_dir)],
        cwd=workdir, env=env, capture_output=True,
    )
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return proc.returncode, proc.stdout, files


def _csv_difference(a: bytes, b: bytes) -> float:
    """Largest absolute difference of two CSV files' values, cell by cell;
    inf when their shapes or their text cells differ."""
    rows_a = list(csv.reader(a.decode().splitlines()))
    rows_b = list(csv.reader(b.decode().splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                return math.inf
            worst = max(worst, math.inf if math.isnan(gap) else gap)
    return worst


def compare(mine, theirs) -> str:
    """``identical``, or ``different`` and what differs."""
    if mine == theirs:
        return "identical"
    (rc_a, out_a, files_a), (rc_b, out_b, files_b) = mine, theirs
    parts = []
    if out_a != out_b:
        parts.append("stdout differs")
    for name in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(name), files_b.get(name)
        if a == b:
            continue
        if a is None or b is None:
            parts.append(f"{name} only on one side")
        elif name.endswith(".csv"):
            parts.append(f"{name} largest absolute difference {_csv_difference(a, b):.3g}")
        else:
            parts.append(f"{name} differs")
    parts.append(f"exit codes {rc_a} and {rc_b}")
    return "different (" + "; ".join(parts) + ")"


def same_results(parent: str, run_seeds=RUN_SEEDS, check_seeds=CHECK_SEEDS):
    """Yield ``(label, verdict)`` per command, this tree against ``parent``."""
    for label, argv_of in commands(run_seeds, check_seeds):
        with tempfile.TemporaryDirectory() as mine, tempfile.TemporaryDirectory() as theirs:
            yield label, compare(run_tree(ROOT, argv_of, mine), run_tree(parent, argv_of, theirs))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isdir(os.path.join(args[0], "src", "augburgers")):
        print("usage: python3 tools/same_results.py PARENT_TREE", file=sys.stderr)
        return 2
    same = total = 0
    for label, verdict in same_results(args[0]):
        print(f"{label}: {verdict}", flush=True)
        same += verdict == "identical"
        total += 1
    print(f"{same} of {total} identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
