#!/usr/bin/env python3
"""Do two source trees of augburgers give the same results?

Usage, from the root of a source checkout:

    python3 tools/same_results.py [--tolerance REL] PARENT_TREE

Each command runs once on this tree and once on ``PARENT_TREE`` (the root
of another checkout), each in a fresh process that imports the package
from that tree's ``src/``, on one BLAS/OpenMP thread:

- ``run`` and ``rates`` with the argument lists of the benchmark workloads
  ``run-ref`` and ``rates-ref`` (read from ``perfbench/workloads.py``) for
  seeds 0-4;
- ``check --seed S`` for S = 0-59;
- ``selfconv``, ``nwave`` and ``profile``, once each in the small cases of
  :data:`FIXED`.

For each command it prints one line: ``identical`` when the exit codes,
stdout and every output file agree byte for byte; with ``--tolerance REL``,
``within REL`` and the largest relative difference when only the values of
CSV files differ, each by at most REL of the largest magnitude in its
column of either file; else ``different`` with the largest absolute difference of each
CSV file's values, the other outputs that differ, and the two exit codes.
The exit status is 0 when no line reads ``different``, else 1.
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
# (label, argv without --out) of the commands run once each.
FIXED = (
    ("selfconv", ["selfconv", "--t-check", "1"]),
    ("selfconv repeated dx", ["selfconv", "--dx-list", "0.2,0.2,0.1",
                              "--x-left", "-20", "--x-right", "20"]),
    ("selfconv gaussian mlf naive", ["selfconv", "--initial-data", "gaussian:0.5,1",
                                     "--flux", "mlf", "--corrector-mode", "naive",
                                     "--theta", "0.5"]),
    ("nwave", ["nwave"]),
    ("profile", ["profile", "--t-end", "1", "--snapshot-times", "1"]),
)


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
    for label, argv in FIXED:
        out.append((label, lambda d, a=argv: [*a, "--out", d]))
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


def _csv_difference(a: bytes, b: bytes) -> tuple[float, float]:
    """Largest absolute difference of two CSV files' values, cell by cell,
    and the largest relative one: a column's largest difference over the
    largest magnitude in that column of either file.  Both are inf when
    the shapes, the text cells or a non-finite value differ."""
    rows_a = list(csv.reader(a.decode().splitlines()))
    rows_b = list(csv.reader(b.decode().splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf, math.inf
    gaps, scales = {}, {}
    for row_a, row_b in zip(rows_a, rows_b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    return math.inf, math.inf
                continue
            scales[col] = max(scales.get(col, 0.0), abs(fx), abs(fy))
            if x == y:
                continue
            gap = abs(fx - fy)
            if not gap < math.inf:  # an inf or NaN on one side
                return math.inf, math.inf
            gaps[col] = max(gaps.get(col, 0.0), gap)
    # A differing cell makes its column's scale positive.
    rel = [gap / scales[col] for col, gap in gaps.items()]
    return max(gaps.values(), default=0.0), max(rel, default=0.0)


def compare(mine, theirs, tolerance: float | None = None) -> str:
    """``identical``, ``within`` the relative ``tolerance`` (see the module
    docstring), or ``different`` and what differs."""
    if mine == theirs:
        return "identical"
    (rc_a, out_a, files_a), (rc_b, out_b, files_b) = mine, theirs
    parts = []
    values_only = rc_a == rc_b and out_a == out_b
    if out_a != out_b:
        parts.append("stdout differs")
    worst = 0.0  # the largest relative difference of the CSV files
    for name in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(name), files_b.get(name)
        if a == b:
            continue
        if a is None or b is None:
            parts.append(f"{name} only on one side")
            values_only = False
        elif name.endswith(".csv"):
            gap, rel = _csv_difference(a, b)
            worst = max(worst, rel)
            parts.append(f"{name} largest absolute difference {gap:.3g}")
        else:
            parts.append(f"{name} differs")
            values_only = False
    if tolerance is not None and values_only and worst <= tolerance:
        return f"within {tolerance:g} (largest relative difference {worst:.3g})"
    parts.append(f"exit codes {rc_a} and {rc_b}")
    return "different (" + "; ".join(parts) + ")"


def outputs(parent: str, run_seeds=RUN_SEEDS, check_seeds=CHECK_SEEDS):
    """Yield ``(label, mine, theirs)`` per command: the outputs of
    :func:`run_tree` on this tree and on ``parent``."""
    for label, argv_of in commands(run_seeds, check_seeds):
        with tempfile.TemporaryDirectory() as mine, tempfile.TemporaryDirectory() as theirs:
            yield label, run_tree(ROOT, argv_of, mine), run_tree(parent, argv_of, theirs)


def same_results(parent: str, run_seeds=RUN_SEEDS, check_seeds=CHECK_SEEDS, tolerance=None):
    """Yield ``(label, verdict)`` per command, this tree against ``parent``."""
    for label, mine, theirs in outputs(parent, run_seeds, check_seeds):
        yield label, compare(mine, theirs, tolerance)


def _parse_args(args: list[str]):
    """``(tolerance or None, parent tree)``, or None when ``args`` do not fit
    the usage line."""
    tolerance = None
    if len(args) == 3 and args[0] == "--tolerance":
        try:
            tolerance = float(args[1])
        except ValueError:
            return None
        if not 0.0 <= tolerance < math.inf:
            return None
        args = args[2:]
    if len(args) != 1 or not os.path.isdir(os.path.join(args[0], "src", "augburgers")):
        return None
    return tolerance, args[0]


def main(argv: list[str] | None = None) -> int:
    parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    if parsed is None:
        print("usage: python3 tools/same_results.py [--tolerance REL] PARENT_TREE",
              file=sys.stderr)
        return 2
    tolerance, parent = parsed
    counts = {"identical": 0, "within": 0, "different": 0}
    for label, verdict in same_results(parent, tolerance=tolerance):
        print(f"{label}: {verdict}", flush=True)
        counts[verdict.split()[0]] += 1
    total = sum(counts.values())
    summary = f"{counts['identical']} of {total} identical"
    if tolerance is not None:
        summary += f", {counts['within']} within {tolerance:g}"
    print(summary)
    return 1 if counts["different"] else 0


if __name__ == "__main__":
    sys.exit(main())
