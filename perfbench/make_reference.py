#!/usr/bin/env python3
"""Write the seed-0 reference outputs the run-ref and rates-ref gates compare
against: the final run-ref state (one value per cell) and rates.csv.

Usage, from the root of a source checkout:  python3 perfbench/make_reference.py

The stored files were written at the commit that introduced the benchmark,
before any change to the solver.  Rewrite them only on purpose, when a change
to the scheme is meant to move its results, and say so with the change.
"""

from __future__ import annotations

import os
import shutil
import sys
import warnings

import run
from workloads import REFERENCE_DIR, RUN_T_END, WORKLOADS


def main() -> int:
    augburgers = run._import_program()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    out_dir = os.path.join(run.OUT, "reference")
    warnings.simplefilter("ignore")

    shutil.rmtree(out_dir, ignore_errors=True)
    if augburgers.cli.main(WORKLOADS["run-ref"].argv(0, out_dir)) != 0:
        raise SystemExit("run-ref failed")
    with open(os.path.join(out_dir, "snapshots.csv"), encoding="utf-8") as fh:
        final = [line.rsplit(",", 1)[1].strip() for line in fh
                 if line.split(",", 1)[0] == format(RUN_T_END, ".17g")]
    with open(os.path.join(REFERENCE_DIR, "run-ref-seed0.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# run-ref seed 0: u at t = {RUN_T_END:g}, one cell per line\n")
        fh.write("\n".join(final) + "\n")

    shutil.rmtree(out_dir, ignore_errors=True)
    if augburgers.cli.main(WORKLOADS["rates-ref"].argv(0, out_dir)) != 0:
        raise SystemExit("rates-ref failed")
    shutil.copyfile(os.path.join(out_dir, "rates.csv"), os.path.join(REFERENCE_DIR, "rates-ref-seed0.csv"))
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
