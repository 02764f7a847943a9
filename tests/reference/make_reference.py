#!/usr/bin/env python3
"""Write the snapshots the long-run reference test compares against: u at
t = 100 and t = 1e4 of the three long acceptance runs (main_run, mlf_run and
naive_run), one cell per row and one column per run and time, with %.17g.

Usage, from the root of a source checkout:  python3 tests/reference/make_reference.py

The stored file was written before the kernel moments moved to their closed
forms.  Rewrite it only on purpose, when a change to the scheme is meant to
move its results, and say so with the change.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import test_acceptance as acc  # noqa: E402


def main() -> int:
    grid = acc.reference_setup()[0]
    initial = acc.project_initial(acc.sine_bumps(), grid)
    records = {name: acc.long_run(name, initial) for name in acc.LONG_RUNS}
    columns = acc.reference_columns()
    table = np.column_stack([acc.snapshot_at(records[name], t) for name, t in columns])
    header = "u of the long acceptance runs; columns: " + ", ".join(
        f"{name} t={t:g}" for name, t in columns
    )
    np.savetxt(acc.REFERENCE_FILE, table, fmt="%.17g", header=header)
    if not np.array_equal(np.loadtxt(acc.REFERENCE_FILE), table):
        raise SystemExit("the written reference does not read back exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
