"""Workload definitions: seeded inputs, CLI argument lists and output gates.

Every workload is one ``augburgers`` subcommand at the paper's reference
configuration (dx 0.1 on [-160, 160], nu 1e-2, c 2e-2, theta 1, tail
tolerance 1e-8, so N = 185 kernel terms).  Horizons are short enough that a
run stays a few seconds at the seed commit and still timeable after a
10-100x speed-up of the stepping core.

A gate reads a command's output directory, captured stdout, exit code and
the messages of the warnings it raised, and returns ``(attempted, failed,
problems)``: ``problems`` is a list of one-line descriptions of what failed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Datum of seed 0 is the paper's ``sines`` (mass 0.15); other seeds draw a
# box pair of the same mass inside [-pi, pi/2].
DATUM_MASS = 0.15
DATUM_MASS_TOL = 1e-8

RUN_T_END = 300.0
RUN_SNAPSHOTS = (100.0, 200.0, 300.0)
RATES_T_END = 100.0
RATE_VARIANTS = ("eo_corrected", "mlf_corrected", "eo_naive")
RATE_PS = ("1", "2", "inf")

# Invariants the scheme guarantees (acceptance criteria 01 and 02).
MASS_TOL = 1e-8
NORM_MONOTONE_TOL = 1e-12

# Seed 0 outputs against references written at the seed commit by
# make_reference.py.  The final run-ref state may move by roundoff only:
# 1e-13 absolute is ~7e-12 of its sup norm (0.0148) and 1e3 times the 7.5e-17 gap of
# the O(n) recursive convolution.  Rate errors inherit that gap relative to
# the solution, so they get a relative tolerance.
RUN_REF_ATOL = 1e-13
RATES_REF_RTOL = 1e-9
RATES_REF_ATOL = 1e-15

# Suites and default case counts of ``augburgers check``.
CHECK_SUITES = {
    "kernel_closed_forms": 200,
    "mass_conservation": 40,
    "l1_contraction": 40,
    "lp_monotone": 40,
    "order_preservation": 40,
    "gns_inequality": 300,
    "series_bound": 300,
    "profile_mass": 20,
    "profile_residual": 10,
}

EXPECTED_WARNINGS = ("skipping t = 0 snapshot",)


def _g(x: float) -> str:
    return format(x, ".17g")


def initial_spec(seed: int) -> str:
    """``initial_data`` value for a run-ref / rates-ref seed."""
    if seed == 0:
        return "sines"
    rng = np.random.default_rng(seed)
    a1 = -math.pi + rng.uniform(0.0, 0.5)
    b1 = rng.uniform(-0.5, 0.0)
    a2 = b1 + rng.uniform(0.0, 0.3)
    b2 = 0.5 * math.pi - rng.uniform(0.0, 0.5)
    m2 = -rng.uniform(0.03, 0.07)
    m1 = DATUM_MASS - m2
    vals = (m1 / (b1 - a1), a1, b1, m2 / (b2 - a2), a2, b2)
    return "boxpair:" + ",".join(_g(v) for v in vals)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def _read_manifest(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _dx_mass(values: list[float], dx: float) -> float:
    return dx * math.fsum(values)


def gate_run(out_dir: str, stdout: str, rc: int, seed: int) -> list[str]:
    """Problems with one ``augburgers run`` output directory."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    manifest = _read_manifest(os.path.join(out_dir, "manifest.txt"))
    if manifest.get("aborted") != "false":
        problems.append(f"manifest aborted = {manifest.get('aborted')!r}")

    header, rows = _read_csv(os.path.join(out_dir, "snapshots.csv"))
    if header != ["t", "x", "u"]:
        return problems + [f"snapshots.csv header {header}"]
    snaps: dict[float, list[float]] = {}
    for t, _, u in rows:
        snaps.setdefault(float(t), []).append(float(u))
    times = sorted(snaps)
    if times != [0.0, *RUN_SNAPSHOTS]:
        problems.append(f"snapshot times {times}")
    sizes = {len(v) for v in snaps.values()}
    if len(sizes) != 1:
        problems.append(f"snapshot sizes differ: {sorted(sizes)}")
    dx = float(manifest.get("dx", "nan"))
    u0 = snaps.get(0.0, [])
    m0 = _dx_mass(u0, dx)
    if not abs(m0 - DATUM_MASS) <= DATUM_MASS_TOL:
        problems.append(f"initial mass {m0!r}, expected {DATUM_MASS}")
    for t in times:
        drift = abs(_dx_mass(snaps[t], dx) - m0)
        if not drift <= MASS_TOL:
            problems.append(f"mass drift {drift:.3e} at t = {t}")
        if not all(math.isfinite(v) for v in snaps[t]):
            problems.append(f"non-finite snapshot value at t = {t}")

    header, rows = _read_csv(os.path.join(out_dir, "norms.csv"))
    if header != ["t", "l1", "l2", "linf", "mass"]:
        return problems + [f"norms.csv header {header}"]
    if not rows:
        problems.append("norms.csv has no rows")
    elif float(rows[-1][0]) != RUN_T_END:
        problems.append(f"last norms row at t = {rows[-1][0]}")
    prev = None
    for row in rows:
        cur = [float(v) for v in row[1:4]]
        if prev is not None and any(c > p + NORM_MONOTONE_TOL for c, p in zip(cur, prev)):
            problems.append(f"norm increased at t = {row[0]}")
            break
        prev = cur

    if seed == 0 and times and times[-1] == RUN_T_END:
        ref = load_run_reference()
        final = snaps[times[-1]]
        if len(ref) != len(final):
            problems.append(f"final state has {len(final)} cells, reference {len(ref)}")
        else:
            gap = max(abs(a - b) for a, b in zip(final, ref))
            if not gap <= RUN_REF_ATOL:
                problems.append(f"final state differs from reference by {gap:.3e}")
    return problems


def rates_time_grid(t_end: float) -> list[float]:
    """Time grid of ``augburgers rates``: 20 geometric points per decade over
    [t_end/100, t_end]."""
    return [float(t) for t in np.geomspace(t_end / 100.0, t_end, 41)]


def gate_rates(out_dir: str, stdout: str, rc: int, seed: int) -> list[str]:
    """Problems with one ``augburgers rates`` output directory."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    manifest = _read_manifest(os.path.join(out_dir, "manifest.txt"))
    for name in RATE_VARIANTS:
        if manifest.get(f"{name}_aborted") != "false":
            problems.append(f"{name} aborted = {manifest.get(f'{name}_aborted')!r}")

    header, rows = _read_csv(os.path.join(out_dir, "rates.csv"))
    if header != ["t", "variant", "p", "scaled_error"]:
        return problems + [f"rates.csv header {header}"]
    got = {}
    for t, variant, p, value in rows:
        got[(float(t), variant, p)] = float(value)
    want = [(t, v, p) for t in rates_time_grid(RATES_T_END) for v in RATE_VARIANTS for p in RATE_PS]
    if len(rows) != len(want) or set(got) != set(want):
        problems.append(f"rates.csv has {len(rows)} rows, expected {len(want)} distinct")
    bad = [k for k, v in got.items() if not (math.isfinite(v) and v >= 0.0)]
    if bad:
        problems.append(f"{len(bad)} non-finite or negative scaled errors")

    if seed == 0:
        ref = load_rates_reference()
        worst = 0.0
        for key, expect in ref.items():
            value = got.get(key)
            if value is None:
                problems.append(f"row {key} missing against reference")
                break
            excess = abs(value - expect) - (RATES_REF_RTOL * abs(expect) + RATES_REF_ATOL)
            worst = max(worst, excess)
        if worst > 0.0:
            problems.append(f"scaled errors exceed the reference tolerance by {worst:.3e}")
    return problems


def parse_check_table(stdout: str) -> dict[str, tuple[int, int]]:
    """``{suite: (cases, failures)}`` from the table ``augburgers check`` prints."""
    table = {}
    lines = stdout.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.split()[:3] == ["suite", "cases", "failures"])
    except StopIteration:
        return table
    for line in lines[start + 1:]:
        parts = line.split()
        if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
            break
        table[parts[0]] = (int(parts[1]), int(parts[2]))
    return table


def count_check(stdout: str, rc: int) -> tuple[int, int, list[str]]:
    """Cases attempted, cases failed and problems of one ``augburgers check``."""
    table = parse_check_table(stdout)
    problems = []
    for name, count in CHECK_SUITES.items():
        if table.get(name, (None,))[0] != count:
            problems.append(f"suite {name}: {table.get(name)} in table, expected {count} cases")
    attempted = sum(c for c, _ in table.values())
    failed = sum(f for _, f in table.values())
    for name, (_, f) in table.items():
        if f:
            problems.append(f"suite {name}: {f} failing case(s)")
    if (rc == 0) != (failed == 0):
        problems.append(f"exit code {rc} with {failed} failing case(s)")
    return attempted, failed, problems


def load_run_reference() -> list[float]:
    with open(os.path.join(REFERENCE_DIR, "run-ref-seed0.txt"), encoding="utf-8") as fh:
        return [float(line) for line in fh if line.strip() and not line.startswith("#")]


def load_rates_reference() -> dict[tuple[float, str, str], float]:
    _, rows = _read_csv(os.path.join(REFERENCE_DIR, "rates-ref-seed0.csv"))
    return {(float(t), v, p): float(x) for t, v, p, x in rows}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the measured command, a short warm-up command
    and the gate for the measured command's outputs."""

    name: str
    argv: Callable[[int, str], list[str]]
    warmup_argv: Callable[[int, str], list[str]]
    gate: Callable[[str, str, int, int, list[str]], tuple[int, int, list[str]]]
    datum: Callable[[int], str]


def _per_command(gate_fn):
    # run-ref and rates-ref count one attempt per command; any warning other
    # than the expected t = 0 skip (for example boundary contact) fails it.
    def gate(out_dir, stdout, rc, seed, warning_messages):
        problems = gate_fn(out_dir, stdout, rc, seed)
        problems += [
            f"warning: {m}" for m in warning_messages
            if not any(e in m for e in EXPECTED_WARNINGS)
        ]
        return 1, int(bool(problems)), problems
    return gate


def _check_gate(out_dir, stdout, rc, seed, warning_messages):
    # The property suites report their own failures in the table; their
    # numerical warnings are not counted separately.
    return count_check(stdout, rc)


def _snapshots_arg(times) -> str:
    return ",".join(_g(t) for t in times)


WORKLOADS = {
    "run-ref": Workload(
        name="run-ref",
        argv=lambda seed, out: [
            "run", "--out", out, "--t-end", _g(RUN_T_END),
            "--snapshot-times", _snapshots_arg(RUN_SNAPSHOTS),
            "--initial-data", initial_spec(seed),
        ],
        warmup_argv=lambda seed, out: [
            "run", "--out", out, "--t-end", "1", "--snapshot-times", "1",
            "--initial-data", initial_spec(seed),
        ],
        gate=_per_command(gate_run),
        datum=initial_spec,
    ),
    "rates-ref": Workload(
        name="rates-ref",
        argv=lambda seed, out: [
            "rates", "--out", out, "--t-end", _g(RATES_T_END),
            "--snapshot-times", _g(RATES_T_END),
            "--initial-data", initial_spec(seed),
        ],
        warmup_argv=lambda seed, out: [
            "rates", "--out", out, "--t-end", "1", "--snapshot-times", "1",
            "--initial-data", initial_spec(seed),
        ],
        gate=_per_command(gate_rates),
        datum=initial_spec,
    ),
    "check-suite": Workload(
        name="check-suite",
        argv=lambda seed, out: ["check", "--out", out, "--seed", str(seed)],
        warmup_argv=lambda seed, out: ["check", "--out", out, "--seed", str(seed), "--cases", "1"],
        gate=_check_gate,
        # The check suites build their own small problems; set-up time is
        # measured on the default configuration the command parses.
        datum=lambda seed: "sines",
    ),
}
