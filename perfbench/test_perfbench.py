"""Tests of the benchmark itself: its gates count corrupted outputs as failed,
its metric lists match BENCHMARK.json and the tracer restores what it wraps.

Run from the root of a source checkout:  python3 -m pytest perfbench
(Takes about 15 s: the seed-0 run-ref and rates-ref commands run once.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import run
import workloads
from tracer import LAYERS, WRAPPED, Tracer

augburgers = run._import_program()
cli = augburgers.cli


def _command_output(tmp_path_factory, name):
    out = str(tmp_path_factory.mktemp(name) / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(workloads.WORKLOADS[name].argv(0, out)) == 0
    return out


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    return _command_output(tmp_path_factory, "run-ref")


@pytest.fixture(scope="module")
def rates_out(tmp_path_factory):
    return _command_output(tmp_path_factory, "rates-ref")


def _copy(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path, row_index, col_index, new_value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row_index].split(",")
    cells[col_index] = new_value(cells[col_index])
    lines[row_index] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _gate(name, out, seed=0, rc=0, stdout="", warning_messages=()):
    return workloads.WORKLOADS[name].gate(out, stdout, rc, seed, list(warning_messages))


def test_run_ref_output_passes(run_out):
    assert _gate("run-ref", run_out) == (1, 0, [])


@pytest.mark.parametrize(
    "row, delta, seed",
    [
        (-1, 1e-9, 0),   # final state off the stored reference
        (-1, 1e-6, 5),   # mass drift beyond 1e-8, no reference for seed 5
        (1, 1e-6, 5),    # initial datum of the wrong mass
    ],
)
def test_corrupted_snapshot_counts_as_failed(run_out, tmp_path, row, delta, seed):
    out = _copy(run_out, tmp_path)
    path = os.path.join(out, "snapshots.csv")
    with open(path, encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh)
    # Pick a cell near the middle of the first or last snapshot.
    index = 1 + 1600 if row == 1 else n_rows - 1600
    _edit_csv(path, index, 2, lambda v: repr(float(v) + delta))
    attempted, failed, problems = _gate("run-ref", out, seed=seed)
    assert (attempted, failed) == (1, 1), problems


def test_norm_increase_counts_as_failed(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    path = os.path.join(out, "norms.csv")
    with open(path, encoding="utf-8") as fh:
        before = float(fh.read().splitlines()[99].split(",")[2])
    # L2 of step 100 a hair above that of step 99.
    _edit_csv(path, 100, 2, lambda v: repr(before + 1e-9))
    _, failed, problems = _gate("run-ref", out, seed=5)
    assert failed == 1 and any("norm increased" in p for p in problems)


def test_aborted_run_counts_as_failed(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    path = os.path.join(out, "manifest.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("aborted = false", "aborted = true")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _gate("run-ref", out, rc=1)[1] == 1


def test_missing_output_counts_as_failed(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    os.remove(os.path.join(out, "norms.csv"))
    with pytest.raises(OSError):
        _gate("run-ref", out)
    result = {"error": None, "stdout": "", "rc": 0, "warnings": []}
    assert run.gate(workloads.WORKLOADS["run-ref"], result, out, 0)[:2] == (1, 1)


def test_expected_warning_passes_other_warnings_fail(run_out):
    skip = "skipping t = 0 snapshot in profile-error series"
    assert _gate("run-ref", run_out, warning_messages=[skip])[1] == 0
    boundary = "solution reached the domain boundary by t = 300.0"
    assert _gate("run-ref", run_out, warning_messages=[boundary])[1] == 1


def test_rates_ref_output_passes(rates_out):
    assert _gate("rates-ref", rates_out) == (1, 0, [])


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:-1],                                   # a row missing
        lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",nan"] + lines[6:],
        lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",0.5"] + lines[6:],
    ],
)
def test_corrupted_rates_count_as_failed(rates_out, tmp_path, edit):
    out = _copy(rates_out, tmp_path)
    path = os.path.join(out, "rates.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    assert _gate("rates-ref", out)[1] == 1


def _check_table(failures=None, drop=None):
    failures = failures or {}
    lines = [f"{'suite':<22} {'cases':>6} {'failures':>9}"]
    for name, count in workloads.CHECK_SUITES.items():
        if name != drop:
            lines.append(f"{name:<22} {count:>6} {failures.get(name, 0):>9}")
    lines.append("all suites passed" if not failures else "1 failing case(s)")
    return "\n".join(lines) + "\n"


def test_check_table_counts_cases_and_failures():
    total = sum(workloads.CHECK_SUITES.values())
    assert workloads.count_check(_check_table(), 0) == (total, 0, [])
    attempted, failed, problems = workloads.count_check(_check_table({"profile_mass": 1}), 1)
    assert (attempted, failed) == (total, 1) and len(problems) == 1
    assert workloads.count_check(_check_table(drop="series_bound"), 0)[2]
    assert workloads.count_check(_check_table(), 1)[2]


def test_initial_spec_is_seeded_and_keeps_mass():
    assert workloads.initial_spec(0) == "sines"
    assert workloads.initial_spec(3) == workloads.initial_spec(3)
    assert workloads.initial_spec(3) != workloads.initial_spec(4)
    h1, a1, b1, h2, a2, b2 = (float(v) for v in workloads.initial_spec(7)[len("boxpair:"):].split(","))
    assert -3.1416 < a1 < b1 <= a2 < b2 < 1.5708
    assert abs(h1 * (b1 - a1) + h2 * (b2 - a2) - workloads.DATUM_MASS) < 1e-15


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_wraps_restores_and_accounts(tmp_path):
    originals = {(m, a): getattr(getattr(augburgers, m), a) for m, a in WRAPPED}
    tracer = Tracer()
    tracer.reset(run_id=1)
    tracer.install()
    try:
        assert augburgers.scheme.norm is not originals[("grid", "norm")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(workloads.WORKLOADS["run-ref"].warmup_argv(0, str(tmp_path / "o")))
    finally:
        tracer.uninstall()
    assert rc == 0
    assert all(getattr(getattr(augburgers, m), a) is f for (m, a), f in originals.items())
    assert augburgers.scheme.norm is originals[("grid", "norm")]
    m = tracer.metrics()
    root = [s for s in tracer.spans if s[0] == "cli.main"]
    assert len(root) == 1 and root[0][3] == -1
    assert m["scheme.step_euler.calls"] == m["scheme.rhs.calls"] > 0
    assert m["scheme.reports_kept_ratio"] == 1.0
    assert m["scheme.rhs.cell_terms"] == m["scheme.rhs.calls"] * 3200 * 185
    layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_self == pytest.approx(root[0][2] - root[0][1], rel=1e-9)


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(augburgers.scheme, "stable_dt")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["scheme.stable_dt"]
    assert tracer.metrics()["scheme.stable_dt.s"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-ref", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
