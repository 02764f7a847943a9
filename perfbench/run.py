#!/usr/bin/env python3
"""Benchmark of the augburgers solver, driven through its public CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload run-ref|rates-ref|check-suite \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and ``augburgers.cli.main``
is called in this process, on one thread (BLAS/OpenMP pools pinned to 1).
Set-up time is measured in fresh processes first; then a short warm-up
command runs untimed, and the workload command repeats until ``--seconds``
have passed.  Every command's outputs go through the workload's gate.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced commands and reports the per-layer metrics, with the
tracing overhead.  Every metric is printed by name and unit, then the
environment, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results (and the
spans of a traced run) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Before NumPy is imported, so its BLAS pool starts with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5

# (name, unit) of the end-to-end metrics printed with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of the per-layer metrics printed with --trace 1.
PER_LAYER = (
    ("scheme.step_euler.calls", "count"),
    ("scheme.step_euler.self_s", "s"),
    ("scheme.rhs.calls", "count"),
    ("scheme.rhs.s", "s"),
    ("scheme.rhs.cell_terms", "count"),
    ("scheme.stable_dt.s", "s"),
    ("scheme.run.self_s", "s"),
    ("scheme.reports_kept_ratio", "ratio"),
    ("kernel.build.calls", "count"),
    ("kernel.build.s", "s"),
    ("grid.project_initial.s", "s"),
    ("grid.norm.s", "s"),
    ("grid.mass.s", "s"),
    ("analysis.scaled_profile_error.s", "s"),
    ("profile.sample_on_grid.s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("scheme.self_s", "s"),
    ("kernel.self_s", "s"),
    ("grid.self_s", "s"),
    ("analysis.self_s", "s"),
    ("profile.self_s", "s"),
    ("initial.self_s", "s"),
    ("state.nonzero_cells", "count"),
    ("state.min_abs_nonzero", "1"),
    ("state.subnormal_cells", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seed >= 0 and args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "augburgers", "__init__.py")):
        raise SystemExit(f"no augburgers sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import augburgers
    import augburgers.cli

    if not os.path.abspath(augburgers.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"augburgers imported from {augburgers.__file__}, not {SRC}")
    return augburgers


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "augburgers")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(augburgers) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "augburgers_backend": getattr(augburgers, "BACKEND", None),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def measure_setup(spec: str) -> list[float]:
    """Seconds of import plus grid, quadrature and initial datum, each in a
    fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, probe, SRC, spec],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def invoke(cli, argv: list[str], out_dir: str) -> dict:
    """Run one command in process; time only the ``main`` call."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout = io.StringIO()
    error = None
    rc = None
    gc.collect()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # counted as a failed command, reported below
            error = traceback.format_exc()
        wall = perf_counter() - t0
    return {
        "wall": wall,
        "rc": rc,
        "stdout": stdout.getvalue(),
        "warnings": [str(w.message) for w in caught],
        "error": error,
        "output_bytes": _tree_bytes(out_dir),
    }


def gate(workload, result: dict, out_dir: str, seed: int) -> tuple[int, int, list[str]]:
    """Attempted, failed and problems of one command; a problem that the gate
    did not count as a failed case (a missing suite, say) fails one attempt."""
    if result["error"] is not None:
        return 1, 1, ["raised: " + result["error"].strip().splitlines()[-1]]
    try:
        attempted, failed, problems = workload.gate(
            out_dir, result["stdout"], result["rc"], seed, result["warnings"]
        )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return 1, 1, [f"unreadable output: {exc!r}"]
    if problems and not failed:
        failed = 1
    return max(attempted, failed, 1), failed, problems


def _median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    from workloads import WORKLOADS
    from tracer import LAYERS, Tracer

    augburgers = _import_program()
    cli = augburgers.cli
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    out_dir = os.path.join(run_dir, "cmd")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    env = environment(augburgers)
    setup_times = measure_setup(wl.datum(args.seed)) if args.trace == 0 else []

    invoke(cli, wl.warmup_argv(args.seed, out_dir), out_dir)

    argv = wl.argv(args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    untraced, traced, layer_rows, problems = [], [], [], []
    attempted = failed = 0
    all_spans: list[list] = []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < args.seconds:
        # A traced run times untraced/traced pairs, alternating which goes first.
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.reset(run_id=k)
                tracer.install()
                try:
                    res = invoke(cli, argv, out_dir)
                finally:
                    tracer.uninstall()
            else:
                res = invoke(cli, argv, out_dir)
            a, f, probs = gate(wl, res, out_dir, args.seed)
            attempted += a
            failed += f
            problems.extend(probs)
            if with_trace:
                m = tracer.metrics()
                layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
                m["trace.unattributed_frac"] = (res["wall"] - layer_self) / res["wall"]
                m["cli.output_bytes"] = res["output_bytes"]
                layer_rows.append(m)
                traced.append(res["wall"])
                all_spans.extend(tracer.spans)
            else:
                untraced.append(res["wall"])
        k += 1

    metrics: dict[str, float] = {}
    if tracer is None:
        metrics["wall_s"] = statistics.median(untraced)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    else:
        metrics.update(_median_dict(layer_rows))
        metrics["trace.wall_s"] = statistics.median(traced)
        base = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - base) / base
        units = dict(PER_LAYER)
    fail_frac = failed / attempted

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"commands {len(untraced) + len(traced)}  untraced walls {[round(w, 4) for w in untraced]}")
    if tracer is None:
        print(f"setup probes {[round(t, 4) for t in setup_times]}")
    else:
        print(f"traced walls {[round(w, 4) for w in traced]}")
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_frac = {fail_frac:.6g} ratio  ({failed} of {attempted})")
    for p in sorted(set(problems)):
        print(f"FAILED: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": argv,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "problems": sorted(set(problems)),
        "untraced_walls": untraced,
        "traced_walls": traced,
        "setup_times": setup_times,
        "metrics": metrics,
        "absent": tracer.absent if tracer else [],
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if all_spans:
        with open(os.path.join(run_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "run_id"]\n')
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)

    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
