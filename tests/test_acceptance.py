"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long-time runs are
shared module-scoped fixtures; the full suite is a few minutes of desk time.
"""

import csv
import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from augburgers import analysis, profile, scheme
from augburgers.cli import main
from augburgers.grid import GridFunction, make_grid, mass, norm, project_initial
from augburgers.initial import sine_bumps
from augburgers.kernel import build, choose_n
from augburgers.scheme import CorrectorMode, FluxKind, PhysicalParams, SchemeConfig

NU, C, THETA = 1e-2, 2e-2, 1.0
DX = 0.1
TAIL_TOL = 1e-8
SAFETY = 0.9
X_LEFT, X_RIGHT = -160.0, 160.0
T_END = 1e4
TARGET_MASS = 0.15


def d_plus(w):
    """Forward difference (w_{j+1} - w_j)/dx with zero extension on the right."""
    return GridFunction(w.grid, np.diff(w.values, append=0.0) / w.grid.dx)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2}: {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def reference_setup(flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED):
    grid = make_grid(X_LEFT, X_RIGHT, DX)
    quad_ = build(DX, THETA, choose_n(DX, THETA, TAIL_TOL))
    params = PhysicalParams(nu=NU, c=C)
    config = SchemeConfig(
        flux=flux, quadrature=quad_, corrector_mode=corrector, grid=grid
    )
    return grid, quad_, params, config


def snapshot_grid():
    times = set(np.geomspace(1.0, T_END, 49).tolist()) | {1e2, 1e3, 1e4}
    # Collapse near-duplicates so the stepper is not asked for 1e-14 steps.
    out = []
    for t in sorted(times):
        if not out or t - out[-1] > 1e-6 * t:
            out.append(t)
    return out


@pytest.fixture(scope="module")
def initial_datum():
    grid, _, _, _ = reference_setup()
    return project_initial(sine_bumps(), grid)


# The three long runs: flux, corrector mode, snapshot times, report_every.
LONG_RUNS = {
    "main_run": (FluxKind.ENGQUIST_OSHER, CorrectorMode.CORRECTED, None, 1),
    "mlf_run": (FluxKind.MODIFIED_LAX_FRIEDRICHS, CorrectorMode.CORRECTED, [1e2, 1e4], 100),
    "naive_run": (FluxKind.ENGQUIST_OSHER, CorrectorMode.NAIVE, [1e2, 1e4], 100),
}


def long_run(name, initial):
    """Run one of :data:`LONG_RUNS` from ``initial`` to ``T_END``."""
    flux, corrector, times, report_every = LONG_RUNS[name]
    _, _, params, config = reference_setup(flux=flux, corrector=corrector)
    with warnings.catch_warnings():
        # By t = 1e4 mlf_run and naive_run reach the domain's edge; the
        # committed reference snapshots pin their states there.
        warnings.filterwarnings("ignore", "solution reached the domain boundary")
        return scheme.run(
            initial,
            params,
            config,
            t_end=T_END,
            snapshot_times=snapshot_grid() if times is None else times,
            safety=SAFETY,
            report_every=report_every,
        )


@pytest.fixture(scope="module")
def timed_main_run(initial_datum):
    """The reference run and its wall time in seconds."""
    start = time.time()
    record = long_run("main_run", initial_datum)
    return record, time.time() - start


@pytest.fixture(scope="module")
def main_run(timed_main_run):
    return timed_main_run[0]


@pytest.fixture(scope="module")
def mlf_run(initial_datum):
    return long_run("mlf_run", initial_datum)


@pytest.fixture(scope="module")
def naive_run(initial_datum):
    return long_run("naive_run", initial_datum)


# Snapshots of the long runs at these times, written by
# tests/reference/make_reference.py, one column per run and time.
REFERENCE_FILE = os.path.join(os.path.dirname(__file__), "reference", "long_runs.txt")
REFERENCE_TIMES = (1e2, 1e4)


def reference_columns():
    return [(name, t) for name in LONG_RUNS for t in REFERENCE_TIMES]


def snapshot_at(record, t):
    """The values of the snapshot a run landed on at time ``t``."""
    return next(u.values for s, u in record.snapshots if s == t)


@pytest.fixture(scope="module")
def diffusive_wave(initial_datum):
    _, quad_, params, _ = reference_setup()
    a = profile.effective_viscosity(params.nu, params.c, quad_.moment2)
    return profile.AsymptoticProfile(mass=mass(initial_datum), viscosity=a)


def scaled_errors(record, wave, p):
    # The wave is singular at t = 0, so only later snapshots are compared.
    later = [s for s in record.snapshots if s[0] > 0.0]
    (series,) = analysis.scaled_profile_error(later, wave, (p,))
    return {round(t): v for t, v in zip(series.times, series.values)}


def test_long_runs_match_reference(main_run, mlf_run, naive_run):
    # Tolerance 1e-10 of each snapshot's sup norm: reassociating the sums of
    # one step moves the t = 1e4 run by about 2e-13 of sup, while dropping
    # the first-moment corrector (M1 = 0) moves its mass by 0.134 of 0.15.
    records = {"main_run": main_run, "mlf_run": mlf_run, "naive_run": naive_run}
    ref = np.loadtxt(REFERENCE_FILE)
    worst = 0.0
    zeros_ok = True
    for col, (name, t) in enumerate(reference_columns()):
        got, want = snapshot_at(records[name], t), ref[:, col]
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
        zeros_ok = zeros_ok and np.array_equal(got == 0.0, want == 0.0)
    ok = worst <= 1e-10 and zeros_ok
    report(
        "ref",
        "long runs match their committed snapshots at t = 100 and t = 1e4",
        ok,
        f"max |diff|/sup = {worst:.3e}, same zero cells = {zeros_ok}",
    )


def test_criterion_01_mass_conservation(timed_main_run):
    main_run, wall = timed_main_run
    masses = [mass(u) for _, u in main_run.snapshots]
    worst = max(abs(m - TARGET_MASS) for m in masses)
    ok = worst <= 1e-8 and not main_run.aborted and wall <= 600.0
    report(
        1,
        "mass conserved to 1e-8 at every snapshot of the long reference run",
        ok,
        f"max |mass - 0.15| = {worst:.3e}, wall = {wall:.0f}s",
    )


def test_criterion_02_monotone_norms(main_run):
    log = main_run.step_reports
    viol = np.diff(log[:, 3:6], axis=0).max()
    ok = viol <= 1e-12
    report(
        2,
        "L1, L2 and Linf nonincreasing at every recorded step",
        ok,
        f"worst per-step increase = {viol:.3e} over {len(log)} steps",
    )


def test_criterion_02b_decay_monitors_bounded(main_run):
    # Companion boundedness checks: the scaled norms
    # ||u||_p t^((1/2)(1-1/p)) and gradient norms ||d+ u||_p t^((1/2)(1-1/p)+1/2)
    # stay within a factor 10 of their median over t in [1, 1e4].
    snaps = [(t, u) for t, u in main_run.snapshots if t >= 1.0]
    series = {}
    for p in (1.0, 2.0, math.inf):
        expo = 0.5 * (1.0 - 1.0 / p)
        series[f"decay p={p:g}"] = [norm(u, p) * t**expo for t, u in snaps]
    for p in (1.0, 2.0):
        expo = 0.5 * (1.0 - 1.0 / p) + 0.5
        series[f"grad p={p:g}"] = [norm(d_plus(u), p) * t**expo for t, u in snaps]
    ok = True
    details = []
    for label, vals in series.items():
        m = float(np.median(vals))
        worst = max(vals) / m if m > 0 else math.inf
        details.append(f"{label}: max/med = {worst:.2f}")
        ok = ok and worst <= 10.0
    report(2, "decay and gradient monitors bounded (max/median <= 10)", ok,
           "; ".join(details))


def test_criterion_03_l1_contraction(initial_datum):
    _, _, params, config = reference_setup()
    half = GridFunction(initial_datum.grid, 0.5 * initial_datum.values)
    distances = [
        norm(GridFunction(initial_datum.grid, initial_datum.values - half.values), 1)
    ]
    for _, block in scheme.march(
        [initial_datum, half], params, config, [200.0], safety=SAFETY
    ):
        diff = GridFunction(initial_datum.grid, block.u[0, 0] - block.u[0, 1])
        distances.append(norm(diff, 1))
    viol = max(b - a for a, b in zip(distances, distances[1:]))
    ok = viol <= 1e-12
    report(
        3,
        "L1 distance of two solutions nonincreasing under a shared dt sequence",
        ok,
        f"worst per-step increase = {viol:.3e} over {len(distances) - 1} steps",
    )


def test_criterion_04_rate_curves(main_run, mlf_run, naive_run, diffusive_wave):
    ok = True
    details = []
    for p, label in ((1.0, "1"), (2.0, "2"), (math.inf, "inf")):
        eo = scaled_errors(main_run, diffusive_wave, p)
        ml = scaled_errors(mlf_run, diffusive_wave, p)
        nv = scaled_errors(naive_run, diffusive_wave, p)
        decreasing = eo[10000] < eo[100]
        smallest = eo[10000] < ml[10000] and eo[10000] < nv[10000]
        ok = ok and decreasing and smallest
        details.append(
            f"p={label}: eo {eo[100]:.3e}->{eo[10000]:.3e}, "
            f"mlf {ml[10000]:.3e}, naive {nv[10000]:.3e}"
        )
    report(
        4,
        "scaled profile error: decreasing for the corrected scheme and "
        "smallest among the three variants at t = 1e4",
        ok,
        "; ".join(details),
    )


def test_criterion_05_wave_shape_comparison(initial_datum):
    params = PhysicalParams(nu=1e-4, c=2e-4)
    start = time.time()
    finals = {}
    for fk in (FluxKind.ENGQUIST_OSHER, FluxKind.MODIFIED_LAX_FRIEDRICHS):
        _, _, _, config = reference_setup(flux=fk)
        record = scheme.run(
            initial_datum, params, config, t_end=100.0, safety=SAFETY,
            report_every=10,
        )
        finals[fk] = record.snapshots[-1][1]
    wall = time.time() - start
    d_eo = analysis.n_wave_diagnostic(finals[FluxKind.ENGQUIST_OSHER])
    d_ml = analysis.n_wave_diagnostic(finals[FluxKind.MODIFIED_LAX_FRIEDRICHS])
    shape_kept = d_eo.min < -1e-3 and d_eo.max > 1e-3
    less_dissipated = abs(d_eo.negative_mass) > abs(d_ml.negative_mass)
    masses_ok = all(
        abs(mass(u) - TARGET_MASS) <= 1e-8 for u in finals.values()
    )
    ok = shape_kept and less_dissipated and masses_ok and wall <= 120.0
    report(
        5,
        "two-sign wave survives with the monotone flux and is more dissipated "
        "by the artificial-viscosity flux",
        ok,
        f"eo min/max = {d_eo.min:.4f}/{d_eo.max:.4f}, "
        f"|neg| eo = {abs(d_eo.negative_mass):.4f} vs mlf = "
        f"{abs(d_ml.negative_mass):.4f}, wall = {wall:.0f}s",
    )


def test_criterion_06_corrector_factors():
    q01 = build(0.1, THETA, choose_n(0.1, THETA, TAIL_TOL))
    q001 = build(0.01, THETA, choose_n(0.01, THETA, TAIL_TOL))
    coarse_ok = abs(q01.moment2 - 1.0) <= 1e-2
    fine_ok = abs(q001.moment2 - 1.0) <= 1e-3
    # The closed-form moments against exactly rounded sums of the weights.
    closed_ok = True
    for q, dx in ((q01, 0.1), (q001, 0.01)):
        w = q.weights(q.n_terms)
        sum0 = math.fsum(w.tolist())
        sum1 = dx / THETA * math.fsum((np.arange(1, q.n_terms + 1) * w).tolist())
        closed_ok = (
            closed_ok
            and abs(q.moment0 - sum0) <= 1e-13 * abs(sum0)
            and abs(q.moment1 - sum1) <= 1e-13 * abs(sum1)
        )
    # Monotone approach to 1 under refinement.  The first and second moment
    # factors carry an O(dx) bias, so their distance to 1 must shrink
    # strictly; the zeroth moment is pinned by the truncation rule inside
    # (1 - tail_tol, 1] at every mesh size, which is its guaranteed band.
    m0d, m1d, m2d = [], [], []
    for dx in (0.4, 0.2, 0.1, 0.05):
        q = build(dx, THETA, choose_n(dx, THETA, TAIL_TOL))
        m0d.append(abs(1.0 - q.moment0))
        m1d.append(abs(1.0 - q.moment1))
        m2d.append(abs(1.0 - q.moment2))
    monotone_ok = all(b < a for a, b in zip(m1d, m1d[1:])) and all(
        b < a for a, b in zip(m2d, m2d[1:])
    )
    band_ok = all(d <= TAIL_TOL for d in m0d)
    ok = coarse_ok and fine_ok and closed_ok and monotone_ok and band_ok
    report(
        6,
        "truncated moment factors: near 1, matching closed forms, improving "
        "under refinement",
        ok,
        f"|1-m2| = {abs(q01.moment2 - 1):.2e} @ dx=0.1, "
        f"{abs(q001.moment2 - 1):.2e} @ dx=0.01; m1 dist "
        + "->".join(f"{d:.3f}" for d in m1d),
    )


def _mass_of_constant(cm, lim=200.0):
    sqrt_pi = math.sqrt(math.pi)

    def f(x):
        s = x / (2.0 * math.sqrt(2.0))
        integral = sqrt_pi * (1.0 + math.erf(s))
        return 2.0 * math.sqrt(2.0) * math.exp(-x * x / 8.0) / (cm + integral)

    val, _ = quad(f, -lim, lim, limit=300)
    return val


def _bisect_constant(target, lo, hi):
    f_lo = _mass_of_constant(lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _mass_of_constant(mid) - target
        if abs(hi - lo) <= 1e-13 * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def test_criterion_07_profile_correctness(diffusive_wave):
    # (a) normalizing constant vs bisection on the mass quadrature
    const_ok = True
    for m in (0.15, -0.15, 1.0, 4.0 * math.log(2.0)):
        if m > 0:
            ref = _bisect_constant(m, 1e-4, 1e4)
        else:
            ref = _bisect_constant(m, -1e4, -2.0 * math.sqrt(math.pi) - 1e-9)
        const_ok = const_ok and abs(profile.c_constant(m) - ref) <= 1e-10 * abs(ref)
    # (b) mass of the reference wave at early and late times
    mass_ok = True
    for t in (1.0, 1e4):
        width = math.sqrt(2.0 * diffusive_wave.viscosity * t)
        lim = 40.0 * width + 50.0
        val, _ = quad(
            lambda x: profile.eval(diffusive_wave, t, x),
            -lim,
            lim,
            limit=400,
            epsabs=1e-10,
        )
        mass_ok = mass_ok and abs(val - TARGET_MASS) <= 1e-6
    # (c) centered-difference residual of the governing equation
    order_ok = True
    for x in (-1.0, 0.5, 2.0):
        wave = profile.AsymptoticProfile(mass=1.0, viscosity=0.8)
        r = [abs(analysis.pde_residual(wave, 2.0, x, h)) for h in (0.2, 0.1, 0.05)]
        orders = [math.log2(r[0] / r[1]), math.log2(r[1] / r[2])]
        order_ok = order_ok and min(orders) >= 1.8
    # (d) self-similar collapse over two decades of time
    xi = np.linspace(-3.0, 3.0, 13)
    ref_curve = None
    collapse_dev = 0.0
    for t in (1.0, 10.0, 100.0):
        curve = math.sqrt(t) * profile.eval(diffusive_wave, t, math.sqrt(t) * xi)
        if ref_curve is None:
            ref_curve = curve
        else:
            collapse_dev = max(collapse_dev, float(np.abs(curve - ref_curve).max()))
    collapse_ok = collapse_dev <= 1e-10
    ok = const_ok and mass_ok and order_ok and collapse_ok
    report(
        7,
        "self-similar profile: constant, mass, equation residual and collapse",
        ok,
        f"collapse deviation = {collapse_dev:.2e}",
    )


def test_criterion_08_functional_inequalities():
    rng = np.random.default_rng(2024)
    functions = []
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        dx = float(rng.uniform(0.01, 1.0))
        vals = 2.0 * rng.random(n) - 1.0
        if not np.any(vals):
            vals[0] = 1.0
        functions.append(GridFunction(make_grid(0.0, n * dx, dx), vals))
    gns_failures = sum(
        int((~analysis.gns_inequality_check(functions, p).holds).sum())
        for p in (2.0, 3.0, 4.0)
    )
    series = [
        (float(rng.uniform(0.01, 0.99)), float(rng.uniform(-math.pi, math.pi)),
         int(rng.integers(1, 101)))
        for _ in range(1000)
    ]
    series_failures = int((~analysis.series_lemma_check(*zip(*series)).holds).sum())
    ok = gns_failures == 0 and series_failures == 0
    report(
        8,
        "discrete functional inequalities hold on 1000-case random corpora",
        ok,
        f"gns failures = {gns_failures}, series failures = {series_failures}",
    )


def test_criterion_09_self_convergence(tmp_path):
    rc = main([
        "selfconv", "--x-left", "-40", "--x-right", "40",
        "--dx-list", "0.2,0.1,0.05", "--t-check", "1",
        "--nu", repr(NU), "--c", repr(C), "--theta", repr(THETA),
        "--tail-tol", repr(TAIL_TOL), "--safety", repr(SAFETY),
        "--initial-data", "sines", "--out", str(tmp_path),
    ])
    with open(tmp_path / "selfconv.csv", encoding="utf-8") as fh:
        diffs = [float(row["l1_diff"]) for row in csv.DictReader(fh)]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    ratio = diffs[1] / diffs[0]
    ok = rc == 0 and decreasing and ratio <= 0.8
    report(
        9,
        "nested-mesh L1 differences decrease with ratio <= 0.8",
        ok,
        f"diffs = {diffs[0]:.3e}, {diffs[1]:.3e}; ratio = {ratio:.3f}",
    )


def test_criterion_10_order_preservation():
    grid = make_grid(-20.0, 20.0, DX)
    quad_ = build(DX, THETA, choose_n(DX, THETA, TAIL_TOL))
    params = PhysicalParams(nu=NU, c=C)
    config = SchemeConfig(
        flux=FluxKind.ENGQUIST_OSHER,
        quadrature=quad_,
        corrector_mode=CorrectorMode.CORRECTED,
        grid=grid,
    )
    rng = np.random.default_rng(42)
    worst = -math.inf
    n = grid.num_cells
    for _ in range(20):
        base = np.zeros(n)
        base[20:-20] = 0.1 * (2.0 * rng.random(n - 40) - 1.0)
        bump = np.zeros(n)
        bump[20:-20] = 0.1 * rng.random(n - 40)
        lower = GridFunction(grid, base)
        upper = GridFunction(grid, base + bump)
        *_, (_, final) = scheme.march(
            [lower, upper], params, config, [1.0], safety=SAFETY
        )
        worst = max(worst, float((final.u[0, 0] - final.u[0, 1]).max()))
    ok = worst <= 1e-12
    report(
        10,
        "ordered initial data stays ordered at t = 1 across 20 random pairs",
        ok,
        f"worst violation = {worst:.3e}",
    )
