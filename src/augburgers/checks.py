"""Randomized property suites of ``augburgers check``: seeded and replayable.

Each suite is declared once in :data:`SUITES` as
``name: (generate, check, default_cases, ranges)``.  ``ranges`` gives every
case key its closed range ``(lo, hi)``, with int bounds for an integer key;
``generate(rng, ranges)`` draws one case inside it and ``check(case)``
returns ``(ok, detail)``.  A case holds plain numbers only, so a failing one
serializes to JSON and replays exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import analysis, kernel, profile, scheme
from .grid import GridFunction, make_grid, mass, norm
from .scheme import CorrectorMode, FluxKind, PhysicalParams, SchemeConfig

__all__ = ["SUITES", "run_suite"]


def _random_interior_state(rng, n=160, dx=0.25, margin=60, amp=0.4):
    grid = make_grid(0.0, n * dx, dx)
    vals = np.zeros(n)
    interior = n - 2 * margin
    vals[margin : margin + interior] = amp * (2.0 * rng.random(interior) - 1.0)
    return GridFunction(grid, vals)


def _random_params(rng) -> tuple[PhysicalParams, float]:
    # (params, theta), drawn in the order nu, c, theta.
    nu = float(rng.uniform(0.0, 0.05))
    c = float(rng.uniform(0.0, 0.05))
    if nu + c < 1e-3:
        nu = 0.01
    return PhysicalParams(nu=nu, c=c), float(rng.uniform(0.5, 2.0))


def _setup_for_case(rng, tail_tol=1e-6, extra_margin=4):
    # The memory term spreads support rightward roughly one kernel width per
    # step, so exact-conservation checks need extra_margin > steps taken.
    params, theta = _random_params(rng)
    dx = 0.25
    n_terms = kernel.choose_n(dx, theta, tail_tol)
    margin = n_terms + extra_margin
    state = _random_interior_state(rng, margin=margin, n=2 * margin + 40)
    quad = kernel.build(dx, theta, n_terms)
    config = SchemeConfig(
        flux=FluxKind.ENGQUIST_OSHER,
        quadrature=quad,
        corrector_mode=CorrectorMode.CORRECTED,
        grid=state.grid,
    )
    return params, config, state


def _draw(rng, ranges) -> dict:
    """One case, key by key in order: an integer key uniform on [lo, hi], a
    float key uniform on [lo, hi)."""
    case = {}
    for key, (lo, hi) in ranges.items():
        if isinstance(lo, int):
            case[key] = int(rng.integers(lo, hi + 1))
        else:
            case[key] = float(rng.uniform(lo, hi))
    return case


def _check_kernel_closed_forms(case) -> tuple[bool, str]:
    # The closed-form moments against exactly rounded sums of the weights.
    dx, theta, n = case["dx"], case["theta"], case["n"]
    quad = kernel.build(dx, theta, n)
    w = quad.weights(n)
    sum0 = math.fsum(w.tolist())
    sum1 = (dx / theta) * math.fsum((np.arange(1, n + 1) * w).tolist())
    err0 = abs(quad.moment0 - sum0) / abs(sum0)
    err1 = abs(quad.moment1 - sum1) / max(abs(sum1), 1e-300)
    ok = err0 <= 1e-13 and err1 <= 1e-13
    return ok, f"rel errors {err0:.3e}, {err1:.3e}"


def _check_mass_conservation(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, state0 = _setup_for_case(rng, tail_tol=1e-10, extra_margin=30)
    m0 = mass(state0)
    dx = config.grid.dx
    worst = 0.0
    for _, (st,) in itertools.islice(scheme.march([state0], params, config), 25):
        worst = max(worst, abs(dx * float(np.sum(st.u.values)) - m0))
    ok = worst <= 1e-12 * max(1.0, abs(m0))
    return ok, f"max drift {worst:.3e}"


def _check_l1_contraction(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    v = GridFunction(u.grid, u.values * float(rng.uniform(0.2, 0.9)))
    dist = norm(GridFunction(u.grid, u.values - v.values), 1)
    ok = True
    worst = 0.0
    for _, (su, sv) in itertools.islice(scheme.march([u, v], params, config), 25):
        new = norm(GridFunction(u.grid, su.u.values - sv.u.values), 1)
        if new > dist + 1e-12:
            ok = False
        worst = max(worst, new - dist)
        dist = new
    return ok, f"max per-step growth {worst:.3e}"


def _check_lp_monotone(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, state0 = _setup_for_case(rng)
    dx = config.grid.dx
    prev = (norm(state0, 1), norm(state0, 2), norm(state0, math.inf))
    ok = True
    for _, (st,) in itertools.islice(scheme.march([state0], params, config), 25):
        av = np.abs(st.u.values)
        cur = (
            dx * float(np.sum(av)),
            math.sqrt(dx * float(np.sum(av * av))),
            float(av.max(initial=0.0)),
        )
        if any(c > p + 1e-12 for c, p in zip(cur, prev)):
            ok = False
        prev = cur
    return ok, "L1/L2/Linf nonincreasing" if ok else "norm increased"


def _check_order_preservation(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    bump = np.zeros_like(u.values)
    k = u.grid.num_cells // 2
    bump[k - 20 : k + 20] = 0.2 * rng.random(40)
    v = GridFunction(u.grid, u.values + bump)
    worst = 0.0
    for _, (su, sv) in itertools.islice(scheme.march([u, v], params, config), 25):
        worst = max(worst, float((su.u.values - sv.u.values).max(initial=0.0)))
    ok = worst <= 1e-12
    return ok, f"max ordering violation {worst:.3e}"


def _check_gns(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    n = int(rng.integers(3, 201))
    dx = float(rng.uniform(0.01, 1.0))
    vals = 2.0 * rng.random(n) - 1.0
    if not np.any(vals):
        vals[0] = 0.5
    w = GridFunction(make_grid(0.0, n * dx, dx), vals)
    res = analysis.gns_inequality_check(w, case["p"])
    return res.holds, f"lhs {res.lhs:.3e} vs rhs {res.rhs:.3e}"


def _draw_gns(rng, ranges) -> dict:
    # p is one of the integer exponents in its range.
    lo, hi = ranges["p"]
    case = _draw(rng, {"case_seed": ranges["case_seed"]})
    case["p"] = float(rng.choice(np.arange(lo, hi + 1.0)))
    return case


def _check_series(case) -> tuple[bool, str]:
    res = analysis.series_lemma_check(case["a"], case["phi"], case["n"])
    return res.holds, f"lhs {res.lhs:.3e} vs rhs {res.rhs:.3e}"


def _check_profile_mass(case) -> tuple[bool, str]:
    wave = profile.AsymptoticProfile(mass=case["mass"], viscosity=case["viscosity"])
    t = case["t"]
    width = math.sqrt(2.0 * wave.viscosity * t)
    lim = 40.0 * width + 30.0
    val = analysis.profile_integral(wave, t, lim)
    if val is None:
        return False, "mass quadrature did not converge"
    err = abs(val - wave.mass)
    return err <= 1e-6, f"mass error {err:.3e}"


def _draw_profile_mass(rng, ranges) -> dict:
    case = _draw(rng, ranges)
    if abs(case["mass"]) < 0.05:
        case["mass"] = 0.5
    return case


def _check_profile_residual(case) -> tuple[bool, str]:
    wave = profile.AsymptoticProfile(mass=case["mass"], viscosity=case["viscosity"])
    t, x = case["t"], case["x"]
    # The ladder must lie in the O(h^2) regime: at h = 0.2 the residual of
    # some waves has not yet reached it.
    rs = [abs(analysis.pde_residual(wave, t, x, h)) for h in (0.05, 0.025, 0.0125)]
    if rs[1] < 1e-13 or rs[2] < 1e-13:
        return True, "residual at roundoff floor"
    orders = [math.log2(rs[0] / rs[1]), math.log2(rs[1] / rs[2])]
    ok = min(orders) >= 1.8
    return ok, f"observed orders {orders[0]:.2f}, {orders[1]:.2f}"


def _draw_profile_residual(rng, ranges) -> dict:
    # |mass| is at least 0.5, with either sign.
    size = float(rng.uniform(0.5, ranges["mass"][1]))
    case = {"mass": size * float(rng.choice([-1.0, 1.0]))}
    case.update(_draw(rng, {k: r for k, r in ranges.items() if k != "mass"}))
    return case


_SEED = {"case_seed": (0, 2**63 - 2)}

SUITES = {
    "kernel_closed_forms": (
        _draw,
        _check_kernel_closed_forms,
        200,
        {"dx": (1e-3, 1.0), "theta": (0.1, 5.0), "n": (1, 399)},
    ),
    "mass_conservation": (_draw, _check_mass_conservation, 40, _SEED),
    "l1_contraction": (_draw, _check_l1_contraction, 40, _SEED),
    "lp_monotone": (_draw, _check_lp_monotone, 40, _SEED),
    "order_preservation": (_draw, _check_order_preservation, 40, _SEED),
    "gns_inequality": (_draw_gns, _check_gns, 300, {**_SEED, "p": (2.0, 4.0)}),
    "series_bound": (
        _draw,
        _check_series,
        300,
        {"a": (0.01, 0.99), "phi": (-math.pi, math.pi), "n": (1, 100)},
    ),
    "profile_mass": (
        _draw_profile_mass,
        _check_profile_mass,
        20,
        {"mass": (-2.0, 2.0), "viscosity": (0.01, 3.0), "t": (0.5, 10.0)},
    ),
    "profile_residual": (
        _draw_profile_residual,
        _check_profile_residual,
        10,
        {"mass": (-2.0, 2.0), "viscosity": (0.5, 2.0), "t": (1.0, 4.0), "x": (-2.0, 2.0)},
    ),
}


def run_suite(name: str, rng, count: int) -> list[dict]:
    """Draw ``count`` cases of suite ``name`` from ``rng``, check each and
    return the failing ones as ``{"suite", "case", "detail"}`` records."""
    generate, check, _, ranges = SUITES[name]
    failures = []
    for _ in range(count):
        case = generate(rng, ranges)
        ok, detail = check(case)
        if not ok:
            failures.append({"suite": name, "case": case, "detail": detail})
    return failures
