"""Randomized property suites of ``augburgers check``: seeded and replayable.

Each suite is declared once in :data:`SUITES` as
``name: (generate, check, default_cases, ranges)``.  ``ranges`` gives every
case key its closed range ``(lo, hi)``, with int bounds for an integer key;
``generate(rng, ranges)`` draws one case inside it and ``check(cases)``
returns one ``(ok, detail)`` per case of a list.  The stepped suites march
their cases as blocks of independent cases (:func:`augburgers.scheme.march`)
and the inequality suites evaluate them as arrays, so a case is checked the
same, to roundoff, alone or among others.  A case holds plain numbers only,
so a failing one serializes to JSON and replays exactly, as a list of one
case.
"""

from __future__ import annotations

import functools
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
    # The memory sum S_j reads u_{j-N} .. u_{j-1}, so the support grows
    # rightward by N cells per step (leftward by one): data with a right
    # margin of N + extra_margin cells reach the last cell within two steps
    # when extra_margin < N, and mass flows out through the right face from
    # then on.  The margin keeps that outflow small, not zero.
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


def _per_case(check):
    """A check of a list of cases from a check of one case."""

    @functools.wraps(check)
    def each(cases):
        return [check(case) for case in cases]

    return each


@_per_case
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


# Cells (cases x rows x widest row) of one block of cases checked as arrays:
# the stepped suites' blocks, whose rows are the states, and the chunks of
# the inequality suites.  At the default counts a stepped suite is one block
# (at most 40 x 470 or 40 x 2 x 270 cells), 100 block steps per check where
# 4096-cell blocks took 500; a larger --cases splits into blocks of at most
# this many cells.  The budget is in cells because of peak RSS on the
# check-suite benchmark: one block per suite read 41.1 MB where 4096-cell
# blocks read 40.6 MB (the largest traced peak, l1_contraction's, is
# 1.5 MB); unchunked, the 300 x 202 arrays of the Gagliardo-Nirenberg suite
# raised peak_rss_mb from 40.5 to 43.2 MB.
_BLOCK_CELLS = 32768

# Steps of every stepped suite.
_STEPS = 25


def _stepped_size(problem) -> tuple[int, int]:
    states, _, config = problem
    return len(states), config.grid.num_cells


def _blocks(cases, setup, size):
    """The problems ``setup(case)`` of the cases, built one at a time and
    grouped in order into blocks of at most _BLOCK_CELLS cells, where
    ``size(problem)`` is its ``(rows, cells per row)``; a larger problem is
    a block of its own."""
    block, width = [], 0
    for case in cases:
        problem = setup(case)
        rows, cells = size(problem)
        wider = max(width, cells)
        if block and (len(block) + 1) * rows * wider > _BLOCK_CELLS:
            yield block
            block, wider = [], cells
        block.append(problem)
        width = wider
    if block:
        yield block


def _in_blocks(setup, size=_stepped_size):
    """A check of a list of cases from a check of one block of problems
    (see :func:`_blocks`); the stepped suites' blocks march together
    (:func:`_stepped`).  Each block's arrays are gone before the next block
    is built."""

    def wrap(check_block):
        @functools.wraps(check_block)
        def check(cases):
            return [r for problems in _blocks(cases, setup, size) for r in check_block(problems)]

        return check

    return wrap


def _stepped(problems):
    """The blocks after each of the first _STEPS steps of the problems."""
    states, params, configs = zip(*problems)
    return itertools.islice(scheme.march(states, params, configs), _STEPS)


def _one_state(case, tail_tol=1e-6, extra_margin=4):
    rng = np.random.default_rng(case["case_seed"])
    params, config, state0 = _setup_for_case(rng, tail_tol, extra_margin)
    return [state0], params, config


@_in_blocks(functools.partial(_one_state, tail_tol=1e-10, extra_margin=30))
def _check_mass_conservation(problems) -> list[tuple[bool, str]]:
    m0 = np.array([mass(states[0]) for states, _, _ in problems])
    dx = np.array([config.grid.dx for _, _, config in problems])
    worst = np.zeros(len(problems))
    for _, block in _stepped(problems):
        np.maximum(worst, np.abs(dx * block.u[:, 0].sum(axis=1) - m0), out=worst)
    return [
        (w <= 1e-12 * max(1.0, abs(m)), f"max drift {w:.3e}")
        for w, m in zip(worst.tolist(), m0.tolist())
    ]


def _scaled_pair(case):
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    v = GridFunction(u.grid, u.values * float(rng.uniform(0.2, 0.9)))
    return [u, v], params, config


def _l1_distances(diff: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """``dx sum_j |diff_j|`` per row: the L1 distance of each case's pair."""
    return dx * np.abs(diff).sum(axis=1)


@_in_blocks(_scaled_pair)
def _check_l1_contraction(problems) -> list[tuple[bool, str]]:
    dx = np.array([config.grid.dx for _, _, config in problems])
    width = max(config.grid.num_cells for _, _, config in problems)
    diff = np.zeros((len(problems), width))
    for row, ((u, v), _, _) in zip(diff, problems):
        row[: u.grid.num_cells] = u.values - v.values
    dist = _l1_distances(diff, dx)
    ok = np.ones(len(problems), dtype=bool)
    worst = np.zeros(len(problems))
    for _, block in _stepped(problems):
        new = _l1_distances(block.u[:, 0] - block.u[:, 1], dx)
        ok &= ~(new > dist + 1e-12)
        np.maximum(worst, new - dist, out=worst)
        dist = new
    return [(o, f"max per-step growth {w:.3e}") for o, w in zip(ok.tolist(), worst.tolist())]


@_in_blocks(_one_state)
def _check_lp_monotone(problems) -> list[tuple[bool, str]]:
    dx = np.array([config.grid.dx for _, _, config in problems])
    # Rows L1, L2, Linf; one column per case.
    prev = np.array([[norm(s, 1), norm(s, 2), norm(s, math.inf)] for (s,), _, _ in problems]).T
    ok = np.ones(len(problems), dtype=bool)
    for _, block in _stepped(problems):
        av = np.abs(block.u[:, 0])
        cur = np.array([dx * av.sum(axis=1), np.sqrt(dx * (av * av).sum(axis=1)), av.max(axis=1)])
        ok &= ~(cur > prev + 1e-12).any(axis=0)
        prev = cur
    return [(o, "L1/L2/Linf nonincreasing" if o else "norm increased") for o in ok.tolist()]


def _bumped_pair(case):
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    bump = np.zeros_like(u.values)
    k = u.grid.num_cells // 2
    bump[k - 20 : k + 20] = 0.2 * rng.random(40)
    return [u, GridFunction(u.grid, u.values + bump)], params, config


@_in_blocks(_bumped_pair)
def _check_order_preservation(problems) -> list[tuple[bool, str]]:
    worst = np.zeros(len(problems))
    for _, block in _stepped(problems):
        np.maximum(worst, (block.u[:, 0] - block.u[:, 1]).max(axis=1), out=worst)
    return [(w <= 1e-12, f"max ordering violation {w:.3e}") for w in worst.tolist()]


def _gns_function(case):
    rng = np.random.default_rng(case["case_seed"])
    n = int(rng.integers(3, 201))
    dx = float(rng.uniform(0.01, 1.0))
    vals = 2.0 * rng.random(n) - 1.0
    if not vals.any():
        vals[0] = 0.5
    return GridFunction(make_grid(0.0, n * dx, dx), vals), case["p"]


def _inequality_details(res) -> list[tuple[bool, str]]:
    return [
        (ok, f"lhs {lhs:.3e} vs rhs {rhs:.3e}")
        for ok, lhs, rhs in zip(res.holds.tolist(), res.lhs.tolist(), res.rhs.tolist())
    ]


# One row per function, with a zero cell on either side.
@_in_blocks(_gns_function, size=lambda problem: (1, problem[0].grid.num_cells + 2))
def _check_gns(problems) -> list[tuple[bool, str]]:
    functions, ps = zip(*problems)
    return _inequality_details(analysis.gns_inequality_check(functions, ps))


def _draw_gns(rng, ranges) -> dict:
    # p is one of the integer exponents in its range: the one integers()
    # draw that rng.choice among them makes, at a quarter of its cost.
    lo, hi = ranges["p"]
    case = _draw(rng, {"case_seed": ranges["case_seed"]})
    case["p"] = lo + float(rng.integers(0, int(hi - lo) + 1))
    return case


# The series check loops over k with one entry per case.
@_in_blocks(lambda case: case, size=lambda case: (1, 1))
def _check_series(cases) -> list[tuple[bool, str]]:
    a, phi, n = ([case[key] for case in cases] for key in ("a", "phi", "n"))
    return _inequality_details(analysis.series_lemma_check(a, phi, n))


@_per_case
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


@_per_case
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
    """Draw ``count`` cases of suite ``name`` from ``rng``, then check them
    all in one call and return the failing ones as
    ``{"suite", "case", "detail"}`` records.

    No check draws from ``rng``, so drawing first leaves every case as it
    was.  The stepped suites march their cases in blocks, and the
    Gagliardo-Nirenberg and series suites evaluate theirs as arrays in
    blocks, each within :data:`_BLOCK_CELLS`."""
    generate, check, _, ranges = SUITES[name]
    cases = [generate(rng, ranges) for _ in range(count)]
    return [
        {"suite": name, "case": case, "detail": detail}
        for case, (ok, detail) in zip(cases, check(cases))
        if not ok
    ]
