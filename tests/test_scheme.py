import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from augburgers import scheme
from augburgers.grid import Grid, GridFunction, make_grid, mass, norm
from augburgers.kernel import build, choose_n
from augburgers.scheme import (
    _BLOCK,
    CorrectorMode,
    FluxKind,
    PhysicalParams,
    SchemeConfig,
    SolverAbort,
    StabilityError,
    StateBlock,
    march,
    rhs,
    run,
    stable_dt,
    step_euler,
)


def eo_flux(a, b):
    """Engquist-Osher flux ``a(a-|a|)/4 + b(b+|b|)/4``, the literal oracle."""
    return (a * (a - np.abs(a))) * 0.25 + (b * (b + np.abs(b))) * 0.25


def make_setup(
    nu=1e-2,
    c=2e-2,
    theta=1.0,
    dx=0.25,
    span=50.0,
    tail_tol=1e-4,
    flux=FluxKind.ENGQUIST_OSHER,
    corrector=CorrectorMode.CORRECTED,
):
    grid = make_grid(0.0, span, dx)
    quad = build(dx, theta, choose_n(dx, theta, tail_tol))
    params = PhysicalParams(nu=nu, c=c)
    config = SchemeConfig(
        flux=flux, quadrature=quad, corrector_mode=corrector, grid=grid
    )
    return grid, params, config


def interior_data(grid, rng, margin, amp=0.3):
    vals = np.zeros(grid.num_cells)
    inner = grid.num_cells - 2 * margin
    vals[margin : margin + inner] = amp * (2.0 * rng.random(inner) - 1.0)
    return GridFunction(grid, vals)


def lone(u, params, config):
    """The grid function ``u`` as a block of one case with one state."""
    return StateBlock.start([u], params, config)


def lone_rhs(u, params, config, dt_ref=None):
    """``rhs`` of ``u`` alone, on the cells of its grid; the entries of the
    flat layout outside them are exactly 0.0."""
    vals = rhs(lone(u, params, config), params, config,
               None if dt_ref is None else [dt_ref])
    n = config.grid.num_cells
    assert vals[0] == 0.0 and not vals[n + 1 :].any()
    return vals[1 : n + 1]


def lone_bound(states, params, config, safety=0.9, dt_max=scheme.DEFAULT_DT_MAX):
    """The smallest ``stable_dt`` of the grid functions, each alone."""
    return min(stable_dt(lone(u, params, config), params, config, safety, dt_max)[0]
               for u in states)


def states_of(block, grid, case=0):
    """The states of one case of a march's block, on its own grid."""
    return [GridFunction(grid, row[: grid.num_cells]) for row in block.u[case]]


class TestParams:
    def test_rejects_both_coefficients_zero(self):
        with pytest.raises(ValueError):
            PhysicalParams(nu=0.0, c=0.0)

    def test_one_zero_coefficient_allowed(self):
        PhysicalParams(nu=0.0, c=1.0)
        PhysicalParams(nu=1.0, c=0.0)

    def test_mismatched_mesh_rejected(self):
        grid = make_grid(0.0, 10.0, 0.25)
        quad = build(0.5, 1.0, 10)
        with pytest.raises(ValueError, match="mesh"):
            SchemeConfig(
                flux=FluxKind.ENGQUIST_OSHER,
                quadrature=quad,
                corrector_mode=CorrectorMode.CORRECTED,
                grid=grid,
            )


def test_flux_kind_tags():
    assert FluxKind("eo") is FluxKind.ENGQUIST_OSHER
    assert FluxKind("mlf") is FluxKind.MODIFIED_LAX_FRIEDRICHS


class TestSolverState:
    """The solver's state at one step: a block of one case with one state."""

    def test_umax_is_max_abs(self):
        grid, params, config = make_setup(dx=0.25, span=2.0)
        vals = np.array([0.0, 0.5, -1.5, 1.25, 0.0, -0.0, 2.0**-1074, 0.0])
        block = lone(GridFunction(grid, vals), params, config)
        assert block.t == (0.0,)
        assert type(block.umax) is float and block.umax == 1.5
        zero = lone(GridFunction(grid, np.zeros(grid.num_cells)), params, config)
        assert type(zero.umax) is float and zero.umax == 0.0

    def test_values_are_read_only(self):
        grid, params, config = make_setup(dx=0.25, span=2.0)
        block = lone(GridFunction(grid, np.ones(grid.num_cells)), params, config)
        with pytest.raises(ValueError, match="read-only"):
            block.flat[3] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            block.u[0, 0, 3] = 2.0
        with pytest.raises(AttributeError):
            block.umax = 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_abort(self, bad):
        grid, params, config = make_setup(dx=0.25, span=2.0)
        vals = np.zeros(grid.num_cells)
        vals[5] = bad
        with pytest.raises(SolverAbort, match="cell 5 of case 0, state 0$"):
            lone(GridFunction.from_checked(grid, vals), params, config)

    def test_run_and_march_leave_initial_writable(self):
        grid, params, config = make_setup()
        vals = np.zeros(grid.num_cells)
        vals[80:120] = 0.2
        u0 = GridFunction(grid, vals)
        run(u0, params, config, t_end=0.5)
        next(march([u0], params, config))
        lone(u0, params, config)
        u0.values[0] = 1.0  # raises if u0 was made read-only


class TestRhs:
    def test_zero_state(self):
        grid, params, config = make_setup()
        block = lone(GridFunction(grid, np.zeros(grid.num_cells)), params, config)
        assert np.all(rhs(block, params, config) == 0.0)

    @pytest.mark.parametrize("theta", [1.0, 0.7])
    def test_total_telescopes_to_zero(self, theta):
        # All four spatial blocks are discrete divergences for data supported
        # away from the boundary, so the cell sum of the right-hand side
        # vanishes to roundoff.
        grid, params, config = make_setup(theta=theta)
        rng = np.random.default_rng(3)
        margin = config.quadrature.n_terms + 2
        u = interior_data(grid, rng, margin)
        total = grid.dx * math.fsum(lone_rhs(u, params, config).tolist())
        assert abs(total) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        n_terms=st.integers(1, 60),
        dx=st.floats(0.1, 1.0),
        nu=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        theta=st.floats(0.2, 5.0),
        flux=st.sampled_from(FluxKind),
        corrector=st.sampled_from(CorrectorMode),
        dt_ref=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
        prefix=st.integers(0, 40),
        width=st.integers(1, 40),
    )
    @example(n=12, n_terms=1, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=1, prefix=0, width=40)
    @example(n=12, n_terms=30, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=2, prefix=0, width=40)
    # All zeros; only the last cell nonzero; only the first cell nonzero.
    @example(n=12, n_terms=5, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=3, prefix=12, width=40)
    @example(n=12, n_terms=5, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=4, prefix=11, width=1)
    @example(n=12, n_terms=5, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=5, prefix=0, width=1)
    # More kernel terms than cells, behind a zero prefix.
    @example(n=8, n_terms=30, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=6, prefix=3, width=40)
    # The nu = 0 and c = 0 ablations.
    @example(n=12, n_terms=5, dx=0.5, nu=0.0, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=7, prefix=5, width=40)
    @example(n=12, n_terms=5, dx=0.5, nu=0.3, c=0.0, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=8, prefix=5, width=40)
    @example(n=12, n_terms=8, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=9, prefix=4, width=40)
    # Windows of B - 1, B, B + 1 and 2B + 1 cells for the block length B of
    # the memory recurrence, with N below and at or above the window.
    @example(n=_BLOCK - 1, n_terms=5, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=10, prefix=0, width=2 * _BLOCK + 1)
    @example(n=_BLOCK, n_terms=_BLOCK + 3, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=11, prefix=0, width=2 * _BLOCK + 1)
    @example(n=_BLOCK + 1, n_terms=_BLOCK, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=12, prefix=0, width=2 * _BLOCK + 1)
    @example(n=2 * _BLOCK + 1, n_terms=_BLOCK + 1, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=13, prefix=0, width=2 * _BLOCK + 1)
    @example(n=2 * _BLOCK + 1, n_terms=2 * _BLOCK + 1, dx=0.5, nu=0.3, c=0.7,
             theta=1.5, flux=FluxKind.ENGQUIST_OSHER,
             corrector=CorrectorMode.CORRECTED, dt_ref=0.1, seed=14, prefix=0,
             width=2 * _BLOCK + 1)
    # h = dx/theta = 1000: q = exp(-h) underflows to 0, so w = (1, 0, 0, ...);
    # c = 1e-6 keeps c/theta^2 and c M1/(theta dx) at 1.  Each flux and mode.
    @example(n=_BLOCK + 1, n_terms=3, dx=1.0, nu=0.3, c=1e-6, theta=1e-3,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=15, prefix=0, width=2 * _BLOCK + 1)
    @example(n=2 * _BLOCK + 1, n_terms=70, dx=1.0, nu=0.3, c=1e-6, theta=1e-3,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=16, prefix=0, width=2 * _BLOCK + 1)
    @example(n=_BLOCK + 1, n_terms=3, dx=1.0, nu=0.3, c=1e-6, theta=1e-3,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=17, prefix=0, width=2 * _BLOCK + 1)
    @example(n=2 * _BLOCK + 1, n_terms=70, dx=1.0, nu=0.3, c=1e-6, theta=1e-3,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=18, prefix=0, width=2 * _BLOCK + 1)
    # h = 1e-7: q = 1 - 1e-7 to rounding, so the truncated sum is the
    # difference of two nearly equal recurrences; c = 1e19 lifts the memory
    # terms (c/theta^2 = 1e7) to the size of the others.  Each flux and mode.
    @example(n=2 * _BLOCK + 1, n_terms=20, dx=0.1, nu=0.3, c=1e19, theta=1e6,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=19, prefix=0, width=2 * _BLOCK + 1)
    @example(n=_BLOCK, n_terms=40, dx=0.1, nu=0.3, c=1e19, theta=1e6,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=20, prefix=0, width=2 * _BLOCK + 1)
    @example(n=2 * _BLOCK + 1, n_terms=20, dx=0.1, nu=0.3, c=1e19, theta=1e6,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=21, prefix=0, width=2 * _BLOCK + 1)
    @example(n=_BLOCK, n_terms=40, dx=0.1, nu=0.3, c=1e19, theta=1e6,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=22, prefix=0, width=2 * _BLOCK + 1)
    # More than B^2 cells: the carries between blocks of blocks (level 2),
    # with h = 1e-3 so that q^(B^2) = 0.36 keeps them visible.
    @example(n=_BLOCK * _BLOCK + _BLOCK + 1, n_terms=300, dx=0.5, nu=0.3, c=1e5,
             theta=500.0, flux=FluxKind.ENGQUIST_OSHER,
             corrector=CorrectorMode.CORRECTED, dt_ref=0.1, seed=23, prefix=0,
             width=_BLOCK * _BLOCK + _BLOCK + 1)
    def test_matches_literal_assembly(
        self, n, n_terms, dx, nu, c, theta, flux, corrector, dt_ref, seed, prefix,
        width,
    ):
        # Independent oracle: a direct per-cell loop over the scheme formula,
        # with the truncated memory sum written out term by term.
        assume(nu + c > 0.0)
        grid = make_grid(0.0, n * dx, dx)
        quad = build(dx, theta, n_terms)
        params = PhysicalParams(nu=nu, c=c)
        config = SchemeConfig(
            flux=flux, quadrature=quad, corrector_mode=corrector, grid=grid
        )
        # Nonzero only on cells prefix .. prefix + width - 1, so the zero
        # window left of the data is exercised, from empty to all cells.
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        u[:prefix] = 0.0
        u[prefix + width :] = 0.0

        def at(j):
            return u[j] if 0 <= j < n else 0.0

        def g(a, b):
            if flux is FluxKind.ENGQUIST_OSHER:
                return 0.5 * min(a, 0.0) ** 2 + 0.5 * max(b, 0.0) ** 2
            return 0.25 * (a * a + b * b) + dx / (4.0 * dt_ref) * (b - a)

        # The weights written out: the kernel's integral over each cell.
        h = dx / theta
        w = [math.exp(-(m - 1) * h) * -math.expm1(-h) for m in range(1, n_terms + 1)]
        if corrector is CorrectorMode.CORRECTED:
            f0, f1 = quad.moment0, quad.moment1
        else:
            f0, f1 = 1.0, 1.0
        expected = np.empty(n)
        for j in range(n):
            lap = (at(j - 1) - 2.0 * at(j) + at(j + 1)) / dx**2
            conv = sum(w[m - 1] * at(j - m) for m in range(1, n_terms + 1))
            expected[j] = (
                (g(at(j), at(j + 1)) - g(at(j - 1), at(j))) / dx
                + nu * lap
                + c / theta**2 * (conv - f0 * at(j))
                + c / theta * f1 * (at(j + 1) - at(j)) / dx
            )
        got = lone_rhs(GridFunction(grid, u), params, config, dt_ref)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        n_terms=st.integers(1, 80),
        nu=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        flux=st.sampled_from(FluxKind),
        corrector=st.sampled_from(CorrectorMode),
        prefix=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exactly_zero_left_of_data(
        self, n, n_terms, nu, c, flux, corrector, prefix, seed
    ):
        # rhs_j reads u_{j-N} .. u_{j+1} only, so every cell left of the
        # first nonzero one less one is exactly 0.0, whatever the stencil.
        assume(nu + c > 0.0)
        dx = 0.5
        grid = make_grid(0.0, n * dx, dx)
        config = SchemeConfig(
            flux=flux, quadrature=build(dx, 1.0, n_terms),
            corrector_mode=corrector, grid=grid,
        )
        u = np.random.default_rng(seed).uniform(0.1, 1.0, n)
        u[:prefix] = 0.0
        got = lone_rhs(GridFunction(grid, u), PhysicalParams(nu=nu, c=c), config, 0.1)
        assert np.all(got[: max(prefix - 1, 0)] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        nu=st.floats(0.0, 0.5),
        c=st.floats(0.05, 1.0),
        theta=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_moment_balance(self, nu, c, theta, seed):
        # In CORRECTED mode each column of the linear stencil has zeroth
        # moment (c/theta^2)(sum w_m - M0) = 0 and first moment
        # -c M1/theta + (c/theta^2) dx sum m w_m = 0, so for data clear of
        # both edges only the flux moves the first moment:
        # dx sum x_j rhs_j = -dx sum_faces g.  NAIVE mode (M0 = M1 = 1)
        # breaks the balance.
        dx = 0.25
        n_terms = choose_n(dx, theta, 1e-6)
        n = n_terms + 40
        grid = make_grid(-15 * dx, (n - 15) * dx, dx)
        quad = build(dx, theta, n_terms)
        params = PhysicalParams(nu=nu, c=c)
        u = np.zeros(n)
        u[5:25] = np.random.default_rng(seed).uniform(-0.3, 1.0, 20)
        upad = np.concatenate(([0.0], u, [0.0]))
        faces = dx * math.fsum(eo_flux(upad[:-1], upad[1:]).tolist())
        x = grid.cell_centers
        rel = {}
        for mode in CorrectorMode:
            config = SchemeConfig(
                flux=FluxKind.ENGQUIST_OSHER, quadrature=quad,
                corrector_mode=mode, grid=grid,
            )
            xr = x * lone_rhs(GridFunction(grid, u), params, config)
            residual = dx * math.fsum(xr.tolist()) + faces
            rel[mode] = abs(residual) / (dx * math.fsum(np.abs(xr).tolist()))
        assert rel[CorrectorMode.CORRECTED] <= 1e-12
        assert rel[CorrectorMode.NAIVE] >= 1e-6

    def test_memory_bounded_on_a_million_cells(self):
        # The operator keeps O(num_cells + B^2) memory: no N-long array
        # (N = 1.8e8 at theta = 1e6) and nothing (n/B) x (n/B).
        grid = make_grid(0.0, 1e5, 0.1)
        u = GridFunction(grid, np.random.default_rng(19).uniform(-1.0, 1.0, grid.num_cells))
        theta = 1e6
        tracemalloc.start()
        try:
            config = SchemeConfig(
                flux=FluxKind.ENGQUIST_OSHER,
                quadrature=build(0.1, theta, choose_n(0.1, theta, 1e-8)),
                corrector_mode=CorrectorMode.CORRECTED, grid=grid,
            )
            lone_rhs(u, PhysicalParams(nu=1e-2, c=2e-2), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.num_cells == 10**6 and config.quadrature.n_terms > 10**8
        assert peak < 100e6

    def test_mlf_needs_reference_step(self):
        grid, params, config = make_setup(flux=FluxKind.MODIFIED_LAX_FRIEDRICHS)
        block = lone(GridFunction(grid, np.zeros(grid.num_cells)), params, config)
        with pytest.raises(ValueError, match="dt_ref"):
            rhs(block, params, config)


class TestStableDt:
    def test_reference_configuration(self):
        # 1/dx term 1, laplacian term 2, kernel term c * sum (m+1) w_m.
        grid = make_grid(-60.0, 60.0, 0.1)
        quad = build(0.1, 1.0, 185)
        params = PhysicalParams(nu=1e-2, c=2e-2)
        config = SchemeConfig(
            flux=FluxKind.ENGQUIST_OSHER,
            quadrature=quad,
            corrector_mode=CorrectorMode.CORRECTED,
            grid=grid,
        )
        vals = np.zeros(grid.num_cells)
        vals[10] = 0.1
        block = lone(GridFunction(grid, vals), params, config)
        (dt,) = stable_dt(block, params, config, safety=1.0, dt_max=10.0)
        expected = 1.0 / (1.0 + 2.0 + 0.02 * quad.stability_sum)
        assert dt == pytest.approx(expected, rel=1e-14)
        assert dt == pytest.approx(0.31, abs=0.005)

    def test_convection_only_limit(self):
        grid, params, config = make_setup(nu=0.0, c=1e-300, dx=0.1, span=10.0)
        vals = np.zeros(grid.num_cells)
        vals[30] = 1.0
        block = lone(GridFunction(grid, vals), params, config)
        (dt,) = stable_dt(block, params, config, safety=0.5, dt_max=10.0)
        assert dt == pytest.approx(0.5 * 0.1, rel=1e-10)

    def test_linear_in_safety(self):
        grid, params, config = make_setup()
        rng = np.random.default_rng(1)
        block = lone(interior_data(grid, rng, 10), params, config)
        (full,) = stable_dt(block, params, config, safety=0.8, dt_max=100.0)
        (half,) = stable_dt(block, params, config, safety=0.4, dt_max=100.0)
        assert half == pytest.approx(full / 2.0, rel=1e-14)

    def test_dt_max_caps(self):
        grid, params, config = make_setup()
        block = lone(GridFunction(grid, np.zeros(grid.num_cells)), params, config)
        assert stable_dt(block, params, config, safety=1.0, dt_max=0.25) == [0.25]


class TestStepEuler:
    def test_zero_state_unchanged(self):
        grid, params, config = make_setup()
        block = lone(GridFunction(grid, np.zeros(grid.num_cells)), params, config)
        new = step_euler(block, params, config, [0.1])
        assert new.t == (0.1,)
        assert np.all(new.flat == 0.0)

    def test_oversized_step_rejected(self):
        grid, params, config = make_setup()
        rng = np.random.default_rng(2)
        block = lone(interior_data(grid, rng, 10), params, config)
        (bound,) = stable_dt(block, params, config, safety=1.0, dt_max=1e9)
        with pytest.raises(StabilityError):
            step_euler(block, params, config, [10.0 * bound])

    def test_hand_computed_bump_update(self):
        # Single unit cell, dx = 1, dt = 0.1, viscosity 1, no memory term:
        # flux and laplacian contributions worked out by hand.
        grid = make_grid(0.0, 5.0, 1.0)
        quad = build(1.0, 1.0, 5)
        params = PhysicalParams(nu=1.0, c=0.0)
        config = SchemeConfig(
            flux=FluxKind.ENGQUIST_OSHER,
            quadrature=quad,
            corrector_mode=CorrectorMode.CORRECTED,
            grid=grid,
        )
        block = lone(GridFunction(grid, np.array([0.0, 0.0, 1.0, 0.0, 0.0])), params, config)
        (new,) = states_of(step_euler(block, params, config, [0.1]), grid)
        np.testing.assert_allclose(
            new.values, [0.0, 0.15, 0.75, 0.1, 0.0], atol=1e-15
        )
        assert mass(new) == pytest.approx(1.0, abs=1e-15)

    def test_per_step_mass_conservation(self):
        # The memory term spreads support rightward by up to N cells per
        # step, so the margin must cover the steps taken.
        grid, params, config = make_setup(theta=1.3, tail_tol=1e-10, span=100.0)
        rng = np.random.default_rng(4)
        margin = config.quadrature.n_terms + 40
        u0 = interior_data(grid, rng, margin)
        block, m0 = lone(u0, params, config), mass(u0)
        for _ in range(25):
            dts = stable_dt(block, params, config, safety=0.9)
            block = step_euler(block, params, config, dts)
            (u,) = states_of(block, grid)
            assert abs(mass(u) - m0) <= 1e-13 * max(1.0, abs(m0))

    def test_naive_correctors_leak_mass(self):
        # With unit factors the convolution block no longer telescopes: the
        # drift is the defect the moment factors remove.  Positive data keeps
        # the signed mass away from zero so the drift is visible.
        drifts = {}
        for mode in (CorrectorMode.CORRECTED, CorrectorMode.NAIVE):
            grid, params, config = make_setup(
                corrector=mode, tail_tol=1e-4, span=60.0
            )
            rng = np.random.default_rng(6)
            margin = config.quadrature.n_terms + 40
            vals = np.zeros(grid.num_cells)
            vals[margin:-margin] = 0.3 * rng.random(grid.num_cells - 2 * margin)
            u0 = GridFunction(grid, vals)
            block = lone(u0, params, config)
            for _ in range(30):
                dts = stable_dt(block, params, config, safety=0.9)
                block = step_euler(block, params, config, dts)
            drifts[mode] = abs(mass(states_of(block, grid)[0]) - mass(u0))
        assert drifts[CorrectorMode.CORRECTED] <= 1e-8
        assert drifts[CorrectorMode.NAIVE] > 1e-6
        assert drifts[CorrectorMode.NAIVE] > 1e3 * drifts[CorrectorMode.CORRECTED]


def euler_jacobian(u, params, config, dt, h=1e-3):
    """Central-difference Jacobian of ``u -> u + dt * rhs(u)``, column by column.

    The map is quadratic in each cell value on either side of 0 (the EO flux
    is C^1 and piecewise quadratic), so with every |u_j| > h the differences
    are exact up to roundoff, about 1e-13 here.
    """
    grid = config.grid

    def euler(v):
        return v + dt * lone_rhs(GridFunction(grid, v), params, config, dt)

    jac = np.empty((u.size, u.size))
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = h
        jac[:, j] = (euler(u + e) - euler(u - e)) / (2.0 * h)
    return jac


class TestEulerMonotone:
    # Order preservation, L1 contraction and the L^p bounds all rest on one
    # fact: under the step bound every partial derivative of the Euler map
    # is nonnegative.  Checked here directly on random data whose cells stay
    # away from 0 by more than the difference step.
    TOL = 1e-12

    def setup_data(self, flux, corrector):
        grid, params, config = make_setup(
            theta=0.8, span=25.0, flux=flux, corrector=corrector
        )
        rng = np.random.default_rng(21)
        n = grid.num_cells
        u = rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 1.0, n)
        bound = lone_bound([GridFunction(grid, u)], params, config, 1.0, 1e9)
        return u, params, config, bound

    @pytest.mark.parametrize("corrector", list(CorrectorMode))
    @pytest.mark.parametrize("flux", list(FluxKind))
    def test_nonnegative_jacobian_at_bound(self, flux, corrector):
        # The MLF bound is halved by the paper's rule; at this data it leaves
        # about 0.45 on every diagonal entry, which the test does not rely on.
        u, params, config, bound = self.setup_data(flux, corrector)
        assert u.size == 100
        jac = euler_jacobian(u, params, config, bound)
        assert jac.min() >= -self.TOL

    @pytest.mark.parametrize("corrector", list(CorrectorMode))
    def test_eo_bound_is_sharp(self, corrector):
        # One percent past the EO bound, the max|u| cell's own coefficient
        # turns negative (about -0.010 corrected, -0.006 naive).
        u, params, config, bound = self.setup_data(FluxKind.ENGQUIST_OSHER, corrector)
        k = int(np.argmax(np.abs(u)))
        jac = euler_jacobian(u, params, config, 1.01 * bound)
        assert jac[k, k] < -1e-3


def fsum_report(u, dx):
    """Slow oracle: exactly rounded mass, L1 and L2 and the exact max."""
    av = [abs(v) for v in u.tolist()]
    return (
        dx * math.fsum(u.tolist()),
        dx * math.fsum(av),
        math.sqrt(dx * math.fsum(a * a for a in av)),
        max(av, default=0.0),
    )


class TestStepReports:
    # The data reach the edges of the grid.
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    @settings(max_examples=200, deadline=None)
    @given(
        n_bulk=st.integers(0, 300),
        n_tail=st.integers(1, 100),
        amp=st.floats(1e-3, 1e3),
        dx=st.floats(0.01, 1.0),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fsum_oracle(self, n_bulk, n_tail, amp, dx, zero, seed):
        # Mixed-sign bulk followed by a tail that decays from amp through the
        # subnormals to zero, the shape of a decayed solution.  The bulk and
        # the head of the tail keep the squares in the normal range, where
        # both sums round each square the same way.
        rng = np.random.default_rng(seed)
        bulk = amp * rng.uniform(-1.0, 1.0, n_bulk)
        signs = rng.choice([-1.0, 1.0], n_tail)
        tail = signs * amp * 10.0 ** -np.linspace(0.0, 330.0, n_tail)
        u = np.concatenate([bulk, tail])
        if zero:
            u = np.zeros_like(u)
        assume(u.size >= 2)
        grid, params, config = make_setup(dx=dx, span=u.size * dx)
        # One step, of the stable size, lands on t_end: the log's one row
        # describes the final snapshot.
        t_end = lone_bound([GridFunction(grid, u)], params, config)
        record = run(GridFunction(grid, u), params, config, t_end=t_end)
        (row,) = record.step_reports
        t, dt, mass_r, l1, l2, linf = row
        assert t == dt == t_end
        mass_x, l1_x, l2_x, linf_x = fsum_report(record.snapshots[-1][1].values, grid.dx)
        # A signed sum is only as accurate as its absolute sum allows.
        assert abs(mass_r - mass_x) <= 1e-14 * l1_x
        assert l1 == pytest.approx(l1_x, rel=1e-14, abs=0.0)
        assert l2 == pytest.approx(l2_x, rel=1e-14, abs=0.0)
        assert linf == linf_x

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_stepped_reports_match_fsum_oracle(self):
        grid, params, config = make_setup(dx=0.1, span=20.0, tail_tol=1e-6)
        u0 = interior_data(grid, np.random.default_rng(17), 5)
        record = run(u0, params, config, t_end=5.0, snapshot_times=[5.0])
        t_end, u_end = record.snapshots[-1]
        t, _, mass_r, l1, l2, linf = record.step_reports[-1]
        assert t == t_end
        mass_x, l1_x, l2_x, linf_x = fsum_report(u_end.values, grid.dx)
        assert abs(mass_r - mass_x) <= 1e-14 * l1_x
        assert l1 == pytest.approx(l1_x, rel=1e-14, abs=0.0)
        assert l2 == pytest.approx(l2_x, rel=1e-14, abs=0.0)
        assert linf == linf_x

    # The memory term carries a tiny tail to the edges of this short domain.
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_report_every_keeps_every_kth_report(self, k):
        grid, params, config = make_setup()
        u0 = interior_data(grid, np.random.default_rng(16), 60)
        kwargs = dict(t_end=2.0, snapshot_times=[0.37, 1.0], dt_max=0.05)
        every = run(u0, params, config, **kwargs).step_reports
        kept = run(u0, params, config, report_every=k, **kwargs).step_reports
        assert len(every) > 3 * k
        assert np.array_equal(kept, every[k - 1 :: k])


class TestRun:
    def test_zero_horizon_keeps_initial_only(self):
        grid, params, config = make_setup()
        u0 = GridFunction(grid, np.zeros(grid.num_cells))
        record = run(u0, params, config, t_end=0.0)
        assert len(record.snapshots) == 1
        assert record.snapshots[0][0] == 0.0
        assert record.step_reports.shape == (0, 6)

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_snapshots_landed_exactly(self):
        grid, params, config = make_setup(dx=0.1, span=10.0)
        rng = np.random.default_rng(8)
        u0 = interior_data(grid, rng, 20)
        times = [0.37, 1.0, 2.25]
        record = run(u0, params, config, t_end=2.25, snapshot_times=times)
        recorded = [t for t, _ in record.snapshots]
        assert recorded == [0.0] + times

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_l1_nonincreasing_per_step(self):
        grid, params, config = make_setup(dx=0.1, span=20.0, tail_tol=1e-6)
        rng = np.random.default_rng(9)
        u0 = interior_data(grid, rng, 5)
        record = run(u0, params, config, t_end=5.0)
        l1 = record.step_reports[:, 3]
        assert np.diff(l1).max() <= 1e-12

    def test_rejects_snapshot_outside_horizon(self):
        grid, params, config = make_setup()
        u0 = GridFunction(grid, np.zeros(grid.num_cells))
        with pytest.raises(ValueError, match="snapshot"):
            run(u0, params, config, t_end=1.0, snapshot_times=[2.0])

    def test_abort_on_overflow_keeps_last_snapshot(self):
        grid, params, config = make_setup(dx=0.5, span=25.0)
        vals = np.zeros(grid.num_cells)
        vals[20:25] = 1e200
        u0 = GridFunction(grid, vals)
        record = run(u0, params, config, t_end=10.0)
        assert record.aborted
        assert len(record.snapshots) >= 1
        assert record.step_reports[:, 0].max(initial=0.0) <= record.snapshots[-1][0]
        times = [t for t, _ in record.snapshots]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_abort_mid_run_keeps_log_to_last_good_state(self, monkeypatch):
        grid, params, config = make_setup(dx=0.1, span=20.0, tail_tol=1e-6)
        u0 = interior_data(grid, np.random.default_rng(9), 5)
        real = scheme.step_euler
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 6:
                raise SolverAbort("injected")
            return real(*args)

        monkeypatch.setattr(scheme, "step_euler", failing)
        record = run(u0, params, config, t_end=5.0)
        assert record.aborted
        last_t = record.snapshots[-1][0]
        assert record.step_reports.shape == (5, 6)
        assert record.step_reports[-1, 0] == last_t > 0.0


class TestLockstep:
    def test_shared_dt_lands_on_targets(self):
        grid, params, config = make_setup(tail_tol=1e-6)
        rng = np.random.default_rng(11)
        u0 = interior_data(grid, rng, 20)
        v0 = GridFunction(grid, 3.0 * u0.values)
        targets = [0.37, 1.0, 2.25]
        prev = [u0, v0]
        times = []
        for (dt,), block in march([u0, v0], params, config, targets, dt_max=10.0):
            (t,) = block.t
            bound = lone_bound(prev, params, config, 0.9, 10.0)
            assert dt == bound or (dt < bound and t in targets)
            times.append(t)
            prev = states_of(block, grid)
        assert set(targets) <= set(times)
        assert times[-1] == targets[-1]

    def test_dt_is_min_stable_dt_capped_at_gap(self):
        # Every dt is the smallest stable_dt of the states it steps from,
        # capped at the gap to the next target and landed on it exactly.
        grid, params, config = make_setup(tail_tol=1e-6)
        u0 = interior_data(grid, np.random.default_rng(18), 20)
        v0 = GridFunction(grid, -2.5 * u0.values)
        targets = [0.37, 1.0, 2.25]
        prev, t = [u0, v0], 0.0
        landings = []
        for (dt,), block in march([u0, v0], params, config, targets, dt_max=10.0):
            gap = min(x for x in targets if x > t) - t
            bound = lone_bound(prev, params, config, 0.9, 10.0)
            lands = min(bound, gap) >= gap * (1.0 - 1e-14)
            assert dt == (gap if lands else bound)
            assert block.t == (t + dt,) or lands
            if lands:
                landings.append(block.t[0])
            prev, (t,) = states_of(block, grid), block.t
        assert landings == targets

    def test_calls_stable_dt_and_step_euler_per_block_step(self, monkeypatch):
        # Every bound and every step of a block goes through the public
        # functions, so a tracer that wraps them sees all of the stepping.
        counts = {"stable_dt": 0, "step_euler": 0}

        def counted(name):
            original = getattr(scheme, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(scheme, name, wrapper)

        counted("stable_dt")
        counted("step_euler")
        grid, params, config = make_setup()
        u0 = interior_data(grid, np.random.default_rng(10), 20)
        v0 = GridFunction(grid, 0.5 * u0.values)
        steps = list(itertools.islice(march([u0, v0], params, config, [2.0]), 6))
        assert counts == {"stable_dt": len(steps), "step_euler": len(steps)}
        counts.update(stable_dt=0, step_euler=0)
        cases = [[u0, v0], [v0, u0], [u0, u0]]
        steps = list(itertools.islice(march(cases, [params] * 3, [config] * 3), 4))
        assert counts == {"stable_dt": len(steps), "step_euler": len(steps)}

    @pytest.mark.parametrize("case", [0, 1])
    def test_stalled_clock_aborts(self, monkeypatch, case):
        # A step that leaves a case's clock unchanged raises SolverAbort,
        # naming the case, where the march would otherwise loop for ever.
        grid, params, config = make_setup()
        u0 = interior_data(grid, np.random.default_rng(15), 20)
        original = scheme.stable_dt

        def stalling(block, *args):
            bounds = original(block, *args)
            return [t * 1e-17 if i == case and t > 0.0 else b
                    for i, (t, b) in enumerate(zip(block.t, bounds))]

        monkeypatch.setattr(scheme, "stable_dt", stalling)
        if case:
            steps = march([[u0], [u0]], [params] * 2, [config] * 2)
        else:
            steps = march([u0], params, config)
        with pytest.raises(SolverAbort, match=f"case {case} at t = "):
            list(itertools.islice(steps, 3))
        if case == 0:
            record = run(u0, params, config, t_end=1.0)
            assert record.aborted
            assert record.snapshots[-1][0] < 1.0

    def test_open_ended_until_stopped(self):
        grid, params, config = make_setup()
        u0 = interior_data(grid, np.random.default_rng(12), 20)
        prev = lone(u0, params, config)
        count = 0
        for (dt,), block in itertools.islice(march([u0], params, config), 7):
            assert [dt] == stable_dt(prev, params, config, 0.9)
            assert block.t == (prev.t[0] + dt,)
            prev, count = block, count + 1
        assert count == 7

    @pytest.mark.parametrize("flux", list(FluxKind))
    def test_leading_zeros_shrink_at_most_one_cell_per_step(self, flux):
        # The stencil reaches one cell to the left, so the zero cells left of
        # the data give way at most one cell per step and stay exactly 0.0.
        grid, params, config = make_setup(tail_tol=1e-6, flux=flux)
        u0 = interior_data(grid, np.random.default_rng(14), 60)

        def leading_zeros(v):
            return int((v != 0.0).argmax()) if v.any() else v.size

        counts = [leading_zeros(u0.values)]
        for _, block in itertools.islice(march([u0], params, config), 40):
            counts.append(leading_zeros(block.u[0, 0]))
        assert all(b >= a - 1 for a, b in zip(counts, counts[1:]))
        assert counts[-1] < counts[0]

    @pytest.mark.parametrize("flux", list(FluxKind))
    def test_window_bound_stays_left_of_the_data(self, flux):
        # A lone block carries a lower bound on its first nonzero entry.
        # Data of size 1e-307 put the left front in the subnormal range, so
        # it underflows to exact zeros and stalls while the bound moves on
        # one entry per step, down to 0.  Stepping the whole row instead
        # (a bound of 0) gives the same states up to the roundoff of the
        # memory recurrence, whose blocks start where the window does.
        grid, params, config = make_setup(tail_tol=1e-6, flux=flux)
        u0 = interior_data(grid, np.random.default_rng(15), 60, amp=1e-307)

        def first(flat):
            return int((flat != 0.0).argmax())

        whole = StateBlock.start([u0], params, config)
        assert whole.lo == first(whole.flat) == 61
        lag = 0
        for (dt,), block in itertools.islice(march([u0], params, config), 80):
            assert block.lo <= first(block.flat)
            lag = max(lag, first(block.flat) - block.lo)
            whole = step_euler(StateBlock(whole.t, whole.flat, whole.cases, 0),
                               params, config, [dt])
            gap = np.abs(whole.flat - block.flat).max()
            assert gap <= 1e-14 * block.umax
        assert block.lo == 0 and lag >= 5

    def test_l1_contraction(self):
        grid, params, config = make_setup(tail_tol=1e-6)
        rng = np.random.default_rng(12)
        margin = config.quadrature.n_terms + 2
        u0 = interior_data(grid, rng, margin)
        v0 = GridFunction(grid, 0.5 * u0.values)
        distances = [norm(GridFunction(grid, u0.values - v0.values), 1)]
        for _, block in march([u0, v0], params, config, [10.0]):
            distances.append(norm(GridFunction(grid, block.u[0, 0] - block.u[0, 1]), 1))
        assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))

    def test_order_preservation(self):
        grid, params, config = make_setup(tail_tol=1e-6)
        rng = np.random.default_rng(13)
        margin = config.quadrature.n_terms + 2
        u0 = interior_data(grid, rng, margin)
        bump = np.zeros_like(u0.values)
        bump[margin:-margin] = 0.05 * rng.random(len(bump) - 2 * margin)
        v0 = GridFunction(grid, u0.values + bump)
        *_, (_, final) = march([u0, v0], params, config, [10.0])
        assert final.t == (10.0,)
        gap = final.u[0, 1] - final.u[0, 0]
        assert gap.min() >= -1e-12


class TestBlock:
    """Independent cases stepped as one block against each case alone."""

    EO, MLF = FluxKind.ENGQUIST_OSHER, FluxKind.MODIFIED_LAX_FRIEDRICHS
    CORRECTED, NAIVE = CorrectorMode.CORRECTED, CorrectorMode.NAIVE
    # (nu, c, theta, dx, span, flux, corrector, margin); every case steps a
    # pair of states.  The 30-cell grid is less than one block of the memory
    # recurrence; the 20-cell grid is narrower than its N = 56 kernel terms,
    # so it has no truncation; the 90-cell case's data fill its grid, up to
    # the last cell.  The 100-cell case's data start at cell 32, past
    # 2N = 28, so each of its states alone steps a window of nonzero cells
    # (lo > 0) with the q^N truncation inside it.  The last case is the
    # widest, and its 287 cells are one short of whole blocks, so the
    # block's last entry is a padding zero only if each row keeps one; its
    # data reach its last cell.
    CASES = [
        (1e-2, 2e-2, 1.0, 0.25, 50.0, EO, CORRECTED, 30),
        (5e-3, 3e-2, 0.6, 0.25, 30.0, MLF, CORRECTED, 20),
        (2e-2, 1e-2, 1.7, 0.25, 70.0, EO, NAIVE, 40),
        (0.0, 4e-2, 0.9, 0.5, 40.0, MLF, NAIVE, 10),
        (3e-2, 0.0, 1.2, 0.5, 15.0, EO, CORRECTED, 5),
        (1e-2, 3e-2, 2.0, 0.5, 10.0, EO, CORRECTED, 3),
        (2e-2, 2e-2, 0.8, 0.25, 22.5, EO, CORRECTED, 0),
        (2.5e-2, 1.5e-2, 0.5, 0.5, 50.0, EO, CORRECTED, 32),
        (1.5e-2, 2.5e-2, 1.3, 0.25, 71.75, EO, CORRECTED, 0),
    ]

    @classmethod
    def problems(cls):
        rng = np.random.default_rng(21)
        out = []
        for nu, c, theta, dx, span, flux, corrector, margin in cls.CASES:
            grid, params, config = make_setup(
                nu=nu, c=c, theta=theta, dx=dx, span=span, tail_tol=1e-6,
                flux=flux, corrector=corrector,
            )
            u = interior_data(grid, rng, margin)
            v = GridFunction(grid, float(rng.uniform(-1.0, 1.0)) * u.values)
            out.append(([u, v], params, config))
        return out

    def test_block_matches_each_case_alone(self):
        problems = self.problems()
        initials, params, configs = (list(x) for x in zip(*problems))
        assert len({c.grid.num_cells for c in configs}) == len(problems)
        truncates = [c.quadrature.n_terms < c.grid.num_cells for c in configs]
        assert not all(truncates) and any(truncates)
        assert any(states[0].values[-1] != 0.0 for states in initials)
        widths = [c.grid.num_cells for c in configs]
        assert widths[-1] == max(widths) and (widths[-1] + 1) % 32 == 0
        assert initials[-1][0].values[-1] != 0.0
        assert any(
            c.quadrature.n_terms < c.grid.num_cells
            and states[0].values[: 2 * c.quadrature.n_terms + 1].max() == 0.0
            for states, c in zip(initials, configs)
        )
        steps = list(itertools.islice(march(initials, params, configs, dt_max=10.0), 25))
        width = max(c.grid.num_cells for c in configs)
        for i, (states, p, config) in enumerate(problems):
            alone = list(itertools.islice(march(states, p, config, dt_max=10.0), 25))
            dts = [dt[i] for dt, _ in steps]
            assert dts == pytest.approx([dt for (dt,), _ in alone], rel=1e-14, abs=0.0)
            # Each state also steps alone, a lone state with the block's dts.
            each = [lone(u, p, config) for u in states]
            n = config.grid.num_cells
            for (_, block), (_, own), dt in zip(steps, alone, dts):
                each = [step_euler(s, p, config, [dt]) for s in each]
                scale = np.abs(own.u).max()
                assert np.abs(block.u[i, :, :n] - own.u[0]).max() <= 1e-14 * scale
                for j, s in enumerate(each):
                    assert np.abs(block.u[i, j, :n] - s.u[0, 0]).max() <= 1e-14 * scale
                assert np.all(block.u[i, :, n:] == 0.0)
            assert block.u.shape == (len(problems), 2, width)
        # The dt sequences are the cases' own: no two cases share one.
        seqs = {tuple(dt[i] for dt, _ in steps) for i in range(len(problems))}
        assert len(seqs) == len(problems)

    def test_pair_shares_each_dt(self):
        # Each case's dt is the smaller of its two states' bounds.
        problems = self.problems()
        initials, params, configs = (list(x) for x in zip(*problems))
        prev, times = initials, (0.0,) * len(problems)
        for dts, block in itertools.islice(march(initials, params, configs), 10):
            for i, (p, config) in enumerate(zip(params, configs)):
                bound = lone_bound(prev[i], p, config)
                assert dts[i] == pytest.approx(bound, rel=1e-14, abs=0.0)
                assert block.t[i] == times[i] + dts[i]
            prev = [states_of(block, c.grid, i) for i, c in enumerate(configs)]
            times = block.t

    def test_several_cases_take_the_default_target_only(self):
        (states, params, config), other = self.problems()[:2]
        with pytest.raises(ValueError, match="default target"):
            next(march([states, other[0]], [params, other[1]], [config, other[2]], [1.0]))

    def test_block_steps_with_its_own_params_and_config(self):
        (states, params, config), other = self.problems()[:2]
        _, block = next(march(states, params, config))
        with pytest.raises(ValueError, match="built with"):
            stable_dt(block, other[1], config, 0.9)


class TestRescale:
    """Parabolic rescaling ``mu * u(mu^2 t, mu x)``: values scaled by ``mu``
    on a grid shrunk by ``mu``.  ``mass`` keeps its value and ``norm``
    scales by ``mu^(1 - 1/p)``."""

    @staticmethod
    def rescale(w, mu):
        g = w.grid
        grid = Grid(
            x_left=g.x_left / mu, x_right=g.x_right / mu, dx=g.dx / mu,
            num_cells=g.num_cells,
        )
        return GridFunction(grid, mu * w.values)

    @pytest.mark.parametrize("mu", [0.3, 2.0, 17.5])
    def test_mass_preserved(self, mu):
        rng = np.random.default_rng(14)
        grid = make_grid(-4.0, 4.0, 0.25)
        w = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.num_cells))
        assert mass(self.rescale(w, mu)) == pytest.approx(mass(w), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 3.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_norm_scaling(self, mu, p):
        rng = np.random.default_rng(15)
        grid = make_grid(-4.0, 4.0, 0.25)
        w = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.num_cells))
        expo = 1.0 - (0.0 if math.isinf(p) else 1.0 / p)
        assert norm(self.rescale(w, mu), p) == pytest.approx(
            mu**expo * norm(w, p), rel=1e-12
        )
