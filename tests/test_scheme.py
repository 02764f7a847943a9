import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from augburgers.flux import FluxKind
from augburgers.grid import GridFunction, make_grid, mass, norm
from augburgers.kernel import build, choose_n
from augburgers.scheme import (
    _norms_report,
    CorrectorMode,
    PhysicalParams,
    SchemeConfig,
    SolverAbort,
    SolverState,
    StabilityError,
    rescale,
    rhs,
    run,
    run_lockstep,
    stable_dt,
    step_euler,
)


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
    params = PhysicalParams(nu=nu, c=c, theta=theta)
    config = SchemeConfig(
        flux=flux, quadrature=quad, corrector_mode=corrector, grid=grid
    )
    return grid, params, config


def interior_state(grid, rng, margin, amp=0.3):
    vals = np.zeros(grid.num_cells)
    inner = grid.num_cells - 2 * margin
    vals[margin : margin + inner] = amp * (2.0 * rng.random(inner) - 1.0)
    return SolverState(0.0, GridFunction(grid, vals))


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


class TestRhs:
    def test_zero_state(self):
        grid, params, config = make_setup()
        state = SolverState(0.0, GridFunction(grid, np.zeros(grid.num_cells)))
        assert np.all(rhs(state, params, config).values == 0.0)

    @pytest.mark.parametrize("theta", [1.0, 0.7])
    def test_total_telescopes_to_zero(self, theta):
        # All four spatial blocks are discrete divergences for data supported
        # away from the boundary, so the cell sum of the right-hand side
        # vanishes to roundoff.
        grid, params, config = make_setup(theta=theta)
        rng = np.random.default_rng(3)
        margin = config.quadrature.n_terms + 2
        state = interior_state(grid, rng, margin)
        total = grid.dx * math.fsum(rhs(state, params, config).values.tolist())
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
    )
    @example(n=12, n_terms=1, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.ENGQUIST_OSHER, corrector=CorrectorMode.CORRECTED,
             dt_ref=0.1, seed=1)
    @example(n=12, n_terms=30, dx=0.5, nu=0.3, c=0.7, theta=1.5,
             flux=FluxKind.MODIFIED_LAX_FRIEDRICHS, corrector=CorrectorMode.NAIVE,
             dt_ref=0.1, seed=2)
    def test_matches_literal_assembly(
        self, n, n_terms, dx, nu, c, theta, flux, corrector, dt_ref, seed
    ):
        # Independent oracle: a direct per-cell loop over the scheme formula,
        # with the truncated memory sum written out term by term.
        assume(nu + c > 0.0)
        grid = make_grid(0.0, n * dx, dx)
        quad = build(dx, theta, n_terms)
        params = PhysicalParams(nu=nu, c=c, theta=theta)
        config = SchemeConfig(
            flux=flux, quadrature=quad, corrector_mode=corrector, grid=grid
        )
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        state = SolverState(0.0, GridFunction(grid, u))

        def at(j):
            return u[j] if 0 <= j < n else 0.0

        def g(a, b):
            if flux is FluxKind.ENGQUIST_OSHER:
                return 0.5 * min(a, 0.0) ** 2 + 0.5 * max(b, 0.0) ** 2
            return 0.25 * (a * a + b * b) + dx / (4.0 * dt_ref) * (b - a)

        w = quad.weights
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
        got = rhs(state, params, config, dt_ref=dt_ref).values
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14)

    def test_mlf_needs_reference_step(self):
        grid, params, config = make_setup(flux=FluxKind.MODIFIED_LAX_FRIEDRICHS)
        state = SolverState(0.0, GridFunction(grid, np.zeros(grid.num_cells)))
        with pytest.raises(ValueError, match="dt_ref"):
            rhs(state, params, config)


class TestStableDt:
    def test_reference_configuration(self):
        # 1/dx term 1, laplacian term 2, kernel term c * sum (m+1) w_m.
        grid = make_grid(-60.0, 60.0, 0.1)
        quad = build(0.1, 1.0, 185)
        params = PhysicalParams(nu=1e-2, c=2e-2, theta=1.0)
        config = SchemeConfig(
            flux=FluxKind.ENGQUIST_OSHER,
            quadrature=quad,
            corrector_mode=CorrectorMode.CORRECTED,
            grid=grid,
        )
        vals = np.zeros(grid.num_cells)
        vals[10] = 0.1
        state = SolverState(0.0, GridFunction(grid, vals))
        dt = stable_dt(state, params, config, safety=1.0, dt_max=10.0)
        expected = 1.0 / (1.0 + 2.0 + 0.02 * quad.stability_sum)
        assert dt == pytest.approx(expected, rel=1e-14)
        assert dt == pytest.approx(0.31, abs=0.005)

    def test_convection_only_limit(self):
        grid, params, config = make_setup(nu=0.0, c=1e-300, dx=0.1, span=10.0)
        vals = np.zeros(grid.num_cells)
        vals[30] = 1.0
        state = SolverState(0.0, GridFunction(grid, vals))
        dt = stable_dt(state, params, config, safety=0.5, dt_max=10.0)
        assert dt == pytest.approx(0.5 * 0.1, rel=1e-10)

    def test_linear_in_safety(self):
        grid, params, config = make_setup()
        rng = np.random.default_rng(1)
        state = interior_state(grid, rng, 10)
        full = stable_dt(state, params, config, safety=0.8, dt_max=100.0)
        half = stable_dt(state, params, config, safety=0.4, dt_max=100.0)
        assert half == pytest.approx(full / 2.0, rel=1e-14)

    def test_dt_max_caps(self):
        grid, params, config = make_setup()
        state = SolverState(0.0, GridFunction(grid, np.zeros(grid.num_cells)))
        assert stable_dt(state, params, config, safety=1.0, dt_max=0.25) == 0.25


class TestStepEuler:
    def test_zero_state_unchanged(self):
        grid, params, config = make_setup()
        state = SolverState(0.0, GridFunction(grid, np.zeros(grid.num_cells)))
        new, report = step_euler(state, params, config, 0.1)
        assert np.all(new.u.values == 0.0)
        assert report.mass_after == 0.0

    def test_oversized_step_rejected(self):
        grid, params, config = make_setup()
        rng = np.random.default_rng(2)
        state = interior_state(grid, rng, 10)
        bound = stable_dt(state, params, config, safety=1.0, dt_max=1e9)
        with pytest.raises(StabilityError):
            step_euler(state, params, config, 10.0 * bound)

    def test_hand_computed_bump_update(self):
        # Single unit cell, dx = 1, dt = 0.1, viscosity 1, no memory term:
        # flux and laplacian contributions worked out by hand.
        grid = make_grid(0.0, 5.0, 1.0)
        quad = build(1.0, 1.0, 5)
        params = PhysicalParams(nu=1.0, c=0.0, theta=1.0)
        config = SchemeConfig(
            flux=FluxKind.ENGQUIST_OSHER,
            quadrature=quad,
            corrector_mode=CorrectorMode.CORRECTED,
            grid=grid,
        )
        state = SolverState(0.0, GridFunction(grid, np.array([0.0, 0.0, 1.0, 0.0, 0.0])))
        new, report = step_euler(state, params, config, 0.1)
        np.testing.assert_allclose(
            new.u.values, [0.0, 0.15, 0.75, 0.1, 0.0], atol=1e-15
        )
        assert report.mass_after == pytest.approx(1.0, abs=1e-15)

    def test_per_step_mass_conservation(self):
        # The memory term spreads support rightward by up to N cells per
        # step, so the margin must cover the steps taken.
        grid, params, config = make_setup(theta=1.3, tail_tol=1e-10, span=100.0)
        rng = np.random.default_rng(4)
        margin = config.quadrature.n_terms + 40
        state = interior_state(grid, rng, margin)
        m0 = mass(state.u)
        for _ in range(25):
            dt = stable_dt(state, params, config, safety=0.9)
            state, report = step_euler(state, params, config, dt)
            assert abs(report.mass_after - m0) <= 1e-13 * max(1.0, abs(m0))

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
            state = SolverState(0.0, GridFunction(grid, vals))
            m0 = mass(state.u)
            for _ in range(30):
                dt = stable_dt(state, params, config, safety=0.9)
                state, report = step_euler(state, params, config, dt)
            drifts[mode] = abs(report.mass_after - m0)
        assert drifts[CorrectorMode.CORRECTED] <= 1e-8
        assert drifts[CorrectorMode.NAIVE] > 1e-6
        assert drifts[CorrectorMode.NAIVE] > 1e3 * drifts[CorrectorMode.CORRECTED]


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
        grid = make_grid(0.0, u.size * dx, dx)
        report = _norms_report(1.0, 0.1, GridFunction(grid, u))
        mass_x, l1_x, l2_x, linf_x = fsum_report(u, grid.dx)
        # A signed sum is only as accurate as its absolute sum allows.
        assert abs(report.mass_after - mass_x) <= 1e-14 * l1_x
        assert report.l1 == pytest.approx(l1_x, rel=1e-14, abs=0.0)
        assert report.l2 == pytest.approx(l2_x, rel=1e-14, abs=0.0)
        assert report.linf == linf_x

    def test_stepped_reports_match_fsum_oracle(self):
        grid, params, config = make_setup(dx=0.1, span=20.0, tail_tol=1e-6)
        u0 = interior_state(grid, np.random.default_rng(17), 5).u
        record = run(u0, params, config, t_end=5.0, snapshot_times=[5.0])
        t_end, u_end = record.snapshots[-1]
        last = record.step_reports[-1]
        assert last.t == t_end
        mass_x, l1_x, l2_x, linf_x = fsum_report(u_end.values, grid.dx)
        assert abs(last.mass_after - mass_x) <= 1e-14 * l1_x
        assert last.l1 == pytest.approx(l1_x, rel=1e-14, abs=0.0)
        assert last.l2 == pytest.approx(l2_x, rel=1e-14, abs=0.0)
        assert last.linf == linf_x

    # The memory term carries a tiny tail to the edges of this short domain.
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_report_every_keeps_every_kth_report(self, k):
        grid, params, config = make_setup()
        u0 = interior_state(grid, np.random.default_rng(16), 60).u
        kwargs = dict(t_end=2.0, snapshot_times=[0.37, 1.0], dt_max=0.05)
        every = run(u0, params, config, **kwargs).step_reports
        kept = run(u0, params, config, report_every=k, **kwargs).step_reports
        assert len(every) > 3 * k
        assert kept == every[k - 1 :: k]


class TestRun:
    def test_zero_horizon_keeps_initial_only(self):
        grid, params, config = make_setup()
        u0 = GridFunction(grid, np.zeros(grid.num_cells))
        record = run(u0, params, config, t_end=0.0)
        assert len(record.snapshots) == 1
        assert record.snapshots[0][0] == 0.0

    def test_snapshots_landed_exactly(self):
        grid, params, config = make_setup(dx=0.1, span=10.0)
        rng = np.random.default_rng(8)
        u0 = interior_state(grid, rng, 20).u
        times = [0.37, 1.0, 2.25]
        record = run(u0, params, config, t_end=2.25, snapshot_times=times)
        recorded = [t for t, _ in record.snapshots]
        assert recorded == [0.0] + times

    def test_l1_nonincreasing_per_step(self):
        grid, params, config = make_setup(dx=0.1, span=20.0, tail_tol=1e-6)
        rng = np.random.default_rng(9)
        u0 = interior_state(grid, rng, 5).u
        record = run(u0, params, config, t_end=5.0)
        l1 = [r.l1 for r in record.step_reports]
        assert all(b <= a + 1e-12 for a, b in zip(l1, l1[1:]))

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
        assert record.manifest["aborted"] is True
        assert len(record.snapshots) >= 1

    def test_fixed_dt_policy(self):
        grid, params, config = make_setup(dx=0.25, span=20.0)
        rng = np.random.default_rng(10)
        u0 = interior_state(grid, rng, 10, amp=0.1).u
        record = run(u0, params, config, t_end=1.0, fixed_dt=0.05)
        assert record.manifest["dt_policy"] == "fixed"
        dts = {round(r.dt_used, 12) for r in record.step_reports}
        assert dts == {0.05}

    def test_manifest_records_tunables(self):
        grid, params, config = make_setup()
        u0 = GridFunction(grid, np.zeros(grid.num_cells))
        record = run(u0, params, config, t_end=0.5, safety=0.8)
        m = record.manifest
        for key in (
            "nu",
            "c",
            "theta",
            "dx",
            "flux",
            "corrector_mode",
            "n_terms",
            "moment0",
            "moment1",
            "moment2",
            "safety",
            "dt_max",
            "dt_policy",
        ):
            assert key in m


class TestLockstep:
    def test_l1_contraction(self):
        grid, params, config = make_setup(tail_tol=1e-6)
        rng = np.random.default_rng(12)
        margin = config.quadrature.n_terms + 2
        u0 = interior_state(grid, rng, margin).u
        v0 = GridFunction(grid, 0.5 * u0.values)
        distances = []

        def observe(t, states):
            d = GridFunction(grid, states[0].u.values - states[1].u.values)
            distances.append(norm(d, 1))

        run_lockstep([u0, v0], params, config, t_end=10.0, observer=observe)
        start = norm(GridFunction(grid, u0.values - v0.values), 1)
        series = [start] + distances
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_order_preservation(self):
        grid, params, config = make_setup(tail_tol=1e-6)
        rng = np.random.default_rng(13)
        margin = config.quadrature.n_terms + 2
        u0 = interior_state(grid, rng, margin).u
        bump = np.zeros_like(u0.values)
        bump[margin:-margin] = 0.05 * rng.random(len(bump) - 2 * margin)
        v0 = GridFunction(grid, u0.values + bump)
        final = run_lockstep([u0, v0], params, config, t_end=10.0)
        gap = final[1].u.values - final[0].u.values
        assert gap.min() >= -1e-12


class TestRescale:
    def test_identity_at_unit_scale(self):
        grid = make_grid(-2.0, 2.0, 0.5)
        w = GridFunction(grid, np.arange(8, dtype=float))
        same = rescale(w, 1.0)
        assert same.grid == grid
        np.testing.assert_array_equal(same.values, w.values)

    @pytest.mark.parametrize("mu", [0.3, 2.0, 17.5])
    def test_mass_preserved(self, mu):
        rng = np.random.default_rng(14)
        grid = make_grid(-4.0, 4.0, 0.25)
        w = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.num_cells))
        assert mass(rescale(w, mu)) == pytest.approx(mass(w), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 3.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_norm_scaling(self, mu, p):
        rng = np.random.default_rng(15)
        grid = make_grid(-4.0, 4.0, 0.25)
        w = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.num_cells))
        expo = 1.0 - (0.0 if math.isinf(p) else 1.0 / p)
        assert norm(rescale(w, mu), p) == pytest.approx(
            mu**expo * norm(w, p), rel=1e-12
        )
