import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augburgers.analysis import (
    gns_inequality_check,
    n_wave_diagnostic,
    restrict_pairwise,
    scaled_profile_error,
    self_convergence,
    series_lemma_check,
)
from augburgers.grid import GridFunction, make_grid, mass, norm, project_initial
from augburgers.initial import sine_bumps
from augburgers.profile import AsymptoticProfile, sample_on_grid
from augburgers.scheme import PhysicalParams, RunRecord


def record_from_snapshots(snaps):
    return RunRecord(snapshots=snaps)


class TestScaledProfileError:
    def setup_method(self):
        self.wave = AsymptoticProfile(mass=1.0, viscosity=1.0)
        self.grid = make_grid(-20.0, 20.0, 0.1)

    def test_zero_when_snapshots_equal_profile(self):
        snaps = [
            (t, sample_on_grid(self.wave, self.grid, t)) for t in (1.0, 4.0, 9.0)
        ]
        series = scaled_profile_error(record_from_snapshots(snaps), self.wave, 2.0)
        assert np.all(series.values == 0.0)

    def test_skips_time_zero_with_warning(self):
        snaps = [
            (0.0, GridFunction(self.grid, np.zeros(self.grid.num_cells))),
            (1.0, sample_on_grid(self.wave, self.grid, 1.0)),
        ]
        with pytest.warns(UserWarning, match="t = 0"):
            series = scaled_profile_error(record_from_snapshots(snaps), self.wave, 1.0)
        assert list(series.times) == [1.0]

    def test_rate_exponents(self):
        u = GridFunction(self.grid, np.zeros(self.grid.num_cells))
        t = 16.0
        snaps = [(t, u)]
        rec = record_from_snapshots(snaps)
        prof = sample_on_grid(self.wave, self.grid, t)
        for p, expo in ((1.0, 0.0), (2.0, 0.25), (math.inf, 0.5)):
            series = scaled_profile_error(rec, self.wave, p)
            assert series.values[0] == pytest.approx(
                t**expo * norm(prof, p), rel=1e-13
            )


    def test_given_samples_are_used_and_missing_times_sampled(self):
        rng = np.random.default_rng(4)
        snaps = [
            (t, GridFunction(self.grid, rng.random(self.grid.num_cells)))
            for t in (1.0, 2.0, 5.0)
        ]
        rec = record_from_snapshots(snaps)
        samples = {t: sample_on_grid(self.wave, self.grid, t) for t in (1.0, 5.0)}
        for p in (1.0, 2.0, math.inf):
            plain = scaled_profile_error(rec, self.wave, p)
            shared = scaled_profile_error(rec, self.wave, p, samples=samples)
            np.testing.assert_array_equal(shared.values, plain.values)
        # A sample stands in for the wave at its time: the snapshot equal to
        # it is at distance zero.
        series = scaled_profile_error(rec, self.wave, 1.0, samples={1.0: snaps[0][1]})
        assert series.values[0] == 0.0
        np.testing.assert_array_equal(
            series.values[1:], scaled_profile_error(rec, self.wave, 1.0).values[1:]
        )


class TestMonitors:
    def test_l1_monitor_matches_step_reports_at_snapshots(self):
        # Snapshot states are the stepped states, so the step log's L1
        # column agrees with grid.norm at the snapshot times.  The log holds
        # pairwise NumPy sums by design and grid.norm is exactly rounded, so
        # they agree to roundoff rather than bit for bit.
        from augburgers import scheme
        from augburgers.kernel import build, choose_n
        from augburgers.scheme import CorrectorMode, FluxKind, SchemeConfig

        g = make_grid(-20.0, 20.0, 0.25)
        quad = build(0.25, 1.0, choose_n(0.25, 1.0, 1e-6))
        config = SchemeConfig(
            flux=FluxKind.ENGQUIST_OSHER,
            quadrature=quad,
            corrector_mode=CorrectorMode.CORRECTED,
            grid=g,
        )
        u0 = project_initial(sine_bumps(), g)
        rec = scheme.run(
            u0,
            PhysicalParams(nu=1e-2, c=2e-2),
            config,
            t_end=3.0,
            snapshot_times=[1.0, 3.0],
        )
        by_time = {t: l1 for t, l1 in rec.step_reports[:, [0, 3]].tolist()}
        for t, u in rec.snapshots[1:]:
            assert by_time[t] == pytest.approx(norm(u, 1), rel=1e-14)


class TestRestriction:
    def test_pairwise_average_preserves_mass(self):
        fine = make_grid(0.0, 8.0, 0.5)
        coarse = make_grid(0.0, 8.0, 1.0)
        rng = np.random.default_rng(4)
        w = GridFunction(fine, rng.random(fine.num_cells))
        r = restrict_pairwise(w, coarse)
        assert mass(r) == pytest.approx(mass(w), abs=1e-15)

    def test_rejects_non_nested(self):
        fine = make_grid(0.0, 9.0, 0.5)
        coarse = make_grid(0.0, 8.0, 1.0)
        rng = np.random.default_rng(5)
        w = GridFunction(fine, rng.random(fine.num_cells))
        with pytest.raises(ValueError):
            restrict_pairwise(w, coarse)


class TestSelfConvergence:
    PARAMS = PhysicalParams(nu=1e-2, c=2e-2)

    def test_identical_resolutions_give_zero(self):
        out = self_convergence(
            self.PARAMS, sine_bumps(), -20.0, 20.0, [0.2, 0.2], t_check=0.5
        )
        assert out[0][1] == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_nonpositive_mesh_size(self, bad):
        # Rejected before any ratio between mesh sizes is taken.
        with pytest.raises(ValueError, match="positive and finite"):
            self_convergence(
                self.PARAMS, sine_bumps(), -20.0, 20.0, [0.2, bad], t_check=0.5
            )

    def test_rejects_non_halving(self):
        with pytest.raises(ValueError, match="halve"):
            self_convergence(
                self.PARAMS, sine_bumps(), -20.0, 20.0, [0.3, 0.2], t_check=0.5
            )

    def test_differences_shrink_with_refinement(self):
        out = self_convergence(
            self.PARAMS, sine_bumps(), -40.0, 40.0, [0.2, 0.1, 0.05], t_check=1.0
        )
        diffs = [d for _, d in out]
        assert diffs[1] < diffs[0]
        assert diffs[1] / diffs[0] <= 0.8


class TestNWaveDiagnostic:
    def test_nonnegative_data_has_no_negative_mass(self):
        g = make_grid(0.0, 3.0, 0.5)
        d = n_wave_diagnostic(GridFunction(g, np.array([0.0, 1.0, 2.0, 0.5, 0.0, 0.0])))
        assert d.negative_mass == 0.0
        assert d.max == 2.0

    def test_default_datum_part_masses(self):
        # Analytic integrals of the two arcs: +0.2 and -0.05.
        g = make_grid(-60.0, 60.0, 0.1)
        u = project_initial(sine_bumps(), g)
        d = n_wave_diagnostic(u)
        assert d.positive_mass == pytest.approx(0.2, abs=1e-9)
        assert d.negative_mass == pytest.approx(-0.05, abs=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_parts_sum_to_mass(self, values):
        g = make_grid(0.0, 0.25 * len(values), 0.25)
        w = GridFunction(g, np.asarray(values))
        d = n_wave_diagnostic(w)
        assert d.positive_mass + d.negative_mass == pytest.approx(
            mass(w), rel=1e-13, abs=1e-13
        )


def criterion_08_corpora():
    """The random corpora of acceptance criterion 08, drawn as it draws them:
    1000 grid functions, then 1000 ``(a, phi, n)`` series cases."""
    rng = np.random.default_rng(2024)
    functions = []
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        dx = float(rng.uniform(0.01, 1.0))
        vals = 2.0 * rng.random(n) - 1.0
        if not np.any(vals):
            vals[0] = 1.0
        functions.append(GridFunction(make_grid(0.0, n * dx, dx), vals))
    series = [
        (float(rng.uniform(0.01, 0.99)), float(rng.uniform(-math.pi, math.pi)),
         int(rng.integers(1, 101)))
        for _ in range(1000)
    ]
    return functions, series


def gns_oracle(w, p):
    """Both sides of the Gagliardo-Nirenberg inequality from grid.norm, one
    function at a time."""
    dx = w.grid.dx
    # The forward differences of |w|^(p/2) on its zero extension, from the
    # jump into the first cell to the jump out of the last.
    jumps = np.diff(np.abs(w.values) ** (p / 2.0), prepend=0.0, append=0.0) / dx
    grad = norm(GridFunction(make_grid(0.0, jumps.size * dx, dx), jumps), 2)
    lhs = norm(w, p) ** (p * (p + 1.0) / (p - 1.0))
    return lhs, 4.0 * norm(w, 1) ** (2.0 * p / (p - 1.0)) * grad * grad


def series_oracle(a, phi, n):
    """Both sides of the series bound by a direct complex loop over k."""
    s1, s2 = 0j, 0.0
    for k in range(1, n + 1):
        half = 0.5 * k * phi
        s1 += a**k * 2j * math.sin(half) * cmath.exp(1j * half)
        s2 += k * a**k
    half = 0.5 * phi
    lhs = abs(s1 - s2 * 2j * math.sin(half) * cmath.exp(-1j * half))
    return lhs, 4.0 * math.sin(half) ** 2 * a / (1.0 - a) ** 3


class TestInequalityOracles:
    """The array-valued inequality checks against scalar oracles on the
    corpora of acceptance criterion 08."""

    def test_gns_rows_match_oracle(self):
        functions, _ = criterion_08_corpora()
        for p in (2.0, 3.0, 4.0):
            res = gns_inequality_check(functions, p)
            for i, w in enumerate(functions):
                lhs, rhs = gns_oracle(w, p)
                assert res.lhs[i] == pytest.approx(lhs, rel=1e-13, abs=0.0)
                assert res.rhs[i] == pytest.approx(rhs, rel=1e-13, abs=0.0)
                assert res.holds[i] == (lhs <= rhs)

    def test_gns_mixed_exponents_and_one_row(self):
        functions, _ = criterion_08_corpora()
        functions, ps = functions[:30], [2.0, 3.0, 4.0] * 10
        res = gns_inequality_check(functions, ps)
        for i in (0, 11, 29):
            # One function is one row; a row padded to the widest function
            # sums its terms in other blocks, so the last bits may differ.
            one = gns_inequality_check(functions[i], ps[i])
            assert type(one.holds) is bool and one.holds == res.holds[i]
            assert one.lhs == pytest.approx(res.lhs[i], rel=1e-14, abs=0.0)
            assert one.rhs == pytest.approx(res.rhs[i], rel=1e-14, abs=0.0)

    def test_series_rows_match_oracle(self):
        _, series = criterion_08_corpora()
        a, phi, n = zip(*series)
        res = series_lemma_check(a, phi, n)
        for i, case in enumerate(series):
            lhs, rhs = series_oracle(*case)
            assert res.lhs[i] == pytest.approx(lhs, rel=1e-13, abs=0.0)
            assert res.rhs[i] == pytest.approx(rhs, rel=1e-13, abs=0.0)
            assert res.holds[i] == (lhs <= rhs)
        one = series_lemma_check(*series[7])
        assert (one.holds, one.lhs, one.rhs) == (res.holds[7], res.lhs[7], res.rhs[7])


class TestGnsInequality:
    def test_single_cell_closed_form(self):
        # One cell of value v: lhs = (dx v^2)^3, gradient term = 2 v^2/dx,
        # rhs = 8 dx^3 v^6.
        dx, v = 0.3, 1.7
        g = make_grid(0.0, 2 * dx, dx)
        w = GridFunction(g, np.array([v, 0.0]))
        res = gns_inequality_check(w, 2.0)
        assert res.lhs == pytest.approx((dx * v * v) ** 3, rel=1e-12)
        assert res.rhs == pytest.approx(8.0 * dx**3 * v**6, rel=1e-12)
        assert res.holds

    def test_verdict_invariant_under_scaling(self):
        rng = np.random.default_rng(6)
        g = make_grid(0.0, 10.0, 0.5)
        w = GridFunction(g, rng.uniform(-1.0, 1.0, g.num_cells))
        for p in (2.0, 3.0):
            base = gns_inequality_check(w, p)
            scaled = gns_inequality_check(GridFunction(g, 37.5 * w.values), p)
            expo = p * (p + 1.0) / (p - 1.0)
            assert scaled.holds == base.holds
            assert scaled.lhs / base.lhs == pytest.approx(37.5**expo, rel=1e-9)
            assert scaled.rhs / base.rhs == pytest.approx(37.5**expo, rel=1e-9)

    def test_randomized_corpus_all_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 201))
            dx = float(rng.uniform(0.01, 1.0))
            vals = 2.0 * rng.random(n) - 1.0
            if not np.any(vals):
                vals[0] = 1.0
            w = GridFunction(make_grid(0.0, n * dx, dx), vals)
            for p in (2.0, 3.0, 4.0):
                assert gns_inequality_check(w, p).holds

    def test_rejects_zero_function(self):
        g = make_grid(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gns_inequality_check(GridFunction(g, np.zeros(2)), 2.0)


class TestSeriesBound:
    def test_unit_b_degenerates_to_equality(self):
        res = series_lemma_check(0.5, 0.0, 10)
        assert res.lhs == 0.0
        assert res.holds

    def test_hand_case(self):
        res = series_lemma_check(0.5, math.pi, 10)
        assert res.holds
        assert res.rhs == pytest.approx(4.0 * 0.5 / 0.125, rel=1e-13)

    def test_tiny_angle_does_not_cancel(self):
        # Drawn by `augburgers check --seed 59`.  At 50 digits the lhs is
        # 5.7194984894e-11, just below the rhs 5.7194985032e-11; forming
        # b^k - 1 by subtraction lost the digits that decide it.
        a, phi, n = 0.5712925694825125, -2.808608488003017e-06, 45
        res = series_lemma_check(a, phi, n)
        with mpmath.workdps(50):
            b = mpmath.expj(phi)
            s1 = mpmath.fsum(mpmath.mpf(a) ** k * (b**k - 1) for k in range(1, n + 1))
            s2 = mpmath.fsum(k * mpmath.mpf(a) ** k for k in range(1, n + 1))
            lhs = abs(s1 + s2 * (1 / b - 1))
            rhs = abs(b - 1) ** 2 * a / (1 - mpmath.mpf(a)) ** 3
        assert res.lhs == pytest.approx(float(lhs), rel=1e-12, abs=0)
        assert res.rhs == pytest.approx(float(rhs), rel=1e-12, abs=0)
        assert res.holds

    def test_randomized_corpus_all_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = float(rng.uniform(0.01, 0.99))
            phi = float(rng.uniform(-math.pi, math.pi))
            n = int(rng.integers(1, 101))
            assert series_lemma_check(a, phi, n).holds


class TestGaussLegendreRule:
    def test_matches_leggauss(self):
        from augburgers.analysis import _GL_NODES, _gauss_legendre

        nodes, weights = _gauss_legendre()
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(_GL_NODES)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.abs(nodes - ref_nodes).max() <= 4e-16
        assert np.abs(weights - ref_weights).max() <= 1e-15
        assert math.fsum(weights.tolist()) == pytest.approx(2.0, rel=1e-15)

    def test_integrates_degree_19_exactly(self):
        from augburgers.analysis import _gauss_legendre

        nodes, weights = _gauss_legendre()
        for k in range(20):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert float(weights @ nodes**k) == pytest.approx(exact, abs=1e-14)
