import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from augburgers.kernel import (
    build,
    choose_n,
    closed_form_moment0,
    closed_form_moment1,
    kernel_eval,
)


def summed_moments_highprec(dx, theta, n):
    """Independent oracle: weights and moments in 50-digit arithmetic."""
    with mpmath.workdps(50):
        h = mpmath.mpf(dx) / mpmath.mpf(theta)
        w = [mpmath.exp(-m * h) * (mpmath.exp(h) - 1) for m in range(1, n + 1)]
        m0 = mpmath.fsum(w)
        m1 = h * mpmath.fsum(m * wm for m, wm in enumerate(w, start=1))
        m2 = h * h / 2 * mpmath.fsum(m * (m - 1) * wm for m, wm in enumerate(w, start=1))
        return float(m0), float(m1), float(m2)


class TestKernelEval:
    def test_vanishes_left_of_origin(self):
        assert kernel_eval(-1.0, 1.0) == 0.0
        assert kernel_eval(0.0, 1.0) == 0.0

    def test_right_limit_at_origin(self):
        assert kernel_eval(1e-14, 2.0) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_unit_mass(self, theta):
        val, err = quad(lambda z: kernel_eval(z, theta), 0.0, np.inf)
        assert abs(val - 1.0) <= 1e-10

    def test_array_input(self):
        out = kernel_eval(np.array([-1.0, 0.5]), 1.0)
        np.testing.assert_allclose(out, [0.0, math.exp(-0.5)])


class TestBuild:
    def test_moment0_small_case(self):
        q = build(1.0, 1.0, 3)
        assert q.moment0 == pytest.approx(1.0 - math.exp(-3.0), abs=1e-15)
        assert q.moment0 == pytest.approx(0.950213, abs=1e-6)

    def test_weight_equals_cell_integral(self):
        # w_m is the exact integral of the kernel over ((m-1) dx, m dx).
        q = build(0.1, 1.0, 60)
        assert q.weights[0] == pytest.approx(0.0951626, abs=1e-7)
        for m in (1, 5, 50):
            ref, _ = quad(lambda z: kernel_eval(z, 1.0), (m - 1) * 0.1, m * 0.1)
            assert abs(q.weights[m - 1] - ref) <= 1e-12

    def test_weights_positive_decreasing(self):
        q = build(0.2, 0.7, 100)
        assert np.all(q.weights > 0.0)
        assert np.all(np.diff(q.weights) < 0.0)

    def test_second_moment_near_one(self):
        n = choose_n(0.1, 1.0, 1e-8)
        q = build(0.1, 1.0, n)
        assert abs(q.moment2 - 1.0) <= 1e-2
        _, _, m2 = summed_moments_highprec(0.1, 1.0, n)
        assert q.moment2 == pytest.approx(m2, rel=1e-12)

    def test_underflowed_tail_kept_as_zero(self):
        q = build(1.0, 0.01, 50)
        assert q.n_terms == 50
        assert q.weights[-1] == 0.0

    def test_small_theta_stays_finite(self):
        # dx/theta = 1000, far past where exp(dx/theta) overflows.
        q = build(0.1, 1e-4, 1)
        assert q.weights.tolist() == [1.0]
        assert q.moment0 == 1.0
        assert q.moment1 == pytest.approx(1000.0, rel=1e-15)
        assert q.moment2 == 0.0
        assert q.stability_sum == 2.0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_moments_match_highprec(self, dx, theta, n):
        q = build(dx, theta, n)
        m0, m1, m2 = summed_moments_highprec(dx, theta, n)
        assert q.moment0 == pytest.approx(m0, rel=1e-13)
        assert q.moment1 == pytest.approx(m1, rel=1e-13)
        assert q.moment2 == pytest.approx(m2, rel=1e-12, abs=1e-300)
        assert 0.0 < q.moment0 <= 1.0
        if n * dx / theta < 36.0:
            # The neglected tail is above machine epsilon, so the sum stays
            # strictly below 1 in float64.
            assert q.moment0 < 1.0


class TestClosedForms:
    def test_single_term(self):
        assert closed_form_moment0(1.0, 1.0, 1) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_two_terms_vs_direct_sum(self):
        q = build(0.5, 1.0, 2)
        assert closed_form_moment0(0.5, 1.0, 2) == pytest.approx(q.moment0, abs=1e-14)
        assert closed_form_moment1(0.5, 1.0, 2) == pytest.approx(q.moment1, abs=1e-14)

    def test_matches_literal_exponential_form(self):
        # Same closed form written with plain exponentials.
        for dx, theta, n in ((0.1, 1.0, 185), (0.25, 0.5, 40), (0.05, 2.0, 700)):
            h = dx / theta
            f1 = (
                h
                * math.exp(-n * h)
                * (math.exp((n + 1) * h) - math.exp(h) * (n + 1) + n)
                / (math.exp(h) - 1.0)
            )
            assert closed_form_moment1(dx, theta, n) == pytest.approx(f1, rel=1e-11)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_match_sums(self, dx, theta, n):
        q = build(dx, theta, n)
        assert closed_form_moment0(dx, theta, n) == pytest.approx(q.moment0, rel=1e-13)
        assert closed_form_moment1(dx, theta, n) == pytest.approx(q.moment1, rel=1e-13)

    def test_both_moments_approach_one_for_large_n(self):
        assert closed_form_moment0(0.1, 1.0, 5000) == pytest.approx(1.0, abs=1e-12)
        assert closed_form_moment1(0.1, 1.0, 5000) == pytest.approx(
            0.1 / (1.0 - math.exp(-0.1)), rel=1e-12
        )


class TestChooseN:
    def test_default_mesh(self):
        assert choose_n(0.1, 1.0, 1e-8) == 185

    def test_ceiling_equality_case(self):
        assert choose_n(1.0, 1.0, math.exp(-3.0)) == 3

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=1e-12, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_bound_and_minimality(self, dx, theta, tol):
        n = choose_n(dx, theta, tol)
        assert math.exp(-n * dx / theta) <= tol
        if n > 1:
            assert math.exp(-(n - 1) * dx / theta) > tol
        assert 1.0 - closed_form_moment0(dx, theta, n) <= tol

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            choose_n(0.1, 1.0, 1.5)


class TestMomentConsistency:
    # Refining the mesh with the tail rule drives the first and second moment
    # factors to 1 monotonically.  moment0 is pinned inside its guaranteed
    # band (1 - tail_tol, 1]: the ceiling-based truncation rule fixes the
    # neglected mass just below tail_tol at every mesh size, so its distance
    # to 1 cannot decrease further.
    DXS = (0.4, 0.2, 0.1, 0.05)

    def test_factors_approach_one(self, tail_tol=1e-10):
        m0s, m1s, m2s = [], [], []
        for dx in self.DXS:
            q = build(dx, 1.0, choose_n(dx, 1.0, tail_tol))
            m0s.append(q.moment0)
            m1s.append(q.moment1)
            m2s.append(q.moment2)
        for seq in (m1s, m2s):
            dist = [abs(1.0 - v) for v in seq]
            assert all(b < a for a, b in zip(dist, dist[1:]))
        assert all(0.0 <= 1.0 - v <= tail_tol for v in m0s)
