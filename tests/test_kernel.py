import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from augburgers.kernel import _BLOCK, _TOP, _levels, _recurrence, build, choose_n


def summed_moments_highprec(dx, theta, n):
    """Independent oracle: moment0, moment1, moment2 and stability_sum in
    50-digit arithmetic.

    Up to 3000 terms the weights are summed one by one; above that the
    geometric sums' closed forms are used, whose cancellation at small
    N*dx/theta the 50 digits absorb.
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(dx) / mpmath.mpf(theta)
        q = mpmath.exp(-h)
        if n <= 3000:
            w = [mpmath.exp(-m * h) * (mpmath.exp(h) - 1) for m in range(1, n + 1)]
            s0 = mpmath.fsum(w)
            s1 = mpmath.fsum(m * wm for m, wm in enumerate(w, start=1))
            s2 = mpmath.fsum(m * (m - 1) * wm for m, wm in enumerate(w, start=1))
        else:
            qn = q**n
            s0 = 1 - qn
            s1 = (1 - qn) / (1 - q) - n * qn
            s2 = 2 * q / (1 - q) ** 2 * (1 - qn) - n * qn * (n + (1 + q) / (1 - q))
        return float(s0), float(h * s1), float(h * h / 2 * s2), float(s1 + s0)


@st.composite
def quadrature_cases(draw):
    """(dx, theta, N): N drawn directly, or as choose_n sizes it."""
    dx = draw(st.floats(min_value=1e-3, max_value=1.0))
    theta = draw(st.floats(min_value=0.1, max_value=1e6))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=400))
    else:
        n = choose_n(dx, theta, draw(st.floats(min_value=1e-12, max_value=0.99)))
    return dx, theta, n


class TestBuild:
    def test_moment0_small_case(self):
        q = build(1.0, 1.0, 3)
        assert q.moment0 == pytest.approx(1.0 - math.exp(-3.0), abs=1e-15)
        assert q.moment0 == pytest.approx(0.950213, abs=1e-6)

    def test_weight_equals_cell_integral(self):
        # w_m is the exact integral of the kernel over ((m-1) dx, m dx).
        w = build(0.1, 1.0, 60).weights(60)
        assert w[0] == pytest.approx(0.0951626, abs=1e-7)
        for m in (1, 5, 50):
            ref, _ = quad(lambda z: math.exp(-z), (m - 1) * 0.1, m * 0.1)
            assert abs(w[m - 1] - ref) <= 1e-12

    def test_weights_positive_decreasing(self):
        w = build(0.2, 0.7, 100).weights(100)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) < 0.0)

    def test_weights_head(self):
        q = build(0.1, 1.0, 185)
        assert q.weights(1000).shape == (185,)
        np.testing.assert_array_equal(q.weights(10), q.weights(185)[:10])

    def test_second_moment_near_one(self):
        n = choose_n(0.1, 1.0, 1e-8)
        q = build(0.1, 1.0, n)
        assert abs(q.moment2 - 1.0) <= 1e-2
        _, _, m2, _ = summed_moments_highprec(0.1, 1.0, n)
        assert q.moment2 == pytest.approx(m2, rel=1e-12)

    def test_underflowed_tail_kept_as_zero(self):
        q = build(1.0, 0.01, 50)
        assert q.n_terms == 50
        assert q.weights(50)[-1] == 0.0

    def test_small_theta_stays_finite(self):
        # dx/theta = 1000, far past where exp(dx/theta) overflows.
        q = build(0.1, 1e-4, 1)
        assert q.weights(1).tolist() == [1.0]
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
        m0, m1, m2, _ = summed_moments_highprec(dx, theta, n)
        assert q.moment0 == pytest.approx(m0, rel=1e-13)
        assert q.moment1 == pytest.approx(m1, rel=1e-13)
        assert q.moment2 == pytest.approx(m2, rel=1e-12, abs=1e-300)
        assert 0.0 < q.moment0 <= 1.0
        if n * dx / theta < 36.0:
            # The neglected tail is above machine epsilon, so the sum stays
            # strictly below 1 in float64.
            assert q.moment0 < 1.0

    @given(quadrature_cases())
    @settings(max_examples=150, deadline=None)
    def test_all_moments_match_highprec_wide(self, case):
        # theta/dx up to 1e9, N up to 3e10, N*dx/theta down to 1e-9.
        dx, theta, n = case
        q = build(dx, theta, n)
        m0, m1, m2, s = summed_moments_highprec(dx, theta, n)
        assert q.moment0 == pytest.approx(m0, rel=1e-13)
        assert q.moment1 == pytest.approx(m1, rel=1e-13)
        assert q.stability_sum == pytest.approx(s, rel=1e-13)
        if n == 1:
            assert q.moment2 == 0.0
        else:
            assert q.moment2 == pytest.approx(m2, rel=1e-12)

    def test_memory_does_not_grow_with_n(self):
        n = choose_n(0.1, 1e6, 1e-8)
        assert n > 10**8
        tracemalloc.start()
        try:
            q = build(0.1, 1e6, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert q.moment1 == pytest.approx(1.0, rel=1e-6)


class TestClosedForms:
    def test_single_term(self):
        assert build(1.0, 1.0, 1).moment0 == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_two_terms_vs_direct_sum(self):
        q = build(0.5, 1.0, 2)
        w1 = 1.0 - math.exp(-0.5)
        w2 = math.exp(-0.5) * w1
        assert q.moment0 == pytest.approx(w1 + w2, abs=1e-14)
        assert q.moment1 == pytest.approx(0.5 * (w1 + 2.0 * w2), abs=1e-14)
        assert q.moment2 == pytest.approx(0.5**2 / 2.0 * 2.0 * w2, abs=1e-14)

    def test_matches_literal_exponential_form(self):
        # The geometric sum of moment1 written with plain exponentials.
        for dx, theta, n in ((0.1, 1.0, 185), (0.25, 0.5, 40), (0.05, 2.0, 700)):
            h = dx / theta
            f1 = (
                h
                * math.exp(-n * h)
                * (math.exp((n + 1) * h) - math.exp(h) * (n + 1) + n)
                / (math.exp(h) - 1.0)
            )
            assert build(dx, theta, n).moment1 == pytest.approx(f1, rel=1e-11)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_match_sums(self, dx, theta, n):
        # Exactly rounded sums of the weights are the oracle.
        q = build(dx, theta, n)
        w = q.weights(n)
        m = np.arange(1, n + 1)
        h = dx / theta
        assert q.moment0 == pytest.approx(math.fsum(w.tolist()), rel=1e-13)
        assert q.moment1 == pytest.approx(h * math.fsum((m * w).tolist()), rel=1e-13)
        assert q.moment2 == pytest.approx(
            h * h / 2.0 * math.fsum((m * (m - 1) * w).tolist()), rel=1e-12, abs=1e-300
        )
        assert q.stability_sum == pytest.approx(
            math.fsum(((m + 1) * w).tolist()), rel=1e-13
        )

    def test_both_moments_approach_one_for_large_n(self):
        q = build(0.1, 1.0, 5000)
        assert q.moment0 == pytest.approx(1.0, abs=1e-12)
        assert q.moment1 == pytest.approx(0.1 / (1.0 - math.exp(-0.1)), rel=1e-12)


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
        assert 1.0 - build(dx, theta, n).moment0 <= tol

    def test_tiny_dx_returns_at_once(self):
        # Near n = 1.8e301 a step of n no longer changes n*h in floating
        # point, so an unbounded fix-up loop would never end.
        result = []
        worker = threading.Thread(
            target=lambda: result.append(choose_n(1e-300, 1.0, 1e-8)), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert math.exp(-result[0] * 1e-300) <= 1e-8

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            choose_n(0.1, 1.0, 1.5)

    def test_rejects_underflowing_mesh_ratio(self):
        # dx/theta rounds to 0.0: a ValueError, not a ZeroDivisionError.
        with pytest.raises(ValueError, match="dx/theta"):
            choose_n(1e-300, 1e30, 1e-8)
        with pytest.raises(ValueError, match="dx/theta"):
            build(1e-300, 1e30, 1)


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


def recurrence_oracle(x, q):
    """``y_j = q y_{j-1} + x_j`` from ``y_{-1} = 0``, one entry at a time."""
    y, prev = [], 0.0
    for value in x:
        prev = q * prev + value
        y.append(prev)
    return np.array(y)


class TestRecurrence:
    """The blocked recurrence against a plain loop: widths on both sides of
    one block, of the old three-level width _BLOCK^2, of the dense top's
    cap and of the cap's last two-level width _TOP * _BLOCK."""

    WIDTHS = sorted({w + d for w in (_BLOCK, _BLOCK**2, _TOP, _TOP * _BLOCK) for d in (-1, 0, 1)})
    # h = dx/theta: carries that reach across many blocks, a typical ratio,
    # one whose carries reach only the next entry (exp(-32 h) == 0) and one
    # whose carries underflow (exp(-h) == 0).
    H = (1e-3, 0.1, 25.0, 800.0)

    @staticmethod
    def assert_close(y, oracle):
        assert np.max(np.abs(y - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("h", H)
    def test_one_quadrature(self, width, h):
        quad = build(h, 1.0, 10)
        x = np.random.default_rng(width).uniform(-1.0, 1.0, width)
        y = _recurrence(x.copy(), _levels([quad], width))
        self.assert_close(y, recurrence_oracle(x, math.exp(-h)))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_several_quadratures(self, width):
        # One case per ratio, two states each; shorter inputs than the
        # levels were built for are allowed.
        quads = [build(h, 1.0, 10) for h in self.H]
        x = np.random.default_rng(width).uniform(-1.0, 1.0, (len(quads), 2, width))
        levels = _levels(quads, width + 5)
        y = _recurrence(x.copy(), levels)
        for case, quad in enumerate(quads):
            for state in range(2):
                oracle = recurrence_oracle(x[case, state], math.exp(-quad.dx))
                self.assert_close(y[case, state], oracle)

    def test_levels_end_in_one_dense_level(self):
        quad = build(0.1, 1.0, 185)
        # The 3,232-entry rows of the 3,200-cell reference grid: one blocked
        # level, then its 101 carries in one product.
        shapes = [(t.shape, e is None) for t, e in _levels([quad], 3232)]
        assert shapes == [((_BLOCK, _BLOCK), False), ((101, 101), True)]
        assert [t.shape for t, _ in _levels([quad], _TOP)] == [(_TOP, _TOP)]
        deep = _levels([quad], _TOP * _BLOCK + 1)
        assert [t.shape for t, _ in deep] == [(_BLOCK, _BLOCK), (_BLOCK, _BLOCK), (5, 5)]
        # Several cases: 16-entry blocks and a dense top of at most 32, one
        # matrix per case (the 480-entry rows of a mass-conservation block).
        several = _levels([quad, build(0.25, 2.0, 10)], 480)
        assert [t.shape for t, _ in several] == [(2, 16, 16), (2, 30, 30)]
        # Carries that underflow end the levels after the first.
        assert [e for _, e in _levels([build(800.0, 1.0, 10)], 3232)] == [None]
