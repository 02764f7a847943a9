import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from augburgers.analysis import pde_residual
from augburgers.grid import make_grid, mass
from augburgers.profile import (
    AsymptoticProfile,
    _erfcx,
    c_constant,
    effective_viscosity,
    eval as profile_eval,
    eval_viscosity2,
    sample_on_grid,
)

SQRT_PI = math.sqrt(math.pi)


def formula_viscosity2(t, x, cm):
    """Test-local transcription of the viscosity-2 wave with an explicit
    normalizing constant; the oracle for the closed-form constant."""
    s = x / (2.0 * math.sqrt(2.0 * t))
    integral = SQRT_PI * (1.0 + math.erf(s))
    return 2.0 * math.sqrt(2.0) / math.sqrt(t) * math.exp(-x * x / (8.0 * t)) / (
        cm + integral
    )


def mass_of_constant(cm, lim=200.0):
    val, _ = quad(lambda x: formula_viscosity2(1.0, x, cm), -lim, lim, limit=300)
    return val


def bisect_constant(target_mass, lo, hi, tol=1e-12):
    """Independent oracle: solve mass(C) = target by bisection (mass is
    decreasing in C on each branch)."""
    f_lo = mass_of_constant(lo) - target_mass
    f_hi = mass_of_constant(hi) - target_mass
    assert f_lo * f_hi < 0.0, "bisection bracket does not straddle the target"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = mass_of_constant(mid) - target_mass
        if abs(hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


class TestNormalizingConstant:
    def test_closed_value(self):
        # Inverting 4 log(1 + 2 sqrt(pi)/C) = m at m = 4 log 2 gives
        # C = 2 sqrt(pi).
        assert c_constant(4.0 * math.log(2.0)) == pytest.approx(
            2.0 * SQRT_PI, rel=1e-15
        )

    @pytest.mark.parametrize("m", [0.15, 1.0, 4.0 * math.log(2.0), 10.0])
    def test_matches_bisection_positive_mass(self, m):
        ref = bisect_constant(m, 1e-4, 1e4)
        assert c_constant(m) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("m", [-0.15, -1.0])
    def test_matches_bisection_negative_mass(self, m):
        # Negative mass lives on the branch C < -2 sqrt(pi).
        ref = bisect_constant(m, -1e4, -2.0 * SQRT_PI - 1e-6)
        assert c_constant(m) == pytest.approx(ref, rel=1e-10)
        assert c_constant(m) < -2.0 * SQRT_PI

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="zero-mass"):
            c_constant(0.0)


class TestViscosity2Wave:
    def test_value_at_origin(self):
        cm = c_constant(10.0)
        assert eval_viscosity2(1.0, 0.0, 10.0) == pytest.approx(
            2.0 * math.sqrt(2.0) / (cm + SQRT_PI), rel=1e-14
        )

    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = float(rng.uniform(0.2, 50.0))
            x = float(rng.uniform(-10.0, 10.0))
            lam = float(rng.uniform(0.2, 5.0))
            ref = eval_viscosity2(t, x, 3.0)
            scaled = eval_viscosity2(lam * lam * t, lam * x, 3.0)
            assert scaled == pytest.approx(ref / lam, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("m", [10.0, 0.5, -1.0])
    def test_mass_quadrature(self, m):
        val, _ = quad(lambda x: eval_viscosity2(1.0, x, m), -200.0, 200.0, limit=300)
        assert abs(val - m) <= 1e-6

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            eval_viscosity2(0.0, 1.0, 1.0)


def _shock_position(t, m):
    # The wave of mass m lives between x = 0 and its shock at s = -sign(m) sqrt|m/4|.
    return -math.copysign(1.0, m) * math.sqrt(abs(m) / 4.0) * 2.0 * math.sqrt(2.0 * t)


class TestExtremeMass:
    """|m/4| far beyond the overflow threshold of exp, in both signs."""

    @settings(max_examples=40, deadline=None)
    @given(
        log_q=st.floats(math.log10(700.0), 300.0),
        negative=st.booleans(),
        t=st.floats(0.01, 100.0),
    )
    def test_finite_with_the_sign_of_the_mass(self, log_q, negative, t):
        m = (-4.0 if negative else 4.0) * 10.0**log_q
        shock = _shock_position(t, m)
        xs = np.linspace(-1.5, 1.5, 301) * abs(shock)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = eval_viscosity2(t, xs, m)
            c_constant(m)
            AsymptoticProfile(mass=m, viscosity=2.0)
        assert np.all(np.isfinite(vals))
        assert np.all(math.copysign(1.0, m) * vals >= 0.0)
        assert math.copysign(1.0, m) * eval_viscosity2(t, 0.5 * shock, m) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(log_q=st.floats(0.0, 4.0), negative=st.booleans())
    # Mass +-2 at viscosity 1e-3 (m/4 = +-1000, past the overflow threshold
    # of exp), and mass -1.06 at viscosity 0.0133, where C + sqrt(pi) erfc(-s)
    # cancelled to a 0/0 profile.
    @example(log_q=3.0, negative=False)
    @example(log_q=3.0, negative=True)
    @example(log_q=math.log10(1.06 / 0.0133), negative=True)
    def test_mass_holds(self, log_q, negative):
        m = (-4.0 if negative else 4.0) * 10.0**log_q
        shock = _shock_position(1.0, m)
        lim = abs(shock) + 40.0 * math.sqrt(8.0)
        # Break points across the shock, which is thinner than quad can find.
        pieces = np.sort(
            np.concatenate([[-lim, 0.0, lim], shock + np.linspace(-4.0, 4.0, 17)])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = math.fsum(
                quad(lambda x: eval_viscosity2(1.0, x, m), lo, hi,
                     limit=400, epsabs=1e-12)[0]
                for lo, hi in zip(pieces[:-1], pieces[1:])
            )
        assert abs(val - m) <= 1e-9 * abs(m)


def erfcx_oracle(r):
    """40-digit ``exp(r^2) erfc(r)``.  mpmath's erfc raises OverflowError on
    huge arguments (1e300); past 1e50 the series' second term is below
    1e-100, so ``1/(r sqrt(pi))`` is exact to all 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(r)
        if r > 1e50:
            return float(1 / (x * mpmath.sqrt(mpmath.pi)))
        return float(mpmath.exp(x * x) * mpmath.erfc(x))


class TestErfcx:
    """The standard-library erfcx on both sides of its r = 25 switch."""

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.one_of(
            st.floats(0.0, 30.0),
            st.floats(20.0, 60.0),
            st.floats(0.0, 1e300),
            st.floats(0.0, 2.2250738585072014e-308),
        )
    )
    @example(r=0.0)
    @example(r=5e-324)
    @example(r=1e-310)
    @example(r=25.0)
    @example(r=math.nextafter(25.0, 0.0))
    @example(r=math.nextafter(25.0, math.inf))
    @example(r=24.9)  # r^2 inexact: exp(r*r) alone errs by up to r^2 eps/2
    @example(r=1e300)
    @example(r=1.7976931348623157e308)  # the largest float: no overflow
    def test_matches_mpmath(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(_erfcx(r))
        ref = erfcx_oracle(r)
        assert abs(got - ref) <= 2e-15 * ref

    def test_array_shape_and_limits(self):
        r = np.array([[0.0, 25.0], [30.0, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _erfcx(r)
        assert out.shape == r.shape
        assert out[0, 0] == 1.0
        assert out[1, 1] == 0.0
        np.testing.assert_allclose(
            out.ravel()[:3], [erfcx_oracle(v) for v in (0.0, 25.0, 30.0)],
            rtol=2e-15, atol=0.0,
        )


class TestGeneralViscosity:
    def test_reduces_to_base_formula_at_viscosity_two(self):
        wave = AsymptoticProfile(mass=10.0, viscosity=2.0)
        xs = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_allclose(
            profile_eval(wave, 1.5, xs),
            eval_viscosity2(1.5, xs, 10.0),
            rtol=1e-14,
        )

    def test_pde_residual_second_order(self):
        # The wave solves w_t = w w_x + a w_xx exactly, so the centered
        # residual decays like h^2.
        wave = AsymptoticProfile(mass=1.0, viscosity=0.8)
        for x in (-1.0, 0.3, 2.0):
            r = [abs(pde_residual(wave, 2.0, x, h)) for h in (0.2, 0.1, 0.05)]
            orders = [math.log2(r[0] / r[1]), math.log2(r[1] / r[2])]
            assert min(orders) >= 1.8

    def test_mass_at_long_time_small_viscosity(self):
        wave = AsymptoticProfile(mass=0.15, viscosity=0.03)
        t = 1e4
        val, _ = quad(
            lambda x: profile_eval(wave, t, x), -400.0, 400.0, limit=400,
            epsabs=1e-10,
        )
        assert abs(val - 0.15) <= 1e-6

    @pytest.mark.parametrize("m,sign", [(0.7, 1.0), (-0.7, -1.0)])
    def test_strict_sign(self, m, sign):
        wave = AsymptoticProfile(mass=m, viscosity=1.3)
        for t in (0.5, 5.0, 500.0):
            xs = np.linspace(-30.0, 30.0, 101)
            assert np.all(sign * profile_eval(wave, t, xs) > 0.0)

    def test_self_similar_collapse(self):
        wave = AsymptoticProfile(mass=0.15, viscosity=0.03)
        xi = np.linspace(-3.0, 3.0, 13)
        ref = None
        for t in (1.0, 10.0, 100.0):
            collapsed = math.sqrt(t) * profile_eval(wave, t, math.sqrt(t) * xi)
            if ref is None:
                ref = collapsed
            else:
                np.testing.assert_allclose(collapsed, ref, rtol=1e-10, atol=1e-12)


class TestSampling:
    def test_zero_mass_profile_samples_to_zero(self):
        wave = AsymptoticProfile(mass=0.0, viscosity=1.0)
        g = make_grid(-5.0, 5.0, 0.5)
        assert np.all(sample_on_grid(wave, g, 3.0).values == 0.0)
        assert math.isnan(wave.c_m)

    def test_center_cell_matches_pointwise_eval(self):
        wave = AsymptoticProfile(mass=10.0, viscosity=2.0)
        g = make_grid(-8.0, 8.0, 0.5)
        sampled = sample_on_grid(wave, g, 1.0)
        j = g.num_cells // 2
        x_j = g.cell_centers[j]
        assert sampled.values[j] == pytest.approx(
            profile_eval(wave, 1.0, float(x_j)), abs=1e-14
        )

    def test_sampled_mass_converges_with_mesh(self):
        # Midpoint sampling of the rapidly decaying wave converges faster
        # than any power of dx, so the refinement trend only shows on meshes
        # coarser than the wave width; fine meshes sit at the roundoff floor.
        wave = AsymptoticProfile(mass=0.7, viscosity=0.5)

        def sample_err(dx):
            g = make_grid(-30.0, 30.0, dx)
            return abs(mass(sample_on_grid(wave, g, 0.5)) - 0.7)

        assert sample_err(0.75) < sample_err(1.5)
        for dx in (0.1, 0.05):
            assert sample_err(dx) <= 1e-10


class TestEffectiveViscosity:
    def test_discrete_and_continuum(self):
        assert effective_viscosity(0.01, 0.02, 0.999) == pytest.approx(
            0.01 + 0.02 * 0.999
        )
        assert effective_viscosity(0.01, 0.02) == pytest.approx(0.03)
