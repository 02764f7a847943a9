import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augburgers.flux import FluxKind, eo_flux, mlf_flux

u_vals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestEngquistOsher:
    @given(u_vals)
    @settings(max_examples=100, deadline=None)
    def test_consistency(self, u):
        assert eo_flux(u, u) == pytest.approx(0.5 * u * u, rel=1e-14, abs=1e-300)

    def test_hand_values(self):
        assert eo_flux(-1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert eo_flux(1.0, -1.0) == 0.0

    def test_monotone_in_each_slot(self):
        # Nonincreasing in the left state, nondecreasing in the right.
        lattice = np.linspace(-3.0, 3.0, 25)
        delta = 1e-3
        for a in lattice:
            for b in lattice:
                g = eo_flux(a, b)
                assert eo_flux(a + delta, b) <= g + 1e-15
                assert eo_flux(a, b + delta) >= g - 1e-15


class TestModifiedLaxFriedrichs:
    @given(u_vals)
    @settings(max_examples=100, deadline=None)
    def test_consistency(self, u):
        assert mlf_flux(u, u, 0.1, 0.05) == pytest.approx(
            0.5 * u * u, rel=1e-14, abs=1e-300
        )

    def test_hand_values(self):
        assert mlf_flux(0.0, 0.0, 0.1, 0.05) == 0.0
        assert mlf_flux(0.0, 1.0, 0.1, 0.05) == pytest.approx(0.75, abs=1e-15)

    @given(u_vals, u_vals)
    @settings(max_examples=100, deadline=None)
    def test_dissipation_is_linear_in_jump(self, a, b):
        dx, dt = 0.2, 0.04
        extra = mlf_flux(a, b, dx, dt) - (a * a + b * b) * 0.25
        assert extra == pytest.approx(dx / (4.0 * dt) * (b - a), rel=1e-12, abs=1e-12)

    def test_rejects_bad_reference_step(self):
        with pytest.raises(ValueError):
            mlf_flux(0.0, 1.0, 0.1, 0.0)


class TestViscosityForm:
    def test_rewrites_engquist_osher(self):
        # Exact identity: eo(a, b) = (a^2 + b^2)/4 + (b|b| - a|a|)/4, a
        # central flux plus an upwinding correction.
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(-5.0, 5.0, size=(100, 2)):
            lhs = eo_flux(a, b)
            rhs = (a * a + b * b) * 0.25 + (b * abs(b) - a * abs(a)) / 4.0
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)


def test_flux_kind_tags():
    assert FluxKind("eo") is FluxKind.ENGQUIST_OSHER
    assert FluxKind("mlf") is FluxKind.MODIFIED_LAX_FRIEDRICHS
