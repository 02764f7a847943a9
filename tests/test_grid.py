import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augburgers.grid import (
    Grid,
    GridFunction,
    make_grid,
    mass,
    norm,
    project_initial,
)
from augburgers.initial import sine_bumps


def gf(values, dx=1.0):
    values = np.asarray(values, dtype=float)
    return GridFunction(make_grid(0.0, len(values) * dx, dx), values)


def d_plus(w):
    """Forward difference (w_{j+1} - w_j)/dx with zero extension on the right."""
    return GridFunction(w.grid, np.diff(w.values, append=0.0) / w.grid.dx)


def d_minus(w):
    """Backward difference (w_j - w_{j-1})/dx with zero extension on the left."""
    return GridFunction(w.grid, np.diff(w.values, prepend=0.0) / w.grid.dx)


def zero_pad(w, left, right):
    """``w`` on its grid extended by ``left`` and ``right`` zero cells, which
    makes the zero extension explicit."""
    g = w.grid
    grid = Grid(
        x_left=g.x_left - left * g.dx,
        x_right=g.x_right + right * g.dx,
        dx=g.dx,
        num_cells=g.num_cells + left + right,
    )
    return GridFunction(grid, np.pad(w.values, (left, right)))


finite_arrays = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=40
)


class TestGrid:
    def test_cell_geometry(self):
        g = make_grid(-1.0, 1.0, 0.5)
        assert g.num_cells == 4
        np.testing.assert_allclose(g.cell_centers, [-0.75, -0.25, 0.25, 0.75])
        np.testing.assert_allclose(g.faces, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_inconsistent_extent(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Grid(x_left=0.0, x_right=1.0, dx=0.3, num_cells=4)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(x_left=0.0, x_right=0.5, dx=0.5, num_cells=1)

    def test_large_domain_roundoff_tolerated(self):
        g = make_grid(-160.0, 160.0, 0.1)
        assert g.num_cells == 3200


class TestGridFunction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="cell 1"):
            gf([0.0, math.nan, 1.0])

    def test_rejects_wrong_length(self):
        g = make_grid(0.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(3))


class TestProjection:
    def test_zero_function(self):
        g = make_grid(-2.0, 2.0, 0.5)
        u = project_initial(lambda x: np.zeros_like(x), g)
        assert np.all(u.values == 0.0)

    def test_constant_is_own_average(self):
        g = make_grid(0.0, 1.0, 0.25)
        u = project_initial(lambda x: np.ones_like(x), g)
        np.testing.assert_allclose(u.values, [1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_cubic_exact(self):
        # Simpson is exact for cubics; oracle is the antiderivative.
        g = make_grid(0.0, 1.0, 0.1)

        def f(x):
            return x**3 - 2.0 * x**2 + 0.5 * x - 1.0

        def antider(x):
            return x**4 / 4.0 - 2.0 * x**3 / 3.0 + 0.25 * x**2 - x

        expected = (antider(g.faces[1:]) - antider(g.faces[:-1])) / g.dx
        u = project_initial(f, g)
        np.testing.assert_allclose(u.values, expected, atol=1e-14)

    def test_default_datum_mass(self):
        # Analytic piece integrals: 0.2 - 0.05 = 0.15.
        g = make_grid(-60.0, 60.0, 0.1)
        u = project_initial(sine_bumps(), g)
        assert abs(mass(u) - 0.15) <= 1e-10

    def test_scalar_only_callable(self):
        g = make_grid(0.0, 1.0, 0.5)
        u = project_initial(lambda x: float(x) + 1.0, g)
        np.testing.assert_allclose(u.values, [1.25, 1.75], atol=1e-14)

    def test_nonfinite_sample_names_cell(self):
        g = make_grid(0.0, 1.0, 0.25)

        # x = 0.5 is a quadrature node of cell 2.
        def f(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(ValueError, match="cell 2"):
            project_initial(f, g)


class TestDifferences:
    def test_hand_example(self):
        w = gf([0.0, 1.0, 0.0], dx=0.5)
        np.testing.assert_array_equal(d_plus(w).values, [2.0, -2.0, 0.0])
        np.testing.assert_array_equal(d_minus(w).values, [0.0, 2.0, -2.0])

    def test_constant_interior(self):
        w = gf([3.0] * 6, dx=0.5)
        assert np.all(d_plus(w).values[:-1] == 0.0)
        assert np.all(d_minus(w).values[1:] == 0.0)

    @given(finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_forward_backward_norms_equal(self, values):
        # On the zero extension the two difference sequences are shifts of
        # one another, so every p-norm agrees exactly.
        w = zero_pad(gf(values, dx=0.5), 1, 1)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert norm(d_plus(w), p) == norm(d_minus(w), p)

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_second_difference(self, values):
        # On the zero extension (one explicit padding cell) the composition
        # equals the three-point second difference everywhere.
        w = zero_pad(gf(values, dx=0.25), 1, 1)
        lap = d_minus(d_plus(w)).values
        v = np.concatenate([[0.0], w.values, [0.0]])
        expected = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / 0.25**2
        np.testing.assert_allclose(lap, expected, rtol=1e-12, atol=1e-12)


class TestNorms:
    def test_single_cell(self):
        w = gf([0.0, 1.0, 0.0], dx=0.1)
        assert norm(w, 1) == pytest.approx(0.1, abs=1e-15)
        assert norm(w, math.inf) == 1.0

    def test_rejects_bad_exponent(self):
        w = gf([1.0, 2.0])
        with pytest.raises(ValueError):
            norm(w, 0.5)

    @given(
        finite_arrays,
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.sampled_from([1.0, 2.0, 4.0, math.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, values, alpha, p):
        w = gf(values, dx=0.3)
        scaled = GridFunction(w.grid, alpha * w.values)
        assert norm(scaled, p) == pytest.approx(abs(alpha) * norm(w, p), rel=1e-12, abs=1e-12)

    def test_mass_examples(self):
        assert mass(gf([0.0, 0.0, 0.0])) == 0.0
        w = gf([0.0, 2.0, 0.0], dx=0.1)
        assert mass(w) == pytest.approx(0.2, abs=1e-16)

    def test_mass_equals_l1_for_nonnegative(self):
        rng = np.random.default_rng(7)
        w = gf(rng.random(31), dx=0.2)
        assert mass(w) == norm(w, 1)


def oracle_sum(x):
    return math.fsum(np.asarray(x, dtype=float).tolist())


@st.composite
def decaying_arrays(draw):
    """Arrays shaped like solution errors: a bulk with Gaussian or exponential
    tails reaching subnormals, exact-zero margins, mixed signs, all-zero and
    all -0.0 data, and single-cell spikes."""
    n = draw(st.integers(min_value=2, max_value=3200))
    kind = draw(st.sampled_from(["gauss", "exp", "spike", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Mostly ordinary magnitudes; extremes reach the range where the head
    # split is not used.
    amp = 10.0 ** draw(st.one_of(st.floats(-20.0, 20.0), st.floats(-300.0, 100.0)))
    d = np.abs(np.arange(n) - draw(st.integers(min_value=0, max_value=n - 1)))
    if kind == "zeros":
        return np.full(n, draw(st.sampled_from([0.0, -0.0])))
    if kind == "spike":
        x = np.where(d == 0, amp, 0.0)
        if draw(st.booleans()):
            x = x + rng.random(n) * 5e-324 * 2**20
    else:
        # Scales chosen so that the far cells reach the subnormal range or
        # underflow to exact zeros.
        width = draw(st.floats(min_value=0.5, max_value=float(n)))
        with np.errstate(under="ignore"):
            if kind == "gauss":
                x = amp * np.exp(-0.5 * (d / width) ** 2)
            else:
                x = amp * np.exp(-(d / width) * 50.0)
        x = x * (1.0 + 0.1 * rng.random(n))
    if draw(st.booleans()):
        x = x * rng.choice([-1.0, 1.0], n)
    lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    if draw(st.booleans()):
        x[:lo] = 0.0
        x[hi:] = 0.0
    return x


class TestExactSums:
    """``norm`` and ``mass`` equal plain ``math.fsum`` of their terms."""

    @given(decaying_arrays(), st.sampled_from([1.0, 0.1, 0.37]))
    @settings(max_examples=300, deadline=None)
    def test_match_fsum_oracle(self, x, dx):
        w = gf(x, dx=dx)
        av = np.abs(x)
        assert mass(w) == dx * oracle_sum(x)
        assert norm(w, 1) == dx * oracle_sum(av)
        assert norm(w, 2) == (dx * oracle_sum(av * av)) ** 0.5
        assert norm(w, 3) == (dx * oracle_sum(av**3.0)) ** (1.0 / 3.0)

    def test_rounding_midpoint_takes_full_sum(self, monkeypatch):
        # 1 + 2^-53 is a tie between 1 and 1 + 2^-52; the tail 2^-80 breaks
        # it upward, so the head sums shifted by -/+ 2^-63 round apart and
        # only the full sum gives the exactly rounded total.
        x = [1.0, 2.0**-53, 2.0**-80]
        seen = []
        fsum = math.fsum

        def spy(values):
            seen.append(list(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", spy)
        total = mass(gf(x))
        l1 = norm(gf(x), 1)
        monkeypatch.undo()
        assert total == l1 == 1.0 + 2.0**-52 == oracle_sum(x)
        assert seen.count(x) == 2

    def test_mass_signed_cancellation(self):
        # The head cancels to 2^-60; the tail cell 2^-70 still shows in the
        # exactly rounded total.
        x = np.zeros(50)
        x[[3, 10, 20, 40]] = [1.0, 2.0**-60, -1.0, 2.0**-70]
        assert mass(gf(x, dx=0.5)) == 0.5 * (2.0**-60 + 2.0**-70)
        assert mass(gf(x, dx=0.5)) == 0.5 * oracle_sum(x)
        assert mass(gf(-x)) == -(2.0**-60 + 2.0**-70)

    def test_zero_data(self):
        for x in (np.zeros(7), np.full(7, -0.0)):
            assert math.copysign(1.0, mass(gf(x))) == math.copysign(1.0, oracle_sum(x))
            assert norm(gf(x), 2) == 0.0


class TestZeroPad:
    def test_values_and_extent(self):
        w = gf([1.0, 2.0], dx=0.5)
        padded = zero_pad(w, 2, 1)
        np.testing.assert_array_equal(padded.values, [0.0, 0.0, 1.0, 2.0, 0.0])
        assert padded.grid.x_left == pytest.approx(-1.0)
        assert mass(padded) == mass(w)
