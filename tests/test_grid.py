import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augburgers.grid import (
    Grid,
    GridFunction,
    PiecewiseInitial,
    make_grid,
    mass,
    norm,
    project_initial,
)
from augburgers.initial import box_pair, gaussian, sine_bumps


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

    def test_nonfinite_sample_names_cell(self):
        g = make_grid(0.0, 1.0, 0.25)

        # x = 0.5 is a quadrature node of cell 2.
        def f(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(ValueError, match="cell 2"):
            project_initial(f, g)


def simpson_per_cell(f, grid):
    """Oracle of the projection: for each piece and each cell it meets, one
    scalar composite Simpson sum (16 subintervals) on their intersection.
    A plain callable is one piece spanning the grid."""
    pieces = f.pieces if isinstance(f, PiecewiseInitial) else ((-math.inf, math.inf, f),)
    weights = [1.0] + [4.0, 2.0] * 7 + [4.0, 1.0]
    avgs = np.zeros(grid.num_cells)
    for a, b, fn in pieces:
        for j in range(grid.num_cells):
            lo = max(float(grid.faces[j]), a)
            hi = min(float(grid.faces[j + 1]), b)
            if hi > lo:
                fx = fn(np.linspace(lo, hi, 17)).tolist()
                s = sum(w * v for w, v in zip(weights, fx)) / 3.0
                avgs[j] += (hi - lo) / 16.0 * s / grid.dx
    return avgs


class Counting:
    """A piece function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def bump(x):
    return np.cos(x) + 0.5 * x


# On the grid [-4, 4] with dx = 0.25: a box edge on the face -1, a piece
# across the left grid edge, one inside a single cell and one off the grid.
PROJECTION_DATA = {
    "sines": sine_bumps(),
    "gaussian": gaussian(0.5, 1.0),
    "boxpair_edge_on_face": box_pair(1.5, -1.0, 0.3, -0.5, 0.3, 2.6),
    "across_grid_edge": PiecewiseInitial(((-5.3, -3.1, bump),)),
    "inside_one_cell": PiecewiseInitial(((0.05, 0.2, bump), (1.0, 1.25, bump))),
    "off_grid": PiecewiseInitial(((-2.0, 1.5, bump), (4.5, 9.0, bump))),
}


@pytest.mark.parametrize("name", PROJECTION_DATA)
def test_projection_matches_per_cell_oracle(name):
    datum = PROJECTION_DATA[name]
    g = make_grid(-4.0, 4.0, 0.25)
    if isinstance(datum, PiecewiseInitial):
        pieces = [(a, b, Counting(fn)) for a, b, fn in datum.pieces]
        got = project_initial(PiecewiseInitial(tuple(pieces)), g).values
    else:
        pieces = [(-math.inf, math.inf, Counting(datum))]
        got = project_initial(pieces[0][2], g).values
    want = simpson_per_cell(datum, g)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # One call per piece that meets the grid; a piece off it is not called.
    assert [fn.calls for _, _, fn in pieces] == [
        int(a < g.x_right and b > g.x_left) for a, b, _ in pieces
    ]


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
        # 1 + 2^-53 is a tie between 1 and 1 + 2^-52; the cell 2^-80 breaks
        # it upward.  fsum runs only on the partial sums of the extraction
        # and the residuals' sum, never on the terms, and the result stands
        # when those sums shifted down and up by the residual bound round to
        # the same float.
        x = [1.0, 2.0**-53, 2.0**-80]
        fsum = math.fsum
        for reduce in (mass, lambda w: norm(w, 1)):
            seen = []

            def spy(values):
                seen.append(list(values))
                return fsum(values)

            monkeypatch.setattr(math, "fsum", spy)
            total = reduce(gf(x))
            monkeypatch.undo()
            assert total == 1.0 + 2.0**-52 == oracle_sum(x)
            assert x not in seen
            first, second = seen[-2:]
            assert first[:-1] == second[:-1] and first[-1] == -second[-1] != 0.0
            assert fsum(first) == fsum(second) == total

    def test_exact_ties_round_to_even(self):
        # The residual becomes exactly zero, so the partial sums are the
        # whole sum; a tie rounds to the even neighbour either way.
        for x, want in (([1.0, 2.0**-53], 1.0),
                        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
                        ([2.0**-53, 1.0, 0.0, 0.0], 1.0)):
            assert mass(gf(x)) == want == oracle_sum(x)
            assert norm(gf(x), 1) == want

    def test_totals_on_and_near_rounding_midpoints(self):
        # Terms cancelled to an exact zero total, then a float, half its
        # ulp and a nudge of 0 or a tiny fraction of that: the exact total
        # sits on a midpoint between two floats or just off it, so the
        # certificate is defeated unless its bound is right.
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 3000))
            y = (rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n)).tolist()
            while (s := math.fsum(y)) != 0.0:
                y.append(-s)
            target = float(rng.standard_normal()) * 2.0 ** int(rng.integers(-60, 10))
            half = math.ulp(target) / 2
            nudge = half * float(rng.choice([-1.0, 0.0, 1.0])) * 2.0 ** -int(rng.integers(1, 80))
            y += [target, half * float(rng.choice([-1.0, 1.0])), nudge]
            x = np.array(y)
            rng.shuffle(x)
            assert mass(gf(x)) == oracle_sum(x)

    def test_cancellation_to_zero_and_to_tiny(self):
        for x in ([1.0, 2.0**-60, -1.0, -(2.0**-60)], [3.0, -1.0, -2.0] * 5):
            total = mass(gf(x))
            assert total == 0.0 == oracle_sum(x)
            assert math.copysign(1.0, total) == math.copysign(1.0, oracle_sum(x))
        x = [1.0, 2.0**-60, -1.0]
        assert mass(gf(x)) == 2.0**-60 == oracle_sum(x)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(1000)
        x = np.concatenate([y, -y, [2.0**-60]])
        rng.shuffle(x)
        assert mass(gf(x)) == 2.0**-60 == oracle_sum(x)

    @pytest.mark.parametrize("top", [2.0**-900, 2.0**-900 * (1.0 - 2.0**-53),
                                     2.0**900, 2.0**900 * (1.0 + 2.0**-52)])
    def test_edges_of_the_extraction_range(self, top):
        # The largest term at either edge of [2^-900, 2^900], just inside
        # and just outside, over terms spanning many binades below it.
        rng = np.random.default_rng(11)
        x = top * rng.uniform(-1.0, 1.0, 500) * 2.0 ** -rng.integers(0, 120, 500)
        x[17] = top
        assert mass(gf(x)) == oracle_sum(x)
        assert norm(gf(x), 1) == oracle_sum(np.abs(x))

    def test_all_subnormal(self):
        rng = np.random.default_rng(12)
        for x in (rng.integers(-50, 51, 300) * 5e-324,
                  rng.integers(0, 2**40, 300) * 5e-324):
            assert mass(gf(x)) == oracle_sum(x)
            assert norm(gf(x), 1) == oracle_sum(np.abs(x))

    def test_at_the_cell_cap(self):
        # 10^6 cells, the largest grid a config accepts: a signed bulk with
        # tails reaching subnormals and exact zeros.
        n = 10**6
        rng = np.random.default_rng(13)
        d = np.abs(np.arange(n) - 400_000) / 3_000.0
        with np.errstate(under="ignore"):
            x = np.exp(-0.5 * d * d) * rng.uniform(-1.0, 2.0, n)
        assert np.count_nonzero(x == 0.0) > 0
        assert mass(gf(x, dx=0.1)) == 0.1 * oracle_sum(x)
        assert norm(gf(x, dx=0.1), 2) == (0.1 * oracle_sum(x * x)) ** 0.5

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
