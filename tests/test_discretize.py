import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    backward_round_image,
    cos_sin_turn_reference,
    direct_round_image,
    exp_reference,
    rotation_stretch_reference,
)
from quasigrid.cutproject import (
    _scaled_constraints,
    enumerate_model_set,
    iterated_scheme,
)
from quasigrid.discretize import (
    MapChain,
    _column_bounds,
    _cos_sin_turn,
    _exp,
    _input_region,
    _mink_cube_2d,
    _region_int_points,
    apply_chain,
    apply_hat,
    chain_model_witness,
    dumps_chain,
    loads_chain,
    rotation_stretch_matrix,
    sample_sl2_chain,
)
from quasigrid.errors import BudgetError, DomainError, FormatError
from quasigrid.latticeenum import _fits_int64
from quasigrid.pointset import PointSet
from quasigrid.ratmath import HALF, RMatrix, invert_matrix, round_vector
from quasigrid.rng import RngState


def int_grid(radius):
    span = range(-int(radius), int(radius) + 1)
    pts = [(Fraction(x), Fraction(y)) for x in span for y in span
           if abs(x) < radius and abs(y) < radius]
    return PointSet.build(2, pts, (0, 0), radius)


# --- Fraction reference for the dimension-2 input polygon ---------------------
#
# The polygon code as it was written on Fraction vertices, kept here only as
# the reference for the integer-vertex version in quasigrid.discretize.


def ref_hull_2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def ref_mink_cube_2d(hull, r):
    return ref_hull_2d([(x + sx * r, y + sy * r)
                        for x, y in hull for sx in (-1, 1) for sy in (-1, 1)])


REF_SNAP = Fraction(1, 1 << 13)


def ref_simplify_2d(hull):
    fat = ref_mink_cube_2d(hull, 2 * REF_SNAP)
    return ref_hull_2d([(round(x / REF_SNAP) * REF_SNAP,
                         round(y / REF_SNAP) * REF_SNAP) for x, y in fat])


def ref_input_polygon(chain, r_out, scale):
    half = Fraction(1, 2)
    region = [(-r_out, -r_out), (-r_out, r_out), (r_out, r_out), (r_out, -r_out)]
    for a in reversed(chain.matrices):
        inv = invert_matrix(a)
        region = ref_simplify_2d(ref_hull_2d(
            [tuple(inv.apply(v)) for v in ref_mink_cube_2d(region, half)]))
    return [(x * scale, y * scale) for x, y in ref_hull_2d(region)]


def ref_column_bounds(hull):
    """(x, ceil(y_lo), floor(y_hi)) for every integer column x that a convex
    polygon with Fraction vertices meets, scanned column by column."""
    out = []
    xs = [v[0] for v in hull]
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        ys = []
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            if p[0] == q[0]:
                if p[0] == x:
                    ys.extend((p[1], q[1]))
            elif min(p[0], q[0]) <= x <= max(p[0], q[0]):
                t = (Fraction(x) - p[0]) / (q[0] - p[0])
                ys.append(p[1] + t * (q[1] - p[1]))
        if ys:
            out.append((x, math.ceil(min(ys)), math.floor(max(ys))))
    return out


def ref_input_grid(hull):
    rows = [(x, y) for x, lo, hi in ref_column_bounds(hull)
            for y in range(lo, hi + 1)]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def over(den, hull):
    """The vertices of an integer polygon over den as Fractions."""
    return [(Fraction(x, den), Fraction(y, den)) for x, y in hull]


def random_convex_polygons(seed, count, span):
    """Seeded strictly convex polygons with integer vertices in
    [-span, span]^2, counterclockwise: hulls of a few random points, so
    triangles, horizontal edges and vertical edges all come up."""
    rng = RngState(seed)
    while count:
        pts = [(rng.randrange(2 * span + 1) - span,
                rng.randrange(2 * span + 1) - span)
               for _ in range(3 + rng.randrange(8))]
        hull = ref_hull_2d(pts)
        if len(hull) >= 3:
            count -= 1
            yield hull


def diag(a, b):
    return RMatrix.from_rows([[a, 0], [0, b]])


class TestApplyHat:
    def test_identity(self):
        s = int_grid(Fraction(5, 2))
        out = apply_hat(RMatrix.identity(2), s)
        assert out.points == s.points
        assert not out.complete

    def test_tie_rule(self):
        s = PointSet.build(2, [(1, 0), (2, 0)], (0, 0), 4)
        out = apply_hat(RMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]]), s)
        assert out.points == ((Fraction(0), Fraction(0)),
                              (Fraction(1), Fraction(0)))

    def test_integer_matrix_scales_exactly(self):
        s = int_grid(Fraction(3, 2))
        out = apply_hat(RMatrix.from_rows([[2, 0], [0, 3]]), s)
        expected = {(Fraction(x), Fraction(y))
                    for x in (-2, 0, 2) for y in (-3, 0, 3)}
        assert set(out.points) == expected

    def test_integer_equivariance(self):
        rng = RngState(8)
        a = RMatrix.from_rows([[2, 1], [1, 1]])
        s = int_grid(3)
        for _ in range(10):
            k = (rng.randrange(7) - 3, rng.randrange(7) - 3)
            shifted = PointSet.build(
                2, [(p[0] + k[0], p[1] + k[1]) for p in s.points],
                k, s.radius)
            lhs = apply_hat(a, shifted)
            ak = a.apply(k)
            rhs = {(p[0] + ak[0], p[1] + ak[1]) for p in apply_hat(a, s).points}
            assert set(lhs.points) == rhs

    def test_rejects_fractional_points(self):
        s = PointSet.build(1, [(Fraction(1, 2),)], (0,), 2)
        with pytest.raises(ValueError):
            apply_hat(RMatrix.identity(1), s)

    def test_past_int64_matches_pointwise(self):
        # coordinates near 2**70 put the images past int64, so the kernel
        # runs on object arrays; denominators 2 and 4 give exact ties
        a = RMatrix.from_rows([[Fraction(3, 2), Fraction(-1, 3)],
                               [Fraction(2, 7), Fraction(5, 4)]])
        big = 1 << 70
        pts = [(big + i, 3 * j - big) for i in range(-4, 5) for j in range(-4, 5)]
        s = PointSet.build(2, pts + [(0, 0), (1, -1)], (0, 0), 2 * big)
        out = apply_hat(a, s)
        assert list(out.points) == sorted({round_vector(a.apply(p))
                                           for p in s.points})
        assert not out.complete
        # an entry past int64 on a set of only the origin
        huge = RMatrix.from_rows([[1 << 70, 1], [0, Fraction(1, 3)]])
        origin = PointSet.build(2, [(0, 0)], (0, 0), 1)
        assert apply_hat(huge, origin).points == ((Fraction(0), Fraction(0)),)

    def test_incomplete_output_refused_by_analysis(self):
        from quasigrid.analysis import uniform_density

        out = apply_hat(RMatrix.identity(2), int_grid(4))
        with pytest.raises(DomainError):
            uniform_density(out, [2], Fraction(1, 100))


class TestApplyChain:
    def test_identity_chain(self):
        out = apply_chain(MapChain(2, (RMatrix.identity(2),)), Fraction(5, 2))
        assert len(out) == 25
        assert out.complete

    def test_matches_iterated_scheme(self):
        a1 = RMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        a2 = RMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        chain = MapChain(2, (a1, a2))
        direct = apply_chain(chain, 50)
        modeled = enumerate_model_set(iterated_scheme((a1, a2)), (0, 0), 50)
        assert direct.points == modeled.patch.points

    def test_halving_matches_direct_loop(self):
        # a halving map, then k = 2 and 3 rational chains at non-integer radii
        half = RMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
        shear = RMatrix.from_rows([[1, Fraction(-2, 3)], [0, 1]])
        mix = RMatrix.from_rows([[Fraction(3, 4), Fraction(1, 5)],
                                 [Fraction(-1, 2), Fraction(5, 4)]])
        turn = RMatrix.from_rows([[0, -1], [Fraction(3, 2), Fraction(1, 3)]])
        for mats, r_out in (([half], 4), ([half], Fraction(9, 2)),
                            ([shear, mix], Fraction(13, 3)),
                            ([mix, turn], Fraction(7, 2)),
                            ([half, shear, mix], Fraction(11, 4)),
                            ([turn, mix, shear], Fraction(17, 5))):
            out = apply_chain(MapChain(2, tuple(mats)), r_out)
            assert list(out.points) == direct_round_image(mats, r_out, margin=2)

    def test_one_dimensional_chain(self):
        for entries in ([Fraction(3, 2)], [Fraction(-5, 3)],
                        [Fraction(3, 2), Fraction(-2, 7)],
                        [Fraction(-5, 3), Fraction(2, 7), Fraction(-9, 4)]):
            mats = [RMatrix.from_rows([[e]]) for e in entries]
            out = apply_chain(MapChain(1, tuple(mats)), 10)
            assert list(out.points) == direct_round_image(mats, 10), entries

    def test_three_dimensional_chain(self):
        # n >= 3 takes the box-preimage fallback instead of polygons
        ident = apply_chain(MapChain(3, (RMatrix.identity(3),)), Fraction(3, 2))
        assert len(ident) == 27
        a = RMatrix.from_rows([
            [Fraction(1, 2), 0, 0], [0, 1, Fraction(1, 3)], [0, 0, Fraction(5, 4)],
        ])
        out = apply_chain(MapChain(3, (a,)), 3)
        assert list(out.points) == direct_round_image([a], 3, margin=2)

    def test_deeper_cascades_match_model_sets(self):
        rng = RngState(29)
        from quasigrid.cli import _random_invertible

        for _ in range(3):
            mats = tuple(_random_invertible(rng, 2, 6) for _ in range(4))
            assert chain_model_witness(MapChain(2, mats), 12) is None

    def test_off_center_cascade_enumeration(self):
        a1 = RMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        a2 = RMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        scheme = iterated_scheme((a1, a2))
        full = apply_chain(MapChain(2, (a1, a2)), 40)
        center = (Fraction(21, 2), Fraction(-7))
        shifted = enumerate_model_set(scheme, center, 5)
        expected = [p for p in full.points
                    if abs(p[0] - center[0]) < 5 and abs(p[1] - center[1]) < 5]
        assert list(shifted.patch.points) == expected

    def test_soundness_with_doubled_margin(self):
        rng = RngState(17)
        from quasigrid.cli import _random_invertible

        for i in range(8):
            mats = tuple(_random_invertible(rng, 2, 6) for _ in range(2 + i % 2))
            chain = MapChain(2, mats)
            for r_out in (15, Fraction(29, 4)):
                got = apply_chain(chain, r_out)
                assert list(got.points) == backward_round_image(mats, r_out)

    def test_random_chains_match_model_sets(self):
        # the central cross-validation: both pipelines, exact set equality
        rng = RngState(23)
        from quasigrid.cli import _random_invertible

        for i in range(20):
            k = 1 + rng.randrange(3)
            mats = tuple(_random_invertible(rng, 2, 8) for _ in range(k))
            assert chain_model_witness(MapChain(2, mats), 50) is None, i

    def test_budget_errors_name_the_grid_and_limit(self, monkeypatch):
        plane = MapChain(2, (RMatrix.identity(2),))
        # 21 columns of 21 points each at r_out = 10
        monkeypatch.setenv("QUASIGRID_BUDGET", "5")
        with pytest.raises(BudgetError, match="21 columns, more than 5 "):
            apply_chain(plane, 10)
        monkeypatch.setenv("QUASIGRID_BUDGET", "100")
        with pytest.raises(BudgetError, match="441 points, more than 100 "):
            apply_chain(plane, 10)
        space = MapChain(3, (RMatrix.identity(3),))
        with pytest.raises(BudgetError, match="343 points, more than 100 "
                           r"\(raise QUASIGRID_BUDGET to override\)"):
            apply_chain(space, 3)
        monkeypatch.setenv("QUASIGRID_BUDGET", "441")
        assert len(apply_chain(plane, 10)) == 19 * 19

    @pytest.mark.parametrize("k", [6, 8])
    def test_long_random_chains_match_model_sets(self, k):
        # iterated schemes of dimension 2 (k + 1) = 14 and 18
        from quasigrid.cli import _random_invertible

        rng = RngState(31)
        mats = tuple(_random_invertible(rng, 2, 4) for _ in range(k))
        assert chain_model_witness(MapChain(2, mats), 8) is None


class TestInputPolygon:
    """The integer-vertex input polygon against the Fraction reference."""

    @staticmethod
    def scaled_region(chain, r_out, scale):
        # the input polygon scaled about the origin, on integer vertices
        # over one denominator, so the column walk also sees scaled polygons
        den, verts = _input_region(chain, Fraction(r_out))
        s, t = Fraction(scale).as_integer_ratio()
        return den * t, [(x * s, y * s) for x, y in verts]

    @classmethod
    def assert_matches(cls, chain, r_out, scale=1):
        r_out, scale = Fraction(r_out), Fraction(scale)
        # every map's preimage ends on the 1/8192 grid of the reference
        assert _input_region(chain, r_out)[0] == REF_SNAP.denominator
        region = cls.scaled_region(chain, r_out, scale)
        expected = ref_input_polygon(chain, r_out, scale)
        den, verts = region
        assert [(Fraction(x, den), Fraction(y, den)) for x, y in verts] == expected
        got = _region_int_points(region, 2, 10**7)
        assert np.array_equal(got, ref_input_grid(expected))

    @pytest.mark.parametrize("k, r_out", [
        (1, 21), (2, Fraction(7, 3)), (5, Fraction(5, 7)), (12, 9), (20, 21),
    ])
    def test_sl2_chains(self, k, r_out):
        chain = sample_sl2_chain(RngState(200 + k), k)
        self.assert_matches(chain, r_out)
        self.assert_matches(chain, r_out, Fraction(3, 2))

    def test_seeded_sl2_chains(self):
        # a map inverts to a clockwise polygon only if det < 0, which SL2
        # maps never have, so also run each chain behind a reflection
        flip = RMatrix.from_rows([[0, 1], [1, 0]])
        for i in range(12):
            chain = sample_sl2_chain(RngState(300 + i), 1 + i % 4)
            r_out = (Fraction(3), Fraction(11, 4), Fraction(1, 3))[i % 3]
            self.assert_matches(chain, r_out)
            self.assert_matches(MapChain(2, (flip,) + chain.matrices), r_out)

    def test_random_rational_chains(self):
        # entries p/q with |p| <= 2q, so zeros and negatives come up
        from quasigrid.cli import _random_invertible

        rng = RngState(41)
        for i in range(16):
            mats = tuple(_random_invertible(rng, 2, 6) for _ in range(1 + i % 4))
            chain = MapChain(2, mats)
            self.assert_matches(chain, Fraction(7, 3))
            self.assert_matches(chain, Fraction(5, 7), Fraction(3, 2))

    def test_zero_and_negative_entries(self):
        mats = (
            RMatrix.from_rows([[0, Fraction(-3, 2)], [Fraction(2, 5), 0]]),
            RMatrix.from_rows([[-1, 0], [Fraction(1, 3), -2]]),
            RMatrix.from_rows([[Fraction(-5, 4), 1], [0, Fraction(3, 7)]]),
        )
        for k in (1, 2, 3):
            for r_out in (Fraction(7, 3), Fraction(5, 7), 6):
                self.assert_matches(MapChain(2, mats[:k]), r_out)
                self.assert_matches(MapChain(2, mats[-k:]), r_out, Fraction(3, 2))

    def test_axis_parallel_edges(self):
        # identity and diagonal maps keep vertical edges; at r_out
        # 5/2 - 2**-12 they sit exactly on the columns x = -3 and x = 3
        for mats in ((RMatrix.identity(2),),
                     (diag(2, Fraction(1, 3)),),
                     (diag(Fraction(-3, 2), Fraction(5, 4)), RMatrix.identity(2))):
            for r_out in (Fraction(7, 3), Fraction(5, 7), Fraction(10239, 4096), 4):
                for scale in (1, Fraction(3, 2)):
                    self.assert_matches(MapChain(2, mats), r_out, scale)
        den, verts = _input_region(MapChain(2, (RMatrix.identity(2),)),
                                   Fraction(10239, 4096))
        assert sorted({Fraction(x, den) for x, _ in verts}) == [-3, 3]

    def test_snap_tie_goes_to_even(self):
        # at r_out = 2**-14 the x extent 2**-14 + 1/2 + 2**-12 is exactly
        # halfway between the grid points (2**12 + 2) / 2**13 and
        # (2**12 + 3) / 2**13; round() picks the even one, and scaling the
        # region by 2732 puts the two choices on either side of x = 1367
        chain = MapChain(2, (diag(1, 8192),))
        r_out = Fraction(1, 1 << 14)
        den, verts = _input_region(chain, r_out)
        assert (den, max(x for x, _ in verts)) == (8192, 4096 + 2)
        self.assert_matches(chain, r_out)
        self.assert_matches(chain, r_out, 2732)
        grid = _region_int_points(self.scaled_region(chain, r_out, 2732),
                                  2, 10**7)
        assert grid[:, 0].max() == 1366


class TestPolygonKernels:
    """The one-pass inflation and the per-edge column walk against their
    references: the hull of all 4n corners and a Fraction column scan."""

    def test_mink_cube_matches_hull_of_corners(self):
        seen = {"vertical": 0, "horizontal": 0, "triangle": 0}
        polygons = list(random_convex_polygons(61, 60, 6))
        polygons += [[(0, 0), (4, 0), (4, 3), (0, 3)], [(0, 0), (1, 0), (0, 1)],
                     [(-2, 0), (0, -3), (2, 0), (0, 3)]]
        rng = RngState(62)
        for poly in polygons:
            edges = list(zip(poly, poly[1:] + poly[:1]))
            seen["vertical"] += any(p[0] == q[0] for p, q in edges)
            seen["horizontal"] += any(p[1] == q[1] for p, q in edges)
            seen["triangle"] += len(poly) == 3
            for r in (1 + rng.randrange(9), 9):
                expected = set(ref_mink_cube_2d(poly, r))
                # both orientations, from every starting vertex
                for turned in (poly, poly[::-1]):
                    for start in range(len(turned)):
                        got = _mink_cube_2d(turned[start:] + turned[:start], r)
                        assert len(got) == len(set(got)), (poly, r)
                        assert set(got) == expected, (turned, start, r)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("den", [1, 2, 3, 8192])
    def test_column_bounds_match_fraction_scan(self, den):
        # polygons over den with a few columns each, plus rectangles and a
        # triangle whose vertical edges sit on and between integer columns
        polygons = [[(x * den // 2, y * den // 2) for x, y in poly]
                    for poly in random_convex_polygons(63 + den, 40, 12)]
        polygons += [[(5, -den), (5 + 4 * den, -den), (5 + 4 * den, 2 * den),
                      (5, 2 * den)],
                     [(-2 * den, 1), (3 * den, 1), (3 * den, 7), (-2 * den, 7)],
                     [(den // 2, 0), (den // 2 + 3 * den, 1), (den // 2, 5 * den)]]
        for hull in polygons:
            for turned in (hull, hull[::-1]):
                x_lo, lows, highs = _column_bounds((den, turned), 10**6)
                got = [(x_lo + i, a, b) for i, (a, b) in enumerate(zip(lows, highs))]
                assert got == ref_column_bounds(over(den, turned)), (den, turned)

    def test_column_budget_error(self):
        # x runs from -7/2 to 3, so the columns are x = -3..3
        triangle = (2, [(-7, 0), (6, -1), (6, 1)])
        with pytest.raises(BudgetError, match="would span 7 columns, more than 6 "):
            _column_bounds(triangle, 6)
        assert _column_bounds(triangle, 7)[0] == -3

    @pytest.mark.parametrize("den", [1, 3, 8192])
    def test_region_points_match_tuple_enumeration(self, den):
        polygons = [[(x * den // 3, y * den // 3) for x, y in poly]
                    for poly in random_convex_polygons(67 + den, 30, 15)]
        if den > 1:
            # a sliver between two columns holds no integer point
            polygons.append([(den // 3, 0), (2 * den // 3, 0), (den // 2, den)])
        for hull in polygons:
            bounds = ref_column_bounds(over(den, hull))
            rows = [(x, y) for x, a, b in bounds for y in range(a, b + 1)]
            got = _region_int_points((den, hull), 2, 10**6)
            assert got.dtype == np.int64 and got.shape == (len(rows), 2)
            assert list(map(tuple, got.tolist())) == rows
            # the column count is checked first, then the point count
            cols = len(bounds)
            for budget in (cols - 1, len(rows) - 1):
                what = (f"span {cols} columns" if cols > budget
                        else f"hold {len(rows)} points")
                with pytest.raises(BudgetError, match=(
                        rf"input grid for the chain would {what}, "
                        rf"more than {budget} \(raise QUASIGRID_BUDGET")):
                    _region_int_points((den, hull), 2, budget)
            budget = max(cols, len(rows))
            assert len(_region_int_points((den, hull), 2, budget)) == len(rows)


class TestSl2Sampler:
    def test_deterministic_in_seed(self):
        a = sample_sl2_chain(RngState(42), 3)
        b = sample_sl2_chain(RngState(42), 3)
        assert a == b
        c = sample_sl2_chain(RngState(43), 3)
        assert a != c

    def test_zero_parameters_give_identity(self):
        assert rotation_stretch_matrix(
            Fraction(0), Fraction(0), Fraction(0)) == RMatrix.identity(2)

    def test_determinants_near_one(self):
        chain = sample_sl2_chain(RngState(42), 5)
        for m in chain.matrices:
            assert abs(m.determinant() - 1) < Fraction(1, 10**6)
            for row in m.entries:
                for e in row:
                    assert e.denominator <= 2**32
                    assert abs(e) < 2  # bounded by e^(1/2) * sqrt(2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_sl2_chain(RngState(1), 0)

    def test_series_against_float_libm(self):
        for f in (Fraction(1, 8), Fraction(1, 3), Fraction(7, 16)):
            c, s, q = _cos_sin_turn(f)
            assert abs(float(Fraction(c, q)) - math.cos(2 * math.pi * float(f))) < 1e-12
            assert abs(float(Fraction(s, q)) - math.sin(2 * math.pi * float(f))) < 1e-12
        for t in (Fraction(-1, 2), Fraction(1, 5), Fraction(1, 2)):
            plus, minus, q = _exp(t)
            assert abs(float(Fraction(plus, q)) - math.exp(float(t))) < 1e-12
            assert abs(float(Fraction(minus, q)) - math.exp(-float(t))) < 1e-12


    def test_series_equal_fraction_reference(self):
        # the unreduced integer-numerator series give the very Fractions of
        # the plain Fraction series, cosine and sine over one denominator
        # and e^t and e^-t over another, and the entries their
        # round()-quantization
        edges = [Fraction(0), HALF, -HALF, Fraction(1, 4), Fraction(-1, 4),
                 Fraction(3, 4), Fraction(1, 1 << 32), HALF - Fraction(1, 1 << 32)]
        rng = RngState(77)
        turns = edges + [rng.unit() for _ in range(300)]
        stretches = [Fraction(0), HALF, -HALF] + [rng.unit() - HALF
                                                 for _ in range(300)]
        for f in turns:
            c, s, q = _cos_sin_turn(f)
            assert (Fraction(c, q), Fraction(s, q)) == cos_sin_turn_reference(f), f
        for t in stretches:
            plus, minus, q = _exp(t)
            assert Fraction(plus, q) == exp_reference(t), t
            assert Fraction(minus, q) == exp_reference(-t), t
        triples = [(f, t, g) for f in edges for t in stretches[:3]
                   for g in edges[::3]]
        triples += list(zip(turns[8:108], stretches[3:103], turns[108:208]))
        for turn1, stretch, turn2 in triples:
            m = rotation_stretch_matrix(turn1, stretch, turn2)
            assert ([list(row) for row in m.entries]
                    == rotation_stretch_reference(turn1, stretch, turn2)), (
                turn1, stretch, turn2)


class TestChainFormat:
    def test_round_trip(self):
        chain = sample_sl2_chain(RngState(9), 2)
        text = dumps_chain(chain)
        again = loads_chain(text)
        assert again == chain
        assert dumps_chain(again) == text

    @pytest.mark.parametrize(
        "text",
        [
            "chain 1\n1\n",
            "chain 0 2\n",
            "chain 1 2\n1 0\n",
            "chain 1 2\n1 0\n0 0.5\n",
            "chain 1 2\n1 0\n0 0\n",  # singular
            "chain 1 2\n1 -0\n0 1\n",  # signed zero
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            loads_chain(text)


class TestWitness:
    def test_agreement_returns_none(self):
        chain = MapChain(2, (RMatrix.identity(2),))
        assert chain_model_witness(chain, 10) is None

    @pytest.mark.parametrize("k, radius", [(1, 4), (2, 5), (3, 4)])
    def test_sl2_chain_agrees(self, k, radius):
        # entries with denominator 2**32 push the iterated scheme's integer
        # system past int64, so this runs the solver on Python ints
        chain = sample_sl2_chain(RngState(100 + k), k)
        scheme = iterated_scheme(chain.matrices)
        cons, _ = _scaled_constraints(scheme, scheme.window.boxes[0],
                                      (Fraction(0),) * 2, Fraction(radius))
        assert not _fits_int64(cons)
        assert chain_model_witness(chain, radius) is None

    def test_corrupted_window_yields_boundary_witness(self):
        # closing the lower window face admits both roundings of exact ties;
        # with a non-surjective stretch the spurious rounding is a new point
        from quasigrid.cutproject import CutProjectScheme, Window
        from quasigrid.ratmath import IntervalBox

        a = RMatrix.from_rows([[Fraction(3, 2), 0], [0, 1]])
        chain = MapChain(2, (a,))
        good = iterated_scheme((a,))
        half = Fraction(1, 2)
        bad_box = IntervalBox.closed([-half, -half], [half, half])
        bad = CutProjectScheme(good.m, good.n, good.basis,
                               Window(good.m, (bad_box,)))
        direct = apply_chain(chain, 10)
        assert chain_model_witness(chain, 10) is None
        modeled = enumerate_model_set(bad, (0, 0), 10).patch
        witness = min(set(direct.points) ^ set(modeled.points))
        # the witness is a tie artifact: its first coordinate is 2 mod 3
        assert witness[0] % 3 == 2
