import io
import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from quasigrid.errors import DimensionMismatchError, DomainError, FormatError
from quasigrid.pointset import (
    PointSet,
    _PointView,
    _min_pairwise_distance,
    delone_estimate,
    dumps_qps,
    loads_qps,
    read_qps,
    restrict,
    sym_diff,
    translate,
    write_qps,
)
from quasigrid.rng import RngState
from oracles import (DENOMINATORS, canonical_points, common_ball,
                     min_pairwise_distance, random_rational)


def line(lo, hi, step=1, radius=None, center=0):
    pts = [(Fraction(v),) for v in range(lo, hi + 1, step)]
    radius = Fraction(radius if radius is not None else max(abs(lo), abs(hi)) + 1)
    return PointSet.build(1, pts, (Fraction(center),), radius)


def grid2(radius):
    span = range(-int(radius), int(radius) + 1)
    pts = [(Fraction(x), Fraction(y)) for x in span for y in span
           if abs(x) < radius and abs(y) < radius]
    return PointSet.build(2, pts, (0, 0), radius)


class TestBuild:
    def test_canonical_sorted_dedup(self):
        s = PointSet.build(1, [(2,), (1,), (2,)], (0,), 5)
        assert s.points == ((Fraction(1),), (Fraction(2),))

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            PointSet.build(1, [(5,)], (0,), 5)  # open ball excludes the rim

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.build(2, [(1,)], (0, 0), 5)


class TestTranslate:
    def test_identity_and_shift(self):
        s = PointSet.build(2, [(0, 0), (1, 0)], (0, 0), 3)
        assert translate(s, (0, 0)).points == s.points
        moved = translate(PointSet.build(2, [(0, 0)], (0, 0), 2), (2, 3))
        assert moved.points == ((Fraction(2), Fraction(3)),)
        assert moved.center == (2, 3)

    def test_grid_shift(self):
        s = grid2(Fraction(5, 2))
        moved = translate(s, (1, 0))
        assert len(moved) == 25
        assert moved.center == (1, 0)

    def test_round_trip(self):
        s = line(-6, 6)
        back = translate(translate(s, (Fraction(3, 2),)), (Fraction(-3, 2),))
        assert back.points == s.points and back.center == s.center


class TestSymDiff:
    def test_self_is_empty(self):
        s = line(-5, 5)
        assert len(sym_diff(s, s)) == 0

    def test_small_example(self):
        a = PointSet.build(1, [(0,), (1,), (2,)], (0,), 5)
        b = PointSet.build(1, [(0,), (2,), (4,)], (0,), 5)
        d = sym_diff(a, b)
        assert [p[0] for p in d.points] == [1, 4]

    def test_odd_integers(self):
        evens = line(-8, 8, 2, radius=10)
        integers = line(-9, 9, 1, radius=10)
        d = sym_diff(integers, evens)
        assert [p[0] for p in d.points] == list(range(-9, 10, 2))
        assert len(d) == 10

    def test_commutative_and_empty_neutral(self):
        a = line(-6, 6, 2, radius=8)
        b = line(-5, 7, 3, radius=8)
        assert sym_diff(a, b).points == sym_diff(b, a).points
        empty = PointSet.build(1, [], (0,), 8)
        assert sym_diff(a, empty).points == a.points

    def test_cardinality_against_naive_loops(self):
        rng = RngState(40)
        for _ in range(50):
            pa = [(Fraction(rng.randrange(17) - 8),) for _ in range(8)]
            pb = [(Fraction(rng.randrange(17) - 8),) for _ in range(8)]
            a = PointSet.build(1, pa, (0,), 10)
            b = PointSet.build(1, pb, (0,), 10)
            d = sym_diff(a, b)
            only_a = sum(1 for p in a.points if p not in b.points)
            only_b = sum(1 for p in b.points if p not in a.points)
            assert len(d) == only_a + only_b

    def test_disjoint_domains_error(self):
        a = PointSet.build(1, [(0,)], (0,), 1)
        b = PointSet.build(1, [(10,)], (10,), 1)
        with pytest.raises(DomainError):
            sym_diff(a, b)


class TestRestrict:
    def test_three_by_three(self):
        s = grid2(Fraction(5, 2))
        inner = restrict(s, (0, 0), Fraction(3, 2))
        assert len(inner) == 9

    def test_own_domain_identity(self):
        s = line(-7, 7, radius=8)
        assert restrict(s, s.center, s.radius).points == s.points

    def test_exceeding_domain_errors(self):
        s = line(-9, 9, radius=10)
        with pytest.raises(DomainError):
            restrict(s, (Fraction(97, 10),), 1)


class TestDeloneEstimate:
    def test_unit_grid(self):
        s = grid2(Fraction(11, 2))
        pair = delone_estimate(s)
        assert pair.r_gamma == Fraction(1, 2)
        assert pair.R_gamma == Fraction(1, 2)

    def test_even_integers(self):
        s = line(-8, 8, 2, radius=10)
        pair = delone_estimate(s)
        assert pair.r_gamma == 1
        assert pair.R_gamma == 1

    def test_gap_example(self):
        s = PointSet.build(1, [(0,), (1,), (5,)], (0,), 6)
        pair = delone_estimate(s)
        assert pair.r_gamma == Fraction(1, 2)
        assert pair.R_gamma == 2

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            delone_estimate(PointSet.build(1, [(0,)], (0,), 2))

    def test_covering_estimate_dominates_packing(self):
        rng = RngState(3)
        for _ in range(30):
            pts = {(Fraction(rng.randrange(41) - 20),
                    Fraction(rng.randrange(41) - 20)) for _ in range(12)}
            s = PointSet.build(2, pts, (0, 0), 25)
            pair = delone_estimate(s)
            assert pair.R_gamma >= pair.r_gamma > 0

    def test_matches_fraction_grid_sweep(self):
        # the definition in the docstring, swept on Fractions
        def reference(pts):
            dist = lambda p, q: max(abs(a - b) for a, b in zip(p, q))
            r = min(dist(p, q) for p in pts for q in pts if p != q) / 2
            axes = []
            for i in range(len(pts[0])):
                a, b = min(p[i] for p in pts), max(p[i] for p in pts)
                axes.append([a + k * r for k in range(int((b - a) / r) + 1)] + [b])
            big = max(min(dist(p, x) for p in pts) for x in product(*axes))
            return r, max(big, r)

        rng = RngState(11)
        for trial in range(32):
            dim = 1 + trial % 3
            # mixed denominators 1-3 in dim 1, 1-2 in dim 2 and 1 in dim 3,
            # or all 2**-32
            tiny = (trial // 2) % 3 == 2
            pts = {tuple(Fraction(rng.randrange(9) - 4,
                                  1 << 32 if tiny else 1 + rng.randrange(4 - dim))
                         for _ in range(dim))
                   for _ in range(2 + rng.randrange(8))}
            if len(pts) < 2:
                continue
            s = PointSet.build(dim, pts, (0,) * dim, 5)
            pair = delone_estimate(s)
            assert (pair.r_gamma, pair.R_gamma) == reference(s.points), trial


class TestMinPairwiseDistance:
    def test_matches_brute_force_pairs(self):
        # mixed denominators up to 2**-32, repeated points, dimensions 1-3
        rng = RngState(29)
        dens = (1, 2, 3, 7, 1 << 32)
        for case in range(90):
            dim = 1 + case % 3
            pts = [tuple(Fraction(rng.randrange(41) - 20, dens[rng.randrange(5)])
                         for _ in range(dim))
                   for _ in range(2 + rng.randrange(15))]
            pts += pts[:1 + rng.randrange(3)]
            s = PointSet.build(dim, pts, (0,) * dim, 21)
            if len(s) < 2:
                continue
            assert (_min_pairwise_distance(*s._keys)
                    == min_pairwise_distance(pts)), case


class TestQpsFormat:
    def test_empty_set_bytes(self):
        s = PointSet.build(2, [], (0, 0), 1)
        assert dumps_qps(s) == "qps 1\ndim 2\ndomain 0 0 1\n"

    def test_round_trip_bytes(self):
        s = PointSet.build(
            2,
            [(Fraction(1, 3), Fraction(-2)), (0, 0), (Fraction(-5, 7), 1)],
            (Fraction(1, 2), 0),
            Fraction(7, 2),
        )
        text = dumps_qps(s)
        again = loads_qps(text)
        assert again == s
        assert dumps_qps(again) == text

    def test_stream_and_path(self, tmp_path):
        s = PointSet.build(1, [(1,), (2,)], (0,), 4)
        buf = io.StringIO()
        write_qps(buf, s)
        assert loads_qps(buf.getvalue()) == s
        path = tmp_path / "pts.qps"
        write_qps(path, s)
        assert read_qps(path) == s

    @pytest.mark.parametrize(
        "text",
        [
            "qps 2\ndim 1\ndomain 0 2\n",            # bad magic
            "qps 1\ndim 0\ndomain 2\n",              # bad dim
            "qps 1\ndim 1\ndomain 0\n",              # missing radius
            "qps 1\ndim 1\ndomain 0 2\n2/4\n",       # unreduced token
            "qps 1\ndim 1\ndomain 0 2\n0.5\n",       # float token
            "qps 1\ndim 1\ndomain 0 2\n1\n0\n",      # unsorted points
            "qps 1\ndim 1\ndomain 0 2\n5\n",         # out of domain
            "qps 1\ndim 1\ndomain 0 2\n1 2\n",       # wrong coordinate count
            "qps 1\ndim 1\ndomain 0 2",              # missing trailing newline
            "qps 1\ndim 1\ndomain 0 2\n1\n1\n",      # duplicated point
            "qps 1\ndim 1\ndomain 0 2\n1/2\n1/3\n",  # mixed denominators, unsorted
            "qps 1\ndim 2\ndomain 0 0 2\n1/3 1\n1/3 1/2\n",  # second axis unsorted
            "qps 1\ndim 1\ndomain 0 2\n-0\n1\n",     # signed zero in a point
            "qps 1\ndim 2\ndomain 0 0 2\n0 1\n1 -0\n",  # ... on the second axis
            "qps 1\ndim 1\ndomain -0 2\n0\n1\n",     # signed zero in the domain
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            loads_qps(text)

    @pytest.mark.parametrize("body, message", [
        ("1/2\n2/4\n", "rational token not in lowest terms: '2/4'"),
        ("1/3\n3/1\n", "rational token not in lowest terms: '3/1'"),
        ("1\n-0\n", "not a canonical rational token: '-0'"),
        ("2/4\n1 2\n", "rational token not in lowest terms: '2/4'"),
        ("1/2\n1\n1/3 1\n", "point line has 2 coordinates, not 1"),
    ])
    def test_names_the_first_bad_point_token(self, body, message):
        with pytest.raises(FormatError) as err:
            loads_qps("qps 1\ndim 1\ndomain 0 2\n" + body)
        assert str(err.value) == message

    def test_incomplete_sets_not_serializable(self):
        s = PointSet.build(1, [(0,)], (0,), 2, complete=False)
        with pytest.raises(DomainError):
            dumps_qps(s)


# --- differential test against the definition -------------------------------

def random_input_point(rng, p):
    """The same point as Fractions, ints where integral, a list or a mix."""
    form = rng.randrange(4)
    if form == 0:
        return p
    if form == 1:
        return [c for c in p]
    return tuple(int(c) if c.denominator == 1 and (form == 2 or i % 2) else c
                 for i, c in enumerate(p))


def random_set(rng, dim, dens, rim=False):
    """(points as given to build, center, radius); every point is strictly
    inside the ball, unless rim puts one exactly on its boundary."""
    center = tuple(random_rational(rng, dens, 3) for _ in range(dim))
    radius = abs(random_rational(rng, dens, 4)) + Fraction(1, 2)
    pts = []
    for _ in range(rng.randrange(25)):
        p = tuple(c + random_rational(rng, dens, 4) for c in center)
        if all(abs(a - c) < radius for a, c in zip(p, center)):
            pts.append(p)
    pts += pts[:rng.randrange(4)]  # duplicates
    if rim:
        axis = rng.randrange(dim)
        p = list(center)
        p[axis] += radius if rng.randrange(2) else -radius
        pts.insert(rng.randrange(len(pts) + 1), tuple(p))
    return [random_input_point(rng, p) for p in pts], center, radius


def expect_set(s, dim, points, center, radius):
    assert s.dim == dim
    assert s.points == tuple(canonical_points(dim, points, center, radius))
    assert all(type(p) is tuple for p in s.points)
    assert all(type(c) is Fraction for p in s.points for c in p)
    assert s.center == tuple(center) and s.radius == radius


class TestAgainstDefinition:
    """build, translate, sym_diff, restrict and the QPS round trip against
    sorted(set(points)) plus an exact inf-norm check, on seeded random sets
    with mixed, 2^-32, negative and zero coordinates in dims 1-3."""

    def test_seeded(self):
        rng = RngState(606)
        rims = zeros = negatives = 0
        for trial in range(300):
            dim = 1 + trial % 3
            dens = DENOMINATORS[(trial // 3) % 3]
            rim = rng.randrange(6) == 0
            pts, center, radius = random_set(rng, dim, dens, rim)
            if rim:
                rims += 1
                with pytest.raises(DomainError):
                    canonical_points(dim, pts, center, radius)
                with pytest.raises(DomainError):
                    PointSet.build(dim, pts, center, radius)
                continue
            s = PointSet.build(dim, pts, center, radius)
            expect_set(s, dim, pts, center, radius)
            zeros += sum(c == 0 for p in s.points for c in p)
            negatives += sum(c < 0 for p in s.points for c in p)

            again = loads_qps(dumps_qps(s))
            assert again == s and dumps_qps(again) == dumps_qps(s)

            v = tuple(random_rational(rng, DENOMINATORS[rng.randrange(3)], 3)
                      for _ in range(dim))
            moved = translate(s, v)
            shifted = [tuple(a + b for a, b in zip(p, v)) for p in s.points]
            expect_set(moved, dim, shifted, tuple(a + b for a, b in
                                                  zip(center, v)), radius)

            # a second set on its own scale and center
            other = DENOMINATORS[rng.randrange(3)]
            qts, c2, r2 = random_set(rng, dim, other)
            t = PointSet.build(dim, qts, c2, r2)
            for a, b in ((s, t), (moved, s), (t, moved)):
                try:
                    mid, rad = common_ball(a.center, a.radius, b.center, b.radius)
                except DomainError:
                    with pytest.raises(DomainError):
                        sym_diff(a, b)
                    continue
                inside = [p for p in set(a.points) ^ set(b.points)
                          if max(abs(x - y) for x, y in zip(p, mid)) < rad]
                d = sym_diff(a, b)
                expect_set(d, dim, inside, mid, rad)
                assert d.complete

            sub_c = tuple(c + random_rational(rng, other, 1) / 4
                          for c in center)
            sub_r = radius - max(abs(a - b) for a, b in zip(sub_c, center))
            if sub_r > 0:
                sub_r = sub_r * (1 + rng.randrange(4)) / 4
                inner = [p for p in s.points
                         if max(abs(a - b) for a, b in zip(p, sub_c)) < sub_r]
                expect_set(restrict(s, sub_c, sub_r), dim, inner, sub_c, sub_r)
                expect_set(restrict(moved, tuple(a + b for a, b in
                                                 zip(sub_c, v)), sub_r),
                           dim, [tuple(a + b for a, b in zip(p, v))
                                 for p in inner],
                           tuple(a + b for a, b in zip(sub_c, v)), sub_r)
        assert rims > 20 and zeros > 20 and negatives > 200

    def test_directly_made_sets(self):
        # a PointSet made without build (dataclasses.replace) works on its
        # own points
        s = PointSet.build(1, [(Fraction(1, 3),), (Fraction(1, 2),)], (0,), 1)
        t = replace(s, points=((Fraction(-1, 5),), (Fraction(1, 2),)))
        assert sym_diff(s, t).points == ((Fraction(-1, 5),), (Fraction(1, 3),))
        assert translate(t, (Fraction(1, 7),)).points == (
            (Fraction(-2, 35),), (Fraction(9, 14),))

    def test_rejects_wrong_dimension_and_floats(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.build(2, [(Fraction(1, 2), 0), (1, 2, 3)], (0, 0), 5)
        with pytest.raises(TypeError):
            PointSet.build(1, [(0.5,)], (0,), 5)


class TestKeyView:
    """Sets whose points are integer keys against sets built from Fractions:
    equal whatever scale the keys were made on, in dims 1-3 and with
    denominators 1, mixed 2-7 and 2^-32."""

    def test_keys_on_any_scale_give_the_same_set(self):
        rng = RngState(818)
        for trial in range(120):
            dim = 1 + trial % 3
            pts, center, radius = random_set(rng, dim, DENOMINATORS[(trial // 3) % 3])
            s = PointSet.build(dim, pts, center, radius)
            points = [tuple(map(Fraction, p)) for p in pts]
            scale = math.lcm(*(c.denominator for p in points for c in p))
            for factor in (1, 16, 3728):
                big = scale * factor
                keys = [tuple(c.numerator * (big // c.denominator) for c in p)
                        for p in points]
                t = PointSet.build(dim, _PointView(big, keys), center, radius)
                assert t == s and hash(t) == hash(s), (trial, factor)
                assert t.points == s.points == tuple(
                    canonical_points(dim, pts, center, radius))
                assert dumps_qps(t) == dumps_qps(s)
            assert type(s.points[1:]) is tuple
            k = len(s) // 2
            assert s.points[:k] + s.points[k + 1:] == tuple(
                p for i, p in enumerate(s.points) if i != k)

    def test_empty_sets_on_different_scales_are_equal(self):
        a = PointSet.build(2, [], (0, 0), 3)
        b = PointSet.build(2, _PointView(3728, []), (0, 0), 3)
        c = translate(PointSet.build(2, [], (0, 0), 3), (0, 0))
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert a.points == b.points == () and dumps_qps(a) == dumps_qps(b)

    def test_replaced_points_recompute_keys(self):
        rng = RngState(819)
        for trial in range(30):
            dim = 1 + trial % 3
            pts, center, radius = random_set(rng, dim, DENOMINATORS[trial % 3])
            s = PointSet.build(dim, pts, center, radius)
            if len(s) < 2:
                continue
            kept = s.points[1:]
            t = replace(s, points=kept)
            u = PointSet.build(dim, kept, center, radius)
            assert t == u and hash(t) == hash(u) and t.points == u.points
            assert t._keys == (u.points.scale, u.points.keys)
            assert dumps_qps(t) == dumps_qps(u)
            assert s.points[0] not in t and s.points[1] in t

    def test_membership_matches_the_fraction_points(self):
        rng = RngState(820)
        for trial in range(90):
            dim = 1 + trial % 3
            dens = DENOMINATORS[(trial // 3) % 3]
            pts, center, radius = random_set(rng, dim, dens)
            s = PointSet.build(dim, pts, center, radius)
            direct = replace(s, points=tuple(s.points))
            members = set(s.points)
            queries = list(s.points[:3])
            for _ in range(6):
                other = DENOMINATORS[rng.randrange(3)]
                queries.append(tuple(c + random_rational(rng, other, 4)
                                     for c in center))
            queries += [(0,) * (dim + 1), center[:-1]]
            for q in queries:
                assert (q in s) == (q in direct) == (q in members), (trial, q)
