import hashlib
import math
from fractions import Fraction

import pytest

from oracles import (breakpoint_cell_extrema, dense_grid_extrema,
                     naive_sup_half_grid, weak_ap_reference)
from quasigrid.analysis import (
    _difference_candidates,
    _sweep_extrema,
    density_R,
    density_R_plus,
    density_profile_csv,
    density_report_text,
    epsilon_translations,
    subadditivity_check,
    translation_report_text,
    uniform_density,
    weak_ap_probe,
    weakap_report_text,
)
from quasigrid.cutproject import enumerate_model_set, translation_set, zn_scheme
from quasigrid.errors import DomainError
from quasigrid.pointset import PointSet, sym_diff, translate
from quasigrid.rng import RngState


def int_line(lo, hi, step=1, radius=None):
    pts = [(Fraction(v),) for v in range(lo, hi + 1, step)]
    radius = Fraction(radius if radius is not None else max(abs(lo), abs(hi)) + 1)
    return PointSet.build(1, pts, (0,), radius)


@pytest.fixture(scope="module")
def residue_patch(residue_scheme):
    return enumerate_model_set(residue_scheme, (0,), 3100).patch


def keyed(points, dim):
    """Points as the (L, sorted integer keys) pair that _sweep_extrema reads."""
    return PointSet.build(dim, points, (0,) * dim, 100)._keys


def fraction_differences(points, v_max):
    """Every difference p - q of two points (zero included) with infinity
    norm at most v_max, in lexicographic order."""
    diffs = {tuple(a - b for a, b in zip(p, q)) for p in points for q in points}
    return sorted(d for d in diffs if max(map(abs, d)) <= v_max)


class TestDensityR:
    def test_identical_sets(self):
        s = int_line(-10, 10)
        assert density_R(s, s, (0,), 5) == 0

    def test_odd_integers_half(self):
        z = int_line(-19, 19, radius=20)
        evens = int_line(-18, 18, 2, radius=20)
        assert density_R(z, evens, (0,), 10) == Fraction(1, 2)

    def test_full_grid_against_empty(self):
        grid = enumerate_model_set(zn_scheme(2), (0, 0), 20).patch
        empty = PointSet.build(2, [], (0, 0), 20)
        assert density_R(grid, empty, (0, 0), Fraction(5, 2)) == 1

    def test_symmetric_and_below_sup(self):
        a = int_line(-30, 30, 2, radius=32)
        b = int_line(-30, 30, 3, radius=32)
        assert density_R(a, b, (0,), 10) == density_R(b, a, (0,), 10)
        assert density_R(a, b, (0,), 10) <= density_R_plus(a, b, 10)

    def test_domain_violation(self):
        s = int_line(-10, 10)
        with pytest.raises(DomainError):
            density_R(s, s, (9,), 5)


class TestDensityRPlus:
    def test_zero_for_equal_sets(self):
        s = int_line(-20, 20)
        assert density_R_plus(s, s, 5) == 0

    def test_odd_integers(self):
        z = int_line(-49, 49, radius=50)
        evens = int_line(-48, 48, 2, radius=50)
        assert density_R_plus(z, evens, 10) == Fraction(1, 2)

    def test_sweep_matches_dense_grid_1d(self):
        # coordinates on the 1/32 grid, oracle walks the 1/64 grid
        rng = RngState(61)
        for _ in range(70):
            count = 5 + rng.randrange(16)
            pts = sorted({rng.randrange(193) - 96 for _ in range(count)})
            radius32 = 32 * (1 + rng.randrange(3))
            region = (-(128 - radius32), 128 - radius32)
            lo, hi = _sweep_extrema(
                *keyed([(Fraction(p, 32),) for p in pts], 1),
                Fraction(radius32, 32),
                ((Fraction(region[0], 32), Fraction(region[1], 32)),),
            )
            olo, ohi = dense_grid_extrema(
                [(2 * p,) for p in pts], 2 * radius32,
                [(2 * region[0], 2 * region[1])], 1,
            )
            assert (lo, hi) == (olo, ohi)

    def test_sweep_matches_dense_grid_2d(self):
        rng = RngState(62)
        for _ in range(30):
            count = 6 + rng.randrange(10)
            pts = list({(rng.randrange(9) - 4, rng.randrange(9) - 4)
                        for _ in range(count)})
            radius2 = 1 + rng.randrange(2)  # radius in halves
            slack2 = 6 - radius2
            lo, hi = _sweep_extrema(
                *keyed([(Fraction(x, 2), Fraction(y, 2)) for x, y in pts], 2),
                Fraction(radius2, 2),
                ((Fraction(-slack2, 2), Fraction(slack2, 2)),) * 2,
            )
            olo, ohi = dense_grid_extrema(
                [(32 * x, 32 * y) for x, y in pts], 32 * radius2,
                [(-32 * slack2, 32 * slack2)] * 2, 1,
            )
            assert (lo, hi) == (olo, ohi)

    def test_sweep_matches_dense_grid_edge_cases(self):
        # numerators on the grid 1/den, shifted by a multiple of 1/3; the
        # oracle walks the half grid of the numerators, since counts do not
        # change under the shift; cases 0-479 alternate dimensions 1 and 2,
        # cases 480-719 dimensions 3 and 4 on narrower regions
        rng = RngState(63)
        dens = (1, 3, 1 << 32, 3 << 32)
        for case in range(720):
            dim = 1 + case % 2 + 2 * (case >= 480)
            den = dens[rng.randrange(4)]
            offset = Fraction(rng.randrange(81) - 40, 3)
            radius = 1 + rng.randrange(6)
            gap = dim >= 2 and rng.randrange(3) == 0
            nums = set()
            for _ in range(1 + rng.randrange(12)):
                x = rng.randrange(25) - 12
                if gap:  # two x clusters: centers between them see empty strips
                    x = (9 + rng.randrange(4)) * (1 if x > 0 else -1)
                nums.add((x,) + tuple(rng.randrange(25) - 12
                                      for _ in range(dim - 1)))
            nums = sorted(nums)
            region = []
            for axis in range(dim):
                width = rng.randrange(13 if dim <= 2 else 7)
                kind = rng.randrange(5)
                anchor = nums[rng.randrange(len(nums))][axis]
                anchor += radius if rng.randrange(2) else -radius
                if kind == 0:  # degenerate region
                    lo = hi = rng.randrange(33) - 16
                elif kind == 1:  # lo on a breakpoint, a point R from it
                    lo, hi = anchor, anchor + width
                elif kind == 2:  # hi on a breakpoint
                    lo, hi = anchor - width, anchor
                else:
                    lo = rng.randrange(33) - 16
                    hi = lo + width
                if gap and axis == 0:
                    lo, hi = -8, 8
                region.append((lo, hi))
            points = [tuple(offset + Fraction(c, den) for c in p) for p in nums]
            got = _sweep_extrema(
                *keyed(points, dim), Fraction(radius, den),
                tuple((offset + Fraction(lo, den), offset + Fraction(hi, den))
                      for lo, hi in region))
            want = dense_grid_extrema(
                [tuple(2 * c for c in p) for p in nums], 2 * radius,
                [(2 * lo, 2 * hi) for lo, hi in region], 1)
            assert got == want, (case, nums, radius, region, den, offset)

    def test_empty_difference_is_zero(self):
        s = int_line(-20, 20)
        t = translate(s, (0,))
        assert density_R_plus(s, t, 5) == 0


class TestUniformDensity:
    def test_unit_grid_brackets(self):
        grid = enumerate_model_set(zn_scheme(2), (0, 0), Fraction(105, 2)).patch
        prof = uniform_density(
            grid, [Fraction(5, 2), Fraction(21, 2), Fraction(101, 2)],
            Fraction(1, 100),
        )
        for radius, _, d_max in prof.samples[:2]:
            k = math.ceil(radius - Fraction(1, 2))
            assert d_max == Fraction((2 * k + 1) ** 2) / (2 * radius) ** 2
        assert prof.samples[0][1] == Fraction(16, 25)
        assert prof.converged
        assert abs(prof.density - 1) <= Fraction(1, 100)
        assert prof.r_eps == Fraction(101, 2)

    def test_residue_two_thirds(self, residue_patch):
        prof = uniform_density(
            residue_patch, [Fraction(375, 2), 375, 750, 1500, 3000],
            Fraction(1, 100),
        )
        assert prof.converged
        assert abs(prof.density - Fraction(2, 3)) <= Fraction(1, 100)

    def test_golden_density_stable(self, golden_scheme):
        patch = enumerate_model_set(golden_scheme, (0,), 4100).patch
        prof = uniform_density(patch, [2000, 4000], Fraction(1, 100))
        assert prof.converged
        assert prof.density == Fraction(3777, 16000)
        mid_2000 = (prof.samples[0][1] + prof.samples[0][2]) / 2
        assert abs(mid_2000 - prof.density) <= prof.density / 100

    def test_requires_domain(self):
        s = int_line(-10, 10)
        with pytest.raises(DomainError):
            uniform_density(s, [20], Fraction(1, 100))


class TestEpsilonTranslations:
    def test_residue_accepts_periods_rejects_shift(self, residue_patch):
        report = epsilon_translations(residue_patch, Fraction(1, 10), 10, 10)
        vals = [p[0] for p in report.translations.points]
        assert vals == [Fraction(v) for v in (-9, -6, -3, 0, 3, 6, 9)]
        assert report.largest_gap == 3
        assert (Fraction(0),) in report.translations.points

    def test_period_density_exactly_zero(self, residue_patch):
        assert density_R_plus(translate(residue_patch, (3,)),
                              residue_patch, 3000) == 0

    def test_rejected_shift_density_two_thirds(self, residue_patch):
        assert density_R_plus(translate(residue_patch, (1,)),
                              residue_patch, 3000) == Fraction(2, 3)

    def test_unit_grid_accepts_all_integer_shifts(self):
        grid = enumerate_model_set(zn_scheme(2), (0, 0), 30).patch
        report = epsilon_translations(grid, Fraction(1, 10), 5, 3)
        expected = sorted(
            (Fraction(x), Fraction(y))
            for x in range(-3, 4) for y in range(-3, 4)
        )
        assert list(report.translations.points) == expected

    def test_nesting_and_symmetry(self, residue_patch):
        small = epsilon_translations(residue_patch, Fraction(1, 10), 10, 10)
        large = epsilon_translations(residue_patch, Fraction(7, 10), 10, 10)
        small_set = set(small.translations.points)
        large_set = set(large.translations.points)
        assert small_set <= large_set
        for v in small_set | large_set:
            flipped = tuple(-c for c in v)
            if v in small_set:
                assert flipped in small_set
            if v in large_set:
                assert flipped in large_set

    def test_accepted_reverify_with_naive_checker(self, residue_patch):
        report = epsilon_translations(residue_patch, Fraction(1, 10), 10, 10)
        for v in report.translations.points:
            diff = sym_diff(translate(residue_patch, v), residue_patch)
            top = residue_patch.radius - abs(v[0]) - 10
            naive = naive_sup_half_grid(
                [p[0] for p in diff.points], diff.center[0], diff.radius, top
            )
            assert Fraction(naive) / (2 * top) < Fraction(1, 10)

    def test_difference_candidates_match_fraction_reference(self):
        rng = RngState(47)
        dens = (1, 2, 3, 5, 7, 1 << 32)
        for case in range(40):
            dim = 1 + case % 2
            pts = {tuple(Fraction(rng.randrange(81) - 40, dens[rng.randrange(6)])
                         for _ in range(dim))
                   for _ in range(2 + rng.randrange(30))}
            s = PointSet.build(dim, pts, (0,) * dim, 41)
            for v_max in (Fraction(3), Fraction(7, 3), Fraction(25, 2),
                          Fraction(1, 2)):
                assert (_difference_candidates(s, v_max)
                        == fraction_differences(s.points, v_max))

    def test_domain_precondition(self, residue_patch):
        with pytest.raises(DomainError):
            epsilon_translations(residue_patch, Fraction(1, 10), 1600, 10)


class TestSubadditivity:
    def test_zero_translations(self, residue_patch):
        lhs, rhs, ok = subadditivity_check(residue_patch, [(0,), (0,)], 100)
        assert lhs == rhs == 0 and ok

    def test_residue_periods(self, residue_patch):
        lhs, rhs, ok = subadditivity_check(residue_patch, [(3,), (3,)], 100)
        assert lhs == rhs == 0 and ok

    def test_golden_translations(self, golden_scheme):
        patch = enumerate_model_set(golden_scheme, (0,), 1600).patch
        ts = translation_set(golden_scheme, Fraction(1, 10), 600)
        v1, v2 = [v for v in ts.points if v[0] != 0][:2]
        lhs, rhs, ok = subadditivity_check(patch, [v1, v2], 100)
        assert ok
        assert lhs == Fraction(3, 100) and rhs == Fraction(19, 200)


def weak_ap_cases():
    """Seeded probe inputs: dims 1 and 2, radii 7/3, 13/7 and 5/2, integer,
    third and 2^-32 coordinates, negative coordinates and off-origin
    domains, sparse sets whose windows are often empty, and points put
    exactly on the rim of the first window the probe will draw (same seed,
    drawn ahead), which an open window must leave out."""
    rng = RngState(88)
    for case in range(36):
        dim = 1 + case // 18
        radius = (Fraction(7, 3), Fraction(13, 7), Fraction(5, 2))[case % 3]
        den = (1, 3, 1 << 32)[case // 3 % 3]
        center = tuple(Fraction(rng.randrange(13) - 6, 3) for _ in range(dim))
        domain = 2 * radius + Fraction(1 + rng.randrange(8), 2)
        seed = rng.randrange(1 << 30)
        half = math.floor(domain * den) - 1
        count = rng.randrange(4) if case % 4 == 3 else 8 + rng.randrange(24 * dim)
        pts = {tuple(c + Fraction(rng.randrange(2 * half + 1) - half, den)
                     for c in center) for _ in range(count)}
        if case % 4 == 1:
            slack = domain - radius
            ahead = RngState(seed)
            x = tuple(c - slack + 2 * slack * ahead.unit() for c in center)
            for sign in (1, -1):
                pts.add((x[0] + sign * radius,) + x[1:])
            pts.add(x)
        yield PointSet.build(dim, pts, center, domain), radius, seed


class TestWeakApProbe:
    def test_unit_grid_worst_zero(self):
        grid = enumerate_model_set(zn_scheme(2), (0, 0), 20).patch
        result = weak_ap_probe(grid, Fraction(1, 10), Fraction(5, 2), 20,
                               RngState(7))
        assert result.worst == 0
        assert len(result.witnesses) == 20

    def test_residue_within_tolerance(self, residue_scheme):
        patch = enumerate_model_set(residue_scheme, (0,), 150).patch
        result = weak_ap_probe(patch, Fraction(1, 10), 50, 20, RngState(11))
        assert result.worst == Fraction(1, 50)
        assert result.worst <= Fraction(1, 10)

    def test_one_sided_set_fails_probe(self):
        pts = [(Fraction(k),) for k in range(-29, 30)]
        pts += [(Fraction(2 * k + 1, 2),) for k in range(0, 30)]
        asym = PointSet.build(1, pts, (0,), 30)
        result = weak_ap_probe(asym, Fraction(1, 10), 10, 20, RngState(5))
        assert result.worst == 1
        assert result.worst > Fraction(1, 10)

    def test_empty_windows_fall_back_to_plain_shift(self):
        sparse = PointSet.build(1, [(-90,), (90,)], (0,), 100)
        result = weak_ap_probe(sparse, Fraction(1, 10), 2, 10, RngState(2))
        assert result.worst <= Fraction(1, 2)  # at worst one unmatched point

    def test_matches_definition_oracle(self):
        ties = empty = 0
        for s, radius, seed in weak_ap_cases():
            result = weak_ap_probe(s, Fraction(1, 10), radius, 4, RngState(seed))
            expected = weak_ap_reference(s.points, s.center, s.radius, radius,
                                         4, RngState(seed))
            volume = (2 * radius) ** s.dim
            got = [(w.x, w.y, w.v, w.value) for w in result.witnesses]
            assert got == [(x, y, v, Fraction(n) / volume)
                           for x, y, v, n, _ in expected]
            assert result.worst == max((w.value for w in result.witnesses),
                                       default=Fraction(0))
            ties += sum(1 for *_, tied in expected if tied > 1)
            empty += sum(
                1 for x, y, *_ in expected for c in (x, y)
                if all(max(abs(a - b) for a, b in zip(p, c)) >= radius
                       for p in s.points))
        assert ties >= 20 and empty >= 10

    def test_domain_precondition(self):
        s = int_line(-10, 10)
        with pytest.raises(DomainError):
            weak_ap_probe(s, Fraction(1, 10), 6, 5, RngState(1))


class TestHighDimensionSweep:
    def cube(self):
        pts = [(Fraction(x), Fraction(y), Fraction(z))
               for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)]
        return PointSet.build(3, pts, (0, 0, 0), 3)

    def test_cube_bracket_is_exact(self):
        # a ball of radius 3/2 holds between 2^3 and 3^3 lattice points
        prof = uniform_density(self.cube(), [Fraction(3, 2)], Fraction(1, 2))
        assert prof.samples == ((Fraction(3, 2), Fraction(8, 27), Fraction(1)),)

    def test_cube_sup_density_is_exact(self):
        empty = PointSet.build(3, [], (0, 0, 0), 3)
        assert density_R_plus(self.cube(), empty, 2) == 1

    def test_sweep_matches_breakpoint_cells(self):
        # lattices of spacing a in {2/3, 5/4, 3/2} in dimensions 3 and 4;
        # radii and region ends on a/4 put centers on ball rims
        rng = RngState(53)
        for case in range(200):
            a = (Fraction(2, 3), Fraction(5, 4), Fraction(3, 2))[case % 3]
            dim = 3 + (case >= 150)
            offset = Fraction(case % 2, 7)
            pts = sorted({tuple(a * (rng.randrange(7) - 3) + offset
                                for _ in range(dim))
                          for _ in range(1 if case == 0 else 10 + rng.randrange(20))})
            radius = a * Fraction(3 + rng.randrange(7), 4)
            region = tuple((lo, lo + a * Fraction(1 + rng.randrange(8), 4))
                           for lo in (a * Fraction(rng.randrange(13) - 6, 4)
                                      for _ in range(dim)))
            got = _sweep_extrema(*keyed(pts, dim), radius, region)
            assert got == breakpoint_cell_extrema(pts, radius, region), case


class TestReports:
    def test_density_report_text(self):
        s = int_line(-20, 20, radius=21)
        prof = uniform_density(s, [5, 10], Fraction(1, 10))
        text = density_report_text(prof, Fraction(1, 10))
        assert text.startswith("rpt 1\nkind density\neps 1/10\n")
        assert "verdict converged" in text
        assert text.endswith("sample 5 9/10 1\nsample 10 19/20 1\n")
        csv = density_profile_csv(prof)
        assert csv.splitlines()[0] == "R,d_min,d_max"
        assert csv.splitlines()[2] == "10,19/20,1"

    def test_translation_report_text(self, residue_patch):
        report = epsilon_translations(residue_patch, Fraction(1, 10), 10, 4)
        text = translation_report_text(report)
        lines = text.splitlines()
        assert lines[0] == "rpt 1" and lines[1] == "kind translations"
        assert "count 3" in lines
        assert lines[-3:] == ["v -3", "v 0", "v 3"]

    def test_weakap_report_text(self):
        grid = enumerate_model_set(zn_scheme(2), (0, 0), 10).patch
        result = weak_ap_probe(grid, Fraction(1, 10), 2, 3, RngState(3))
        text = weakap_report_text(result, Fraction(1, 10), 2, 3)
        lines = text.splitlines()
        assert "worst 0" in lines and "pass true" in lines
        assert sum(1 for ln in lines if ln.startswith("pair ")) == 3

    @pytest.mark.parametrize("scheme, digests", [
        ("golden_scheme", (
            "97e22034eb4dacf02135c304dc3e40eb320877f266405a9fd64dbe23f1c1c893",
            "6f3d5c5fb9d9d14b552f5d4f4f898426897383062c535489076338571b3c59d3")),
        ("residue_scheme", (
            "b4526b2ecebf998479c64242ff1d2a7fa2ccc9e1c3dc764623320100f3d6ead6",
            "261c572797f101b2f1442e398d5fe2d13b13321836e26e503029ef2bc0f05fba")),
    ])
    def test_density_and_translation_report_bytes(self, request, scheme,
                                                   digests):
        # Fraction radii on a Fibonacci and a residue patch: the hashes pin
        # every density bracket and every accepted shift, byte for byte
        patch = enumerate_model_set(request.getfixturevalue(scheme), (0,),
                                    120).patch
        eps = Fraction(1, 20)
        prof = uniform_density(patch, [Fraction(3, 2), Fraction(37, 4), 20,
                                       Fraction(121, 3), 90], eps)
        report = epsilon_translations(patch, Fraction(3, 10), Fraction(21, 2),
                                      20)
        texts = (density_report_text(prof, eps), translation_report_text(report))
        assert tuple(hashlib.sha256(t.encode()).hexdigest()
                     for t in texts) == digests
