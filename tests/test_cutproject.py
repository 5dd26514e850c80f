from fractions import Fraction

import pytest

from oracles import brute_enumerate, frac_entry, random_scheme, residue_member
from quasigrid.cutproject import (
    box_minus,
    dumps_scheme,
    enumerate_model_set,
    image_scheme,
    iterated_scheme,
    loads_scheme,
    translation_set,
    window_inflation_density,
    zn_scheme,
)
from quasigrid.errors import BudgetError, FormatError, SingularMatrixError
from quasigrid.pointset import restrict
from quasigrid.discretize import sample_sl2_chain
from quasigrid.ratmath import IntervalBox, RMatrix, invert_matrix, round_scalar
from quasigrid.rng import RngState


class TestEnumerate:
    def test_zn_patch(self):
        patch = enumerate_model_set(zn_scheme(2), (0, 0), Fraction(5, 2))
        assert len(patch.patch) == 25
        assert patch.multiplicity_dropped == 0

    def test_residue_six_points(self, residue_scheme):
        patch = enumerate_model_set(residue_scheme, (0,), 5)
        assert [p[0] for p in patch.patch.points] == [-3, -2, 0, 1, 3, 4]

    def test_residue_against_oracle(self, residue_scheme):
        patch = enumerate_model_set(residue_scheme, (0,), 40)
        expected = [(Fraction(a),) for a in range(-39, 40) if residue_member(a)]
        assert list(patch.patch.points) == expected

    def test_golden_count_matches_brute_force(self, golden_scheme):
        patch = enumerate_model_set(golden_scheme, (0,), 100)
        points, accepted = brute_enumerate(golden_scheme, (0,), 100)
        assert list(patch.patch.points) == points
        assert len(patch.patch) + patch.multiplicity_dropped == accepted

    def test_off_center(self, residue_scheme):
        patch = enumerate_model_set(residue_scheme, (Fraction(19, 2),), 3)
        expected = [(Fraction(a),) for a in range(7, 13)
                    if residue_member(a) and abs(Fraction(a) - Fraction(19, 2)) < 3]
        assert list(patch.patch.points) == expected

    def test_random_schemes_match_double_margin_scan(self):
        rng = RngState(77)
        for _ in range(15):
            scheme = random_scheme(rng)
            patch = enumerate_model_set(scheme, (0,) * scheme.n, 2)
            points, accepted = brute_enumerate(scheme, (0,) * scheme.n, 2)
            assert list(patch.patch.points) == points
            assert len(patch.patch) + patch.multiplicity_dropped == accepted

    def test_monotone_in_radius(self, golden_scheme):
        small = enumerate_model_set(golden_scheme, (0,), 50).patch
        large = enumerate_model_set(golden_scheme, (0,), 80).patch
        assert restrict(large, (0,), 50).points == small.points

    def test_dedup_counts_collisions(self):
        # diag(1/2, 1) on Z^2 folds pairs of columns onto one rounded column
        scheme = image_scheme(
            RMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]]), zn_scheme(2)
        )
        patch = enumerate_model_set(scheme, (0, 0), 3)
        assert patch.multiplicity_dropped > 0
        expected = {(Fraction(x), Fraction(y))
                    for x in range(-2, 3) for y in range(-2, 3)}
        assert set(patch.patch.points) == expected

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("QUASIGRID_BUDGET", "100")
        with pytest.raises(BudgetError):
            enumerate_model_set(zn_scheme(2), (0, 0), 1000)


class TestTranslationSet:
    def test_vacuous_window(self):
        ts = translation_set(zn_scheme(2), Fraction(1, 7), Fraction(5, 2))
        assert len(ts) == 25

    def test_residue_multiples_of_three(self, residue_scheme):
        ts = translation_set(residue_scheme, Fraction(1, 100), 20)
        assert [p[0] for p in ts.points] == [Fraction(v) for v in range(-18, 19, 3)]
        assert len(ts) == 13

    def test_golden_nonempty_with_bounded_gap(self, golden_scheme):
        ts = translation_set(golden_scheme, Fraction(1, 10), 1000)
        assert len(ts) > 10
        vals = sorted(p[0] for p in ts.points)
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        assert max(gaps) <= 400  # relatively dense in the window

    def test_rejects_nonpositive_eta(self, residue_scheme):
        with pytest.raises(ValueError):
            translation_set(residue_scheme, 0, 10)
        with pytest.raises(ValueError):
            window_inflation_density(residue_scheme, Fraction(-1, 2), 10)


class TestWindowInflation:
    def test_residue_closed_inflation_value(self, residue_scheme):
        # endpoints of [0, 1/3] sit on lattice residues, so the eta-tube
        # keeps both full residue classes: 1333 points in (-1000, 1000)
        d = window_inflation_density(residue_scheme, Fraction(1, 100), 1000)
        assert d == Fraction(1333, 2000)

    def test_monotone_decreasing_in_eta(self, residue_scheme):
        densities = [
            window_inflation_density(residue_scheme, eta, 200)
            for eta in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
        ]
        assert densities[0] >= densities[1] >= densities[2]

    def test_dimension_zero_window(self):
        assert window_inflation_density(zn_scheme(2), Fraction(1, 10), 5) == 0

    def test_box_minus_membership(self):
        rng = RngState(55)
        a = IntervalBox.from_faces([(0, True, 2, False), (0, False, 2, True)])
        b = IntervalBox.from_faces(
            [(1, True, 3, True), (Fraction(1, 2), False, 1, True)]
        )
        pieces = box_minus(a, b)
        for _ in range(500):
            p = (Fraction(rng.randrange(9), 4) - Fraction(1, 4),
                 Fraction(rng.randrange(9), 4) - Fraction(1, 4))
            expected = a.contains(p) and not b.contains(p)
            got = any(piece.contains(p) for piece in pieces)
            assert got == expected, p
        # pieces are pairwise disjoint
        for _ in range(200):
            p = (Fraction(rng.randrange(17), 8), Fraction(rng.randrange(17), 8))
            assert sum(1 for piece in pieces if piece.contains(p)) <= 1


class TestImageScheme:
    def test_identity_on_zn(self):
        img = image_scheme(RMatrix.identity(2), zn_scheme(2))
        assert img.m == 2 and img.n == 2
        a = enumerate_model_set(img, (0, 0), 10).patch
        b = enumerate_model_set(zn_scheme(2), (0, 0), 10).patch
        assert a.points == b.points

    def test_block_layout(self, residue_scheme):
        a = RMatrix.from_rows([[Fraction(3, 2)]])
        img = image_scheme(a, residue_scheme)
        rows = img.basis.entries
        assert rows[0] == (Fraction(1, 3), 1, 0)          # B1 | 0
        assert rows[1] == (Fraction(3, 2), 0, -1)          # A*B2 | -Id
        assert rows[2] == (0, 0, 1)                        # 0 | Id
        box = img.window.boxes[0]
        assert box.lo_closed == (True, False) and box.hi_closed == (True, True)
        assert box.lo[1] == Fraction(-1, 2) and box.hi[1] == Fraction(1, 2)

    def test_residue_stretch_matches_direct_rounding(self, residue_scheme):
        a = RMatrix.from_rows([[Fraction(3, 2)]])
        img = image_scheme(a, residue_scheme)
        patch = enumerate_model_set(img, (0,), 30)
        direct = sorted(
            {
                (Fraction(round_scalar(Fraction(3, 2) * v)),)
                for v in range(-25, 26)
                if residue_member(v)
            }
        )
        direct = [p for p in direct if abs(p[0]) < 30]
        assert list(patch.patch.points) == direct


class TestIteratedScheme:
    def test_identity_chain(self):
        sch = iterated_scheme((RMatrix.identity(2),))
        patch = enumerate_model_set(sch, (0, 0), Fraction(5, 2))
        assert len(patch.patch) == 25

    def test_matrix_layout(self):
        a1 = RMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        a2 = RMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        sch = iterated_scheme((a1, a2))
        assert sch.m == 4 and sch.n == 2
        g = sch.basis.entries
        assert g[0][:2] == a1.entries[0] and g[1][:2] == a1.entries[1]
        assert (g[0][2], g[1][3]) == (-1, -1)
        assert g[2][2:4] == a2.entries[0] and g[3][2:4] == a2.entries[1]
        assert (g[2][4], g[3][5]) == (-1, -1)
        assert (g[4][4], g[5][5]) == (1, 1) and g[4][5] == 0

    def test_single_map_agrees_with_image_scheme(self):
        a = RMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        one = enumerate_model_set(iterated_scheme((a,)), (0, 0), 20).patch
        two = enumerate_model_set(image_scheme(a, zn_scheme(2)), (0, 0), 20).patch
        assert one.points == two.points

    def test_rejects_singular(self):
        singular = RMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            iterated_scheme((singular,))
        shear = RMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        with pytest.raises(SingularMatrixError):
            iterated_scheme((shear, singular, shear))

    def test_block_inverse_equals_generic_elimination(self):
        # the basis's determinant and inverse come from its blocks; a copy
        # of the same entries takes the Gauss-Jordan of the whole matrix
        rng = RngState(115)
        chains = []
        for n in (1, 2, 3):
            for k in range(1, 11):
                maps = []
                while len(maps) < k:
                    if len(maps) % 3 == 2:  # entries over 2**32
                        rows = [[Fraction(rng.randrange(1 << 34) - (1 << 33),
                                          1 << 32) for _ in range(n)]
                                for _ in range(n)]
                    else:  # zero and negative entries
                        rows = [[frac_entry(rng, 2, 4) for _ in range(n)]
                                for _ in range(n)]
                    a = RMatrix.from_rows(rows)
                    if a.determinant() != 0:
                        maps.append(a)
                chains.append(maps)
        for k in (1, 5, 11, 20):
            chains.append(sample_sl2_chain(RngState(k), k).matrices)
        for maps in chains:
            basis = iterated_scheme(maps).basis
            generic = RMatrix.from_rows(basis.entries)
            assert basis.determinant() == generic.determinant()
            assert invert_matrix(basis) == invert_matrix(generic)


class TestSchemeFormat:
    def test_round_trip(self, residue_scheme, golden_scheme):
        for scheme in (residue_scheme, golden_scheme, zn_scheme(2)):
            text = dumps_scheme(scheme)
            again = loads_scheme(text)
            assert again == scheme
            assert dumps_scheme(again) == text

    @pytest.mark.parametrize(
        "text",
        [
            "cps 2\ndims 1 1\n",
            "cps 1\ndims 1 1\n1/3 1\n1 0\nwindow 0\n",
            "cps 1\ndims 1 1\n1/3 1\n1 0\nwindow 1\nlo c 0 hi x 1/3\n",
            "cps 1\ndims 1 1\n2/4 1\n1 0\nwindow 1\nlo c 0 hi c 1/3\n",
            "cps 1\ndims 1 1\n1 1\n1 1\nwindow 1\nlo c 0 hi c 1/3\n",  # singular
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            loads_scheme(text)
