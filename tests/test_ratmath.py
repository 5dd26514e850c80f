import math
from fractions import Fraction
from itertools import product

import pytest

from oracles import leibniz_determinant
from quasigrid.cutproject import iterated_scheme
from quasigrid.errors import SingularMatrixError
from quasigrid.ratmath import (
    IntervalBox,
    RMatrix,
    ball_volume,
    invert_matrix,
    preimage_bounds,
    round_scalar,
    round_vector,
)
from quasigrid.rng import RngState


def random_fraction(rng, span=10, max_den=1000):
    den = 1 + rng.randrange(max_den)
    num = rng.randrange(2 * span * den + 1) - span * den
    return Fraction(num, den)


class TestRounding:
    def test_tie_goes_down(self):
        assert round_scalar(Fraction(1, 2)) == 0
        assert round_scalar(Fraction(-1, 2)) == -1

    def test_integers_fixed(self):
        assert round_scalar(7) == 7
        assert round_scalar(-3) == -3

    def test_sandwich_random(self):
        rng = RngState(101)
        for _ in range(2000):
            x = random_fraction(rng)
            k = round_scalar(x)
            assert k - Fraction(1, 2) < x <= k + Fraction(1, 2)

    def test_sandwich_half_integers(self):
        for n in range(-20, 21):
            x = Fraction(2 * n + 1, 2)
            k = round_scalar(x)
            assert k - Fraction(1, 2) < x <= k + Fraction(1, 2)
            assert k == n  # tie resolves to the lower integer

    def test_equivariance(self):
        rng = RngState(102)
        for _ in range(500):
            x = random_fraction(rng)
            k = rng.randrange(41) - 20
            assert round_scalar(x + k) == round_scalar(x) + k

    def test_vector_componentwise_and_idempotent(self):
        v = (Fraction(1, 2), Fraction(-1, 2))
        assert round_vector(v) == (0, -1)
        assert round_vector((3, -4)) == (3, -4)
        assert round_vector(round_vector(v)) == round_vector(v)

    def test_vector_integer_shift(self):
        base = (Fraction(1, 3), Fraction(0))
        shifted = tuple(c + k for c, k in zip(base, (5, 2)))
        assert round_vector(shifted) == (5, 2)


class TestBallVolume:
    def test_examples(self):
        assert ball_volume(1, 2) == 4
        assert ball_volume(Fraction(1, 2), 3) == 1
        assert ball_volume(10, 1) == 20

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball_volume(0, 2)
        with pytest.raises(ValueError):
            ball_volume(Fraction(-1, 2), 1)


class TestInvert:
    def test_examples(self):
        ident = RMatrix.identity(2)
        assert invert_matrix(ident) == ident
        diag = RMatrix.from_rows([[2, 0], [0, 3]])
        assert invert_matrix(diag).entries == (
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 3)),
        )
        shear = RMatrix.from_rows([[1, 1], [0, 1]])
        inv = invert_matrix(shear)
        assert shear.matmul(inv) == RMatrix.identity(2)
        assert inv.matmul(shear) == RMatrix.identity(2)
        dyadic = RMatrix.from_rows([[Fraction(3, 1 << 32), Fraction(-1, 3)],
                                    [0, Fraction(5, 1 << 30)]])
        assert dyadic._int_form == (3 << 32, ((9, -(1 << 32)), (0, 60)))

    def test_random_inverse_identity_both_sides(self):
        rng = RngState(103)
        for _ in range(30):
            n = 2 + rng.randrange(2)
            while True:
                m = RMatrix.from_rows(
                    [[random_fraction(rng, 3, 6) for _ in range(n)]
                     for _ in range(n)]
                )
                if m.determinant() != 0:
                    break
            inv = invert_matrix(m)
            assert m.matmul(inv) == RMatrix.identity(n)
            assert inv.matmul(m) == RMatrix.identity(n)
            # an equal matrix asked in the other order gives the same values
            twin = RMatrix.from_rows(m.entries)
            assert invert_matrix(twin) == inv
            assert twin.determinant() == m.determinant()
            q, rows = m._int_form
            assert q == math.lcm(*(e.denominator for row in m.entries for e in row))
            assert rows == tuple(tuple(e * q for e in row) for row in m.entries)
            assert all(type(a) is int for row in rows for a in row)

    def test_singular_raises(self):
        for first_det in (False, True):
            m = RMatrix.from_rows([[1, 2], [2, 4]])
            if first_det:
                assert m.determinant() == 0
            with pytest.raises(SingularMatrixError):
                invert_matrix(m)
            assert m.determinant() == 0

    def test_non_square_rejected(self):
        m = RMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="determinant needs a square"):
            m.determinant()
        with pytest.raises(ValueError, match="only square matrices"):
            invert_matrix(m)


class TestDeterminant:
    def test_matches_leibniz(self):
        # plain, zero leading pivot, singular and 2**-32 entries, n = 1..5
        rng = RngState(107)
        for n in range(1, 6):
            for trial in range(16):
                kind = trial % 4
                if kind == 3:
                    rows = [[Fraction(rng.randrange(1 << 34) - (1 << 33), 1 << 32)
                             for _ in range(n)] for _ in range(n)]
                else:
                    # about one entry in three is zero, the rest signed
                    rows = [[random_fraction(rng, 3, 6) if rng.randrange(3) else
                             Fraction(0) for _ in range(n)] for _ in range(n)]
                if kind == 1:
                    rows[0][0] = Fraction(0)
                    if n > 1:
                        rows[1 + rng.randrange(n - 1)][0] = Fraction(
                            1 + rng.randrange(5), 1 + rng.randrange(4))
                elif kind == 2:
                    # the last row is a rational combination of the others
                    weights = [random_fraction(rng, 2, 3) for _ in range(n - 1)]
                    rows[-1] = [sum((w * row[j] for w, row in zip(weights, rows)),
                                    Fraction(0)) for j in range(n)]
                m = RMatrix.from_rows(rows)
                det = leibniz_determinant(rows)
                assert m.determinant() == det, (n, trial)
                if kind == 2:
                    assert det == 0
                if det == 0:
                    with pytest.raises(SingularMatrixError):
                        invert_matrix(m)
                else:
                    inv = invert_matrix(m)
                    assert m.matmul(inv) == RMatrix.identity(n)
                    assert inv.determinant() == 1 / det

    def test_row_swaps_flip_the_sign(self):
        swap = RMatrix.from_rows([[0, 1], [1, 0]])
        assert swap.determinant() == -1
        cycle = RMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert cycle.determinant() == 1
        assert RMatrix.from_rows([[0, 0, 2], [0, 3, 0], [5, 0, 0]]).determinant() == -30


def corner_hull(m, box):
    """Reference preimage bounds: the hull of all 2^dim corner images."""
    inv = invert_matrix(m)
    images = [inv.apply(c) for c in product(*zip(box.lo, box.hi))]
    lo = tuple(min(img[i] for img in images) for i in range(m.rows))
    hi = tuple(max(img[i] for img in images) for i in range(m.rows))
    return lo, hi


class TestPreimageBounds:
    def test_examples(self):
        box = IntervalBox.closed([-1, -1], [1, 1])
        assert preimage_bounds(RMatrix.identity(2), box) == box
        halved = preimage_bounds(RMatrix.from_rows([[2, 0], [0, 2]]), box)
        assert halved.lo == (Fraction(-1, 2), Fraction(-1, 2))
        assert halved.hi == (Fraction(1, 2), Fraction(1, 2))
        sheared = preimage_bounds(RMatrix.from_rows([[1, 1], [0, 1]]), box)
        assert sheared.lo == (-2, -1) and sheared.hi == (2, 1)

    def test_soundness_on_integer_shell(self):
        # no integer vector outside the returned box may map into the box
        rng = RngState(104)
        checked = 0
        while checked < 1000:
            n = 2 + rng.randrange(2)
            while True:
                m = RMatrix.from_rows(
                    [[random_fraction(rng, 2, 4) for _ in range(n)]
                     for _ in range(n)]
                )
                if m.determinant() != 0:
                    break
            half = Fraction(1 + rng.randrange(3))
            box = IntervalBox.closed([-half] * n, [half] * n)
            bounds = preimage_bounds(m, box)
            spans = [
                range(math.ceil(lo) - 2, math.floor(hi) + 3)
                for lo, hi in zip(bounds.lo, bounds.hi)
            ]
            for c in product(*spans):
                if bounds.contains(c):
                    continue
                assert not box.contains(m.apply(c)), (m, c)
                checked += 1

    def test_equals_corner_hull_on_random_matrices(self):
        rng = RngState(105)
        for n in range(1, 7):
            for trial in range(6):
                while True:
                    # about one entry in three is zero, the rest signed
                    m = RMatrix.from_rows(
                        [[random_fraction(rng, 3, 6) if rng.randrange(3) else 0
                          for _ in range(n)] for _ in range(n)]
                    )
                    if m.determinant() != 0:
                        break
                lo, hi = [], []
                for _ in range(n):
                    a = random_fraction(rng, 5, 8)
                    # every third axis, on average, is degenerate
                    b = a + abs(random_fraction(rng, 5, 8)) if rng.randrange(3) else a
                    lo.append(a)
                    hi.append(b)
                box = IntervalBox.closed(lo, hi)
                bounds = preimage_bounds(m, box)
                assert (bounds.lo, bounds.hi) == corner_hull(m, box), (n, trial)
                assert all(isinstance(x, Fraction) for x in bounds.lo + bounds.hi)

    def test_equals_corner_hull_on_iterated_scheme(self):
        # n = 2, k = 5: dimension 12, 4096 corners
        rng = RngState(106)
        maps = []
        while len(maps) < 5:
            a = RMatrix.from_rows(
                [[random_fraction(rng, 2, 4) for _ in range(2)] for _ in range(2)]
            )
            if abs(a.determinant()) >= Fraction(1, 2):
                maps.append(a)
        scheme = iterated_scheme(maps)
        half, radius = Fraction(1, 2), Fraction(17, 2)
        box = IntervalBox.closed([-half] * 10 + [-radius] * 2,
                                 [half] * 10 + [radius] * 2)
        bounds = preimage_bounds(scheme.basis, box)
        assert (bounds.lo, bounds.hi) == corner_hull(scheme.basis, box)
