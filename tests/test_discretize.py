import math
from fractions import Fraction

import pytest

from oracles import direct_round_image
from quasigrid.cutproject import (
    _scaled_constraints,
    enumerate_model_set,
    iterated_scheme,
)
from quasigrid.discretize import (
    MapChain,
    _cos_sin_turn,
    _exp,
    apply_chain,
    apply_hat,
    chain_model_witness,
    dumps_chain,
    loads_chain,
    rotation_stretch_matrix,
    sample_sl2_chain,
)
from quasigrid.errors import DomainError, FormatError
from quasigrid.latticeenum import _fits_int64
from quasigrid.pointset import PointSet
from quasigrid.ratmath import RMatrix
from quasigrid.rng import RngState


def int_grid(radius):
    span = range(-int(radius), int(radius) + 1)
    pts = [(Fraction(x), Fraction(y)) for x in span for y in span
           if abs(x) < radius and abs(y) < radius]
    return PointSet.build(2, pts, (0, 0), radius)


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
        a = RMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
        out = apply_chain(MapChain(2, (a,)), 4)
        assert list(out.points) == direct_round_image([a], 4)

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

        for _ in range(5):
            mats = tuple(_random_invertible(rng, 2, 6) for _ in range(2))
            chain = MapChain(2, mats)
            base = apply_chain(chain, 15)
            wide = apply_chain(chain, 15, input_scale=2)
            assert base.points == wide.points

    def test_random_chains_match_model_sets(self):
        # the central cross-validation: both pipelines, exact set equality
        rng = RngState(23)
        from quasigrid.cli import _random_invertible

        for i in range(20):
            k = 1 + rng.randrange(3)
            mats = tuple(_random_invertible(rng, 2, 8) for _ in range(k))
            assert chain_model_witness(MapChain(2, mats), 50) is None, i

    @pytest.mark.parametrize("k", [6, 8])
    def test_long_random_chains_match_model_sets(self, k):
        # iterated schemes of dimension 2 (k + 1) = 14 and 18
        from quasigrid.cli import _random_invertible

        rng = RngState(31)
        mats = tuple(_random_invertible(rng, 2, 4) for _ in range(k))
        assert chain_model_witness(MapChain(2, mats), 8) is None


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
            c, s = _cos_sin_turn(f)
            assert abs(float(c) - math.cos(2 * math.pi * float(f))) < 1e-12
            assert abs(float(s) - math.sin(2 * math.pi * float(f))) < 1e-12
        for t in (Fraction(-1, 2), Fraction(1, 5), Fraction(1, 2)):
            assert abs(float(_exp(t)) - math.exp(float(t))) < 1e-12


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
        assert chain_model_witness(chain, 10, scheme=good) is None
        witness = chain_model_witness(chain, 10, scheme=bad)
        assert witness is not None
        # the witness is a tie artifact: its first coordinate is 2 mod 3
        assert witness[0] % 3 == 2
