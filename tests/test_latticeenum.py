from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from oracles import frac_entry
from quasigrid.cutproject import _scaled_constraints, iterated_scheme
from quasigrid.discretize import _hat_int_array, _unique_rows
from quasigrid.errors import BudgetError
import quasigrid.latticeenum as latticeenum
from quasigrid.latticeenum import (
    IntConstraints,
    _fits_int64,
    _level_plans,
    _solve_numpy,
    _solve_python,
    _sweep_numpy,
    _sweep_prefix,
    _BudgetMeter,
    _choose_order,
    solve_integer_box,
)
from quasigrid.ratmath import RMatrix, round_vector
from quasigrid.rng import RngState


def brute_solutions(cons):
    spans = [range(lo, hi + 1) for lo, hi in zip(cons.var_lo, cons.var_hi)]
    out = []
    for c in product(*spans):
        if all(lo <= sum(a * x for a, x in zip(row, c)) <= hi
               for row, lo, hi in zip(cons.coeffs, cons.lo, cons.hi)):
            out.append(c)
    return sorted(out)


def random_system(rng):
    d = 2 + rng.randrange(3)
    n_rows = d + rng.randrange(2)
    coeffs = []
    lo, hi = [], []
    for _ in range(n_rows):
        coeffs.append(tuple(rng.randrange(9) - 4 for _ in range(d)))
        center = rng.randrange(21) - 10
        half = rng.randrange(12)
        lo.append(center - half)
        hi.append(center + half)
    var_lo = [-(3 + rng.randrange(5)) for _ in range(d)]
    var_hi = [3 + rng.randrange(5) for _ in range(d)]
    return IntConstraints(coeffs, lo, hi, var_lo, var_hi)


def test_both_paths_match_brute_force():
    rng = RngState(90)
    for _ in range(40):
        cons = random_system(rng)
        expected = brute_solutions(cons)
        order, pairs = _choose_order(cons)
        fast = sorted(_solve_numpy(cons, order, pairs, _BudgetMeter(10**8)))
        slow = sorted(_solve_python(cons, order, pairs, _BudgetMeter(10**8)))
        assert fast == expected
        assert slow == expected


def chain_system(maps, radius):
    """The integer system of an iterated scheme's window box and B(0, radius):
    upper block-bidiagonal rows, maps on the diagonal and -Id above them."""
    scheme = iterated_scheme(maps)
    cons = _scaled_constraints(scheme, scheme.window.boxes[0],
                               (Fraction(0),) * maps[0].rows, Fraction(radius))
    return cons


def chain_systems(seed, count):
    """Seeded chain systems (n = 1, k = 1-3; n = 2, k = 1-2) small enough
    to brute force."""
    rng = RngState(seed)
    while count:
        n = 1 + rng.randrange(2)
        k = 1 + rng.randrange(4 - n)
        maps = []
        while len(maps) < k:
            # zero and negative entries, denominators up to 4
            a = RMatrix.from_rows([[frac_entry(rng, 2, 4) for _ in range(n)]
                                   for _ in range(n)])
            if a.determinant() != 0:
                maps.append(a)
        cons = chain_system(maps, Fraction(1 + rng.randrange(6), 2))
        if prod(h - l + 1 for l, h in zip(cons.var_lo, cons.var_hi)) <= 20_000:
            count -= 1
            yield cons


def with_zero_row(cons, zero_lo):
    """cons plus a row with no variables, which holds iff zero_lo <= 0."""
    return IntConstraints(cons.coeffs + [(0,) * cons.dim], cons.lo + [zero_lo],
                          cons.hi + [1], cons.var_lo, cons.var_hi)


def test_chain_systems_match_brute_force():
    # the rows' variables get fixed over several levels, so the sweep skips
    # and shortens rows whose variables are all fixed; a zero row has none,
    # and holds or fails from level 0 on
    for cons in chain_systems(92, 30):
        for zero_lo in (None, 0, 1):
            system = cons if zero_lo is None else with_zero_row(cons, zero_lo)
            expected = brute_solutions(system)
            assert bool(expected) != (zero_lo == 1)
            order, pairs = _choose_order(system)
            for solve in (_solve_numpy, _solve_python):
                assert sorted(solve(system, order, pairs,
                                    _BudgetMeter(10**8))) == expected


@pytest.mark.parametrize("maps, radius, visited, solutions", [
    (([[Fraction(3, 2)]], [[Fraction(-2, 3)]], [[Fraction(5, 4)]]),
     Fraction(15, 2), 48, 12),
    (([[1, Fraction(1, 2)], [0, 1]], [[1, 0], [Fraction(1, 3), 1]]),
     Fraction(7, 2), 189, 49),
    (([[Fraction(3, 4), Fraction(-1, 2)], [Fraction(1, 2), Fraction(3, 4)]],
      [[0, Fraction(-3, 2)], [Fraction(2, 3), Fraction(1, 4)]],
      [[Fraction(5, 4), 0], [Fraction(-1, 3), 1]]),
     Fraction(5, 2), 80, 18),
], ids=["n1_k3", "n2_k2_shears", "n2_k3_zero_entries"])
def test_chain_system_visits(maps, radius, visited, solutions, monkeypatch):
    cons = chain_system([RMatrix.from_rows(m) for m in maps], radius)
    order, pairs = _choose_order(cons)
    # every batch on arrays, the default split, every batch prefix by prefix
    for narrow in (0, latticeenum._NARROW, 10**9):
        monkeypatch.setattr(latticeenum, "_NARROW", narrow)
        for solve in (_solve_numpy, _solve_python):
            meter = _BudgetMeter(10**8)
            assert len(solve(cons, order, pairs, meter)) == solutions
            assert meter.visited == visited


def scaled_systems(seed, count=10):
    """Seeded (system, copy with rows and bounds times 2**45) pairs.

    The scaling keeps the solution set but pushes the worst-case bound past
    int64, so the copy is solved on Python ints.
    """
    rng = RngState(seed)
    for _ in range(count):
        cons = random_system(rng)
        factor = 1 << 45
        big = IntConstraints(
            [tuple(a * factor for a in row) for row in cons.coeffs],
            [b * factor for b in cons.lo],
            [b * factor for b in cons.hi],
            cons.var_lo,
            cons.var_hi,
        )
        yield cons, big


def test_scaled_up_system_takes_bigint_path():
    for cons, big in scaled_systems(91):
        assert _fits_int64(cons)
        assert not _fits_int64(big)
        assert (sorted(solve_integer_box(big, 10**8))
                == sorted(solve_integer_box(cons, 10**8)))


def sweep_systems():
    """Random systems (negative coefficients), chain systems (open window
    faces folded into integer bounds), big-int copies, rotation-like 2x2
    pairs with and without a third variable, and all-zero rows that hold
    and that fail."""
    rng = RngState(94)
    systems = [random_system(rng) for _ in range(20)]
    systems += list(chain_systems(95, 10))
    systems += [big for _, big in scaled_systems(96, 6)]
    # 5 times a rotation: the rows alone never contract the pair
    systems.append(IntConstraints([(3, -4), (4, 3)], [-7, -6], [6, 8],
                                  [-9, -9], [9, 9]))
    systems.append(IntConstraints([(3, -4, 2), (4, 3, -1), (0, 0, 1)],
                                  [-7, -6, -2], [6, 8, 3],
                                  [-9, -9, -5], [9, 9, 5]))
    systems += [with_zero_row(systems[0], lo) for lo in (0, 1)]
    return systems


def random_batch(rng, cons, fixed, width):
    """width prefixes: the fixed variables at one value each, the others
    on random subranges of their global ranges."""
    LO, HI = [], []
    for _ in range(width):
        L, H = [], []
        for j, (lo, hi) in enumerate(zip(cons.var_lo, cons.var_hi)):
            x, y = (lo + rng.randrange(hi - lo + 1) for _ in range(2))
            if j in fixed:
                y = x
            L.append(min(x, y))
            H.append(max(x, y))
        LO.append(L)
        HI.append(H)
    return LO, HI


def test_prefix_sweep_matches_batch_sweep():
    # the batch sweep is the reference, on object arrays for big-int systems
    rng = RngState(97)
    seen = {"alive": 0, "dead": 0, "pairs": 0, "fixed pairs": 0}
    for cons in sweep_systems():
        dtype = np.int64 if _fits_int64(cons) else object
        a = np.array(cons.coeffs, dtype=dtype)
        order, pairs = _choose_order(cons)
        for level, plan in enumerate(_level_plans(cons, order, pairs)):
            seen["pairs"] += len(plan[1])
            seen["fixed pairs"] += sum(bool(p[6]) for p in plan[1])
            LO, HI = random_batch(rng, cons, set(order[:level]), 12)
            ref_lo, ref_hi, alive = _sweep_numpy(
                a, np.array(LO, dtype=dtype), np.array(HI, dtype=dtype), plan)
            for k, (L, H) in enumerate(zip(LO, HI)):
                assert _sweep_prefix(L, H, plan) == alive[k]
                if alive[k]:
                    assert (L, H) == (ref_lo[k].tolist(), ref_hi[k].tolist())
            seen["alive"] += int(alive.sum())
            seen["dead"] += int((~alive).sum())
    assert min(seen.values()) > 0, seen


def test_narrow_width_keeps_solutions_and_visits(monkeypatch):
    # every batch on arrays (0) or every batch prefix by prefix (10**9)
    # must give the default split's solutions and visited count
    for cons in sweep_systems():
        expected = brute_solutions(cons)
        order, pairs = _choose_order(cons)
        solve = _solve_numpy if _fits_int64(cons) else _solve_python
        visited = set()
        for narrow in (latticeenum._NARROW, 0, 10**9):
            monkeypatch.setattr(latticeenum, "_NARROW", narrow)
            meter = _BudgetMeter(10**8)
            assert sorted(solve(cons, order, pairs, meter)) == expected
            visited.add(meter.visited)
        assert len(visited) == 1


def test_budget_charge_matches_between_dtypes():
    for cons, big in scaled_systems(91):
        # the scaled copy gets the same order, and pairs with the same rows
        order, pairs = _choose_order(cons)
        big_order, big_pairs = _choose_order(big)
        assert big_order == order
        small_meter, big_meter = _BudgetMeter(10**8), _BudgetMeter(10**8)
        _solve_numpy(cons, order, pairs, small_meter)
        _solve_python(big, big_order, big_pairs, big_meter)
        visited = big_meter.visited
        assert visited == small_meter.visited
        with pytest.raises(BudgetError):
            solve_integer_box(big, visited - 1)
        assert (sorted(solve_integer_box(big, visited))
                == sorted(solve_integer_box(cons, visited)))


@pytest.mark.parametrize("bound, fits", [(10**9, True), (1 << 1100, False)],
                         ids=["1e9", "2**1100"])
def test_budget_error_on_huge_ranges(bound, fits):
    # 2**1100 is past the float range, so the pre-check must not sum in floats
    cons = IntConstraints([(1, 0), (0, 1)], [-bound] * 2, [bound] * 2,
                          [-bound] * 2, [bound] * 2)
    assert _fits_int64(cons) == fits
    with pytest.raises(BudgetError):
        solve_integer_box(cons, 10**8)


@pytest.mark.parametrize("dim, half, refused", [
    # 101 candidates in one batch, refused by the per-batch pre-check
    (1, 50, 101),
    # 21 candidates, then 21 * 21 more, refused by the running total
    (2, 10, 21 + 21 * 21),
], ids=["batch", "total"])
def test_budget_error_names_count_and_limit(dim, half, refused):
    cons = IntConstraints([tuple(int(i == j) for j in range(dim))
                           for i in range(dim)],
                          [-half] * dim, [half] * dim, [-half] * dim, [half] * dim)
    assert len(solve_integer_box(cons, refused)) == (2 * half + 1) ** dim
    with pytest.raises(BudgetError, match=(
            rf"would visit {refused} candidate coefficient vectors, "
            rf"more than {refused - 1} \(raise QUASIGRID_BUDGET to override\)")):
        solve_integer_box(cons, refused - 1)


def test_hat_array_bigint_fallback_matches_pointwise():
    a = RMatrix.from_rows([
        [Fraction(3, 1 << 32), Fraction(1, 3)],
        [Fraction(-1, 7), Fraction(2, 1 << 30)],
    ])
    pts = np.array(
        [[1 << 36, -(1 << 35)], [12345678901234, 98765432109], [0, 1]],
        dtype=np.int64,
    )
    rows = _hat_int_array(a, pts)
    pointwise = [tuple(int(c) for c in round_vector(a.apply(tuple(map(int, p)))))
                 for p in pts]
    # row for row, then deduplicated in lexicographic order
    assert [tuple(int(x) for x in row) for row in rows.tolist()] == pointwise
    images = _unique_rows(rows)
    assert [tuple(int(x) for x in row) for row in images.tolist()] == sorted(
        set(pointwise))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hat_array_dedupe_matches_unique(n):
    # entries in [-1, 1] over denominators up to 4 send many points, and
    # repeated input rows, to one image; sizes 0 and 1 are edge cases
    rng = RngState(93 + n)
    for trial in range(24):
        a = RMatrix.from_rows([[frac_entry(rng, 1, 4) for _ in range(n)]
                               for _ in range(n)])
        size = (0, 1, 2 + rng.randrange(120))[trial % 3]
        pts = np.array([[rng.randrange(41) - 20 for _ in range(n)]
                        for _ in range(size)], dtype=np.int64).reshape(size, n)
        images = [[int(c) for c in round_vector(a.apply(p))]
                  for p in pts.tolist()]
        expected = np.unique(np.array(images, dtype=np.int64).reshape(size, n),
                             axis=0)
        rows = _hat_int_array(a, pts)
        assert rows.dtype == np.int64 and rows.tolist() == images, (n, trial)
        got = _unique_rows(rows)
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected), (n, trial)
        if size:
            # small values on an object array take the int64 route as well:
            # the dtype follows the bound, not the input
            boxed = _unique_rows(_hat_int_array(a, pts.astype(object)))
            assert boxed.dtype == np.int64 and np.array_equal(boxed, expected)


def test_empty_ranges_short_circuit():
    cons = IntConstraints([(1,)], [0], [10], [5], [2])
    assert solve_integer_box(cons, 100) == []


def test_infeasible_rows_prune():
    cons = IntConstraints([(1, 0), (0, 1), (1, 1)], [0, 0, 30], [5, 5, 40],
                          [-10, -10], [10, 10])
    assert solve_integer_box(cons, 10**6) == []
