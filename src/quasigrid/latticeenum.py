"""Integer solutions of box-bounded exact linear systems.

Solves {c in Z^d : lo_r <= sum_j a_rj c_j <= hi_r for every row r} where all
coefficients and bounds are integers (callers scale rationals by a common
denominator and fold strict faces into the integer bounds beforehand).

The solver fixes variables one at a time, narrowing the ranges of the
remaining ones by exact interval propagation over the rows after each fix.
That keeps sheared systems (lattice bases far from diagonal) enumerable
without walking the full product of the global ranges.  There is one
solver, vectorized over batches of prefixes: it runs on int64 arrays when a
precomputed worst-case bound shows no intermediate value can overflow, and
on object arrays of Python ints otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, FormatError

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 19  # max prefixes materialized per batch
_INT64_SAFE = 1 << 61


@dataclass
class IntConstraints:
    coeffs: list[tuple[int, ...]]
    lo: list[int]
    hi: list[int]
    var_lo: list[int]
    var_hi: list[int]

    @property
    def dim(self) -> int:
        return len(self.var_lo)


def enumeration_budget() -> int:
    """The candidate budget: QUASIGRID_BUDGET if set, else DEFAULT_BUDGET."""
    raw = os.environ.get("QUASIGRID_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise FormatError(f"QUASIGRID_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise FormatError("QUASIGRID_BUDGET must be positive")
    return value


class _BudgetMeter:
    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0

    def charge(self, count: int) -> None:
        self.visited += count
        if self.visited > self.budget:
            raise BudgetError(
                f"enumeration would visit {self.visited} candidate coefficient "
                f"vectors, more than {self.budget} "
                "(raise QUASIGRID_BUDGET to override)"
            )


def solve_integer_box(cons: IntConstraints, budget: int) -> list[tuple[int, ...]]:
    """All integer vectors satisfying every row, in no particular order."""
    if any(lo > hi for lo, hi in zip(cons.var_lo, cons.var_hi)):
        return []
    order = _choose_order(cons)
    meter = _BudgetMeter(budget)
    if _fits_int64(cons):
        solutions = _solve_numpy(cons, order, meter)
    else:
        solutions = _solve_python(cons, order, meter)
    return solutions


def _choose_order(cons: IntConstraints) -> list[int]:
    """Fix variables in the order the propagation can pin them down.

    Greedy: repeatedly pick the variable whose post-fix range estimate is
    smallest, assuming already-ordered variables contribute nothing and the
    rest their global width.  The estimate mirrors the sweep's two powers,
    single-row narrowing and exact 2x2 pair elimination, so chained block
    systems get walked block by block instead of by raw range size.
    """
    d = cons.dim
    width = [hi - lo for lo, hi in zip(cons.var_lo, cons.var_hi)]
    span = [hi - lo for lo, hi in zip(cons.lo, cons.hi)]
    remaining = set(range(d))
    order: list[int] = []
    while remaining:
        pairs = _row_pairs(cons.coeffs,
                           [jj not in remaining for jj in range(d)])
        best = None
        for j in sorted(remaining):
            est = width[j]
            for r, row in enumerate(cons.coeffs):
                if row[j] == 0:
                    continue
                others = [jj for jj in remaining if jj != j and row[jj] != 0]
                slack = span[r] + sum(abs(row[jj]) * width[jj] for jj in others)
                est = min(est, slack // abs(row[j]))
            for r, s, u, v, det in pairs:
                if j == u:
                    est = min(est, (abs(cons.coeffs[s][v]) * span[r]
                                    + abs(cons.coeffs[r][v]) * span[s])
                              // abs(det))
                elif j == v:
                    est = min(est, (abs(cons.coeffs[r][u]) * span[s]
                                    + abs(cons.coeffs[s][u]) * span[r])
                              // abs(det))
            if best is None or est < best[0]:
                best = (est, j)
        order.append(best[1])
        remaining.remove(best[1])
    return order


def _fits_int64(cons: IntConstraints) -> bool:
    bound = 0
    for row, lo, hi in zip(cons.coeffs, cons.lo, cons.hi):
        row_bound = sum(
            abs(a) * max(abs(vl), abs(vh))
            for a, vl, vh in zip(row, cons.var_lo, cons.var_hi)
        )
        bound = max(bound, row_bound + abs(lo), row_bound + abs(hi))
    max_coeff = max(
        (abs(a) for row in cons.coeffs for a in row), default=1
    )
    # pair elimination multiplies residual intervals by single coefficients
    return bound * max(1, max_coeff) * 4 < _INT64_SAFE


def _row_pairs(coeffs, fixed_mask):
    """Pairs of rows whose unfixed support is the same two variables."""
    by_support: dict[tuple[int, int], list[int]] = {}
    for r, row in enumerate(coeffs):
        support = tuple(
            j for j, a in enumerate(row) if a != 0 and not fixed_mask[j]
        )
        if len(support) == 2:
            by_support.setdefault(support, []).append(r)
    pairs = []
    for support, rows in by_support.items():
        for r, s in zip(rows, rows[1:]):
            u, v = support
            det = coeffs[r][u] * coeffs[s][v] - coeffs[r][v] * coeffs[s][u]
            if det != 0:
                pairs.append((r, s, u, v, det))
    return pairs


def _interval_scale(factor, lo, hi):
    if factor >= 0:
        return factor * lo, factor * hi
    return factor * hi, factor * lo


def _interval_div(num_lo, num_hi, det):
    if det > 0:
        return -((-num_lo) // det), num_hi // det
    return -((-num_hi) // det), num_lo // det


def _level_plans(cons: IntConstraints, order) -> list[tuple]:
    """Per level L (the variables order[:L] fixed), what its sweep visits.

    Returns, for L = 0..d, (rows, pairs, fixed columns): rows holds the
    rows both passes check, each with its unfixed variables.  A row whose
    variables all lie in order[:L] is left out: one level up it had at most
    one unfixed variable, which the sweep narrowed to exactly the values
    that satisfy it, and fixed columns never change.  A row with no
    variables is checked once, at level 0.
    """
    d = cons.dim
    rank = {var: i for i, var in enumerate(order)}
    support = [[j for j, a in enumerate(row) if a] for row in cons.coeffs]
    # the level from which each row's variables are all fixed
    settled = [max((rank[j] + 1 for j in cols), default=0) for cols in support]
    plans = []
    for level in range(d + 1):
        fixed_mask = [rank[j] < level for j in range(d)]
        rows = [(r, [j for j in cols if not fixed_mask[j]])
                for r, cols in enumerate(support)
                if settled[r] > level or (not cols and level == 0)]
        plans.append((rows, _row_pairs(cons.coeffs, fixed_mask),
                      np.flatnonzero(fixed_mask)))
    return plans


def _sweep_numpy(a, lo, hi, LO, HI, plan):
    """Two propagation passes; returns (LO, HI, alive mask).

    Each pass narrows every unfixed variable against the plan's rows, then
    solves row pairs with a shared two-variable support exactly; without the
    pair step, rotation-like 2x2 blocks never contract (interval dependency).
    """
    rows, pairs, fixed_cols = plan
    alive = np.ones(LO.shape[0], dtype=bool)
    for _ in range(2):
        for r, free in rows:
            arow = a[r]
            term_lo = np.minimum(arow * LO, arow * HI)
            term_hi = np.maximum(arow * LO, arow * HI)
            tot_lo = term_lo.sum(axis=1)
            tot_hi = term_hi.sum(axis=1)
            alive &= (tot_lo <= hi[r]) & (tot_hi >= lo[r])
            for j in free:
                other_lo = tot_lo - term_lo[:, j]
                other_hi = tot_hi - term_hi[:, j]
                num_lo = lo[r] - other_hi
                num_hi = hi[r] - other_lo
                new_lo, new_hi = _interval_div(num_lo, num_hi, int(arow[j]))
                np.maximum(LO[:, j], new_lo, out=LO[:, j])
                np.minimum(HI[:, j], new_hi, out=HI[:, j])
                alive &= LO[:, j] <= HI[:, j]
                # keep dead rows self-consistent so later passes stay valid
                np.minimum(LO[:, j], HI[:, j], out=LO[:, j])
        for r, s, u, v, det in pairs:
            if fixed_cols.size:
                fr = (a[r, fixed_cols] * LO[:, fixed_cols]).sum(axis=1)
                fs = (a[s, fixed_cols] * LO[:, fixed_cols]).sum(axis=1)
            else:
                fr = fs = np.zeros(LO.shape[0], dtype=LO.dtype)
            ir = (lo[r] - fr, hi[r] - fr)
            is_ = (lo[s] - fs, hi[s] - fs)
            # Cramer: u = (a_sv*b_r - a_rv*b_s)/det, v symmetric
            for var, t1, t2 in (
                (u, _interval_scale(int(a[s, v]), *ir),
                 _interval_scale(-int(a[r, v]), *is_)),
                (v, _interval_scale(int(a[r, u]), *is_),
                 _interval_scale(-int(a[s, u]), *ir)),
            ):
                new_lo, new_hi = _interval_div(t1[0] + t2[0], t1[1] + t2[1],
                                               det)
                np.maximum(LO[:, var], new_lo, out=LO[:, var])
                np.minimum(HI[:, var], new_hi, out=HI[:, var])
                alive &= LO[:, var] <= HI[:, var]
                np.minimum(LO[:, var], HI[:, var], out=LO[:, var])
    return LO, HI, alive


def _solve_numpy(cons: IntConstraints, order, meter,
                 dtype=np.int64) -> list[tuple[int, ...]]:
    d = cons.dim
    a = np.array(cons.coeffs, dtype=dtype)
    lo = np.array(cons.lo, dtype=dtype)
    hi = np.array(cons.hi, dtype=dtype)
    LO0 = np.array([cons.var_lo], dtype=dtype)
    HI0 = np.array([cons.var_hi], dtype=dtype)
    plans = _level_plans(cons, order)
    out: list[tuple[int, ...]] = []
    stack = [(0, LO0, HI0)]
    while stack:
        level, LO, HI = stack.pop()
        LO, HI, alive = _sweep_numpy(a, lo, hi, LO, HI, plans[level])
        LO, HI = LO[alive], HI[alive]
        if LO.shape[0] == 0:
            continue
        if level == d:
            out.extend(map(tuple, LO.tolist()))
            continue
        var = order[level]
        counts = HI[:, var] - LO[:, var] + 1
        # the max test is exact on both dtypes and keeps the float sum below
        # from overflowing on Python ints; past either test the exact total
        # is over budget, and summed on Python ints so int64 cannot wrap
        if (counts.max() > meter.budget
                or float(counts.sum(dtype=np.float64)) > 4 * meter.budget):
            total = sum(counts.tolist())
        else:
            total = int(counts.sum())
        meter.charge(total)
        if total == 0:
            continue
        counts = counts.astype(np.int64)  # np.repeat refuses object counts
        index = np.repeat(np.arange(LO.shape[0]), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        values = LO[index, var] + (np.arange(total) - starts[index])
        LO, HI = LO[index], HI[index]
        LO[:, var] = values
        HI[:, var] = values
        for begin in range(0, total, _CHUNK):
            end = min(begin + _CHUNK, total)
            stack.append((level + 1, LO[begin:end].copy(), HI[begin:end].copy()))
    return out


def _solve_python(cons: IntConstraints, order, meter) -> list[tuple[int, ...]]:
    """Solve on object arrays of Python ints, which cannot overflow.

    An entry of its own so that big-int solves can be counted by wrapping it.
    """
    return _solve_numpy(cons, order, meter, object)
