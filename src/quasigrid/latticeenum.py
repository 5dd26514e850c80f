"""Integer solutions of box-bounded exact linear systems.

Solves {c in Z^d : lo_r <= sum_j a_rj c_j <= hi_r for every row r} where all
coefficients and bounds are integers (callers scale rationals by a common
denominator and fold strict faces into the integer bounds beforehand).

The solver fixes variables one at a time, narrowing the ranges of the
remaining ones by exact interval propagation over the rows after each fix.
That keeps sheared systems (lattice bases far from diagonal) enumerable
without walking the full product of the global ranges.

The solver walks batches of prefixes (ranges with the first variables
fixed), and the width of each batch picks one of two propagation sweeps
with the same results.  When a precomputed worst-case bound shows no
intermediate value can overflow int64, a batch of more than _NARROW
prefixes is swept on int64 arrays, vectorized over the batch
(_sweep_numpy).  A narrower batch, and every batch of a system past that
bound, is swept one prefix at a time on lists of Python ints
(_sweep_prefix): on a few prefixes numpy's per-call cost, some twenty
calls per row and pass, outweighs the arithmetic, and Python ints cannot
overflow.  Most batches of the chain systems, and every first level, hold
one to sixteen prefixes; large patches give batches of hundreds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, FormatError

DEFAULT_BUDGET = 10**8
# max prefixes per stack entry: an expansion builds all its rows and then
# splits them, so this caps the temporaries of each sweep, not the expansion
_CHUNK = 1 << 19
_INT64_SAFE = 1 << 61
_NARROW = 16  # widest batch swept prefix by prefix on an int64 system


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
    order, pairs = _choose_order(cons)
    meter = _BudgetMeter(budget)
    if _fits_int64(cons):
        solutions = _solve_numpy(cons, order, pairs, meter)
    else:
        solutions = _solve_python(cons, order, pairs, meter)
    return solutions


def _choose_order(cons: IntConstraints) -> tuple[list[int], list[list]]:
    """Fix variables in the order the propagation can pin them down.

    Greedy: repeatedly pick the variable whose post-fix range estimate is
    smallest, assuming already-ordered variables contribute nothing and the
    rest their global width.  The estimate mirrors the sweep's two powers,
    single-row narrowing and exact 2x2 pair elimination, so chained block
    systems get walked block by block instead of by raw range size.

    Returns the order and, for each step i, the _row_pairs with order[:i]
    fixed, which are level i's pairs in _level_plans.
    """
    d = cons.dim
    width = [hi - lo for lo, hi in zip(cons.var_lo, cons.var_hi)]
    span = [hi - lo for lo, hi in zip(cons.lo, cons.hi)]
    remaining = set(range(d))
    order: list[int] = []
    step_pairs = []
    while remaining:
        pairs = _row_pairs(cons.coeffs,
                           [jj not in remaining for jj in range(d)])
        step_pairs.append(pairs)
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
    return order, step_pairs


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


def _cramer(br, bs, ru, rv, su, sv, det):
    """Bounds on u and v from ru*u + rv*v in br and su*u + sv*v in bs.

    Cramer: u = (sv*b_r - rv*b_s)/det and v = (ru*b_s - su*b_r)/det.  The
    intervals may hold Python ints or int64 arrays.
    """
    t1, t2 = _interval_scale(sv, *br), _interval_scale(-rv, *bs)
    u = _interval_div(t1[0] + t2[0], t1[1] + t2[1], det)
    t1, t2 = _interval_scale(ru, *bs), _interval_scale(-su, *br)
    v = _interval_div(t1[0] + t2[0], t1[1] + t2[1], det)
    return u, v


def _level_plans(cons: IntConstraints, order, step_pairs) -> list[tuple]:
    """Per level L (the variables order[:L] fixed), what its sweep visits.

    step_pairs are _choose_order's row pairs of each step; level d, with
    every variable fixed, has none.

    Returns, for L = 0..d, (rows, pairs, fixed columns), in Python ints
    apart from the fixed columns' index array.  rows holds the rows both
    passes check, each as (r, lo_r, hi_r, terms, free): terms are its
    nonzero (column, coefficient) pairs and free those of its unfixed
    variables.  A row whose variables all lie in order[:L] is left out: one
    level up it had at most one unfixed variable, which the sweep narrowed
    to exactly the values that satisfy it, and fixed columns never change.
    A row with no variables is checked once, at level 0.  pairs holds each
    pair of rows r, s whose unfixed support is the same two variables u, v,
    as (r, s, lo_r, hi_r, lo_s, hi_s, fixed, u, v, a_ru, a_rv, a_su, a_sv,
    det), fixed being the (column, a_r, a_s) of the fixed columns either
    row uses.
    """
    d = cons.dim
    coeffs, lo, hi = cons.coeffs, cons.lo, cons.hi
    rank = {var: i for i, var in enumerate(order)}
    terms = [[(j, a) for j, a in enumerate(row) if a] for row in coeffs]
    # the level from which each row's variables are all fixed
    settled = [max((rank[j] + 1 for j, _ in t), default=0) for t in terms]
    plans = []
    for level, level_pairs in enumerate(step_pairs + [[]]):
        fixed_mask = [rank[j] < level for j in range(d)]
        fixed_cols = [j for j in range(d) if fixed_mask[j]]
        rows = [(r, lo[r], hi[r], t,
                 [(j, a) for j, a in t if not fixed_mask[j]])
                for r, t in enumerate(terms)
                if settled[r] > level or (not t and level == 0)]
        pairs = []
        for r, s, u, v, det in level_pairs:
            ar, as_ = coeffs[r], coeffs[s]
            fixed = [(j, ar[j], as_[j]) for j in fixed_cols if ar[j] or as_[j]]
            pairs.append((r, s, lo[r], hi[r], lo[s], hi[s], fixed,
                          u, v, ar[u], ar[v], as_[u], as_[v], det))
        plans.append((rows, pairs, np.array(fixed_cols, dtype=np.intp)))
    return plans


def _sweep_numpy(a, LO, HI, plan):
    """Two propagation passes over a batch; returns (LO, HI, alive mask).

    Each pass narrows every unfixed variable against the plan's rows, then
    solves row pairs with a shared two-variable support exactly; without the
    pair step, rotation-like 2x2 blocks never contract (interval dependency).
    Vectorized over the batch; the solver runs it on int64 arrays.
    """
    rows, pairs, fixed_cols = plan
    alive = np.ones(LO.shape[0], dtype=bool)
    for _ in range(2):
        for r, lo, hi, _terms, free in rows:
            arow = a[r]
            term_lo = np.minimum(arow * LO, arow * HI)
            term_hi = np.maximum(arow * LO, arow * HI)
            tot_lo = term_lo.sum(axis=1)
            tot_hi = term_hi.sum(axis=1)
            alive &= (tot_lo <= hi) & (tot_hi >= lo)
            for j, c in free:
                bounds = _interval_div(lo - (tot_hi - term_hi[:, j]),
                                       hi - (tot_lo - term_lo[:, j]), c)
                _narrow_columns(LO, HI, j, bounds, alive)
        for (r, s, lo_r, hi_r, lo_s, hi_s, _fixed,
             u, v, ru, rv, su, sv, det) in pairs:
            if fixed_cols.size:
                fr = (a[r, fixed_cols] * LO[:, fixed_cols]).sum(axis=1)
                fs = (a[s, fixed_cols] * LO[:, fixed_cols]).sum(axis=1)
            else:
                fr = fs = 0
            bu, bv = _cramer((lo_r - fr, hi_r - fr), (lo_s - fs, hi_s - fs),
                             ru, rv, su, sv, det)
            _narrow_columns(LO, HI, u, bu, alive)
            _narrow_columns(LO, HI, v, bv, alive)
    return LO, HI, alive


def _narrow_columns(LO, HI, j, bounds, alive):
    """Intersect column j's ranges with bounds; rows it empties die."""
    np.maximum(LO[:, j], bounds[0], out=LO[:, j])
    np.minimum(HI[:, j], bounds[1], out=HI[:, j])
    alive &= LO[:, j] <= HI[:, j]
    # keep dead rows self-consistent so later passes stay valid
    np.minimum(LO[:, j], HI[:, j], out=LO[:, j])


def _sweep_prefix(L, H, plan) -> bool:
    """_sweep_numpy's two passes on one prefix, in place on lists of ints.

    The same rows in the same order, each free variable narrowed from the
    row's totals before that row's updates, and the same Cramer bounds for
    pairs, so a prefix that survives ends with the ranges _sweep_numpy
    gives it.  Returns False as soon as the prefix is dead.
    """
    rows, pairs, _ = plan
    for _ in range(2):
        for _r, lo, hi, terms, free in rows:
            tot_lo = tot_hi = 0
            for j, c in terms:
                if c > 0:
                    tot_lo += c * L[j]
                    tot_hi += c * H[j]
                else:
                    tot_lo += c * H[j]
                    tot_hi += c * L[j]
            if tot_lo > hi or tot_hi < lo:
                return False
            for j, c in free:
                # ceil and floor of (bound - the other terms) / c
                if c > 0:
                    new_lo = -((tot_hi - c * H[j] - lo) // c)
                    new_hi = (hi - tot_lo + c * L[j]) // c
                else:
                    new_lo = -((tot_lo - c * H[j] - hi) // c)
                    new_hi = (lo - tot_hi + c * L[j]) // c
                if new_lo > L[j]:
                    L[j] = new_lo
                if new_hi < H[j]:
                    H[j] = new_hi
                if L[j] > H[j]:
                    return False
        for (_r, _s, lo_r, hi_r, lo_s, hi_s, fixed,
             u, v, ru, rv, su, sv, det) in pairs:
            fr = fs = 0
            for j, cr, cs in fixed:
                fr += cr * L[j]
                fs += cs * L[j]
            for var, (new_lo, new_hi) in zip(
                    (u, v), _cramer((lo_r - fr, hi_r - fr),
                                    (lo_s - fs, hi_s - fs),
                                    ru, rv, su, sv, det)):
                if new_lo > L[var]:
                    L[var] = new_lo
                if new_hi < H[var]:
                    H[var] = new_hi
                if L[var] > H[var]:
                    return False
    return True


def _as_lists(batch):
    return batch.tolist() if isinstance(batch, np.ndarray) else batch


def _expand_arrays(LO, HI, var, total):
    """Each prefix once per value of var, in order, on int64 arrays."""
    counts = HI[:, var] - LO[:, var] + 1
    index = np.repeat(np.arange(LO.shape[0]), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    values = LO[index, var] + (np.arange(total) - starts[index])
    LO, HI = LO[index], HI[index]
    LO[:, var] = values
    HI[:, var] = values
    return LO, HI


def _expand_lists(LO, HI, var):
    """Each prefix once per value of var, in order, on lists of ints."""
    out_lo, out_hi = [], []
    for L, H in zip(LO, HI):
        for x in range(L[var], H[var] + 1):
            L2, H2 = L.copy(), H.copy()
            L2[var] = H2[var] = x
            out_lo.append(L2)
            out_hi.append(H2)
    return out_lo, out_hi


def _solve_numpy(cons: IntConstraints, order, step_pairs, meter,
                 int64=True) -> list[tuple[int, ...]]:
    """Depth-first over batches of prefixes (ranges with order[:L] fixed).

    With int64, a batch of more than _NARROW prefixes is swept on int64
    arrays, and a narrower one prefix by prefix on Python ints; without,
    every batch is swept prefix by prefix.  Each batch is expanded straight
    into the form its children's count calls for.
    """
    d = cons.dim
    a = np.array(cons.coeffs, dtype=np.int64) if int64 else None
    plans = _level_plans(cons, order, step_pairs)
    out: list[tuple[int, ...]] = []
    stack = [(0, [list(cons.var_lo)], [list(cons.var_hi)])]
    while stack:
        level, LO, HI = stack.pop()
        if int64 and len(LO) > _NARROW:
            LO, HI, alive = _sweep_numpy(a, np.asarray(LO, dtype=np.int64),
                                         np.asarray(HI, dtype=np.int64),
                                         plans[level])
            LO, HI = LO[alive], HI[alive]
        else:
            LO, HI = _as_lists(LO), _as_lists(HI)
            live = [k for k in range(len(LO))
                    if _sweep_prefix(LO[k], HI[k], plans[level])]
            LO, HI = [LO[k] for k in live], [HI[k] for k in live]
        if not len(LO):
            continue
        if level == d:
            out.extend(map(tuple, _as_lists(LO)))
            continue
        var = order[level]
        # summed on Python ints, so int64 cannot wrap
        if isinstance(LO, list):
            total = sum(H[var] - L[var] + 1 for L, H in zip(LO, HI))
        else:
            total = sum((HI[:, var] - LO[:, var] + 1).tolist())
        meter.charge(total)
        if int64 and total > _NARROW:
            LO, HI = _expand_arrays(np.asarray(LO, dtype=np.int64),
                                    np.asarray(HI, dtype=np.int64), var, total)
        else:
            LO, HI = _expand_lists(_as_lists(LO), _as_lists(HI), var)
        for begin in range(0, total, _CHUNK):
            stack.append((level + 1, LO[begin:begin + _CHUNK],
                          HI[begin:begin + _CHUNK]))
    return out


def _solve_python(cons: IntConstraints, order, step_pairs,
                  meter) -> list[tuple[int, ...]]:
    """Solve on Python ints alone, which cannot overflow.

    An entry of its own so that big-int solves can be counted by wrapping it.
    """
    return _solve_numpy(cons, order, step_pairs, meter, int64=False)
