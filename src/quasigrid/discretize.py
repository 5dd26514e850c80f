"""Discretized linear maps on integer points and the random-chain sampler.

The discretization of an invertible map A sends an integer point x to the
componentwise rounding of A*x (ties toward the lower integer).  Chains of
such maps applied to the full integer lattice are computed soundly: the
needed input region is back-propagated through exact preimages with a
closed unit-cube slack per rounding step, so the final patch is complete
inside the requested ball.  In dimension 2 the region is a convex polygon
on integer vertices; each slack is added by a linear walk over its edges,
and its integer points are read off column by column, each edge walked
once.  The maps then run over those points row for row, and the image is
deduplicated once, inside the ball.

Random chains follow a rotation * diagonal * rotation decomposition with
angles uniform on a turn and log-stretch uniform on [-1/2, 1/2].  The
trigonometric and exponential values are evaluated by exact rational
series, summed on integer numerators and left unreduced, so sampling is
bit-identical across platforms; each entry is formed over one integer
denominator and rounded once to denominator 2**32.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DimensionMismatchError, FormatError
from .latticeenum import enumeration_budget
from .pointset import PointSet, _PointView
from .ratmath import (
    HALF,
    IntervalBox,
    RMatrix,
    invert_matrix,
    preimage_bounds,
    rat,
    round_vector,
)
from .rng import RngState
from .textio import (format_rational, parse_int, parse_rational, read_text,
                     split_lines, write_text)

_QUANT = 1 << 32
# 64 fractional bits of pi, enough that quantization to 2**-32 dominates.
_PI = Fraction(0x3243F6A8885A308D3, 1 << 64)


@dataclass(frozen=True)
class MapChain:
    """Ordered invertible square maps; matrices[0] is applied first."""

    dim: int
    matrices: tuple[RMatrix, ...]

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("a chain needs at least one matrix")
        for a in self.matrices:
            if a.rows != self.dim or a.cols != self.dim:
                raise DimensionMismatchError(
                    f"chain maps must be {self.dim}x{self.dim}"
                )
            invert_matrix(a)  # raises SingularMatrixError if not invertible


def apply_hat(a: RMatrix, s: PointSet) -> PointSet:
    """Image of a point set under the discretized map, deduplicated.

    The returned domain is only a bounding ball for the image and is marked
    incomplete: rounding can pull points of the underlying set that lie just
    outside the input patch into any target ball, so completeness is only
    restored by a sound margin computation such as apply_chain's.
    """
    if a.rows != a.cols or a.rows != s.dim:
        raise DimensionMismatchError(f"map must be {s.dim}x{s.dim}")
    invert_matrix(a)
    scale, keys = s._keys
    if scale != 1:  # the reduced scale is 1 exactly when all points are integer
        bad = next(p for p in s.points if any(c.denominator != 1 for c in p))
        raise ValueError(f"apply_hat needs integer points, got {bad}")
    images = _unique_rows(
        _hat_int_array(a, np.array(keys, dtype=object).reshape(-1, s.dim)))
    center = round_vector(a.apply(s.center))
    radius = Fraction(math.ceil(a.op_norm_inf() * s.radius) + 1)
    return PointSet.build(s.dim, _PointView(1, list(map(tuple, images.tolist()))),
                          center, radius, complete=False)


# --- exact back-propagated input regions -------------------------------------


def _hull_2d(points):
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


def _last_corner(nx, ny):
    """The last corner, counterclockwise, that is extreme along (nx, ny),
    the corners of the square numbered (1, 1), (-1, 1), (-1, -1), (1, -1).
    Along an axis the corner before it is extreme as well."""
    if ny > 0:
        return 0 if nx > 0 else 1
    if ny < 0:
        return 2 if nx < 0 else 3
    return 0 if nx > 0 else 2


def _mink_cube_2d(poly, r):
    """Vertices of poly + [-r, r]^2, counterclockwise, in one pass.

    poly must be strictly convex (no three vertices collinear) with no
    repeated vertex, in either orientation, and r > 0.  Each vertex v
    contributes v + r*c for the square's corners c from the last corner
    that supports the incoming edge to the first that supports the
    outgoing one, counterclockwise; an axis-parallel edge is supported by
    two corners and so merges with the square's edge (the merge of edge
    slopes, de Berg et al., Computational Geometry, section 13.3).  The
    result is the vertex set of the hull of the 4n corners v + r*c, in
    another order.
    """
    m = len(poly)
    if sum(poly[i - 1][0] * poly[i][1] - poly[i][0] * poly[i - 1][1]
           for i in range(m)) < 0:
        poly = poly[::-1]
    corners = ((r, r), (-r, r), (-r, -r), (r, -r))
    out = []
    # the outward normal of a counterclockwise edge (dx, dy) is (dy, -dx)
    px, py = poly[-1]
    vx, vy = poly[0]
    last = _last_corner(vy - py, px - vx)
    for i in range(m):
        wx, wy = poly[i + 1 - m]
        nx, ny = wy - vy, vx - wx
        k, last = last, _last_corner(nx, ny)
        # the first corner that supports the outgoing edge
        stop = (last - (nx == 0 or ny == 0)) & 3
        while True:
            cx, cy = corners[k]
            out.append((vx + cx, vy + cy))
            if k == stop:
                break
            k = (k + 1) & 3
        vx, vy = wx, wy
    return out


def _map_region_2d(inv: RMatrix, den: int, hull):
    """Image of a convex integer polygon over den under a rational matrix.

    The matrix acts through its integer numerators q * inv, so the image has
    integer vertices over den * q.  Returns the mapped vertex list, not its
    hull: a linear image of a strictly convex polygon is strictly convex
    already (clockwise when det < 0), as _mink_cube_2d needs.
    """
    q, ((a, b), (c, d)) = inv._int_form
    return den * q, [(a * x + b * y, c * x + d * y) for x, y in hull]


_SNAP = 1 << 13  # simplified vertices lie on the grid of step 1/_SNAP


def _round_half_even(n: int, d: int) -> int:
    """The nearest integer to n/d (d > 0), ties to even like round()."""
    k, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and k & 1):
        k += 1
    return k


def _simplify_2d(den: int, hull):
    """Outer approximation on the 1/_SNAP grid; returns (_SNAP, vertices).

    Inflate by a cube of radius 2/_SNAP, then snap vertices to the nearest
    grid point (error at most 1/(2*_SNAP) per coordinate).  The inflation
    margin dominates the snapping error, so the result contains the input;
    it keeps vertex coordinates small across long preimage chains.
    """
    up = (_SNAP // 2) // math.gcd(den, _SNAP // 2)
    den *= up
    fat = _mink_cube_2d([(x * up, y * up) for x, y in hull], 2 * den // _SNAP)
    snapped = [(_round_half_even(x * _SNAP, den), _round_half_even(y * _SNAP, den))
               for x, y in fat]
    return _SNAP, _hull_2d(snapped)


def _column_bounds(region, budget: int):
    """Per integer x column, the integer y-range of a convex polygon.

    region is (den, vertices), a strictly convex polygon with integer
    vertices over den.  Returns (x_lo, lows, highs): column x_lo + i holds
    the integers from lows[i] to highs[i] (none when lows[i] > highs[i]).
    Each edge is walked once over the columns it spans, keeping a running
    ceiling-minimum and floor-maximum per column.  A vertical edge adds
    nothing: its endpoints end the two edges beside it, which reach its
    column when that column is an integer.  The arithmetic is on Python
    ints, whose products pass 2**63 on SL2 chains.
    """
    den, hull = region
    if not hull:
        return 0, [], []
    xs = [v[0] for v in hull]
    x_lo, x_hi = -(-min(xs) // den), max(xs) // den
    if x_hi - x_lo + 1 > budget:
        raise BudgetError(
            f"input grid for the chain would span {x_hi - x_lo + 1} columns, "
            f"more than {budget} (raise QUASIGRID_BUDGET to override)"
        )
    # every column from x_lo to x_hi meets a non-vertical edge, so no
    # bound stays infinite
    cols = x_hi - x_lo + 1
    lows, highs = [math.inf] * cols, [-math.inf] * cols
    for p, q in zip(hull, hull[1:] + hull[:1]):
        if p[0] > q[0]:
            p, q = q, p
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx == 0:
            continue
        first, last = -(-p[0] // den), q[0] // den
        # y at column x is num / step with num = p_y*dx + (x*den - p_x)*dy
        step, inc = den * dx, den * dy
        num = p[1] * dx + (first * den - p[0]) * dy
        for i in range(first - x_lo, last - x_lo + 1):
            ceil = -(-num // step)
            if ceil < lows[i]:
                lows[i] = ceil
            floor = num // step
            if floor > highs[i]:
                highs[i] = floor
            num += inc
    return x_lo, lows, highs


def _input_region(chain: MapChain, r_out: Fraction):
    """Closed region of Z^dim inputs needed for completeness in B(0, r_out).

    dim 2 propagates the exact preimage as a convex polygon with integer
    vertices over one common denominator, returned as (den, vertices).  Per
    map, the polygon is inflated by the rounding cube in one linear pass
    (_mink_cube_2d), mapped, inflated again and snapped (_simplify_2d, the
    one sort-based hull); the start is a square, and invertible maps keep
    every polygon strictly convex, as the linear pass needs.  Other
    dimensions propagate the bounding-box preimage, which is exact for
    dim 1 and sound but wider above.
    """
    n = chain.dim
    if n == 2:
        den = 2 * r_out.denominator
        r = 2 * r_out.numerator
        region = [(-r, -r), (-r, r), (r, r), (r, -r)]
        for a in reversed(chain.matrices):
            den, region = _map_region_2d(
                invert_matrix(a), den, _mink_cube_2d(region, den // 2))
            den, region = _simplify_2d(den, region)
        return den, region
    box = IntervalBox.closed((-r_out,) * n, (r_out,) * n)
    for a in reversed(chain.matrices):
        grown = IntervalBox.closed(
            [l - HALF for l in box.lo], [h + HALF for h in box.hi]
        )
        box = preimage_bounds(a, grown)
    return box


def _region_int_points(region, n: int, budget: int) -> np.ndarray:
    """The integer points of an input region as int64 rows, x-major."""
    if n == 2:
        x_lo, lows, highs = _column_bounds(region, budget)
        counts = [max(0, b - a + 1) for a, b in zip(lows, highs)]
        total = sum(counts)
    else:
        spans = [range(math.ceil(l), math.floor(h) + 1)
                 for l, h in zip(region.lo, region.hi)]
        total = math.prod(map(len, spans))
    if total > budget:
        raise BudgetError(
            f"input grid for the chain would hold {total} points, "
            f"more than {budget} (raise QUASIGRID_BUDGET to override)"
        )
    if not total:
        return np.empty((0, n), dtype=np.int64)
    if n != 2:
        return np.array(list(itertools.product(*spans)), dtype=np.int64)
    # column i repeats x_lo + i counts[i] times, its y running up from lows[i]
    counts = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    out = np.empty((total, 2), dtype=np.int64)
    out[:, 0] = np.repeat(np.arange(x_lo, x_lo + len(counts), dtype=np.int64),
                          counts)
    out[:, 1] = (np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
                 + np.repeat(np.array(lows, dtype=np.int64), counts))
    return out


def _hat_int_array(a: RMatrix, pts: np.ndarray) -> np.ndarray:
    """Rounded images A*x over an integer point array, row for row.

    Runs on int64 when a worst-case bound rules out overflow, otherwise on
    object arrays of Python ints; the bound alone picks the dtype.
    """
    if pts.shape[0] == 0:
        return pts
    q, numer = a._int_form
    # peak >= 1 keeps every entry of numer inside the bound as well
    peak = max(1, int(np.abs(pts).max()))
    worst = 2 * max(sum(abs(c) * peak for c in row) for row in numer) + q
    dtype = np.int64 if worst < (1 << 62) else object
    num = pts.astype(dtype, copy=False) @ np.array(numer, dtype=dtype).T
    return -((-(2 * num - q)) // (2 * q))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in lexicographic order."""
    # lexsort's last key is the primary one; then keep each row that
    # differs from its predecessor
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def apply_chain(chain: MapChain, r_out) -> PointSet:
    """The chain applied to the full integer lattice, complete in B(0, r_out).

    The maps run over the input grid row for row, and the rows inside the
    ball are deduplicated once at the end: rounding is a function, so
    repeated rows do not change the image set, and they leave the maximum
    |x| that picks each map's dtype unchanged.
    """
    r_out = rat(r_out)
    if r_out <= 0:
        raise ValueError("output radius must be positive")
    region = _input_region(chain, r_out)
    pts = _region_int_points(region, chain.dim, enumeration_budget())
    for a in chain.matrices:
        pts = _hat_int_array(a, pts)
    # for an integer x, |x| < r_out exactly when |x| <= ceil(r_out) - 1;
    # the comparison is exact on int64 and on object rows of Python ints
    pts = _unique_rows(pts[(np.abs(pts) <= math.ceil(r_out) - 1).all(axis=1)])
    return PointSet.build(chain.dim, _PointView(1, list(map(tuple, pts.tolist()))),
                          (0,) * chain.dim, r_out)


# --- random chains (rotation * stretch * rotation) ---------------------------


def _series(p: int, den: int, j: int, step: int, sign: int) -> tuple[int, int]:
    """Sum of sign**i * x**(j + step*i) / (j + step*i)! for x = p/den.

    Terms are summed up to and including the first one below 2**-80 in
    absolute value.  The sum is returned unreduced, as (numerator, den**J *
    J!) with J the last term's exponent; that denominator divides the one
    of every larger J, so sums with a common p and den are brought to one
    denominator without a gcd.
    """
    num, tden = p ** j, den ** j * math.factorial(j)
    total = num
    den_step, p_step = den ** step, sign * p ** step
    while abs(num) << 80 >= tden:
        grow = den_step * math.prod(range(j + 1, j + step + 1))
        num *= p_step
        total = total * grow + num
        tden *= grow
        j += step
    return total, tden


def _over(a, b):
    """Two unreduced series sums (num, den), one denominator dividing the
    other, as (num_a, num_b, den) over the larger denominator."""
    (na, da), (nb, db) = a, b
    q = max(da, db)
    return na * (q // da), nb * (q // db), q


def _cos_sin_turn(f: Fraction) -> tuple[int, int, int]:
    """Exact-series cosine and sine of (2*pi*f), f a fraction of a turn, as
    numerators over one common denominator: (cos_num, sin_num, den)."""
    f = f - math.floor(f + HALF)
    p, den = (2 * _PI * f).as_integer_ratio()
    return _over(_series(p, den, 0, 2, -1), _series(p, den, 1, 2, -1))


def _exp(t: Fraction) -> tuple[int, int, int]:
    """Exact-series e^t and e^-t as numerators over one common denominator:
    (num_plus, num_minus, den)."""
    p, den = t.as_integer_ratio()
    return _over(_series(p, den, 0, 1, 1), _series(-p, den, 0, 1, 1))


def rotation_stretch_matrix(turn1: Fraction, stretch: Fraction,
                            turn2: Fraction) -> RMatrix:
    """R(turn1) * Diag(e^t, e^-t) * R(turn2), entries quantized to 2**-32.

    Each entry is formed on integers over the one denominator q1*qe*q2 of
    the three series pairs and rounded once, with ties to even as round()
    rounds a Fraction.
    """
    c1, s1, q1 = _cos_sin_turn(turn1)
    c2, s2, q2 = _cos_sin_turn(turn2)
    d, e, qe = _exp(stretch)
    q = q1 * qe * q2
    cd, se, sd, ce = c1 * d, s1 * e, s1 * d, c1 * e

    def entry(num):
        return Fraction(_round_half_even(num << 32, q), _QUANT)

    return RMatrix.from_rows([
        [entry(cd * c2 - se * s2), entry(-cd * s2 - se * c2)],
        [entry(sd * c2 + ce * s2), entry(-sd * s2 + ce * c2)],
    ])


def sample_sl2_chain(rng: RngState, k: int) -> MapChain:
    """k random area-preserving maps, deterministic in the stream state.

    Determinants land within 10**-6 of 1; exact unit determinant is not
    possible after quantization and is not enforced.
    """
    if k < 1:
        raise ValueError("chain length must be at least 1")
    mats = []
    for _ in range(k):
        turn1 = rng.unit()
        turn2 = rng.unit()
        stretch = rng.unit() - HALF
        mats.append(rotation_stretch_matrix(turn1, stretch, turn2))
    return MapChain(2, tuple(mats))


# --- chain text format --------------------------------------------------------
#
# line 1: `chain <k> <n>`; then k blocks of n lines with n rationals each.


def dumps_chain(chain: MapChain) -> str:
    lines = [f"chain {len(chain.matrices)} {chain.dim}"]
    for a in chain.matrices:
        for row in a.entries:
            lines.append(" ".join(format_rational(e) for e in row))
    return "\n".join(lines) + "\n"


def loads_chain(text: str) -> MapChain:
    lines = split_lines(text, "chain file")
    if not lines:
        raise FormatError("empty chain file")
    head = lines[0].split(" ")
    if len(head) != 3 or head[0] != "chain":
        raise FormatError(f"bad chain header: {lines[0]!r}")
    k = parse_int(head[1], "chain length")
    n = parse_int(head[2], "chain dimension")
    if k < 1 or n < 1:
        raise FormatError("chain needs k >= 1 and n >= 1")
    if len(lines) != 1 + k * n:
        raise FormatError(f"expected {k * n} matrix rows, found {len(lines) - 1}")
    mats = []
    for b in range(k):
        rows = []
        for i in range(n):
            tokens = lines[1 + b * n + i].split(" ")
            if len(tokens) != n:
                raise FormatError(f"matrix row needs {n} entries")
            rows.append([parse_rational(t) for t in tokens])
        mats.append(RMatrix.from_rows(rows))
    try:
        return MapChain(n, tuple(mats))
    except Exception as exc:
        raise FormatError(f"chain content invalid: {exc}") from exc


def chain_model_witness(chain: MapChain, radius):
    """Compare the direct rounding pipeline against model-set enumeration.

    Both pipelines compute the chain image of the integer lattice inside
    B(0, radius), the second by enumerating iterated_scheme(chain.matrices);
    on agreement returns None, otherwise the lexicographically first
    differing point.
    """
    from .cutproject import enumerate_model_set, iterated_scheme

    direct = apply_chain(chain, radius)
    modeled = enumerate_model_set(iterated_scheme(chain.matrices),
                                  (0,) * chain.dim, radius)
    if direct.points == modeled.patch.points:
        return None
    return min(set(direct.points) ^ set(modeled.patch.points))


def write_chain(path_or_stream, chain: MapChain) -> None:
    write_text(path_or_stream, dumps_chain(chain))


def read_chain(path_or_stream) -> MapChain:
    return loads_chain(read_text(path_or_stream))
