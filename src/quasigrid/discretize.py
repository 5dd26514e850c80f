"""Discretized linear maps on integer points and the random-chain sampler.

The discretization of an invertible map A sends an integer point x to the
componentwise rounding of A*x (ties toward the lower integer).  Chains of
such maps applied to the full integer lattice are computed soundly: the
needed input region is back-propagated through exact preimages with a
closed unit-cube slack per rounding step, so the final patch is complete
inside the requested ball.

Random chains follow a rotation * diagonal * rotation decomposition with
angles uniform on a turn and log-stretch uniform on [-1/2, 1/2].  The
trigonometric and exponential values are evaluated by exact rational
series, so sampling is bit-identical across platforms, and the resulting
entries are quantized to denominator 2**32.
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
    images = _hat_int_array(a, np.array(keys, dtype=object).reshape(-1, s.dim))
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


def _mink_cube_2d(hull, r):
    return _hull_2d(
        [(x + sx * r, y + sy * r)
         for x, y in hull for sx in (-1, 1) for sy in (-1, 1)]
    )


def _map_region_2d(inv: RMatrix, den: int, hull):
    """Image of a convex integer polygon over den under a rational matrix.

    The matrix acts through its integer numerators q * inv, so the image has
    integer vertices over den * q.  Returns the mapped vertex list, not its
    hull: a linear image of a convex polygon is in convex position already
    (clockwise when det < 0), and _simplify_2d takes the hull anyway.
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

    region is (den, hull) with integer vertices over den; yields
    (x, ceil(y_lo), floor(y_hi)) for every column the polygon meets.
    """
    den, hull = region
    if not hull:
        return
    xs = [v[0] for v in hull]
    x_lo, x_hi = -(-min(xs) // den), max(xs) // den
    if x_hi - x_lo + 1 > budget:
        raise BudgetError(
            f"input grid for the chain would span {x_hi - x_lo + 1} columns, "
            f"more than {budget} (raise QUASIGRID_BUDGET to override)"
        )
    edges = list(zip(hull, hull[1:] + hull[:1]))
    for x in range(x_lo, x_hi + 1):
        xd = x * den
        ys = []  # the polygon's y values on the column, as (num, denom)
        for p, q in edges:
            if p[0] == q[0]:
                if p[0] == xd:
                    ys.extend(((p[1], den), (q[1], den)))
            elif min(p[0], q[0]) <= xd <= max(p[0], q[0]):
                dx = q[0] - p[0]
                ys.append((p[1] * dx + (xd - p[0]) * (q[1] - p[1]), den * dx))
        if ys:
            # floor division floors for either sign of the denominator
            yield (x, min(-(-n // d) for n, d in ys),
                   max(n // d for n, d in ys))


def _input_region(chain: MapChain, r_out: Fraction):
    """Closed region of Z^dim inputs needed for completeness in B(0, r_out).

    dim 2 propagates the exact preimage as a convex polygon with integer
    vertices over one common denominator, returned as (den, vertices);
    other dimensions propagate the bounding-box preimage, which is exact
    for dim 1 and sound but wider above.
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
    if n == 2:
        cols = list(_column_bounds(region, budget))
        total = sum(max(0, b - a + 1) for _, a, b in cols)
        rows = ((x, y) for x, a, b in cols for y in range(a, b + 1))
    else:
        spans = [range(math.ceil(l), math.floor(h) + 1)
                 for l, h in zip(region.lo, region.hi)]
        total = math.prod(map(len, spans))
        rows = itertools.product(*spans)
    if total > budget:
        raise BudgetError(
            f"input grid for the chain would hold {total} points, "
            f"more than {budget} (raise QUASIGRID_BUDGET to override)"
        )
    rows = list(rows)
    if not rows:
        return np.empty((0, n), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def _hat_int_array(a: RMatrix, pts: np.ndarray) -> np.ndarray:
    """Rounded images A*x over an integer point array, deduplicated, in
    lexicographic order.

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
    rounded = -((-(2 * num - q)) // (2 * q))
    # lexicographic row sort (lexsort's last key is the primary one),
    # then keep each row that differs from its predecessor
    rounded = rounded[np.lexsort(rounded.T[::-1])]
    fresh = np.ones(rounded.shape[0], dtype=bool)
    fresh[1:] = (rounded[1:] != rounded[:-1]).any(axis=1)
    return rounded[fresh]


def apply_chain(chain: MapChain, r_out) -> PointSet:
    """The chain applied to the full integer lattice, complete in B(0, r_out)."""
    r_out = rat(r_out)
    if r_out <= 0:
        raise ValueError("output radius must be positive")
    region = _input_region(chain, r_out)
    pts = _region_int_points(region, chain.dim, enumeration_budget())
    for a in chain.matrices:
        pts = _hat_int_array(a, pts)
    # for an integer x, |x| < r_out exactly when |x| <= ceil(r_out) - 1;
    # the comparison is exact on int64 and on object rows of Python ints
    pts = pts[(np.abs(pts) <= math.ceil(r_out) - 1).all(axis=1)]
    return PointSet.build(chain.dim, _PointView(1, list(map(tuple, pts.tolist()))),
                          (0,) * chain.dim, r_out)


# --- random chains (rotation * stretch * rotation) ---------------------------


def _series(p: int, den: int, j: int, step: int, sign: int) -> Fraction:
    """Sum of sign**i * x**(j + step*i) / (j + step*i)! for x = p/den.

    Terms are summed up to and including the first one below 2**-80 in
    absolute value.  The partial sum is kept as an integer numerator over
    the current term's denominator den**j * j!, which divides the next
    term's, so no gcd is taken until the one Fraction at the end.
    """
    num, tden = p ** j, den ** j * math.factorial(j)
    total = num
    while abs(num) << 80 >= tden:
        grow = den ** step * math.prod(range(j + 1, j + step + 1))
        num *= sign * p ** step
        total = total * grow + num
        tden *= grow
        j += step
    return Fraction(total, tden)


def _cos_sin_turn(f: Fraction) -> tuple[Fraction, Fraction]:
    """Exact-series cosine and sine of (2*pi*f), f a fraction of a turn."""
    f = f - math.floor(f + HALF)
    p, den = (2 * _PI * f).as_integer_ratio()
    return _series(p, den, 0, 2, -1), _series(p, den, 1, 2, -1)


def _exp(t: Fraction) -> Fraction:
    p, den = t.as_integer_ratio()
    return _series(p, den, 0, 1, 1)


def rotation_stretch_matrix(turn1: Fraction, stretch: Fraction,
                            turn2: Fraction) -> RMatrix:
    """R(turn1) * Diag(e^t, e^-t) * R(turn2), entries quantized to 2**-32."""
    (c1, s1), (c2, s2) = (
        [x.as_integer_ratio() for x in _cos_sin_turn(t)] for t in (turn1, turn2))
    d, e = _exp(stretch).as_integer_ratio(), _exp(-stretch).as_integer_ratio()

    def entry(sign_d, u, v, sign_e, w, z):
        # sign_d*u*d*v + sign_e*w*e*z over one integer denominator, rounded
        # to 2**-32 with ties to even, as round() rounds a Fraction
        left, right = u[1] * d[1] * v[1], w[1] * e[1] * z[1]
        num = (sign_d * u[0] * d[0] * v[0] * right
               + sign_e * w[0] * e[0] * z[0] * left)
        return Fraction(_round_half_even(num << 32, left * right), _QUANT)

    return RMatrix.from_rows([
        [entry(1, c1, c2, -1, s1, s2), entry(-1, c1, s2, -1, s1, c2)],
        [entry(1, s1, c2, 1, c1, s2), entry(-1, s1, s2, 1, c1, c2)],
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
