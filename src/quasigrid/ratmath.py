"""Exact rational scalars, vectors, matrices, interval boxes and rounding.

Scalars are `fractions.Fraction` throughout (arbitrary precision, always
reduced, positive denominator).  Vectors are plain tuples of Fractions;
matrices carry a row-major tuple grid.  All geometry is taken in the
infinity norm, and balls are open: B(x, R) = {y : |x_i - y_i| < R for all i}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Rational as _RationalABC
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, SingularMatrixError

Rational = Fraction
Vec = tuple[Fraction, ...]

HALF = Fraction(1, 2)


def rat(x) -> Fraction:
    """Coerce an int, Fraction or exact-rational string to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, _RationalABC)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(coords: Iterable) -> Vec:
    return tuple(rat(c) for c in coords)


def _scale_to_ints(points: Iterable[Sequence[Fraction]],
                   dim: int) -> tuple[int, list[tuple[int, ...]]]:
    """Put rational points on one common denominator.

    Returns (L, keys): L is the lcm of the denominators of every point
    coordinate and keys[i] is points[i] * L as a tuple of ints.  Each point
    must have exactly dim Fraction coordinates.  Scaling by L > 0 keeps
    equality, lexicographic order and strict inequalities, so the keys can
    stand in for the points.
    """
    ratios = list(map(Fraction.as_integer_ratio,
                      itertools.chain.from_iterable(points)))
    scale = math.lcm(*{d for _, d in ratios})
    flat = iter([n * (scale // d) for n, d in ratios])
    return scale, list(zip(*[flat] * dim))


def _times(x: Fraction, scale: int) -> int:
    """x * scale for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def round_scalar(x) -> int:
    """The unique integer k with k - 1/2 < x <= k + 1/2 (ties go down).

    For x = n/d (d > 0) this is ceil(x - 1/2) = ceil((2n - d) / 2d), taken in
    integer arithmetic so no intermediate Fraction is built and reduced.
    """
    n, d = rat(x).as_integer_ratio()
    return -((d - 2 * n) // (2 * d))


def round_vector(x: Sequence) -> Vec:
    """Componentwise round_scalar, landing on the integer lattice."""
    return tuple(Fraction(round_scalar(c)) for c in x)


def ball_volume(radius, dim: int) -> Fraction:
    """Lebesgue volume (2R)^n of the open infinity-norm ball of radius R."""
    radius = rat(radius)
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return (2 * radius) ** dim


def inf_norm(x: Sequence) -> Fraction:
    return max((abs(rat(c)) for c in x), default=Fraction(0))


def vec_add(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector dims {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector dims {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class RMatrix:
    """Immutable rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RMatrix":
        grid = tuple(tuple(rat(e) for e in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged matrix rows")
        return cls(len(grid), width, grid)

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls.from_rows(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def apply(self, x: Sequence) -> Vec:
        """Matrix-vector product."""
        if len(x) != self.cols:
            raise DimensionMismatchError(
                f"matrix is {self.rows}x{self.cols}, vector has length {len(x)}"
            )
        xs = [rat(c) for c in x]
        return tuple(sum(a * b for a, b in zip(row, xs)) for row in self.entries)

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return RMatrix.from_rows(
            [
                [
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    @cached_property
    def _elimination(self) -> tuple[Fraction, "RMatrix | None"]:
        """(determinant, inverse or None) of a square matrix, from one exact
        Gauss-Jordan pass that keeps the signed product of its pivots."""
        n = self.rows
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.entries)]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                return Fraction(0), None
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det *= work[col][col]
            inv = 1 / work[col][col]
            work[col] = [e * inv for e in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det, RMatrix.from_rows([row[n:] for row in work])

    @cached_property
    def _int_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(q, rows): q the lcm of the entry denominators, rows = q * entries."""
        q, rows = _scale_to_ints(self.entries, self.cols)
        return q, tuple(rows)

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        return self._elimination[0]

    def op_norm_inf(self) -> Fraction:
        """Operator norm for the infinity norm: max absolute row sum."""
        return max(sum(abs(e) for e in row) for row in self.entries)


def invert_matrix(m: RMatrix) -> RMatrix:
    """Exact inverse from m's cached elimination; raises on zero determinant."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    inverse = m._elimination[1]
    if inverse is None:
        raise SingularMatrixError("matrix is singular")
    return inverse


def _block_bidiagonal(diagonal: Sequence[RMatrix]) -> RMatrix:
    """Upper block-bidiagonal matrix: the given invertible n x n blocks on the
    diagonal and -Id above each of them but the last.

    Its elimination cache is filled from the blocks, with no Gauss-Jordan on
    the whole matrix: the determinant is the product of the blocks', and
    block (b, c) of the inverse is D_b^-1 D_(b+1)^-1 ... D_c^-1 for c >= b,
    zero below the diagonal.
    """
    n, k = diagonal[0].rows, len(diagonal)
    size = n * k
    zero, minus_one = Fraction(0), Fraction(-1)
    grid = [[zero] * size for _ in range(size)]
    inverse = [[zero] * size for _ in range(size)]
    det = Fraction(1)
    below: list[RMatrix] = []  # row b + 1 of the inverse, blocks c > b
    for b in reversed(range(k)):
        block = diagonal[b]
        det *= block.determinant()
        block_inv = invert_matrix(block)
        below = [block_inv] + [block_inv.matmul(x) for x in below]
        for i in range(n):
            grid[b * n + i][b * n:b * n + n] = block.entries[i]
            if b + 1 < k:
                grid[b * n + i][(b + 1) * n + i] = minus_one
            inverse[b * n + i][b * n:] = itertools.chain.from_iterable(
                x.entries[i] for x in below)
    m = RMatrix.from_rows(grid)
    m.__dict__["_elimination"] = (det, RMatrix.from_rows(inverse))
    return m


@dataclass(frozen=True)
class IntervalBox:
    """Axis-aligned box with per-face open/closed flags.

    Axis i spans lo[i]..hi[i]; a face flag True means that face is closed.
    A zero-axis box is allowed and contains the unique point of R^0.
    """

    lo: Vec
    hi: Vec
    lo_closed: tuple[bool, ...]
    hi_closed: tuple[bool, ...]

    @classmethod
    def closed(cls, lo: Sequence, hi: Sequence) -> "IntervalBox":
        lo, hi = vec(lo), vec(hi)
        return cls(lo, hi, (True,) * len(lo), (True,) * len(hi))

    @classmethod
    def from_faces(cls, faces: Sequence[tuple]) -> "IntervalBox":
        """Build from (lo, lo_closed, hi, hi_closed) per axis."""
        lo = vec(f[0] for f in faces)
        hi = vec(f[2] for f in faces)
        return cls(lo, hi, tuple(bool(f[1]) for f in faces),
                   tuple(bool(f[3]) for f in faces))

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.lo_closed) == len(self.hi_closed)):
            raise DimensionMismatchError("box faces have inconsistent lengths")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"box axis has lo {a} > hi {b}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        """True when some axis degenerates to an excluded point."""
        for a, b, ac, bc in zip(self.lo, self.hi, self.lo_closed, self.hi_closed):
            if a == b and not (ac and bc):
                return True
        return False

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"box dim {self.dim}, point dim {len(point)}"
            )
        for x, a, b, ac, bc in zip(point, self.lo, self.hi, self.lo_closed, self.hi_closed):
            x = rat(x)
            if x < a or (x == a and not ac):
                return False
            if x > b or (x == b and not bc):
                return False
        return True


def preimage_bounds(m: RMatrix, box: IntervalBox) -> IntervalBox:
    """A closed box guaranteed to contain the preimage M^-1(box).

    Row i of the exact inverse B gives the bounds
        lo_i = sum_j min(b_ij lo_j, b_ij hi_j),
        hi_i = sum_j max(b_ij lo_j, b_ij hi_j).
    A linear form is a sum of one-coordinate terms, so over a box each term
    reaches its extreme independently of the others: the result is exactly
    the componentwise hull of the images of all 2^dim corners, at O(dim^2)
    cost instead of O(2^dim dim^2).
    """
    if m.rows != m.cols:
        raise ValueError("preimage bounds need a square matrix")
    if box.dim != m.rows:
        raise DimensionMismatchError(f"matrix dim {m.rows}, box dim {box.dim}")
    inv = invert_matrix(m)
    lo, hi = [], []
    for row in inv.entries:
        row_lo = row_hi = Fraction(0)
        for b, a, c in zip(row, box.lo, box.hi):
            if b > 0:
                row_lo += b * a
                row_hi += b * c
            elif b < 0:
                row_lo += b * c
                row_hi += b * a
        lo.append(row_lo)
        hi.append(row_hi)
    return IntervalBox(tuple(lo), tuple(hi), (True,) * m.rows, (True,) * m.rows)
