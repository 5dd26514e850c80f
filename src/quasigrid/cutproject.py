"""Model-set engine: lattices with an internal/physical split and windows.

A scheme holds an invertible basis of R^(m+n) (columns generate the
lattice), the split into m internal and n physical coordinates, and an
acceptance window given as a finite union of flagged boxes in internal
space.  Points of the model set are the physical projections of lattice
vectors whose internal projection lands in the window.

Enumeration inside a ball is complete and exact: the membership conditions
become integer linear constraints on the lattice coefficients, with the
rows of the basis's integer form q*B and each face bound rounded to the
integers it admits, and go to the latticeenum solver.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, FormatError, SingularMatrixError
from .latticeenum import IntConstraints, enumeration_budget, solve_integer_box
from .pointset import PointSet, _PointView
from .ratmath import (
    HALF,
    IntervalBox,
    RMatrix,
    Vec,
    _block_bidiagonal,
    ball_volume,
    preimage_bounds,
    rat,
    vec,
)
from .textio import (format_rational, parse_int, parse_rational, read_text,
                     split_lines, write_text)


@dataclass(frozen=True)
class Window:
    """Union of flagged boxes in internal space; dim 0 means no condition."""

    dim_internal: int
    boxes: tuple[IntervalBox, ...]

    def __post_init__(self):
        if self.dim_internal < 0:
            raise ValueError("internal dimension cannot be negative")
        if not self.boxes:
            raise ValueError("a window needs at least one box")
        for box in self.boxes:
            if box.dim != self.dim_internal:
                raise DimensionMismatchError(
                    f"window box dim {box.dim} != internal dim {self.dim_internal}"
                )
            if box.is_empty():
                raise ValueError("window boxes must be nonempty")

    @classmethod
    def vacuous(cls) -> "Window":
        return cls(0, (IntervalBox((), (), (), ()),))

    @classmethod
    def cube(cls, m: int, radius) -> "Window":
        """The closed cube of the given radius around the origin."""
        radius = rat(radius)
        return cls(m, (IntervalBox.closed((-radius,) * m, (radius,) * m),))

    def contains(self, p: Sequence) -> bool:
        return any(box.contains(p) for box in self.boxes)


@dataclass(frozen=True)
class CutProjectScheme:
    """Lattice basis plus split; p1 = first m coords, p2 = last n coords."""

    m: int
    n: int
    basis: RMatrix
    window: Window

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        d = self.m + self.n
        if self.basis.rows != d or self.basis.cols != d:
            raise DimensionMismatchError(
                f"basis must be {d}x{d}, got {self.basis.rows}x{self.basis.cols}"
            )
        if self.window.dim_internal != self.m:
            raise DimensionMismatchError("window dimension must equal m")
        if self.basis.determinant() == 0:
            raise SingularMatrixError("lattice basis is singular")


@dataclass(frozen=True)
class ModelSetPatch:
    scheme: CutProjectScheme
    patch: PointSet
    multiplicity_dropped: int


def zn_scheme(n: int) -> CutProjectScheme:
    """The trivial scheme whose model set is the integer lattice Z^n."""
    return CutProjectScheme(0, n, RMatrix.identity(n), Window.vacuous())


def _scaled_constraints(scheme: CutProjectScheme, window_box: IntervalBox,
                        center: Vec, radius: Fraction) -> IntConstraints:
    """The integer system of one window box and the ball B(center, radius).

    Its rows are the basis's integer form R = q*B.  R*c is an integer for an
    integer c, so a face bound b becomes the integers that q*b admits: a
    closed lower face ceil(q*b), an open one floor(q*b) + 1, a closed upper
    face floor(q*b), an open one ceil(q*b) - 1.
    """
    n = scheme.n
    target_lo = window_box.lo + tuple(c - radius for c in center)
    target_hi = window_box.hi + tuple(c + radius for c in center)
    lo_closed = window_box.lo_closed + (False,) * n
    hi_closed = window_box.hi_closed + (False,) * n

    coeff_box = preimage_bounds(scheme.basis,
                                IntervalBox.closed(target_lo, target_hi))
    var_lo = [math.ceil(x) for x in coeff_box.lo]
    var_hi = [math.floor(x) for x in coeff_box.hi]

    q, rows = scheme.basis._int_form
    lo = [-(-q * b.numerator // b.denominator) if closed
          else q * b.numerator // b.denominator + 1
          for b, closed in zip(target_lo, lo_closed)]
    hi = [q * b.numerator // b.denominator if closed
          else -(-q * b.numerator // b.denominator) - 1
          for b, closed in zip(target_hi, hi_closed)]
    return IntConstraints(list(rows), lo, hi, var_lo, var_hi)


def _images(rows: list[list[int]],
            vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The integer matrix rows applied to each vector, one column at a time."""
    if not vectors:
        return []
    columns = list(zip(*vectors))
    images = []
    for row in rows:
        acc = itertools.repeat(0, len(vectors))
        for a, column in zip(row, columns):
            if a:
                acc = map(operator.add, acc,
                          map(operator.mul, itertools.repeat(a), column))
        images.append(acc)
    return list(zip(*images))


def enumerate_model_set(scheme: CutProjectScheme, center: Sequence,
                        radius) -> ModelSetPatch:
    """All model-set points strictly inside B(center, radius), with dedup.

    The physical projection need not be injective; coefficient vectors whose
    projections collide are counted in multiplicity_dropped.
    """
    center = vec(center)
    radius = rat(radius)
    if len(center) != scheme.n:
        raise DimensionMismatchError("center must live in physical space")
    if radius <= 0:
        raise ValueError("enumeration radius must be positive")
    budget = enumeration_budget()

    accepted: set[tuple[int, ...]] = set()
    for window_box in scheme.window.boxes:
        cons = _scaled_constraints(scheme, window_box, center, radius)
        if all(l <= h for l, h in zip(cons.lo, cons.hi)):
            accepted.update(solve_integer_box(cons, budget))
    # the physical rows on the smallest scale that keeps them integral
    q, rows = scheme.basis._int_form
    physical = rows[scheme.m:]
    g = math.gcd(q, *itertools.chain.from_iterable(physical))
    keys = _images([[a // g for a in row] for row in physical], list(accepted))
    # coefficient vectors can share a projection; build deduplicates them
    patch = PointSet.build(scheme.n, _PointView(q // g, keys), center, radius)
    return ModelSetPatch(scheme, patch, len(accepted) - len(patch))


def translation_set(scheme: CutProjectScheme, eta, radius) -> PointSet:
    """Candidate near-translations: same lattice, window swapped for the
    closed cube of radius eta around the internal origin."""
    eta = rat(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    swapped = CutProjectScheme(scheme.m, scheme.n, scheme.basis,
                               Window.cube(scheme.m, eta))
    return enumerate_model_set(swapped, (0,) * scheme.n, radius).patch


# --- flagged box subtraction (for window inflation) -------------------------
#
# Each face is an endpoint key (value, eps): eps +1 marks an open lower face,
# -1 an open upper face, 0 a closed face.  Keys order as the faces do, so an
# axis from lower key l to upper key h is non-empty iff l <= h, and two axes
# overlap from the larger lower key to the smaller upper one.  The part of
# an axis below a lower face (v, eps) ends at the upper key (v, eps - 1); the
# part above an upper face (v, eps) starts at the lower key (v, eps + 1).


def _endpoint_keys(box: IntervalBox):
    """Per axis, the (lower key, upper key) pair of the box's faces."""
    return [((lo, 0 if lo_c else 1), (hi, 0 if hi_c else -1))
            for lo, hi, lo_c, hi_c
            in zip(box.lo, box.hi, box.lo_closed, box.hi_closed)]


def _box_of(axes) -> IntervalBox:
    """The flagged box of per-axis (lower key, upper key) pairs."""
    lo_keys, hi_keys = zip(*axes)
    return IntervalBox(tuple(v for v, _ in lo_keys), tuple(v for v, _ in hi_keys),
                       tuple(e == 0 for _, e in lo_keys),
                       tuple(e == 0 for _, e in hi_keys))


def box_minus(a: IntervalBox, b: IntervalBox) -> list[IntervalBox]:
    """a \\ b as disjoint flagged boxes (exact, including face flags)."""
    if a.dim != b.dim:
        raise DimensionMismatchError("box dims differ")
    a_axes, b_axes = _endpoint_keys(a), _endpoint_keys(b)
    overlap = [(max(a_lo, b_lo), min(a_hi, b_hi))
               for (a_lo, a_hi), (b_lo, b_hi) in zip(a_axes, b_axes)]
    if any(lo > hi for lo, hi in overlap):
        return [a]
    out = []
    for i, (lo, hi) in enumerate(a_axes):
        (b_lo, lo_eps), (b_hi, hi_eps) = b_axes[i]
        below = (lo, min(hi, (b_lo, lo_eps - 1)))
        above = (max(lo, (b_hi, hi_eps + 1)), hi)
        for piece in (below, above):
            if piece[0] <= piece[1]:
                out.append(_box_of(overlap[:i] + [piece] + a_axes[i + 1:]))
    return out


def boxes_minus(minuend: Sequence[IntervalBox],
                subtrahend: Sequence[IntervalBox]) -> list[IntervalBox]:
    result = list(minuend)
    for b in subtrahend:
        result = [piece for a in result for piece in box_minus(a, b)]
    return result


def window_inflation_density(scheme: CutProjectScheme, eta,
                             radius) -> Fraction:
    """Windowed density of the boundary-tube model set Q(eta) over B(0, R).

    The tube window is the closed eta-inflation of the original window
    minus the open eta-deflation, realized exactly as a flagged box-union
    difference.  Deflating per box under-approximates the true erosion of
    the union, so the difference over-approximates the boundary tube and
    the returned density stays a valid upper bound.
    """
    eta = rat(eta)
    radius = rat(radius)
    if eta <= 0:
        raise ValueError("eta must be positive")
    inflated = [
        IntervalBox.closed([l - eta for l in box.lo], [h + eta for h in box.hi])
        for box in scheme.window.boxes
    ]
    shrunk = []
    for box in scheme.window.boxes:
        lo = [l + eta for l in box.lo]
        hi = [h - eta for h in box.hi]
        if all(a < b for a, b in zip(lo, hi)):
            flags = (False,) * box.dim
            shrunk.append(IntervalBox(tuple(lo), tuple(hi), flags, flags))
    tube = boxes_minus(inflated, shrunk)
    if not tube:
        return Fraction(0)
    tube_scheme = CutProjectScheme(scheme.m, scheme.n, scheme.basis,
                                   Window(scheme.m, tuple(tube)))
    patch = enumerate_model_set(tube_scheme, (0,) * scheme.n, radius)
    return Fraction(len(patch.patch)) / ball_volume(radius, scheme.n)


# --- image and iterated constructions ---------------------------------------


def image_scheme(a: RMatrix, scheme: CutProjectScheme) -> CutProjectScheme:
    """Scheme whose model set is the rounded image of the input model set.

    Internal space grows by n coordinates holding A*p2(lambda) - d for a new
    integer block d; confining them to (-1/2, 1/2]^n pins d to the rounded
    image point, which becomes the new physical projection.
    """
    n = scheme.n
    if a.rows != n or a.cols != n:
        raise DimensionMismatchError(f"map must be {n}x{n}")
    if a.determinant() == 0:
        raise SingularMatrixError("image map is singular")
    m, d = scheme.m, scheme.m + scheme.n
    b1 = [scheme.basis.entries[i] for i in range(m)]
    b2 = RMatrix.from_rows([scheme.basis.entries[m + i] for i in range(n)])
    ab2 = a.matmul(b2)
    zero = Fraction(0)
    rows = []
    for i in range(m):
        rows.append(list(b1[i]) + [zero] * n)
    for i in range(n):
        rows.append(list(ab2.entries[i])
                    + [Fraction(-1) if j == i else zero for j in range(n)])
    for i in range(n):
        rows.append([zero] * d
                    + [Fraction(1) if j == i else zero for j in range(n)])
    new_boxes = tuple(
        IntervalBox(box.lo + (-HALF,) * n, box.hi + (HALF,) * n,
                    box.lo_closed + (False,) * n, box.hi_closed + (True,) * n)
        for box in scheme.window.boxes
    )
    return CutProjectScheme(m + n, n, RMatrix.from_rows(rows),
                            Window(m + n, new_boxes))


def iterated_scheme(maps: Sequence[RMatrix]) -> CutProjectScheme:
    """Scheme for the k-fold rounded image of Z^n under the given maps.

    Basis blocks: the maps on the diagonal, -Id on the superdiagonal, Id in
    the lower-right corner; window is the half-open unit cube in the n*k
    internal coordinates.
    """
    if not maps:
        raise ValueError("need at least one map")
    n = maps[0].rows
    for a in maps:
        if a.rows != n or a.cols != n:
            raise DimensionMismatchError("all maps must be square of equal size")
        if a.determinant() == 0:
            raise SingularMatrixError("iterated map is singular")
    m = n * len(maps)
    window = Window(m, (IntervalBox((-HALF,) * m, (HALF,) * m,
                                    (False,) * m, (True,) * m),))
    basis = _block_bidiagonal([*maps, RMatrix.identity(n)])
    return CutProjectScheme(m, n, basis, window)


# --- scheme text format ------------------------------------------------------
#
# line 1: `cps 1`
# line 2: `dims <m> <n>`
# then m+n lines of m+n rationals (basis rows)
# then `window <#boxes>`; per box, m lines `lo <o|c> <val> hi <o|c> <val>`.


def dumps_scheme(scheme: CutProjectScheme) -> str:
    lines = ["cps 1", f"dims {scheme.m} {scheme.n}"]
    for row in scheme.basis.entries:
        lines.append(" ".join(format_rational(e) for e in row))
    lines.append(f"window {len(scheme.window.boxes)}")
    for box in scheme.window.boxes:
        for i in range(scheme.m):
            lines.append(
                f"lo {'c' if box.lo_closed[i] else 'o'} "
                f"{format_rational(box.lo[i])} "
                f"hi {'c' if box.hi_closed[i] else 'o'} "
                f"{format_rational(box.hi[i])}"
            )
    return "\n".join(lines) + "\n"


def loads_scheme(text: str) -> CutProjectScheme:
    lines = split_lines(text, "scheme file")
    if len(lines) < 2 or lines[0] != "cps 1":
        raise FormatError("bad scheme magic line")
    dims = lines[1].split(" ")
    if len(dims) != 3 or dims[0] != "dims":
        raise FormatError(f"bad dims line: {lines[1]!r}")
    m = parse_int(dims[1], "internal dimension")
    n = parse_int(dims[2], "physical dimension")
    if m < 0 or n < 1:
        raise FormatError("need m >= 0 and n >= 1")
    d = m + n
    if len(lines) < 2 + d + 1:
        raise FormatError("scheme file truncated before window")
    rows = []
    for line in lines[2:2 + d]:
        tokens = line.split(" ")
        if len(tokens) != d:
            raise FormatError(f"basis row needs {d} entries: {line!r}")
        rows.append([parse_rational(t) for t in tokens])
    header = lines[2 + d].split(" ")
    if len(header) != 2 or header[0] != "window":
        raise FormatError(f"bad window header: {lines[2 + d]!r}")
    count = parse_int(header[1], "window box count")
    if count < 1:
        raise FormatError("window needs at least one box")
    body = lines[3 + d:]
    if len(body) != count * m:
        raise FormatError(
            f"expected {count * m} window face lines, found {len(body)}"
        )
    boxes = []
    for b in range(count):
        faces = []
        for i in range(m):
            tokens = body[b * m + i].split(" ")
            if (len(tokens) != 6 or tokens[0] != "lo" or tokens[3] != "hi"
                    or tokens[1] not in "oc" or tokens[4] not in "oc"):
                raise FormatError(f"bad window face line: {body[b * m + i]!r}")
            faces.append((parse_rational(tokens[2]), tokens[1] == "c",
                          parse_rational(tokens[5]), tokens[4] == "c"))
        boxes.append(IntervalBox.from_faces(faces))
    try:
        basis = RMatrix.from_rows(rows)
        return CutProjectScheme(m, n, basis, Window(m, tuple(boxes)))
    except (ValueError, DimensionMismatchError, SingularMatrixError) as exc:
        raise FormatError(f"scheme content invalid: {exc}") from exc


def write_scheme(path_or_stream, scheme: CutProjectScheme) -> None:
    write_text(path_or_stream, dumps_scheme(scheme))


def read_scheme(path_or_stream) -> CutProjectScheme:
    return loads_scheme(read_text(path_or_stream))
