"""Canonical finite point sets tagged with the ball they are complete on.

A PointSet records not just points but the open infinity-norm ball over
which the set is known to be the full intersection with some underlying
(usually infinite) set.  Density estimators downstream refuse to look
outside that ball, which keeps windowed statistics honest instead of
silently biased near patch boundaries.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, DomainError, FormatError
from .ratmath import Vec, inf_norm, rat, vec, vec_add, vec_sub
from .textio import format_rational, parse_int, parse_rational, split_lines


@dataclass(frozen=True)
class PointSet:
    """Sorted, deduplicated rational points inside an open ball domain."""

    dim: int
    points: tuple[Vec, ...]
    center: Vec
    radius: Fraction
    complete: bool = True

    @classmethod
    def build(cls, dim: int, points: Iterable[Sequence], center: Sequence,
              radius, complete: bool = True) -> "PointSet":
        center_v = vec(center)
        radius_f = rat(radius)
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(center_v) != dim:
            raise DimensionMismatchError("domain center does not match dim")
        if radius_f <= 0:
            raise ValueError("domain radius must be positive")
        canon = sorted({vec(p) for p in points})
        for p in canon:
            if len(p) != dim:
                raise DimensionMismatchError(f"point {p} does not have dim {dim}")
            if inf_norm(vec_sub(p, center_v)) >= radius_f:
                raise DomainError(
                    f"point {p} is outside the open domain ball "
                    f"B({center_v}, {radius_f})"
                )
        return cls(dim, tuple(canon), center_v, radius_f, complete)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        p = vec(p)
        i = bisect.bisect_left(self.points, p)
        return i < len(self.points) and self.points[i] == p

    def require_complete(self, what: str) -> None:
        if not self.complete:
            raise DomainError(
                f"{what} needs a domain-complete point set; this one is only "
                "a bounding patch (restrict it soundly first)"
            )


@dataclass(frozen=True)
class DelonePair:
    """Uniform discreteness radius and an estimated covering radius."""

    r_gamma: Fraction
    R_gamma: Fraction


def translate(s: PointSet, v: Sequence) -> PointSet:
    """Shift every point and the domain ball by v."""
    v = vec(v)
    if len(v) != s.dim:
        raise DimensionMismatchError(f"translate: dim {s.dim} vs vector {len(v)}")
    return PointSet.build(s.dim, (vec_add(p, v) for p in s.points),
                          vec_add(s.center, v), s.radius, s.complete)


def common_domain(s: PointSet, t: PointSet) -> tuple[Vec, Fraction]:
    """Largest ball contained in both domain balls (center, radius)."""
    if s.dim != t.dim:
        raise DimensionMismatchError(f"dims {s.dim} vs {t.dim}")
    lo = tuple(max(a - s.radius, b - t.radius) for a, b in zip(s.center, t.center))
    hi = tuple(min(a + s.radius, b + t.radius) for a, b in zip(s.center, t.center))
    radius = min((b - a) / 2 for a, b in zip(lo, hi))
    if radius <= 0:
        raise DomainError("domain balls have empty intersection")
    center = tuple((a + b) / 2 for a, b in zip(lo, hi))
    return center, radius


def sym_diff(s: PointSet, t: PointSet) -> PointSet:
    """Exact symmetric difference on the largest common domain ball."""
    center, radius = common_domain(s, t)
    diff = set(s.points) ^ set(t.points)
    inside = [p for p in diff if inf_norm(vec_sub(p, center)) < radius]
    return PointSet.build(s.dim, inside, center, radius,
                          s.complete and t.complete)


def restrict(s: PointSet, center: Sequence, radius) -> PointSet:
    """Points strictly inside B(center, radius); the ball must fit the domain."""
    center = vec(center)
    radius = rat(radius)
    if len(center) != s.dim:
        raise DimensionMismatchError("restrict center has wrong dimension")
    if radius <= 0:
        raise ValueError("restrict radius must be positive")
    if inf_norm(vec_sub(center, s.center)) + radius > s.radius:
        raise DomainError(
            f"B({center}, {radius}) exceeds the known-complete ball "
            f"B({s.center}, {s.radius})"
        )
    kept = [p for p in s.points if inf_norm(vec_sub(p, center)) < radius]
    return PointSet.build(s.dim, kept, center, radius, s.complete)


def _min_pairwise_distance(points: Sequence[Vec]) -> Fraction:
    # Sorted sweep: compare each point only against lexicographic successors
    # whose first coordinate is within the current best distance.
    best: Fraction | None = None
    pts = list(points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if best is not None and q[0] - p[0] >= best:
                break
            d = inf_norm(vec_sub(p, q))
            if best is None or d < best:
                best = d
    assert best is not None
    return best


def delone_estimate(s: PointSet) -> DelonePair:
    """Estimate the Delone constants of a finite patch.

    r_gamma is exact: half the minimal pairwise distance.  R_gamma is a
    grid-sweep estimate of the covering radius: centers run over a grid of
    step r_gamma spanning the bounding box of the points, and the largest
    observed empty cube radius is reported.
    """
    if len(s) < 2:
        raise ValueError("delone_estimate needs at least two points")
    r_gamma = _min_pairwise_distance(s.points) / 2
    step = r_gamma
    lo = [min(p[i] for p in s.points) for i in range(s.dim)]
    hi = [max(p[i] for p in s.points) for i in range(s.dim)]
    axes = []
    for a, b in zip(lo, hi):
        count = int((b - a) / step) + 1
        axes.append([a + k * step for k in range(count)] + [b])
    if s.dim == 1:
        coords = sorted(p[0] for p in s.points)
        best = Fraction(0)
        for x in axes[0]:
            i = bisect.bisect_left(coords, x)
            nearest = min(
                (abs(coords[j] - x) for j in (i - 1, i) if 0 <= j < len(coords)),
            )
            if nearest > best:
                best = nearest
    else:
        best = Fraction(0)
        for x in itertools.product(*axes):
            nearest = min(inf_norm(vec_sub(p, x)) for p in s.points)
            if nearest > best:
                best = nearest
    # the midpoint of the closest pair always carries an empty ball of
    # radius r_gamma, so the estimate never sits below it
    return DelonePair(r_gamma, max(best, r_gamma))


# --- QPS text format -------------------------------------------------------
#
# line 1: `qps 1`
# line 2: `dim <n>`
# line 3: `domain <c1> ... <cn> <R>`
# then one point per line, coordinates space separated, lines sorted
# lexicographically by coordinate tuple.


def dumps_qps(s: PointSet) -> str:
    s.require_complete("writing a QPS file")
    lines = [
        "qps 1",
        f"dim {s.dim}",
        "domain " + " ".join(format_rational(c) for c in s.center)
        + " " + format_rational(s.radius),
    ]
    for p in s.points:
        lines.append(" ".join(format_rational(c) for c in p))
    return "\n".join(lines) + "\n"


def loads_qps(text: str) -> PointSet:
    lines = split_lines(text, "QPS file")
    if len(lines) < 3:
        raise FormatError("QPS file is shorter than its fixed header")
    if lines[0] != "qps 1":
        raise FormatError(f"bad QPS magic line: {lines[0]!r}")
    dim_parts = lines[1].split(" ")
    if len(dim_parts) != 2 or dim_parts[0] != "dim":
        raise FormatError(f"bad QPS dim line: {lines[1]!r}")
    dim = parse_int(dim_parts[1], "QPS dimension")
    if dim < 1:
        raise FormatError("QPS dimension must be positive")
    dom_parts = lines[2].split(" ")
    if len(dom_parts) != dim + 2 or dom_parts[0] != "domain":
        raise FormatError(f"bad QPS domain line: {lines[2]!r}")
    center = [parse_rational(t) for t in dom_parts[1:-1]]
    radius = parse_rational(dom_parts[-1])
    points = []
    for line in lines[3:]:
        tokens = line.split(" ")
        if len(tokens) != dim:
            raise FormatError(f"point line has {len(tokens)} coordinates, not {dim}")
        points.append(tuple(parse_rational(t) for t in tokens))
    for prev, cur in zip(points, points[1:]):
        if prev >= cur:
            raise FormatError("QPS point lines are not in canonical order")
    try:
        return PointSet.build(dim, points, center, radius)
    except (DomainError, ValueError, DimensionMismatchError) as exc:
        raise FormatError(f"QPS content invalid: {exc}") from exc


def write_qps(path_or_stream, s: PointSet) -> None:
    text = dumps_qps(s)
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def read_qps(path_or_stream) -> PointSet:
    if hasattr(path_or_stream, "read"):
        return loads_qps(path_or_stream.read())
    with open(path_or_stream, "r", encoding="utf-8", newline="") as fh:
        return loads_qps(fh.read())
