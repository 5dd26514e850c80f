"""Canonical finite point sets tagged with the ball they are complete on.

A PointSet records not just points but the open infinity-norm ball over
which the set is known to be the full intersection with some underlying
(usually infinite) set.  Density estimators downstream refuse to look
outside that ball, which keeps windowed statistics honest instead of
silently biased near patch boundaries.

The set operations (translate, sym_diff, restrict) run on the sets' integer
keys, and every open-ball test is one _in_ball on them; the analysis layer
builds its differences and window counts from these public operations.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, DomainError, FormatError
from .ratmath import (Vec, _scale_to_ints, _times, inf_norm, rat, vec, vec_add,
                      vec_sub)
from .textio import (RATIONAL_RE, format_rational, parse_int, parse_ratio,
                     parse_rational, read_text, split_lines, write_text)

_Keys = list[tuple[int, ...]]


class _PointView(_SequenceABC):
    """Points stored as integer keys: point i is keys[i] / L.

    Reads as the tuple of Fraction tuples it stands for (length, indexing,
    iteration, equality with such a tuple, hash); the tuple is made on the
    first read that needs it and kept.  A slice is a plain tuple.  The
    scale is reduced on construction, L = 1 for no points, so two views of
    the same points hold the same (L, keys) and compare without Fractions.
    """

    __slots__ = ("scale", "keys", "_points")

    def __init__(self, scale: int, keys: _Keys):
        g = scale
        for k in keys:
            if g == 1:
                break
            g = math.gcd(g, *k)
        if g > 1:
            keys = [tuple(x // g for x in k) for k in keys]
        self.scale, self.keys = scale // g, keys
        self._points: tuple[Vec, ...] | None = None

    @property
    def _tuple(self) -> tuple[Vec, ...]:
        if self._points is None:
            scale = self.scale
            frac = {x: Fraction(x, scale)
                    for x in set(itertools.chain.from_iterable(self.keys))}
            self._points = tuple(tuple(map(frac.__getitem__, k))
                                 for k in self.keys)
        return self._points

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        return self._tuple[i]

    def __iter__(self):
        return iter(self._tuple)

    def __eq__(self, other) -> bool:
        if isinstance(other, _PointView):
            return self.scale == other.scale and self.keys == other.keys
        if isinstance(other, tuple):
            return self._tuple == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return repr(self._tuple)


@dataclass(frozen=True)
class PointSet:
    """Sorted, deduplicated rational points inside an open ball domain.

    The points are held as integer keys: with L a common multiple of the
    coordinate denominators, point p has key p * L as a tuple of ints.
    Keys sort, compare and test the ball exactly as the points do, so
    canonical order, set algebra and domain checks run on ints; `points`
    makes the Fraction tuples only when it is read.  A set made directly
    from a tuple of Fraction tuples (dataclasses.replace, say) works too.
    """

    dim: int
    points: Sequence[Vec]
    center: Vec
    radius: Fraction
    complete: bool = True

    @classmethod
    def build(cls, dim: int, points: Iterable[Sequence], center: Sequence,
              radius, complete: bool = True) -> "PointSet":
        """The canonical set of the given points, which may also be a
        _PointView of keys in any order and with repeats."""
        center_v = vec(center)
        radius_f = rat(radius)
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(center_v) != dim:
            raise DimensionMismatchError("domain center does not match dim")
        if radius_f <= 0:
            raise ValueError("domain radius must be positive")
        if isinstance(points, _PointView):
            scale, keys = points.scale, points.keys
        else:
            pts = [vec(p) for p in points]
            if set(map(len, pts)) - {dim}:
                bad = min(p for p in pts if len(p) != dim)
                raise DimensionMismatchError(f"point {bad} does not have dim {dim}")
            scale, keys = _scale_to_ints(pts, dim)
        order = sorted(keys)
        if not all(map(operator.lt, order, itertools.islice(order, 1, None))):
            order = list(dict.fromkeys(order))
        inside = _in_ball(order, scale, center_v, radius_f)
        if len(inside) < len(order):
            first = next((i for i, j in enumerate(inside) if i != j), len(inside))
            bad = tuple(Fraction(x, scale) for x in order[first])
            raise DomainError(
                f"point {bad} is outside the open domain ball "
                f"B({center_v}, {radius_f})"
            )
        return cls(dim, _PointView(scale, order), center_v, radius_f, complete)

    @cached_property
    def _keys(self) -> tuple[int, _Keys]:
        """(L, keys) for the points, L a common multiple of their denominators."""
        if isinstance(self.points, _PointView):
            return self.points.scale, self.points.keys
        return _scale_to_ints(self.points, self.dim)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        p = vec(p)
        scale, keys = self._keys
        if len(p) != self.dim or any(scale % c.denominator for c in p):
            return False
        key = tuple(_times(c, scale) for c in p)
        i = bisect.bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def require_complete(self, what: str) -> None:
        if not self.complete:
            raise DomainError(
                f"{what} needs a domain-complete point set; this one is only "
                "a bounding patch (restrict it soundly first)"
            )


def _group(flat: Iterable[int], dim: int) -> list[tuple]:
    """Consecutive runs of dim values as tuples."""
    return list(zip(*[iter(flat)] * dim))


def _keys_at(s: PointSet, scale: int) -> _Keys:
    """The keys of s rescaled to scale, a multiple of its own."""
    own, keys = s._keys
    if scale == own:
        return keys
    return _group(map(operator.mul, itertools.chain.from_iterable(keys),
                      itertools.repeat(scale // own)), s.dim)


def _in_ball(keys: _Keys, scale: int, center: Vec,
             radius: Fraction) -> Sequence[int]:
    """Indices of the sorted keys, on the given scale, that lie in the open
    ball B(center, radius): the first axis by bisection, the others by one
    filter each."""
    # an integer lies strictly between (c - R) L and (c + R) L iff it lies
    # strictly between the floor of the one and the ceiling of the other;
    # with c = a/b and R = e/f those ends are (a f -+ e b) L / (b f)
    lo, hi = [], []
    for c in center:
        den = c.denominator * radius.denominator
        mid = c.numerator * radius.denominator * scale
        half = radius.numerator * c.denominator * scale
        lo.append((mid - half) // den)
        hi.append(-((-mid - half) // den))
    first = bisect.bisect_left(keys, (lo[0] + 1,))
    last = bisect.bisect_left(keys, (hi[0],), first)
    idx: Sequence[int] = range(first, last)
    for axis in range(1, len(lo)):
        a, b = lo[axis], hi[axis]
        idx = [i for i in idx if a < keys[i][axis] < b]
    return idx


@dataclass(frozen=True)
class DelonePair:
    """Uniform discreteness radius and an estimated covering radius."""

    r_gamma: Fraction
    R_gamma: Fraction


def translate(s: PointSet, v: Sequence) -> PointSet:
    """Shift every point and the domain ball by v.

    A shift keeps lexicographic order and ball membership, so the result
    needs no sort and no check: its keys are the old ones plus v * L, on a
    common multiple L of their scale and the denominators of v.
    """
    v = vec(v)
    if len(v) != s.dim:
        raise DimensionMismatchError(f"translate: dim {s.dim} vs vector {len(v)}")
    scale = math.lcm(s._keys[0], *(c.denominator for c in v))
    keys = _group(
        map(operator.add, itertools.chain.from_iterable(_keys_at(s, scale)),
            itertools.cycle([_times(c, scale) for c in v])), s.dim)
    return PointSet(s.dim, _PointView(scale, keys), vec_add(s.center, v),
                    s.radius, s.complete)


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
    scale = math.lcm(s._keys[0], t._keys[0])
    diff = sorted(set(_keys_at(s, scale)) ^ set(_keys_at(t, scale)))
    keys = [diff[i] for i in _in_ball(diff, scale, center, radius)]
    return PointSet(s.dim, _PointView(scale, keys), center, radius,
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
    scale, keys = s._keys
    kept = [keys[i] for i in _in_ball(keys, scale, center, radius)]
    return PointSet(s.dim, _PointView(scale, kept), center, radius, s.complete)


def _min_pairwise_distance(scale: int, keys: _Keys) -> Fraction:
    """Least infinity-norm distance between two of the sorted, distinct
    keys, as a Fraction: the keys are points times the scale L."""
    # Sorted sweep: compare each key only against lexicographic successors
    # whose first coordinate is within the current best distance.
    best: int | None = None
    for i, p in enumerate(keys):
        for j in range(i + 1, len(keys)):
            q = keys[j]
            if best is not None and q[0] - p[0] >= best:
                break
            d = max(map(abs, map(operator.sub, q, p)))
            if best is None or d < best:
                best = d
    assert best is not None
    return Fraction(best, scale)


def delone_estimate(s: PointSet) -> DelonePair:
    """Estimate the Delone constants of a finite patch.

    r_gamma is exact: half the minimal pairwise distance.  R_gamma is a
    grid-sweep estimate of the covering radius: centers run over a grid of
    step r_gamma spanning the bounding box of the points, and the largest
    observed empty cube radius is reported.
    """
    if len(s) < 2:
        raise ValueError("delone_estimate needs at least two points")
    r_gamma = _min_pairwise_distance(*s._keys) / 2
    # the grid and the distances run on integer keys p * L
    scale = math.lcm(s._keys[0], r_gamma.denominator)
    keys, step = _keys_at(s, scale), _times(r_gamma, scale)
    axes = []
    for i in range(s.dim):
        a, b = min(k[i] for k in keys), max(k[i] for k in keys)
        axes.append([*range(a, b + 1, step), b])
    best = max(
        min(max(map(abs, map(operator.sub, k, x))) for k in keys)
        for x in itertools.product(*axes)
    )
    best = Fraction(best, scale)
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
    scale, keys = s._keys
    if scale == 1:
        lines += map(" ".join(["%d"] * s.dim).__mod__, keys)
    else:
        text = {x: _ratio_text(x, scale)
                for x in set(itertools.chain.from_iterable(keys))}
        lines += [" ".join(map(text.__getitem__, k)) for k in keys]
    return "\n".join(lines) + "\n"


def _ratio_text(x: int, scale: int) -> str:
    """format_rational of x / scale."""
    g = math.gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def _point_keys(lines: list[str], dim: int) -> tuple[int, _Keys]:
    """(L, keys) of the QPS point lines, L the lcm of their denominators."""
    body = "\n".join(lines + [""])
    token = RATIONAL_RE.pattern
    if re.fullmatch(rf"(?:{token}(?: {token}){{{dim - 1}}}\n)*", body):
        # every line holds dim tokens of the canonical shape; what is left
        # to check is that each p/q has q >= 2 and is in lowest terms
        if "/" not in body:
            return 1, _group(map(int, body.split()), dim)
        parts = RATIONAL_RE.findall(body)
        nums = [int(n) for n, _ in parts]
        dens = [int(d) if d else 1 for _, d in parts]
        if "1" not in map(operator.itemgetter(1), parts) and all(
                g == 1 for g in map(math.gcd, nums, dens)):
            scale = math.lcm(*set(dens))
            return scale, _group(map(operator.mul, nums, map(
                operator.floordiv, itertools.repeat(scale), dens)), dim)
    # a malformed token or line: find and report the first one
    for line in lines:
        tokens = line.split(" ")
        if len(tokens) != dim:
            raise FormatError(f"point line has {len(tokens)} coordinates, not {dim}")
        for t in tokens:
            parse_ratio(t)
    raise AssertionError("point lines rejected but no bad token found")


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
    scale, keys = _point_keys(lines[3:], dim)
    if not all(map(operator.lt, keys, itertools.islice(keys, 1, None))):
        raise FormatError("QPS point lines are not in canonical order")
    try:
        return PointSet.build(dim, _PointView(scale, keys), center, radius)
    except (DomainError, ValueError, DimensionMismatchError) as exc:
        raise FormatError(f"QPS content invalid: {exc}") from exc


def write_qps(path_or_stream, s: PointSet) -> None:
    write_text(path_or_stream, dumps_qps(s))


def read_qps(path_or_stream) -> PointSet:
    return loads_qps(read_text(path_or_stream))
