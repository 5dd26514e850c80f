"""Windowed density estimators and almost-periodicity probes.

The sup/inf over ball centers that the density quantities call for is exact
in every dimension.  The count of points inside an open ball is piecewise
constant in the center and changes only where a point's window (c - R,
c + R) opens or closes on an axis.  One pass over those events, sorted on
the set's integer keys, steps through the count at every breakpoint and
just beside it, so it meets every value the count takes over the region.
Above one dimension each distinct strip of points on the first axis gets
one such sweep on its remaining coordinates, recursively down to the last
axis.  All quantities are plain Fractions; nothing is sampled except where
an operation takes an explicit rng.

Suprema over all of space and limits over growing radii are replaced by
their windowed counterparts over the region where the data is complete;
every report records the region and radii actually used.  The difference
that an epsilon-translation v is judged on is sym_diff(translate(s, v), s),
made by the public point-set operations, on their common domain ball.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .pointset import PointSet, _in_ball, _Keys, restrict, sym_diff, translate
from .ratmath import Vec, _times, ball_volume, inf_norm, rat, vec, vec_sub
from .rng import RngState
from .textio import format_rational

Region = tuple[tuple[Fraction, Fraction], ...]


# --- exact center sweeps ------------------------------------------------------


def _running_extrema(events: Sequence[int], steps: Iterable[int], lo: int,
                     hi: int) -> tuple[int, int]:
    """(min, max) over centers x in [lo, hi] of a window count, given its
    sorted events and the step of the count at each.

    Event 2b + 1 opens windows at b and event 2b closes windows there, so in
    sorted order the running count passes through its values just left of
    b, at b and just right of b; the steps inside one group lie between
    those values.  The count at lo follows every event below 2 lo + 1, the
    count at hi every event up to 2 hi.
    """
    counts = list(itertools.accumulate(steps, initial=0))
    seen = counts[bisect.bisect_left(events, 2 * lo + 1):
                  bisect.bisect_right(events, 2 * hi) + 1]
    return min(seen), max(seen)


def _extrema_1d(coords: Sequence[int], radius: int, lo: int,
                hi: int) -> tuple[int, int]:
    """Exact (min, max) over centers x in [lo, hi] of #{c : |c - x| < R}:
    one event per coordinate and side, each a step of one."""
    events = sorted([2 * (c - radius) + 1 for c in coords]
                    + [2 * (c + radius) for c in coords])
    return _running_extrema(events, [2 * (e & 1) - 1 for e in events], lo, hi)


def _counted_extrema(counts: Mapping[int, int], radius: int, lo: int,
                     hi: int) -> tuple[int, int]:
    """_extrema_1d for coordinates given with their multiplicities, as the
    y values of a lattice strip repeat: one event per distinct value and
    side, each a step of its multiplicity."""
    step = {}
    for c, n in counts.items():
        step[2 * (c - radius) + 1] = n
        step[2 * (c + radius)] = -n
    events = sorted(step)
    return _running_extrema(events, map(step.__getitem__, events), lo, hi)


def _extrema(axes: Sequence[Sequence[int]], radius: int,
             ranges: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Exact (min, max) over the centers of the box of ranges, dim >= 2.

    axes are the point coordinates as columns, the first ascending.  For a
    center at x the points within R on the first axis are the strip
    tails[i:j] of their remaining coordinates, with i the windows closed
    and j the windows opened by the x events up to x (encoded as in
    _running_extrema).  Each event value in the range gives a distinct
    strip.  Walking them in order, the strip stays counted as points enter
    and leave it, and each strip gets one sweep on the remaining axes: one
    pass over its distinct values on the last axis, a recursion above it.
    """
    xs, *rest = axes
    closes = [2 * (c + radius) for c in xs]
    opens = [2 * (c - radius) + 1 for c in xs]
    lo, hi = 2 * ranges[0][0], 2 * ranges[0][1]
    marks = sorted({lo, *(e for events in (closes, opens)
                          for e in events[bisect.bisect_right(events, lo):
                                          bisect.bisect_right(events, hi)])})
    tails = rest[0] if len(rest) == 1 else list(zip(*rest))
    strip: Counter = Counter()
    i = j = bisect.bisect_right(closes, lo)
    extrema = []
    for t in marks:
        enter = tails[j:bisect.bisect_right(opens, t)]
        leave = tails[i:bisect.bisect_right(closes, t)]
        strip.update(enter)
        strip.subtract(leave)
        for y in leave:
            if not strip.get(y, 1):
                del strip[y]
        i, j = i + len(leave), j + len(enter)
        if len(rest) == 1:
            extrema.append(_counted_extrema(strip, radius, *ranges[1]))
        elif strip:
            extrema.append(_extrema(list(zip(*sorted(strip.elements()))),
                                    radius, ranges[1:]))
        else:
            extrema.append((0, 0))
    return min(e[0] for e in extrema), max(e[1] for e in extrema)


def _sweep_extrema(scale: int, keys: _Keys, radius: Fraction,
                   region: Region) -> tuple[int, int]:
    """Exact (min, max) over region centers of the open-ball point count.

    keys are a set's sorted integer keys on the scale L (PointSet._keys).
    The radius and the region go on a common multiple of L, and so do the
    keys as they enter the event passes; counts are scale invariant.
    """
    for lo, hi in region:
        if lo > hi:
            raise DomainError("empty center region for the sweep")
    if not keys:
        return 0, 0
    big = math.lcm(scale, radius.denominator,
                   *(b.denominator for b in itertools.chain.from_iterable(region)))
    factor = big // scale
    axes = [[factor * c for c in axis] for axis in zip(*keys)]
    bounds = [(_times(lo, big), _times(hi, big)) for lo, hi in region]
    if len(region) == 1:
        return _extrema_1d(axes[0], _times(radius, big), *bounds[0])
    return _extrema(axes, _times(radius, big), bounds)


def _center_region(center: Vec, domain_radius: Fraction,
                   radius: Fraction) -> Region:
    if radius >= domain_radius:
        raise DomainError(
            f"domain too small: need a complete radius above {radius}, "
            f"have {domain_radius}"
        )
    slack = domain_radius - radius
    return tuple((c - slack, c + slack) for c in center)


def _intersect_regions(regions: Sequence[Region]) -> Region:
    dim = len(regions[0])
    out = []
    for i in range(dim):
        lo = max(r[i][0] for r in regions)
        hi = min(r[i][1] for r in regions)
        if lo > hi:
            raise DomainError("center regions do not overlap")
        out.append((lo, hi))
    return tuple(out)


# --- densities ----------------------------------------------------------------


def density_R(s: PointSet, t: PointSet, x: Sequence, radius) -> Fraction:
    """Symmetric-difference count in B(x, R) over the ball volume; the ball
    must fit the common domain of s and t."""
    inside = restrict(sym_diff(s, t), x, radius)
    return Fraction(len(inside)) / ball_volume(radius, s.dim)


def density_R_plus(s: PointSet, t: PointSet, radius) -> Fraction:
    """Sup over valid centers of density_R, exact in every dimension."""
    radius = rat(radius)
    diff = sym_diff(s, t)
    region = _center_region(diff.center, diff.radius, radius)
    _, sup_count = _sweep_extrema(*diff._keys, radius, region)
    return Fraction(sup_count) / ball_volume(radius, s.dim)


@dataclass(frozen=True)
class DensityProfile:
    """(R, min, max) density brackets plus the convergence verdict."""

    samples: tuple[tuple[Fraction, Fraction, Fraction], ...]
    converged: bool
    density: Fraction | None
    eps_achieved: Fraction | None
    r_eps: Fraction | None


def uniform_density(s: PointSet, r_list: Sequence, eps) -> DensityProfile:
    """Bracket the single-set windowed density over a ladder of radii.

    Converged means the final bracket has width at most 2*eps; the reported
    density is then the midpoint and r_eps the first radius achieving it.
    """
    s.require_complete("uniform_density")
    eps = rat(eps)
    radii = [rat(r) for r in r_list]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing and nonempty")
    samples = []
    r_eps = None
    for radius in radii:
        region = _center_region(s.center, s.radius, radius)
        low, high = _sweep_extrema(*s._keys, radius, region)
        volume = ball_volume(radius, s.dim)
        d_min, d_max = Fraction(low) / volume, Fraction(high) / volume
        samples.append((radius, d_min, d_max))
        if d_max - d_min <= 2 * eps and r_eps is None:
            r_eps = radius
    _, last_min, last_max = samples[-1]
    if last_max - last_min <= 2 * eps:
        return DensityProfile(tuple(samples), True, (last_min + last_max) / 2,
                              (last_max - last_min) / 2, r_eps)
    return DensityProfile(tuple(samples), False, None, None, r_eps)


# --- near-translation search --------------------------------------------------


@dataclass(frozen=True)
class TranslationReport:
    epsilon: Fraction
    r_eps: Fraction
    r_max: Fraction
    v_max: Fraction
    translations: PointSet
    largest_gap: Fraction


def _difference_candidates(s: PointSet, v_max: Fraction) -> list[Vec]:
    """Distinct difference vectors of the set with infinity norm <= v_max."""
    scale, keys = s._keys
    # an integer key difference d has |d| <= v_max * L iff |d| <= floor(v_max * L)
    bound = v_max.numerator * scale // v_max.denominator
    out = {(0,) * s.dim}
    for i, p in enumerate(keys):
        end = bisect.bisect_left(keys, (p[0] + bound + 1,), i + 1)
        for q in keys[i + 1:end]:
            d = tuple(map(operator.sub, q, p))
            if max(map(abs, d)) <= bound:
                out.add(d)
                out.add(tuple(-c for c in d))
    return [tuple(Fraction(c, scale) for c in d) for d in sorted(out)]


def _rung_ladder(r_eps: Fraction, top: Fraction) -> list[Fraction]:
    rungs = []
    r = r_eps
    while r < top:
        rungs.append(r)
        r = r * 2
    rungs.append(top)
    return rungs


def epsilon_translations(s: PointSet, eps, r_eps, v_max) -> TranslationReport:
    """Difference vectors that keep the shifted set within windowed density
    eps of the original at every rung of a geometric radius ladder.

    Candidates are restricted to differences of the set: any v doing better
    than the patch density must match some point of the set, so for eps
    below that density the candidate list is exhaustive.
    """
    s.require_complete("epsilon_translations")
    eps, r_eps, v_max = rat(eps), rat(r_eps), rat(v_max)
    if eps <= 0 or r_eps <= 0 or v_max <= 0:
        raise ValueError("eps, r_eps and v_max must be positive")
    needed = 2 * r_eps + v_max
    if s.radius < needed:
        raise DomainError(
            f"domain radius {s.radius} too small; need at least {needed} "
            "(2*r_eps + v_max) for a nonempty radius ladder"
        )
    accepted = []
    for v in _difference_candidates(s, v_max):
        diff = sym_diff(translate(s, v), s)
        top = s.radius - inf_norm(v) - r_eps
        ok = True
        for rung in _rung_ladder(r_eps, top):
            region = _center_region(diff.center, diff.radius, rung)
            count = _sweep_extrema(*diff._keys, rung, region)[1]
            if Fraction(count) / ball_volume(rung, s.dim) >= eps:
                ok = False
                break
        if ok:
            accepted.append(v)
    translations = PointSet.build(s.dim, accepted, (0,) * s.dim, v_max + 1)
    return TranslationReport(eps, r_eps, s.radius - r_eps, v_max, translations,
                             _largest_axis_gap(accepted, s.dim))


def _largest_axis_gap(points: Sequence[Vec], dim: int) -> Fraction:
    worst = Fraction(0)
    for axis in range(dim):
        values = sorted({p[axis] for p in points})
        for a, b in zip(values, values[1:]):
            if b - a > worst:
                worst = b - a
    return worst


def subadditivity_check(s: PointSet, v_list: Sequence, radius):
    """Windowed D_R+ of the summed shift against the sum of the parts.

    All suprema run over one shared center region, the intersection of the
    valid regions of every operand, so the comparison is sound even though
    a windowed estimator loses exact translation invariance at the boundary.
    """
    radius = rat(radius)
    shifts = [vec(v) for v in v_list]
    if not shifts:
        raise ValueError("need at least one translation")
    total = shifts[0]
    for v in shifts[1:]:
        total = tuple(a + b for a, b in zip(total, v))
    *diffs, total_diff = [sym_diff(translate(s, v), s) for v in shifts + [total]]
    regions = [_center_region(d.center, d.radius, radius)
               for d in diffs + [total_diff]]
    region = _intersect_regions(regions)
    volume = ball_volume(radius, s.dim)

    def sup_density(diff: PointSet) -> Fraction:
        return Fraction(_sweep_extrema(*diff._keys, radius, region)[1]) / volume

    lhs = sup_density(total_diff)
    rhs = sum((sup_density(d) for d in diffs), Fraction(0))
    return lhs, rhs, lhs <= rhs


# --- weak almost periodicity probe ----------------------------------------------


@dataclass(frozen=True)
class WeakApWitness:
    x: Vec
    y: Vec
    v: Vec
    value: Fraction


@dataclass(frozen=True)
class WeakApResult:
    worst: Fraction
    witnesses: tuple[WeakApWitness, ...]


def weak_ap_probe(s: PointSet, eps, radius, pair_count: int,
                  rng: RngState) -> WeakApResult:
    """Match random pairs of windows up to translation.

    For each sampled center pair (x, y) the probe minimizes the density of
    (B(x,R) cap S) vs the shifted (B(y,R) cap S) over candidate shifts built
    from point differences near y - x (the best shift need not be y - x
    itself).  worst is the maximum of those minima; at most eps means every
    sampled pair of windows matched to within eps.

    Every pair (g, h) of the windows Y x X has |g - h - (y - x)| < 2R, so the
    candidates are all differences g - h, and |X cap (Y - v)| is the number
    of pairs with g - h = v.  One count over the pairs, on the set's integer
    keys, scores every shift: the mismatch |X| + |Y| - 2 count[v] is least
    at the largest count, and ties go to the smallest v.
    """
    s.require_complete("weak_ap_probe")
    eps, radius = rat(eps), rat(radius)
    if 2 * radius >= s.radius:
        raise DomainError("need 2R strictly below the domain radius")
    region = _center_region(s.center, s.radius, radius)
    volume = ball_volume(radius, s.dim)
    scale, keys = s._keys

    def draw_center() -> Vec:
        return tuple(lo + (hi - lo) * rng.unit() for lo, hi in region)

    def window(x: Vec) -> _Keys:
        return [keys[i] for i in _in_ball(keys, scale, x, radius)]

    witnesses = []
    worst = Fraction(0)
    for _ in range(pair_count):
        x, y = draw_center(), draw_center()
        win_x, win_y = window(x), window(y)
        counts = Counter(tuple(map(operator.sub, g, h))
                         for g in win_y for h in win_x)
        if counts:
            top = max(counts.values())
            v = tuple(Fraction(c, scale)
                      for c in min(d for d, n in counts.items() if n == top))
        else:
            top, v = 0, vec_sub(y, x)
        value = Fraction(len(win_x) + len(win_y) - 2 * top) / volume
        witnesses.append(WeakApWitness(x, y, v, value))
        worst = max(worst, value)
    return WeakApResult(worst, tuple(witnesses))


# --- report serialization -------------------------------------------------------


def density_report_text(profile: DensityProfile, eps) -> str:
    lines = ["rpt 1", "kind density", f"eps {format_rational(rat(eps))}"]
    lines.append(f"verdict {'converged' if profile.converged else 'inconclusive'}")
    if profile.converged:
        lines.append(f"density {format_rational(profile.density)}")
        lines.append(f"eps_achieved {format_rational(profile.eps_achieved)}")
    if profile.r_eps is not None:
        lines.append(f"r_eps {format_rational(profile.r_eps)}")
    for radius, d_min, d_max in profile.samples:
        lines.append(
            f"sample {format_rational(radius)} {format_rational(d_min)} "
            f"{format_rational(d_max)}"
        )
    return "\n".join(lines) + "\n"


def density_profile_csv(profile: DensityProfile) -> str:
    rows = ["R,d_min,d_max"]
    for radius, d_min, d_max in profile.samples:
        rows.append(f"{format_rational(radius)},{format_rational(d_min)},"
                    f"{format_rational(d_max)}")
    return "\n".join(rows) + "\n"


def translation_report_text(report: TranslationReport) -> str:
    lines = [
        "rpt 1",
        "kind translations",
        f"epsilon {format_rational(report.epsilon)}",
        f"r_eps {format_rational(report.r_eps)}",
        f"r_max {format_rational(report.r_max)}",
        f"v_max {format_rational(report.v_max)}",
        f"largest_gap {format_rational(report.largest_gap)}",
        f"count {len(report.translations)}",
    ]
    for v in report.translations.points:
        lines.append("v " + " ".join(format_rational(c) for c in v))
    return "\n".join(lines) + "\n"


def weakap_report_text(result: WeakApResult, eps, radius, seed: int) -> str:
    eps = rat(eps)
    lines = [
        "rpt 1",
        "kind weakap",
        f"epsilon {format_rational(eps)}",
        f"radius {format_rational(rat(radius))}",
        f"pairs {len(result.witnesses)}",
        f"seed {seed}",
        f"worst {format_rational(result.worst)}",
        f"pass {'true' if result.worst <= eps else 'false'}",
    ]
    for w in result.witnesses:
        fields = [format_rational(c) for c in w.x + w.y + w.v]
        fields.append(format_rational(w.value))
        lines.append("pair " + " ".join(fields))
    return "\n".join(lines) + "\n"
