"""Independent slow-path oracles used to cross-check the library.

Everything here is deliberately written against the definitions, not the
library internals: plain Fraction loops, doubled coefficient boxes, dense
grids.  Tests freeze values produced by these oracles or assert exact
agreement with the fast paths.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import combinations, permutations, product

from quasigrid.ratmath import IntervalBox, preimage_bounds, round_scalar


def residue_member(a: int) -> bool:
    return a % 3 in (0, 1)


def frac_entry(rng, span=2, max_den=6):
    den = 1 + rng.randrange(max_den)
    num = rng.randrange(2 * span * den + 1) - span * den
    return Fraction(num, den)


def random_scheme(rng):
    """Small random scheme with bounded entries and a sane brute-force box."""
    from quasigrid.cutproject import CutProjectScheme, Window
    from quasigrid.ratmath import RMatrix

    while True:
        m = rng.randrange(3)
        n = 1 + rng.randrange(2)
        d = m + n
        basis = RMatrix.from_rows(
            [[frac_entry(rng) for _ in range(d)] for _ in range(d)]
        )
        if abs(basis.determinant()) < Fraction(1, 2):
            continue
        boxes = []
        for _ in range(1 + rng.randrange(2)):
            faces = []
            for _ in range(m):
                a = frac_entry(rng, span=1, max_den=4)
                width = Fraction(1 + rng.randrange(8), 4)
                faces.append((a, rng.randrange(2) == 0, a + width,
                              rng.randrange(2) == 0))
            boxes.append(IntervalBox.from_faces(faces) if m
                         else IntervalBox((), (), (), ()))
        try:
            scheme = CutProjectScheme(m, n, basis, Window(m, tuple(boxes)))
        except ValueError:
            continue
        if estimate_brute_work(scheme, 2) <= 40_000:
            return scheme


def estimate_brute_work(scheme, radius):
    m, n = scheme.m, scheme.n
    w_lo = tuple(min(b.lo[i] for b in scheme.window.boxes) for i in range(m))
    w_hi = tuple(max(b.hi[i] for b in scheme.window.boxes) for i in range(m))
    target = IntervalBox.closed(
        w_lo + (-Fraction(radius),) * n, w_hi + (Fraction(radius),) * n
    )
    coeff = preimage_bounds(scheme.basis, target)
    work = 1
    for lo, hi in zip(coeff.lo, coeff.hi):
        work *= int(2 * (hi - lo)) + 3
    return work


def brute_enumerate(scheme, center, radius, expand=2):
    """Full product scan over an expand-times-enlarged coefficient box.

    Returns (sorted physical points, accepted coefficient count).  The box
    enlargement guards against bugs in the fast enumerator's bound logic.
    """
    center = tuple(Fraction(c) for c in center)
    radius = Fraction(radius)
    m, n = scheme.m, scheme.n
    lo = []
    hi = []
    for box in scheme.window.boxes:
        lo.append(box.lo)
        hi.append(box.hi)
    w_lo = tuple(min(b[i] for b in lo) for i in range(m)) if m else ()
    w_hi = tuple(max(b[i] for b in hi) for i in range(m)) if m else ()
    target = IntervalBox.closed(
        w_lo + tuple(c - radius for c in center),
        w_hi + tuple(c + radius for c in center),
    )
    coeff = preimage_bounds(scheme.basis, target)
    ranges = []
    for a, b in zip(coeff.lo, coeff.hi):
        mid = (a + b) / 2
        half = (b - a) / 2 * expand
        ranges.append(range(math.ceil(mid - half), math.floor(mid + half) + 1))
    accepted = 0
    points = set()
    for c in product(*ranges):
        lam = scheme.basis.apply(c)
        internal, physical = lam[:m], lam[m:]
        if m and not scheme.window.contains(internal):
            continue
        if any(abs(x - y) >= radius for x, y in zip(physical, center)):
            continue
        accepted += 1
        points.add(physical)
    return sorted(points), accepted


def direct_round_image(mats, r_out, margin=4):
    """Chain image of Z^n by direct rounding with a crude safe input radius.

    The input radius is back-propagated with operator norms of the inverses
    plus a unit of slack per step, all multiplied by the margin.
    """
    from quasigrid.ratmath import RMatrix, invert_matrix

    r_out = Fraction(r_out)
    n = mats[0].rows
    r_in = r_out
    for a in reversed(mats):
        r_in = invert_matrix(a).op_norm_inf() * (r_in + 1)
    r_in = r_in * margin
    span = range(-math.ceil(r_in), math.ceil(r_in) + 1)
    pts = {tuple(Fraction(x) for x in c) for c in product(span, repeat=n)}
    for a in mats:
        pts = {
            tuple(Fraction(round_scalar(v)) for v in a.apply(p)) for p in pts
        }
    return sorted(p for p in pts if all(abs(c) < r_out for c in p))


def fraction_inverse(rows):
    """Gauss-Jordan inverse of an invertible square matrix, in Fractions."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def backward_round_image(mats, r_out):
    """Chain image of Z^n by direct rounding, searched back from B(0, r_out).

    y is in the image of x -> round(A_k ... round(A_1 x)) when a depth-first
    search finds an integer z with round(A_k z) = y, then an integer z' with
    round(A_{k-1} z') = z, and so on down to Z^n.  The candidates for z are
    the integer points of the bounding box of the closed preimage of y's
    rounding cell, and z is kept when y_i - 1/2 < (A_k z)_i <= y_i + 1/2 for
    every i, in Fractions.
    """
    r_out = Fraction(r_out)
    n = mats[0].rows
    stages = [(a.entries, fraction_inverse(a.entries)) for a in mats]
    half = Fraction(1, 2)

    def preimages(rows, inv, y):
        spans = []
        for inv_row in inv:
            ends = [(c * (t - half), c * (t + half)) for c, t in zip(inv_row, y)]
            spans.append(range(math.ceil(sum(map(min, ends))),
                               math.floor(sum(map(max, ends))) + 1))
        for z in product(*spans):
            image = [sum(a * x for a, x in zip(row, z)) for row in rows]
            if all(t - half < v <= t + half for v, t in zip(image, y)):
                yield z

    def reachable(y, depth):
        if depth == 0:
            return True
        rows, inv = stages[depth - 1]
        return any(reachable(z, depth - 1) for z in preimages(rows, inv, y))

    m = math.ceil(r_out) - 1  # the largest integer below r_out
    return [tuple(Fraction(c) for c in y)
            for y in product(range(-m, m + 1), repeat=n)
            if reachable(y, len(mats))]


def leibniz_determinant(rows):
    """det A = sum over permutations s of sign(s) * prod_i a[i][s(i)],
    with sign(s) = (-1)^(number of inversions of s)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


# 64 fractional bits of pi, the constant the sampler's series start from.
SERIES_PI = Fraction(0x3243F6A8885A308D3, 1 << 64)
SERIES_EPS = Fraction(1, 1 << 80)


def cos_sin_turn_reference(f):
    """cos and sin of 2*pi*f by their Taylor series in Fractions, summed up
    to and including the first term below 2**-80, f reduced to [-1/2, 1/2)."""
    f = f - math.floor(f + Fraction(1, 2))
    x = 2 * SERIES_PI * f
    x2 = x * x
    cos_val, term, k = Fraction(1), Fraction(1), 0
    while abs(term) >= SERIES_EPS:
        term = -term * x2 / ((2 * k + 1) * (2 * k + 2))
        cos_val += term
        k += 1
    sin_val, term, k = x, x, 0
    while abs(term) >= SERIES_EPS:
        term = -term * x2 / ((2 * k + 2) * (2 * k + 3))
        sin_val += term
        k += 1
    return cos_val, sin_val


def exp_reference(t):
    """e^t by its Taylor series in Fractions, with the same stopping rule."""
    total, term, k = Fraction(1), Fraction(1), 1
    while abs(term) >= SERIES_EPS:
        term = term * t / k
        total += term
        k += 1
    return total


def rotation_stretch_reference(turn1, stretch, turn2):
    """Entries of R(turn1) * Diag(e^t, e^-t) * R(turn2), each rounded to the
    nearest multiple of 2**-32 by round() (ties to even)."""
    c1, s1 = cos_sin_turn_reference(turn1)
    c2, s2 = cos_sin_turn_reference(turn2)
    d, dinv = exp_reference(stretch), exp_reference(-stretch)
    entries = [
        [c1 * d * c2 - s1 * dinv * s2, -c1 * d * s2 - s1 * dinv * c2],
        [s1 * d * c2 + c1 * dinv * s2, -s1 * d * s2 + c1 * dinv * c2],
    ]
    return [[Fraction(round(e * (1 << 32)), 1 << 32) for e in row]
            for row in entries]


def sliding_max_count(values, length):
    """Max point count of an open interval of given length (1d, sorted)."""
    vals = sorted(values)
    best = 0
    for i, v in enumerate(vals):
        j = bisect.bisect_left(vals, v + length)
        if j - i > best:
            best = j - i
    return best


def dense_grid_extrema(points, radius, region, step):
    """Min/max ball counts over all step-multiples inside a region.

    Integer inputs (callers scale by the grid denominator).  Vectorized but
    deliberately brute force: every grid center against every point.
    """
    import numpy as np

    axes = []
    for lo, hi in region:
        start = -((-lo) // step)
        stop = hi // step
        axes.append(np.arange(start, stop + 1, dtype=np.int64) * step)
    if len(axes) == 1:
        centers = axes[0][:, None]
    else:
        grid = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in grid], axis=1)
    pts = np.array(points, dtype=np.int64)
    inside = (np.abs(centers[:, None, :] - pts[None, :, :]) < radius).all(axis=2)
    counts = inside.sum(axis=1)
    return int(counts.min()), int(counts.max())


def min_pairwise_distance(points):
    """Least infinity-norm distance between two distinct points: every pair
    of the distinct points, in Fractions."""
    pts = {tuple(Fraction(c) for c in p) for p in points}
    return min(max(abs(a - b) for a, b in zip(p, q))
               for p, q in combinations(pts, 2))


def naive_sup_half_grid(values, center, dom_radius, radius):
    """Sup of open-window counts over half-integer centers (1d integers).

    Independent check of the breakpoint sweep for integer data: with integer
    points and radius, counts only change at integer centers, so the
    half-integer grid meets every cell of the center line.
    """
    vals = sorted(values)
    lo2 = math.ceil((center - (dom_radius - radius)) * 2)
    hi2 = math.floor((center + (dom_radius - radius)) * 2)
    best = 0
    for c2 in range(lo2, hi2 + 1):
        c = Fraction(c2, 2)
        count = (bisect.bisect_left(vals, c + radius)
                 - bisect.bisect_right(vals, c - radius))
        best = max(best, count)
    return best


def canonical_points(dim, points, center, radius):
    """A point set from its definition: the distinct points as Fraction
    tuples in lexicographic order, each with dim coordinates and strictly
    inside the open infinity-norm ball B(center, radius).  Raises the
    library's error types for a point of the wrong length or outside."""
    from quasigrid.errors import DimensionMismatchError, DomainError

    center = tuple(Fraction(c) for c in center)
    radius = Fraction(radius)
    pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    if any(len(p) != dim for p in pts):
        raise DimensionMismatchError("point of the wrong dimension")
    for p in pts:
        if max(abs(a - b) for a, b in zip(p, center)) >= radius:
            raise DomainError("point outside the open ball")
    return pts


def common_ball(center_a, radius_a, center_b, radius_b):
    """Center and radius of the largest cube inside both open cubes."""
    from quasigrid.errors import DomainError

    lo = [max(a - radius_a, b - radius_b) for a, b in zip(center_a, center_b)]
    hi = [min(a + radius_a, b + radius_b) for a, b in zip(center_a, center_b)]
    radius = min((h - l) / 2 for l, h in zip(lo, hi))
    if radius <= 0:
        raise DomainError("the cubes do not overlap")
    return tuple((l + h) / 2 for l, h in zip(lo, hi)), radius


def weak_ap_reference(points, center, domain_radius, radius, pair_count, rng):
    """The weak almost-periodicity probe from its definition.

    Each pair draws x, then y, one coordinate at a time, uniformly on the
    2^-32 grid of the cube of centers whose windows fit the domain, as the
    probe does.  A window is the set of points strictly inside B(c, R).  The
    candidate shifts are the differences v = g - h, g in Y and h in X, with
    |v - (y - x)| <= 2R, or y - x alone when there are none.  Each candidate
    is scored by recounting |X symmetric-difference (Y - v)|; the least
    count wins and ties go to the smallest v.  Returns one
    (x, y, v, count, ties) per pair, ties being how many candidates reach
    the least count.
    """
    radius = Fraction(radius)
    slack = Fraction(domain_radius) - radius
    region = [(Fraction(c) - slack, Fraction(c) + slack) for c in center]
    points = [tuple(Fraction(c) for c in p) for p in points]

    def window(x):
        return {p for p in points
                if max(abs(a - b) for a, b in zip(p, x)) < radius}

    out = []
    for _ in range(pair_count):
        x, y = [tuple(lo + (hi - lo) * rng.unit() for lo, hi in region)
                for _ in range(2)]
        win_x, win_y = window(x), window(y)
        base = tuple(b - a for a, b in zip(x, y))
        cands = {
            tuple(a - b for a, b in zip(g, h))
            for g in win_y for h in win_x
            if max(abs(a - b - c) for a, b, c in zip(g, h, base)) <= 2 * radius
        } or {base}
        scores = sorted(
            (len(win_x ^ {tuple(a - b for a, b in zip(g, v)) for g in win_y}), v)
            for v in cands
        )
        count, v = scores[0]
        out.append((x, y, v, count, sum(1 for c, _ in scores if c == count)))
    return out
