"""Independent correctness checkers for the benchmark's requests.

Every checker works from the mathematical definition of what a request
returns: direct integer formulas for the named schemes, a brute-force scan
of a coefficient box, plain rounding of integer grids, and counting points
in windows by bisection.  None of them calls into the library's
enumeration, rounding or analysis code, so a fault there cannot hide
itself.  A checker raises CheckError with a short description of the
first disagreement it finds.

All geometry is in the infinity norm and balls are open, as in the library:
B(c, R) = {y : |y_i - c_i| < R for all i}.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import product

HALF = Fraction(1, 2)


class CheckError(AssertionError):
    """A request's result disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def round_half_down(y: Fraction) -> int:
    """The integer k with k - 1/2 < y <= k + 1/2."""
    return math.ceil(y - HALF)


def in_ball(p, center, radius) -> bool:
    return all(abs(a - b) < radius for a, b in zip(p, center))


def compare_points(got, expected, what: str) -> None:
    """Exact set equality, naming one missing or extra point on failure."""
    got_set, exp_set = set(got), set(expected)
    missing = sorted(exp_set - got_set)
    extra = sorted(got_set - exp_set)
    expect(not missing, f"{what}: point {missing[:1]} missing "
                        f"({len(missing)} missing in total)")
    expect(not extra, f"{what}: unexpected point {extra[:1]} "
                      f"({len(extra)} extra in total)")
    expect(len(got) == len(got_set), f"{what}: duplicate points")


# --- point sets of the named schemes, from their definitions ----------------


def integers_between(lo: Fraction, hi: Fraction) -> range:
    """The integers of the open interval (lo, hi)."""
    return range(math.floor(lo) + 1, math.ceil(hi))


def zn_count(center, radius: Fraction) -> int:
    """|Z^n cap B(c, R)|: the product of the per-axis integer counts, which
    is (2 ceil(R) - 1)^n at an integer center."""
    return math.prod(len(integers_between(c - radius, c + radius))
                     for c in center)


def check_zn_patch(points, center, radius: Fraction) -> None:
    n = len(center)
    expect(len(points) == zn_count(center, radius),
           f"Z^{n} patch of radius {radius} has {len(points)} points, "
           f"expected {zn_count(center, radius)}")
    for p in points:
        expect(len(p) == n and all(c.denominator == 1 for c in p)
               and in_ball(p, center, radius),
               f"Z^{n} patch holds a non-lattice or outside point {p}")
    expect(len(set(points)) == len(points), f"Z^{n} patch repeats a point")


def fibonacci_points(phi: Fraction, center: Fraction, radius: Fraction):
    """Points a + (phi + 1) b with a = floor(phi b + 1/2), inside the ball.

    The lattice vector i (1, 1) + b (-phi, phi + 1) has internal coordinate
    i - phi b; the window (-1/2, 1/2] admits exactly i = floor(phi b + 1/2).
    """
    bound = math.ceil(abs(center) + radius) + 2
    out = []
    for b in range(-bound, bound + 1):
        x = math.floor(phi * b + HALF) + (phi + 1) * b
        if abs(x - center) < radius:
            out.append((x,))
    return out


def residue_points(center: Fraction, radius: Fraction):
    """{a in Z : |a - c| < R, a mod 3 in {0, 1}}."""
    return [(Fraction(a),) for a in integers_between(center - radius, center + radius)
            if a % 3 in (0, 1)]


def fibonacci_translations(phi: Fraction, eta: Fraction, radius: Fraction):
    """Physical parts of lattice vectors with |internal| <= eta."""
    bound = math.ceil(radius) + 2
    out = []
    for b in range(-bound, bound + 1):
        for i in range(math.ceil(phi * b - eta), math.floor(phi * b + eta) + 1):
            x = i + (phi + 1) * b
            if abs(x) < radius:
                out.append((x,))
    return out


def residue_translations(eta: Fraction, radius: Fraction):
    """Integers a with dist(a/3, Z) <= eta, inside the ball."""
    r = math.ceil(radius) - 1
    out = []
    for a in range(-r, r + 1):
        frac = Fraction(a % 3, 3)
        if min(frac, 1 - frac) <= eta:
            out.append((Fraction(a),))
    return out


def fibonacci_tube_count(phi: Fraction, eta: Fraction, radius: Fraction) -> int:
    """Lattice points in B(0, R) whose internal coordinate lies within eta
    of the window's boundary {-1/2, 1/2} (closed on both sides)."""
    bound = math.ceil(radius) + 2
    count = 0
    for b in range(-bound, bound + 1):
        base = phi * b
        admitted = set()
        for face in (-HALF, HALF):
            lo = math.ceil(base + face - eta)
            hi = math.floor(base + face + eta)
            admitted.update(range(lo, hi + 1))
        count += sum(1 for i in admitted if abs(i + (phi + 1) * b) < radius)
    return count


def ab_points(s: Fraction, box, center, radius: Fraction):
    """Points of the Ammann-Beenker-type scheme inside B(center, R).

    With basis rows (1, -s, 0, s), (0, s, -1, s), (1, s, 0, -s),
    (0, s, 1, s) the coefficients (c0, c1, c2, c3) give internal
    (c0 - t1, t2 - c2) and physical (c0 + t1, c2 + t2) for t1 = s (c1 - c3)
    and t2 = s (c1 + c3).  For each (c1, c3) the window leaves at most a
    few c0 and c2, found by direct division.
    """
    (lo0, lo1), (hi0, hi1), (lc0, lc1), (hc0, hc1) = box
    reach = (radius + max(abs(c) for c in center)
             + max(abs(lo0), abs(hi0), abs(lo1), abs(hi1)))
    span = math.ceil(reach / s) + 1
    out = set()
    for c1 in range(-span, span + 1):
        for c3 in range(-span, span + 1):
            t1, t2 = s * (c1 - c3), s * (c1 + c3)
            if abs(t1) >= reach or abs(t2) >= reach:
                continue
            xs = [c0 + t1 for c0 in range(math.ceil(lo0 + t1), math.floor(hi0 + t1) + 1)
                  if _face_ok(c0 - t1, lo0, hi0, lc0, hc0)]
            ys = [c2 + t2 for c2 in range(math.ceil(t2 - hi1), math.floor(t2 - lo1) + 1)
                  if _face_ok(t2 - c2, lo1, hi1, lc1, hc1)]
            out.update((x, y) for x in xs for y in ys
                       if in_ball((x, y), center, radius))
    return sorted(out)


def rounded_image_1d(a: Fraction, phi: Fraction, center: Fraction,
                     radius: Fraction):
    """round(a x) over the Fibonacci points x, kept inside B(c, R)."""
    source = fibonacci_points(phi, Fraction(0), (abs(center) + radius + 1) / abs(a) + 1)
    image = {round_half_down(a * x) for (x,) in source}
    return [(Fraction(k),) for k in sorted(image) if abs(k - center) < radius]


# --- brute-force coefficient-box scan ---------------------------------------


def fraction_inverse(rows):
    """Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(rows)
    work = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [e / scale for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def coefficient_box(rows, bounds):
    """Integer ranges covering B^-1 of the box |lambda_j| <= bounds[j]."""
    inv = fraction_inverse(rows)
    ranges = []
    for row in inv:
        reach = sum(abs(e) * b for e, b in zip(row, bounds))
        ranges.append(range(-math.floor(reach), math.floor(reach) + 1))
    return ranges


def brute_work(rows, m: int, boxes, center, radius) -> int:
    ranges = coefficient_box(rows, _lambda_bounds(m, boxes, center, radius))
    return math.prod(len(r) for r in ranges)


def _lambda_bounds(m, boxes, center, radius):
    internal = [max(max(abs(box[0][i]), abs(box[1][i])) for box in boxes)
                for i in range(m)]
    return internal + [abs(c) + radius for c in center]


def _face_ok(x, lo, hi, lo_closed, hi_closed) -> bool:
    if x < lo or (x == lo and not lo_closed):
        return False
    return not (x > hi or (x == hi and not hi_closed))


def brute_model_set(rows, m: int, boxes, center, radius):
    """Model-set points in B(center, R) by scanning every coefficient vector.

    rows: basis rows (columns generate the lattice); boxes: window boxes as
    (lo, hi, lo_closed, hi_closed) tuples of per-axis values.  Arithmetic
    is on the basis scaled to integers, so the scan is exact.
    """
    scale = math.lcm(*[Fraction(e).denominator for row in rows for e in row])
    irows = [[int(Fraction(e) * scale) for e in row] for row in rows]
    ranges = coefficient_box(rows, _lambda_bounds(m, boxes, center, radius))
    scaled_center = [c * scale for c in center]
    scaled_radius = radius * scale
    out = set()
    for c in product(*ranges):
        lam = [sum(a * x for a, x in zip(row, c)) for row in irows]
        physical = lam[m:]
        if not all(abs(p - q) < scaled_radius
                   for p, q in zip(physical, scaled_center)):
            continue
        internal = [Fraction(v, scale) for v in lam[:m]]
        if m and not any(
            all(_face_ok(x, *face) for x, face in zip(internal, zip(*box)))
            for box in boxes
        ):
            continue
        out.add(tuple(Fraction(v, scale) for v in physical))
    return sorted(out)


def scheme_rows_and_boxes(scheme):
    """Read a scheme's basis rows and window faces as plain tuples."""
    rows = [list(row) for row in scheme.basis.entries]
    boxes = [(box.lo, box.hi, box.lo_closed, box.hi_closed)
             for box in scheme.window.boxes]
    return rows, scheme.m, boxes


# --- QPS text -----------------------------------------------------------------


def check_qps_roundtrip(patch, text: str, loaded) -> None:
    """The text lists the patch's domain and points; reading it back gives
    the same point set."""
    lines = text.split("\n")
    expect(text.endswith("\n") and lines[-1] == "", "QPS text lacks final LF")
    lines = lines[:-1]
    expect(lines[0] == "qps 1", "QPS magic line")
    expect(lines[1] == f"dim {patch.dim}", "QPS dim line")
    domain = lines[2].split(" ")
    expect(domain[0] == "domain"
           and tuple(Fraction(t) for t in domain[1:-1]) == tuple(patch.center)
           and Fraction(domain[-1]) == patch.radius, "QPS domain line")
    parsed = [tuple(Fraction(t) for t in line.split(" ")) for line in lines[3:]]
    expect(parsed == sorted(set(parsed)), "QPS points not sorted and distinct")
    compare_points(parsed, patch.points, "QPS text")
    expect(loaded.dim == patch.dim and loaded.points == patch.points
           and loaded.center == patch.center and loaded.radius == patch.radius,
           "QPS read-back differs from the written patch")


# --- discretized chains ----------------------------------------------------------


def _integer_map(matrix):
    """(N, q) with matrix = N / q and N an integer 2-D list."""
    entries = [list(row) for row in matrix.entries]
    q = math.lcm(*[e.denominator for row in entries for e in row])
    return [[int(e * q) for e in row] for row in entries], q


def _hat(numer, q, x):
    """round(N x / q) with ties toward the lower integer, exactly."""
    return tuple(-((q - 2 * sum(a * b for a, b in zip(row, x))) // (2 * q))
                 for row in numer)


def crude_input_radius(matrices, radius: Fraction) -> Fraction:
    """An input radius sure to cover every preimage of B(0, R):
    r <- ||A^-1||_inf (r + 1) backwards along the chain."""
    r = Fraction(radius)
    for a in reversed(matrices):
        inv = fraction_inverse([list(row) for row in a.entries])
        r = max(sum(abs(e) for e in row) for row in inv) * (r + 1)
    return r


def forward_chain_image(matrices, radius: Fraction, r_in: Fraction):
    """Round every integer point of the input cube through the chain."""
    n = matrices[0].rows
    span = range(-math.ceil(r_in), math.ceil(r_in) + 1)
    pts = set(product(span, repeat=n))
    for a in matrices:
        numer, q = _integer_map(a)
        pts = {_hat(numer, q, x) for x in pts}
    return sorted(tuple(Fraction(c) for c in p) for p in pts
                  if in_ball(p, (0,) * n, radius))


def _preimages_2d(numer, q, y):
    """Integer x with round(N x / q) = y, i.e. N x / q in y + (-1/2, 1/2]^2."""
    (a, b), (c, d) = numer
    det = a * d - b * c
    adj = ((d, -b), (-c, a))
    sign = 1 if det > 0 else -1
    ranges = []
    for row in adj:
        # x_i = q (row . (y + u)) / det with u in (-1/2, 1/2]^2
        mid2 = 2 * q * (row[0] * y[0] + row[1] * y[1]) * sign
        half2 = q * (abs(row[0]) + abs(row[1]))
        den = 2 * abs(det)
        ranges.append(range(-((half2 - mid2) // den), (mid2 + half2) // den + 1))
    return [x for x in product(*ranges) if _hat(numer, q, x) == y]


def backward_chain_image(matrices, radius: Fraction):
    """Every y in B(0, R) that some integer input reaches through the chain,
    decided per y by a depth-first search over exact preimages."""
    maps = [_integer_map(a) for a in matrices]

    def reachable(level, y) -> bool:
        if level == 0:
            return True
        numer, q = maps[level - 1]
        return any(reachable(level - 1, x) for x in _preimages_2d(numer, q, y))

    r = math.ceil(radius) - 1
    return [(Fraction(u), Fraction(v))
            for u in range(-r, r + 1) for v in range(-r, r + 1)
            if reachable(len(maps), (u, v))]


FORWARD_GRID_LIMIT = 60_000


def check_chain_image(points, matrices, radius: Fraction) -> str:
    """Compare an apply_chain result with an independent chain image;
    returns which reference was used."""
    r_in = crude_input_radius(matrices, radius)
    if (2 * math.ceil(r_in) + 1) ** matrices[0].rows <= FORWARD_GRID_LIMIT:
        compare_points(points, forward_chain_image(matrices, radius, r_in),
                       "chain image vs forward rounding")
        return "forward"
    expect(matrices[0].rows == 2, "backward chain check needs dimension 2")
    compare_points(points, backward_chain_image(matrices, radius),
                   "chain image vs backward preimage search")
    return "backward"


def check_witness(witness) -> None:
    expect(witness is None,
           f"rounding and model-set pipelines differ at {witness}")


# --- window counts in one dimension ----------------------------------------------


def count_1d(sorted_xs, c, r) -> int:
    return bisect.bisect_left(sorted_xs, c + r) - bisect.bisect_right(sorted_xs, c - r)


def extrema_1d(xs, r: Fraction, lo: Fraction, hi: Fraction):
    """(min, max) over centers c in [lo, hi] of |xs cap (c - r, c + r)|.

    The count is constant between consecutive breakpoints x +- r, so the
    breakpoints, the midpoints between them and the region ends cover
    every value it takes.
    """
    xs = sorted(xs)
    marks = sorted({lo, hi} | {x + s for x in xs for s in (-r, r)
                               if lo <= x + s <= hi})
    cands = marks + [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    counts = [count_1d(xs, c, r) for c in cands]
    return min(counts), max(counts)


def valid_region(center: Fraction, domain_radius: Fraction, r: Fraction):
    """Centers c with B(c, r) inside the domain ball."""
    slack = domain_radius - r
    expect(slack > 0, "window does not fit in the domain")
    return center - slack, center + slack


def sym_diff_1d(points, shift: Fraction, center: Fraction, radius: Fraction):
    """(S + v) delta S on the common domain, as (coords, center, radius)."""
    base = {p[0] for p in points}
    moved = {x + shift for x in base}
    lo = max(center - radius, center + shift - radius)
    hi = min(center + radius, center + shift + radius)
    mid, rad = (lo + hi) / 2, (hi - lo) / 2
    return sorted(x for x in base ^ moved if abs(x - mid) < rad), mid, rad


# --- analysis reports -----------------------------------------------------------------


def check_density_profile_1d(profile, patch, eps, known_density=None) -> None:
    xs = [p[0] for p in patch.points]
    c = patch.center[0]
    for radius, d_min, d_max in profile.samples:
        lo, hi = valid_region(c, patch.radius, radius)
        low, high = extrema_1d(xs, radius, lo, hi)
        expect((d_min, d_max) == (Fraction(low, 1) / (2 * radius),
                                  Fraction(high, 1) / (2 * radius)),
               f"density bracket at R={radius} is ({d_min}, {d_max}), "
               f"expected ({low}/{2 * radius}, {high}/{2 * radius})")
        if known_density is not None:
            expect(d_min <= known_density <= d_max,
                   f"bracket ({d_min}, {d_max}) misses density {known_density}")
    _check_verdict(profile, eps)


def zn_axis_counts(r: Fraction):
    """(min, max) integers in an open interval of length 2r."""
    length = 2 * r
    if length.denominator == 1:
        return int(length) - 1, int(length)
    return math.floor(length), math.floor(length) + 1


def check_density_profile_z2(profile, eps) -> None:
    for radius, d_min, d_max in profile.samples:
        low, high = zn_axis_counts(radius)
        volume = (2 * radius) ** 2
        expect((d_min, d_max) == (low ** 2 / volume, high ** 2 / volume),
               f"Z^2 bracket at R={radius} is ({d_min}, {d_max}), "
               f"expected ({low ** 2}, {high ** 2}) points per window")
        expect(d_min <= 1 <= d_max, f"Z^2 bracket misses density 1 at R={radius}")
    _check_verdict(profile, eps)


def _check_verdict(profile, eps) -> None:
    widths = [(r, hi - lo) for r, lo, hi in profile.samples]
    r_eps = next((r for r, w in widths if w <= 2 * eps), None)
    expect(profile.r_eps == r_eps, f"r_eps {profile.r_eps}, expected {r_eps}")
    _, lo, hi = profile.samples[-1]
    converged = hi - lo <= 2 * eps
    expect(profile.converged == converged, "convergence verdict is wrong")
    if converged:
        expect(profile.density == (lo + hi) / 2, "density is not the midpoint")


def rung_ladder(r_eps: Fraction, top: Fraction):
    rungs, r = [], r_eps
    while r < top:
        rungs.append(r)
        r *= 2
    return rungs + [top]


def translation_passes_1d(patch, v: Fraction, eps, r_eps) -> bool:
    """Every rung's sup density of (S + v) delta S stays below eps."""
    diff, mid, rad = sym_diff_1d(patch.points, v, patch.center[0], patch.radius)
    for rung in rung_ladder(r_eps, patch.radius - abs(v) - r_eps):
        if not diff:
            continue
        _, high = extrema_1d(diff, rung, *valid_region(mid, rad, rung))
        if Fraction(high) / (2 * rung) >= eps:
            return False
    return True


def differences_1d(patch, v_max):
    """Distinct differences b - a of points with |b - a| <= v_max."""
    xs = sorted(p[0] for p in patch.points)
    out = set()
    for i, a in enumerate(xs):
        for b in xs[i:]:
            if b - a > v_max:
                break
            out.update((b - a, a - b))
    return sorted(out)


def check_translations_1d(report, patch, eps, r_eps, v_max) -> None:
    accepted = [p[0] for p in report.translations.points]
    expected = [v for v in differences_1d(patch, v_max)
                if translation_passes_1d(patch, v, eps, r_eps)]
    compare_points([(v,) for v in accepted], [(v,) for v in expected],
                   "accepted translations")


def check_residue_translations(report, v_max) -> None:
    accepted = {p[0] for p in report.translations.points}
    expect(3 in accepted, "residue translation 3 was rejected")
    expect(1 not in accepted, "residue translation 1 was accepted")
    period = {Fraction(k) for k in range(-int(v_max), int(v_max) + 1)
              if k % 3 == 0}
    compare_points([(v,) for v in accepted], [(v,) for v in period],
                   "residue translations vs multiples of 3")


def check_fibonacci_translation_bound(report, patch, phi, tube_density,
                                      r_eps) -> None:
    """Each accepted v moves the set by a lattice vector whose internal part
    eta is small; (S + v) delta S then only holds points within |eta| of the
    window boundary, so its windowed density stays below the boundary-tube
    density plus a discrepancy slack of 2/r per rung."""
    internal = {}
    for b in range(-math.ceil(patch.radius) - 2, math.ceil(patch.radius) + 3):
        a = math.floor(phi * b + HALF)
        internal[a + (phi + 1) * b] = a - phi * b
    for (v,) in report.translations.points:
        if v == 0:
            continue
        etas = {internal[x + v] - internal[x] for (x,) in patch.points
                if x + v in internal}
        expect(bool(etas), f"translation {v} is not a lattice difference")
        bound = tube_density(max(abs(e) for e in etas))
        diff, mid, rad = sym_diff_1d(patch.points, v, patch.center[0],
                                     patch.radius)
        for rung in rung_ladder(r_eps, patch.radius - abs(v) - r_eps):
            if not diff:
                continue
            _, high = extrema_1d(diff, rung, *valid_region(mid, rad, rung))
            expect(Fraction(high) / (2 * rung) <= bound + 2 / rung,
                   f"translation {v} at rung {rung} exceeds the tube bound")


def check_subadditivity_1d(result, patch, shifts, radius) -> None:
    lhs, rhs, holds = result
    c, dom = patch.center[0], patch.radius
    total = sum(shifts, Fraction(0))
    diffs = [sym_diff_1d(patch.points, v, c, dom) for v in shifts + [total]]
    regions = [valid_region(mid, rad, radius) for _, mid, rad in diffs]
    lo = max(r[0] for r in regions)
    hi = min(r[1] for r in regions)

    def sup_density(xs):
        return Fraction(extrema_1d(xs, radius, lo, hi)[1]) / (2 * radius) \
            if xs else Fraction(0)

    exp_lhs = sup_density(diffs[-1][0])
    exp_rhs = sum((sup_density(d[0]) for d in diffs[:-1]), Fraction(0))
    expect((lhs, rhs) == (exp_lhs, exp_rhs),
           f"subadditivity sides ({lhs}, {rhs}), expected ({exp_lhs}, {exp_rhs})")
    expect(holds and lhs <= rhs, "subadditivity does not hold")


def check_weak_ap(result, patch, radius, zero_expected: bool) -> None:
    volume = (2 * radius) ** patch.dim
    values = []
    for w in result.witnesses:
        win_x = {p for p in patch.points if in_ball(p, w.x, radius)}
        win_y = {p for p in patch.points if in_ball(p, w.y, radius)}
        shifted = {tuple(a - b for a, b in zip(g, w.v)) for g in win_y}
        value = Fraction(len(win_x ^ shifted)) / volume
        expect(w.value == value,
               f"weak-ap witness value {w.value}, recount gives {value}")
        values.append(value)
    expect(result.worst == max(values, default=Fraction(0)),
           "weak-ap worst is not the largest witness value")
    if zero_expected:
        expect(result.worst == 0, f"weak-ap worst on Z^2 is {result.worst}")
