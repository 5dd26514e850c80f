"""Seeded request mixes for the three workloads.

A mix is a fixed list of requests, one round, that the benchmark serves
again and again.  Each request calls the library's public functions
through module attributes looked up at call time (`qg.enumerate_model_set`
and so on), so the traced run's wrappers see every call.  Parameters are
stratified: every slot draws from its own fixed range, and the seed only
moves the value inside that range, so two seeds give mixes of the same
cost shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import quasigrid as qg
import quasigrid.pointset as qps

import checkers as ck

PHI = Fraction(377, 233)          # golden ratio convergent
SQRT2_HALF = Fraction(70, 99)     # sqrt(2)/2 convergent
BRUTE_LIMIT = 20_000              # coefficient vectors a brute-force check may scan


@dataclass
class Request:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# --- schemes ------------------------------------------------------------------


def fibonacci_scheme():
    basis = qg.RMatrix.from_rows([[1, -PHI], [1, PHI + 1]])
    window = qg.Window(1, (qg.IntervalBox((Fraction(-1, 2),), (Fraction(1, 2),),
                                          (False,), (True,)),))
    return qg.CutProjectScheme(1, 1, basis, window)


def residue_scheme():
    basis = qg.RMatrix.from_rows([[Fraction(1, 3), 1], [1, 0]])
    window = qg.Window(1, (qg.IntervalBox.closed([0], [Fraction(1, 3)]),))
    return qg.CutProjectScheme(1, 1, basis, window)


AB_HALF_WIDTH = (1 + SQRT2_HALF) / 2
AB_BOX = ((-AB_HALF_WIDTH, -AB_HALF_WIDTH), (AB_HALF_WIDTH, AB_HALF_WIDTH),
          (True, True), (False, False))


def ammann_beenker_scheme():
    """Eight-fold star lattice in Z^4 with a square window [-w, w)^2."""
    s = SQRT2_HALF
    basis = qg.RMatrix.from_rows([[1, -s, 0, s], [0, s, -1, s],
                                  [1, s, 0, -s], [0, s, 1, s]])
    window = qg.Window(2, (qg.IntervalBox(*AB_BOX),))
    return qg.CutProjectScheme(2, 2, basis, window)


# --- seeded parameters ------------------------------------------------------------


JITTER = 0.2  # share of its stratum over which the seed moves a value


def strata(rng, lo, hi, count, denom=4, log=True):
    """One value near the middle of each equal-width stratum of [lo, hi], as
    a multiple of 1/denom.  Costs grow steeply with radii, so the seed only
    moves a value across the central fifth of its stratum; the seed's main
    effect is on what does not set the cost (centers, matrices, streams)."""
    out = []
    for i in range(count):
        t = (i + 0.5 + JITTER * (rng.random() - 0.5)) / count
        x = lo * (hi / lo) ** t if log else lo + (hi - lo) * t
        out.append(max(Fraction(lo), Fraction(round(x * denom), denom)))
    return out


def brute_check(scheme, center, radius, points, what):
    """Compare with a coefficient-box scan when the scan is small enough."""
    rows, m, boxes = ck.scheme_rows_and_boxes(scheme)
    if ck.brute_work(rows, m, boxes, center, radius) <= BRUTE_LIMIT:
        ck.compare_points(points, ck.brute_model_set(rows, m, boxes, center,
                                                     radius), what + " vs scan")


# --- generate --------------------------------------------------------------------


def _patch_request(kind, scheme, center, radius, check_points):
    def run():
        patch = qg.enumerate_model_set(scheme, center, radius).patch
        text = qps.dumps_qps(patch)
        return patch, text, qps.loads_qps(text)

    def check(out):
        patch, text, back = out
        ck.expect(patch.radius == radius and patch.center == center,
                  f"{kind}: wrong domain")
        check_points(patch.points)
        brute_check(scheme, center, radius, patch.points, kind)
        ck.check_qps_roundtrip(patch, text, back)

    return Request(kind, run, check)


def _translation_request(kind, scheme, eta, radius, expected):
    def run():
        patch = qg.translation_set(scheme, eta, radius)
        text = qps.dumps_qps(patch)
        return patch, text, qps.loads_qps(text)

    def check(out):
        patch, text, back = out
        ck.compare_points(patch.points, expected(), kind)
        ck.check_qps_roundtrip(patch, text, back)

    return Request(kind, run, check)


def _image_request(scale, center, radius):
    def run():
        scheme = qg.image_scheme(qg.RMatrix.from_rows([[scale]]),
                                 fibonacci_scheme())
        patch = qg.enumerate_model_set(scheme, (center,), radius).patch
        text = qps.dumps_qps(patch)
        return scheme, patch, text, qps.loads_qps(text)

    def check(out):
        scheme, patch, text, back = out
        ck.compare_points(patch.points,
                          ck.rounded_image_1d(scale, PHI, center, radius),
                          "image of Fibonacci vs rounded points")
        brute_check(scheme, (center,), radius, patch.points, "image scheme")
        ck.check_qps_roundtrip(patch, text, back)

    return Request("image", run, check)


def random_center(rng, n):
    return tuple(Fraction(rng.randrange(-64, 65), 16) for _ in range(n))


def generate_mix(seed: int) -> list[Request]:
    rng = random.Random(f"generate/{seed}")
    fib, res, ab = fibonacci_scheme(), residue_scheme(), ammann_beenker_scheme()
    reqs = []
    for n, lo, hi, count in ((1, 5, 500, 10), (2, 2, 24, 12), (3, 2, 6, 6)):
        for r in strata(rng, lo, hi, count):
            c = random_center(rng, n)
            reqs.append(_patch_request(
                f"z{n}", qg.zn_scheme(n), c, r,
                lambda pts, c=c, r=r: ck.check_zn_patch(pts, c, r)))
    for r in strata(rng, 3, 1000, 20):
        c = random_center(rng, 1)
        reqs.append(_patch_request(
            "fibonacci", fib, c, r, lambda pts, c=c, r=r: ck.compare_points(
                pts, ck.fibonacci_points(PHI, c[0], r), "fibonacci")))
    for r in strata(rng, 3, 1000, 20):
        c = random_center(rng, 1)
        reqs.append(_patch_request(
            "residue", res, c, r, lambda pts, c=c, r=r: ck.compare_points(
                pts, ck.residue_points(c[0], r), "residue")))
    for r in strata(rng, 2, 16, 12):
        c = random_center(rng, 2)
        reqs.append(_patch_request(
            "ammann_beenker", ab, c, r, lambda pts, c=c, r=r: ck.compare_points(
                pts, ck.ab_points(SQRT2_HALF, AB_BOX, c, r), "ammann_beenker")))
    for r, scale in zip(strata(rng, 3, 300, 10),
                        strata(rng, Fraction(1, 2), 4, 10, denom=8)):
        reqs.append(_image_request(scale, random_center(rng, 1)[0], r))
    for eta, r in zip(strata(rng, Fraction(1, 50), Fraction(1, 5), 6, denom=100),
                      strata(rng, 10, 400, 6)):
        reqs.append(_translation_request(
            "translations_fibonacci", fib, eta, r,
            lambda eta=eta, r=r: ck.fibonacci_translations(PHI, eta, r)))
    for eta, r in zip(strata(rng, Fraction(1, 100), Fraction(3, 10), 4, denom=100),
                      strata(rng, 10, 400, 4)):
        reqs.append(_translation_request(
            "translations_residue", res, eta, r,
            lambda eta=eta, r=r: ck.residue_translations(eta, r)))
    for eta, r in zip(strata(rng, Fraction(1, 20), Fraction(2, 5), 4, denom=100),
                      strata(rng, 2, 8, 4)):
        box = ((-eta, -eta), (eta, eta), (True, True), (True, True))
        reqs.append(_translation_request(
            "translations_ammann_beenker", ab, eta, r,
            lambda box=box, r=r: ck.ab_points(SQRT2_HALF, box, (0, 0), r)))
    return reqs


# --- chains ---------------------------------------------------------------------


def random_rational_map(rng, n: int, denom: int):
    """Entries p/q with q <= denom and |p/q| <= 2, |det| >= 1/2 and
    condition number ||A|| ||A^-1|| <= 8 in the infinity norm, so that no
    single draw makes a request orders of magnitude slower than its slot."""
    while True:
        rows = [[Fraction(rng.randrange(-2 * q, 2 * q + 1), q)
                 for q in (rng.randrange(1, denom + 1) for _ in range(n))]
                for _ in range(n)]
        mat = qg.RMatrix.from_rows(rows)
        if abs(mat.determinant()) < Fraction(1, 2):
            continue
        inv = ck.fraction_inverse(rows)
        cond = mat.op_norm_inf() * max(sum(abs(e) for e in row) for row in inv)
        if cond <= 8:
            return mat


def _iterate_request(stream_seed, k, radius):
    def run():
        chain = qg.sample_sl2_chain(qg.RngState(stream_seed), k)
        return chain, qg.apply_chain(chain, radius)

    def check(out):
        chain, image = out
        ck.expect(len(chain.matrices) == k
                  and all(abs(a.determinant() - 1) <= Fraction(1, 10**6)
                          for a in chain.matrices),
                  "iterate: chain is not k area-preserving maps")
        ck.expect(image.radius == radius and all(c == 0 for c in image.center),
                  "iterate: wrong domain")
        ck.check_chain_image(image.points, chain.matrices, radius)

    return Request("iterate", run, check)


def _witness_request(kind, chain, radius):
    return Request(kind, lambda: qg.chain_model_witness(chain, radius),
                   ck.check_witness)


def chains_mix(seed: int) -> list[Request]:
    rng = random.Random(f"chains/{seed}")
    reqs = []
    # (a) the iterate path: sample a rotation-stretch chain and apply it;
    # longer chains get smaller radii so no slot dominates the round
    for k, r_lo, r_hi in ((1, 40, 44), (5, 34, 38), (11, 26, 29), (20, 20, 23)):
        reqs.append(_iterate_request(rng.getrandbits(63), k,
                                     strata(rng, r_lo, r_hi, 1)[0]))
    # (b) SL2 chains: 2^-32 entries push latticeenum onto its big-int path
    for k, lo, hi, count in ((1, 4, 8, 3), (2, 3, 6, 2), (3, 4, 5, 4)):
        for r in strata(rng, lo, hi, count):
            chain = qg.sample_sl2_chain(qg.RngState(rng.getrandbits(63)), k)
            reqs.append(_witness_request("witness_sl2", chain, r))
    # (c) small-denominator rational chains on the int64 path; at n = 2 the
    # iterated scheme has dimension 2 (k + 1).  The counts place the median
    # inside the n = 1, k = 4 group and the 90th percentile inside the
    # n = 2, k = 3 group, whose costs hardly depend on the seed; the costlier
    # requests above it (k = 4, 5, the iterate path, SL2 k = 3) are ten.
    for n, k, count in ((1, 1, 18), (1, 2, 18), (1, 3, 18), (1, 4, 20),
                        (1, 5, 27), (2, 1, 4), (2, 2, 4), (2, 3, 6), (2, 4, 1),
                        (2, 5, 1)):
        for r in strata(rng, 6, 16, count):
            mats = tuple(random_rational_map(rng, n, 4) for _ in range(k))
            reqs.append(_witness_request(f"witness_rational_n{n}",
                                         qg.MapChain(n, mats), r))
    return reqs


# --- analyze ---------------------------------------------------------------------


@dataclass
class Patches:
    fibonacci: Any
    residue: Any
    z2: Any
    ammann_beenker: Any


PATCH_RADII = {"fibonacci": 160, "residue": 90, "z2": 12, "ammann_beenker": 9}


def build_patches() -> Patches:
    """The analysed patches; built once, before the first timed request."""
    return Patches(
        qg.enumerate_model_set(fibonacci_scheme(), (0,), PATCH_RADII["fibonacci"]).patch,
        qg.enumerate_model_set(residue_scheme(), (0,), PATCH_RADII["residue"]).patch,
        qg.enumerate_model_set(qg.zn_scheme(2), (0, 0), PATCH_RADII["z2"]).patch,
        qg.enumerate_model_set(ammann_beenker_scheme(), (0, 0),
                               PATCH_RADII["ammann_beenker"]).patch,
    )


def check_patches(p: Patches) -> None:
    r = PATCH_RADII
    ck.compare_points(p.fibonacci.points,
                      ck.fibonacci_points(PHI, Fraction(0), Fraction(r["fibonacci"])),
                      "Fibonacci patch")
    ck.compare_points(p.residue.points,
                      ck.residue_points(Fraction(0), Fraction(r["residue"])),
                      "residue patch")
    ck.check_zn_patch(p.z2.points, (0, 0), Fraction(r["z2"]))
    ck.compare_points(p.ammann_beenker.points,
                      ck.ab_points(SQRT2_HALF, AB_BOX, (0, 0),
                                   Fraction(r["ammann_beenker"])),
                      "Ammann-Beenker patch")


def _ladder(rng, lo, hi, count):
    return sorted(set(strata(rng, lo, hi, count)))


def _density_request(kind, patch, radii, eps, check):
    return Request(kind, lambda: qg.uniform_density(patch, radii, eps),
                   lambda out: check(out, eps))


def _fib_tube_density(eta):
    radius = Fraction(400)
    return Fraction(ck.fibonacci_tube_count(PHI, eta, radius)) / (2 * radius)


def analyze_mix(seed: int, patches: Patches) -> list[Request]:
    rng = random.Random(f"analyze/{seed}")
    fib, res, z2, ab = (patches.fibonacci, patches.residue, patches.z2,
                        patches.ammann_beenker)
    reqs = []
    # The counts place the median in the middle of the 24 residue ladders,
    # whose cost hardly depends on the seed: the Fibonacci ladders and most
    # inflation requests cost less, the 64 other requests more.  With the
    # median on a step between two kinds of request, it jumped with the seed.
    for kind, patch, r_max, count, known in (
            ("density_fibonacci", fib, 150, 54, None),
            ("density_residue", res, 80, 24, Fraction(2, 3))):
        for _ in range(count):
            eps = Fraction(rng.randrange(1, 21), 100)
            reqs.append(_density_request(
                kind, patch, _ladder(rng, 2, r_max, 5), eps,
                lambda out, e, p=patch, k=known:
                    ck.check_density_profile_1d(out, p, e, k)))
    for _ in range(12):
        eps = Fraction(rng.randrange(1, 21), 100)
        reqs.append(_density_request(
            "density_z2", z2, _ladder(rng, 1, 10, 3), eps,
            ck.check_density_profile_z2))
    for v_max, r_eps in zip(strata(rng, 6, 12, 12, denom=1),
                            strata(rng, 2, 6, 12, log=False)):
        eps = Fraction(rng.randrange(5, 26), 100)
        reqs.append(Request(
            "translations_residue",
            lambda e=eps, r=r_eps, v=v_max: qg.epsilon_translations(res, e, r, v),
            lambda out, e=eps, r=r_eps, v=v_max: (
                ck.check_residue_translations(out, v),
                ck.check_translations_1d(out, res, e, r, v))))
    for v_max, r_eps, eps in zip(strata(rng, 10, 20, 12, denom=1),
                                 strata(rng, 8, 14, 12, log=False),
                                 strata(rng, Fraction(3, 20), Fraction(3, 10), 12,
                                        denom=100)):
        reqs.append(Request(
            "translations_fibonacci",
            lambda e=eps, r=r_eps, v=v_max: qg.epsilon_translations(fib, e, r, v),
            lambda out, e=eps, r=r_eps, v=v_max: (
                ck.check_translations_1d(out, fib, e, r, v),
                ck.check_fibonacci_translation_bound(out, fib, PHI,
                                                     _fib_tube_density, r))))
    # shifts off the residue period and Fibonacci differences of 2 to 12, so
    # no shift leaves an empty difference set that would make a request cheap
    pools = {"subadditivity_residue": (res, [Fraction(v) for v in (1, 4, 7)]),
             "subadditivity_fibonacci": (fib, [v for v in ck.differences_1d(fib, 12)
                                               if v >= 2])}
    for kind, (patch, pool) in pools.items():
        for radius in strata(rng, 3, 15, 8):
            shifts = [rng.choice(pool), rng.choice(pool)]
            reqs.append(Request(
                kind,
                lambda p=patch, s=shifts, r=radius: qg.subadditivity_check(
                    p, [(v,) for v in s], r),
                lambda out, p=patch, s=shifts, r=radius:
                    ck.check_subadditivity_1d(out, p, s, r)))
    # on Z^2 a window of radius R with 2R an integer holds (2R)^2 points
    # wherever it sits, so every pair matches exactly and worst must be 0
    for patch, kind, radii, zero in (
            (z2, "weak_ap_z2", strata(rng, 1, 3, 6, denom=2), True),
            (ab, "weak_ap_ammann_beenker", strata(rng, 1, 3, 6), False)):
        for radius in radii:
            stream = rng.getrandbits(63)
            reqs.append(Request(
                kind,
                lambda p=patch, r=radius, s=stream: qg.weak_ap_probe(
                    p, Fraction(1, 10), r, 3, qg.RngState(s)),
                lambda out, p=patch, r=radius, z=zero:
                    ck.check_weak_ap(out, p, r, z)))
    scheme = fibonacci_scheme()
    for eta, radius in zip(strata(rng, Fraction(1, 50), Fraction(1, 4), 16,
                                  denom=200), strata(rng, 20, 400, 16)):
        reqs.append(Request(
            "inflation_fibonacci",
            lambda e=eta, r=radius: qg.window_inflation_density(scheme, e, r),
            lambda out, e=eta, r=radius: ck.expect(
                out == Fraction(ck.fibonacci_tube_count(PHI, e, r)) / (2 * r),
                f"window inflation density {out} is wrong")))
    return reqs
