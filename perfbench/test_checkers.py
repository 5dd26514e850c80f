"""The benchmark's checkers accept the library's results and reject
corrupted ones: a dropped point, a shifted point, a wrong density, a broken
witness.  Run with `python3 -m pytest perfbench/test_checkers.py`.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quasigrid as qg  # noqa: E402
import quasigrid.pointset as qps  # noqa: E402

import checkers as ck  # noqa: E402
import mixes  # noqa: E402

F = Fraction


def dropped(points):
    return points[:len(points) // 2] + points[len(points) // 2 + 1:]


def shifted(points):
    i = len(points) // 2
    moved = tuple(c + F(1, 7) for c in points[i])
    return points[:i] + (moved,) + points[i + 1:]


def rejects(fn, *args):
    with pytest.raises(ck.CheckError):
        fn(*args)


@pytest.fixture(scope="module")
def patches():
    return mixes.build_patches()


@pytest.mark.parametrize("n, radius", [(1, F(7, 2)), (2, F(5)), (3, F(9, 4))])
def test_zn_count(n, radius):
    pts = qg.enumerate_model_set(qg.zn_scheme(n), (0,) * n, radius).patch.points
    ck.check_zn_patch(pts, (0,) * n, radius)
    rejects(ck.check_zn_patch, dropped(pts), (0,) * n, radius)
    rejects(ck.check_zn_patch, shifted(pts), (0,) * n, radius)
    center = (F(5, 16),) * n
    pts = qg.enumerate_model_set(qg.zn_scheme(n), center, radius).patch.points
    ck.check_zn_patch(pts, center, radius)
    rejects(ck.check_zn_patch, dropped(pts), center, radius)


@pytest.mark.parametrize("scheme, reference", [
    (mixes.fibonacci_scheme(),
     lambda c, r: ck.fibonacci_points(mixes.PHI, c[0], r)),
    (mixes.residue_scheme(), lambda c, r: ck.residue_points(c[0], r)),
    (mixes.ammann_beenker_scheme(),
     lambda c, r: ck.ab_points(mixes.SQRT2_HALF, mixes.AB_BOX, c, r)),
])
@pytest.mark.parametrize("offset", [F(0), F(-13, 16)])
def test_scheme_formulas_and_scan(scheme, reference, offset):
    radius = F(9, 2)
    center = (offset,) * scheme.n
    pts = qg.enumerate_model_set(scheme, center, radius).patch.points
    rows, m, boxes = ck.scheme_rows_and_boxes(scheme)
    scan = ck.brute_model_set(rows, m, boxes, center, radius)
    for expected in (reference(center, radius), scan):
        ck.compare_points(pts, expected, "patch")
        rejects(ck.compare_points, dropped(pts), expected, "patch")
        rejects(ck.compare_points, shifted(pts), expected, "patch")


def test_image_and_translation_formulas():
    fib = mixes.fibonacci_scheme()
    scale, radius = F(7, 4), F(30)
    image = qg.image_scheme(qg.RMatrix.from_rows([[scale]]), fib)
    pts = qg.enumerate_model_set(image, (0,), radius).patch.points
    expected = ck.rounded_image_1d(scale, mixes.PHI, F(0), radius)
    ck.compare_points(pts, expected, "image")
    rejects(ck.compare_points, dropped(pts), expected, "image")
    eta = F(1, 10)
    pts = qg.translation_set(fib, eta, radius).points
    ck.compare_points(pts, ck.fibonacci_translations(mixes.PHI, eta, radius), "t")
    pts = qg.translation_set(mixes.residue_scheme(), eta, radius).points
    ck.compare_points(pts, ck.residue_translations(eta, radius), "t")


def test_qps_roundtrip():
    patch = qg.enumerate_model_set(mixes.fibonacci_scheme(), (0,), 20).patch
    text = qps.dumps_qps(patch)
    back = qps.loads_qps(text)
    ck.check_qps_roundtrip(patch, text, back)
    lines = text.split("\n")
    rejects(ck.check_qps_roundtrip, patch, "\n".join(lines[:5] + lines[6:]), back)
    rejects(ck.check_qps_roundtrip, patch, text,
            replace(back, points=dropped(back.points)))


def test_chain_image_both_references():
    chain = qg.sample_sl2_chain(qg.RngState(5), 2)
    radius = F(12)
    pts = qg.apply_chain(chain, radius).points
    assert ck.check_chain_image(pts, chain.matrices, radius) == "forward"
    backward = ck.backward_chain_image(chain.matrices, radius)
    ck.compare_points(pts, backward, "chain")
    long_chain = qg.sample_sl2_chain(qg.RngState(6), 8)
    pts = qg.apply_chain(long_chain, radius).points
    assert ck.check_chain_image(pts, long_chain.matrices, radius) == "backward"
    rejects(ck.check_chain_image, dropped(pts), long_chain.matrices, radius)
    rejects(ck.check_chain_image, shifted(pts), long_chain.matrices, radius)


def test_witness():
    chain = qg.MapChain(2, (qg.RMatrix.from_rows([[F(3, 2), F(1, 3)],
                                                  [F(-1, 2), 1]]),))
    ck.check_witness(qg.chain_model_witness(chain, 8))
    rejects(ck.check_witness, (F(1), F(0)))


def test_density_profiles(patches):
    eps = F(1, 10)
    res = qg.uniform_density(patches.residue, [3, 10, 40], eps)
    ck.check_density_profile_1d(res, patches.residue, eps, F(2, 3))
    radius, lo, hi = res.samples[1]
    wrong = replace(res, samples=(res.samples[0], (radius, lo, hi + F(1, 20)),
                                  res.samples[2]))
    rejects(ck.check_density_profile_1d, wrong, patches.residue, eps)
    rejects(ck.check_density_profile_1d, res, patches.residue, eps, F(3, 4))
    z2 = qg.uniform_density(patches.z2, [2, F(7, 2), 6], eps)
    ck.check_density_profile_z2(z2, eps)
    rejects(ck.check_density_profile_z2,
            replace(z2, samples=((F(2), F(1), F(1)),) + z2.samples[1:]), eps)


def test_translations(patches):
    res = qg.epsilon_translations(patches.residue, F(1, 10), 3, 9)
    ck.check_residue_translations(res, 9)
    ck.check_translations_1d(res, patches.residue, F(1, 10), 3, 9)
    extra = qg.PointSet.build(1, list(res.translations.points) + [(F(1),)],
                              (0,), 10)
    rejects(ck.check_residue_translations, replace(res, translations=extra), 9)
    rejects(ck.check_translations_1d, replace(res, translations=extra),
            patches.residue, F(1, 10), 3, 9)
    fib = qg.epsilon_translations(patches.fibonacci, F(1, 5), 10, 20)
    ck.check_translations_1d(fib, patches.fibonacci, F(1, 5), 10, 20)
    ck.check_fibonacci_translation_bound(fib, patches.fibonacci, mixes.PHI,
                                         mixes._fib_tube_density, 10)
    assert len(fib.translations) > 1
    # accepting a large shift breaks both the definition and the tube bound
    bad = qg.PointSet.build(1, list(fib.translations.points) + [(mixes.PHI + 1,)],
                            (0,), 21)
    rejects(ck.check_translations_1d, replace(fib, translations=bad),
            patches.fibonacci, F(1, 5), 10, 20)
    rejects(ck.check_fibonacci_translation_bound, replace(fib, translations=bad),
            patches.fibonacci, mixes.PHI, lambda eta: F(0), 10)


def test_subadditivity(patches):
    shifts = [F(1), F(2)]
    result = qg.subadditivity_check(patches.residue, [(v,) for v in shifts], 6)
    ck.check_subadditivity_1d(result, patches.residue, shifts, F(6))
    lhs, rhs, holds = result
    rejects(ck.check_subadditivity_1d, (lhs + F(1, 12), rhs, holds),
            patches.residue, shifts, F(6))


def test_weak_ap(patches):
    radius = F(2)
    z2 = qg.weak_ap_probe(patches.z2, F(1, 10), radius, 2, qg.RngState(3))
    ck.check_weak_ap(z2, patches.z2, radius, True)
    ab = qg.weak_ap_probe(patches.ammann_beenker, F(1, 10), radius, 2,
                          qg.RngState(4))
    ck.check_weak_ap(ab, patches.ammann_beenker, radius, False)
    w = ab.witnesses[0]
    broken = replace(ab, witnesses=(replace(w, value=w.value + F(1, 16)),)
                     + ab.witnesses[1:])
    rejects(ck.check_weak_ap, broken, patches.ammann_beenker, radius, False)
    rejects(ck.check_weak_ap, replace(z2, worst=F(1, 16)), patches.z2, radius,
            True)


def test_inflation_count():
    eta, radius = F(1, 20), F(100)
    density = qg.window_inflation_density(mixes.fibonacci_scheme(), eta, radius)
    assert density == F(ck.fibonacci_tube_count(mixes.PHI, eta, radius)) / (2 * radius)
    assert density != F(ck.fibonacci_tube_count(mixes.PHI, 2 * eta, radius)) / (2 * radius)
