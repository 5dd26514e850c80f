"""Command-line front end.

Subcommands: gen (model / chain / zn), analyze (density / translations /
weakap), iterate, render, verify.  All numeric flags take exact rationals
written as p/q or integers; there are no floating flags, so every run is
bit-reproducible given its arguments and seed.

Exit codes: 0 success, 1 verification mismatch, 2 usage or malformed
input, 3 enumeration budget exceeded, 4 domain too small.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import analysis, cutproject, discretize, pointset
from .errors import BudgetError, DomainError, FormatError, QuasigridError
from .ratmath import RMatrix
from .rng import RngState
from .textio import parse_rational, write_text

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_rational(text: str) -> Fraction:
    value = _rational_flag(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _write_text(path: str | None, text: str) -> None:
    write_text(sys.stdout if path is None or path == "-" else path, text)


def _write_bytes(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


# --- gen ----------------------------------------------------------------------


def _cmd_gen_model(args) -> int:
    scheme = cutproject.read_scheme(args.scheme)
    center = args.center or [Fraction(0)] * scheme.n
    patch = cutproject.enumerate_model_set(scheme, center, args.radius)
    _write_text(args.out, pointset.dumps_qps(patch.patch))
    return EXIT_OK


def _cmd_gen_chain(args) -> int:
    chain = discretize.read_chain(args.chain)
    result = discretize.apply_chain(chain, args.radius)
    _write_text(args.out, pointset.dumps_qps(result))
    return EXIT_OK


def _cmd_gen_zn(args) -> int:
    patch = cutproject.enumerate_model_set(
        cutproject.zn_scheme(args.dim), [Fraction(0)] * args.dim, args.radius
    )
    _write_text(args.out, pointset.dumps_qps(patch.patch))
    return EXIT_OK


# --- analyze ------------------------------------------------------------------


def _density_ladder(r_max: Fraction) -> list[Fraction]:
    return [r_max / 16, r_max / 8, r_max / 4, r_max / 2, r_max]


def _cmd_analyze_density(args) -> int:
    data = pointset.read_qps(args.input)
    if args.rmax >= data.radius:
        raise DomainError(
            f"domain too small: need a complete radius above {args.rmax}, "
            f"have {data.radius}"
        )
    profile = analysis.uniform_density(data, _density_ladder(args.rmax),
                                       args.eps)
    _write_text(args.out, analysis.density_report_text(profile, args.eps))
    if args.csv:
        _write_text(args.csv, analysis.density_profile_csv(profile))
    return EXIT_OK


def _cmd_analyze_translations(args) -> int:
    data = pointset.read_qps(args.input)
    v_max = args.vmax if args.vmax is not None else args.reps
    report = analysis.epsilon_translations(data, args.epsilon, args.reps, v_max)
    _write_text(args.out, analysis.translation_report_text(report))
    return EXIT_OK


def _cmd_analyze_weakap(args) -> int:
    data = pointset.read_qps(args.input)
    result = analysis.weak_ap_probe(data, args.epsilon, args.radius,
                                    args.pairs, RngState(args.seed))
    _write_text(args.out, analysis.weakap_report_text(
        result, args.epsilon, args.radius, args.seed))
    return EXIT_OK


# --- iterate ------------------------------------------------------------------


def _cmd_iterate(args) -> int:
    chain = discretize.sample_sl2_chain(RngState(args.seed), args.k)
    result = discretize.apply_chain(chain, args.radius)
    _write_text(args.out, pointset.dumps_qps(result))
    if args.chain_out:
        _write_text(args.chain_out, discretize.dumps_chain(chain))
    return EXIT_OK


# --- render -------------------------------------------------------------------


def _pixel_grid(data, window_radius: Fraction, ppu: int, point_px: int):
    side = math.ceil(2 * window_radius * ppu)
    filled = set()
    for p in data.points:
        x, y = p
        if abs(x) >= window_radius or abs(y) >= window_radius:
            continue
        col = math.floor((x + window_radius) * ppu)
        row = math.floor((window_radius - y) * ppu)
        start_c = col - (point_px - 1) // 2
        start_r = row - (point_px - 1) // 2
        for r in range(max(0, start_r), min(side, start_r + point_px)):
            for c in range(max(0, start_c), min(side, start_c + point_px)):
                filled.add((r, c))
    return side, filled


def render_ppm(data, window_radius: Fraction, ppu: int, point_px: int) -> bytes:
    side, filled = _pixel_grid(data, window_radius, ppu, point_px)
    header = f"P6\n{side} {side}\n255\n".encode("ascii")
    body = bytearray(b"\xff" * (side * side * 3))
    for r, c in filled:
        at = (r * side + c) * 3
        body[at:at + 3] = b"\x00\x00\x00"
    return header + bytes(body)


def render_svg(data, window_radius: Fraction, ppu: int, point_px: int) -> str:
    side, filled = _pixel_grid(data, window_radius, ppu, point_px)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
    ]
    for r, c in sorted(filled):
        lines.append(f'<rect x="{c}" y="{r}" width="1" height="1" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(args) -> int:
    data = pointset.read_qps(args.input)
    if data.dim != 2:
        raise FormatError(f"render supports dimension 2 only, got {data.dim}")
    if args.ppu < 1 or args.point_px < 1:
        raise FormatError("--ppu and --point-px must be at least 1")
    window_radius = args.window_radius or data.radius
    if args.format == "ppm":
        _write_bytes(args.out, render_ppm(data, window_radius, args.ppu,
                                          args.point_px))
    else:
        _write_text(args.out, render_svg(data, window_radius, args.ppu,
                                         args.point_px))
    return EXIT_OK


# --- verify -------------------------------------------------------------------


def _random_invertible(rng: RngState, n: int, denom: int) -> RMatrix:
    while True:
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                q = 1 + rng.randrange(denom)
                p = rng.randrange(4 * q + 1) - 2 * q
                row.append(Fraction(p, q))
            rows.append(row)
        mat = RMatrix.from_rows(rows)
        # reject badly conditioned draws so back-propagation stays cheap
        if abs(mat.determinant()) >= Fraction(1, 2):
            return mat


def _cmd_verify(args) -> int:
    cases = []
    if args.chain:
        cases.append(discretize.read_chain(args.chain))
    elif args.random:
        rng = RngState(args.seed)
        for _ in range(args.count):
            mats = tuple(
                _random_invertible(rng, args.dim, args.denom)
                for _ in range(args.k)
            )
            cases.append(discretize.MapChain(args.dim, mats))
    else:
        raise FormatError("verify needs --chain FILE or --random")
    failures = 0
    for i, chain in enumerate(cases):
        witness = discretize.chain_model_witness(chain, args.radius)
        if witness is None:
            print(f"case {i}: pass")
        else:
            failures += 1
            coords = " ".join(str(c) for c in witness)
            print(f"case {i}: FAIL first differing point ({coords})")
    print(f"{len(cases) - failures}/{len(cases)} cases passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# --- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasigrid",
        description="cut-and-project point sets, discretized linear maps, "
                    "and almost-periodicity statistics in exact rationals",
    )
    top = parser.add_subparsers(dest="command", required=True)

    gen = top.add_parser("gen", help="generate point sets as QPS files")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    g_model = gen_sub.add_parser("model", help="enumerate a model set")
    g_model.add_argument("--scheme", required=True)
    g_model.add_argument("--radius", type=_positive_rational, required=True)
    g_model.add_argument("--center", type=_rational_flag, nargs="+")
    g_model.add_argument("--out")
    g_model.set_defaults(func=_cmd_gen_model)

    g_chain = gen_sub.add_parser("chain", help="apply a matrix chain to Z^n")
    g_chain.add_argument("--chain", required=True)
    g_chain.add_argument("--radius", type=_positive_rational, required=True)
    g_chain.add_argument("--out")
    g_chain.set_defaults(func=_cmd_gen_chain)

    g_zn = gen_sub.add_parser("zn", help="integer lattice patch")
    g_zn.add_argument("--dim", type=int, required=True)
    g_zn.add_argument("--radius", type=_positive_rational, required=True)
    g_zn.add_argument("--out")
    g_zn.set_defaults(func=_cmd_gen_zn)

    an = top.add_parser("analyze", help="density and almost-periodicity reports")
    an_sub = an.add_subparsers(dest="what", required=True)

    a_density = an_sub.add_parser("density", help="windowed density profile")
    a_density.add_argument("--in", dest="input", required=True)
    a_density.add_argument("--rmax", type=_positive_rational, required=True)
    a_density.add_argument("--eps", type=_positive_rational,
                           default=Fraction(1, 100))
    a_density.add_argument("--out")
    a_density.add_argument("--csv")
    a_density.set_defaults(func=_cmd_analyze_density)

    a_trans = an_sub.add_parser("translations", help="near-translation search")
    a_trans.add_argument("--in", dest="input", required=True)
    a_trans.add_argument("--epsilon", type=_positive_rational, required=True)
    a_trans.add_argument("--reps", type=_positive_rational, required=True)
    a_trans.add_argument("--vmax", type=_positive_rational)
    a_trans.add_argument("--out")
    a_trans.set_defaults(func=_cmd_analyze_translations)

    a_weak = an_sub.add_parser("weakap", help="window matching probe")
    a_weak.add_argument("--in", dest="input", required=True)
    a_weak.add_argument("--epsilon", type=_positive_rational, required=True)
    a_weak.add_argument("--radius", type=_positive_rational, required=True)
    a_weak.add_argument("--pairs", type=int, required=True)
    a_weak.add_argument("--seed", type=int, required=True)
    a_weak.add_argument("--out")
    a_weak.set_defaults(func=_cmd_analyze_weakap)

    it = top.add_parser("iterate", help="random rotation-stretch chain image")
    it.add_argument("--seed", type=int, required=True)
    it.add_argument("--k", type=int, required=True)
    it.add_argument("--radius", type=_positive_rational, default=Fraction(60))
    it.add_argument("--out", required=True)
    it.add_argument("--chain-out")
    it.set_defaults(func=_cmd_iterate)

    rd = top.add_parser("render", help="raster or vector image of a QPS file")
    rd.add_argument("--in", dest="input", required=True)
    rd.add_argument("--out", required=True)
    rd.add_argument("--ppu", type=int, default=2,
                    help="pixels per unit length")
    rd.add_argument("--point-px", type=int, default=1)
    rd.add_argument("--format", choices=("ppm", "svg"), default="ppm")
    rd.add_argument("--window-radius", type=_positive_rational)
    rd.set_defaults(func=_cmd_render)

    vf = top.add_parser("verify", help="model-set vs direct-rounding check")
    vf.add_argument("--chain")
    vf.add_argument("--random", action="store_true")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=int, default=20)
    vf.add_argument("--k", type=int, default=2)
    vf.add_argument("--dim", type=int, default=2)
    vf.add_argument("--radius", type=_positive_rational, default=Fraction(50))
    vf.add_argument("--denom", type=int, default=8)
    vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (FormatError, QuasigridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
