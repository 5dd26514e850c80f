import hashlib
from fractions import Fraction

import pytest

import quasigrid.discretize
from quasigrid.cli import main
from quasigrid.cutproject import write_scheme
from quasigrid.pointset import PointSet, read_qps, write_qps


@pytest.fixture()
def residue_file(tmp_path, residue_scheme):
    path = tmp_path / "residue.cps"
    write_scheme(path, residue_scheme)
    return str(path)


def test_gen_zn_bytes(tmp_path):
    out = tmp_path / "zn.qps"
    assert main(["gen", "zn", "--dim", "2", "--radius", "5/2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("qps 1\ndim 2\ndomain 0 0 5/2\n")
    assert len(text.splitlines()) == 3 + 25


def test_gen_model_residue(tmp_path, residue_file):
    out = tmp_path / "res.qps"
    assert main(["gen", "model", "--scheme", residue_file, "--radius", "5",
                 "--out", str(out)]) == 0
    assert out.read_text() == (
        "qps 1\ndim 1\ndomain 0 5\n-3\n-2\n0\n1\n3\n4\n"
    )


def test_gen_model_center_flag(tmp_path, residue_file):
    out = tmp_path / "off.qps"
    assert main(["gen", "model", "--scheme", residue_file, "--radius", "3",
                 "--center", "19/2", "--out", str(out)]) == 0
    body = out.read_text().splitlines()[3:]
    assert body == ["7", "9", "10", "12"]  # residues 0,1 mod 3 in (13/2, 25/2)


def test_gen_chain_matches_gen_model(tmp_path):
    chain = tmp_path / "maps.chn"
    chain.write_text("chain 2 2\n1 1/2\n0 1\n1 0\n1/3 1\n")
    out = tmp_path / "chain.qps"
    assert main(["gen", "chain", "--chain", str(chain), "--radius", "30",
                 "--out", str(out)]) == 0
    assert main(["verify", "--chain", str(chain), "--radius", "30"]) == 0


@pytest.mark.parametrize("gen_args, density_args, lines", [
    # within 1/100 of 1
    (["--dim", "2", "--radius", "105/2"], ["--rmax", "50"],
     ["density 19801/20000"]),
    # Z^3 is exact too: a ball of radius 4 holds 7^3 or 8^3 points
    (["--dim", "3", "--radius", "8"], ["--rmax", "4", "--eps", "1/2"],
     ["density 855/1024", "sample 4 343/512 1"]),
], ids=["z2", "z3"])
def test_analyze_density(tmp_path, capsys, gen_args, density_args, lines):
    qps = tmp_path / "z.qps"
    assert main(["gen", "zn", *gen_args, "--out", str(qps)]) == 0
    rpt = tmp_path / "d.rpt"
    csv = tmp_path / "d.csv"
    assert main(["analyze", "density", "--in", str(qps), *density_args,
                 "--out", str(rpt), "--csv", str(csv)]) == 0
    report = rpt.read_text().splitlines()
    assert "verdict converged" in report
    assert all(line in report for line in lines)
    assert csv.read_text().startswith("R,d_min,d_max\n")
    assert capsys.readouterr().err == ""


def test_analyze_translations(tmp_path, residue_file):
    qps = tmp_path / "res.qps"
    assert main(["gen", "model", "--scheme", residue_file, "--radius", "40",
                 "--out", str(qps)]) == 0
    rpt = tmp_path / "t.rpt"
    assert main(["analyze", "translations", "--in", str(qps),
                 "--epsilon", "1/10", "--reps", "10", "--out", str(rpt)]) == 0
    lines = rpt.read_text().splitlines()
    assert "v -3" in lines and "v 3" in lines
    assert "v 1" not in lines and "v -1" not in lines


def test_analyze_weakap_deterministic(tmp_path):
    qps = tmp_path / "z.qps"
    assert main(["gen", "zn", "--dim", "2", "--radius", "10",
                 "--out", str(qps)]) == 0
    rpts = []
    for name in ("a.rpt", "b.rpt"):
        path = tmp_path / name
        assert main(["analyze", "weakap", "--in", str(qps),
                     "--epsilon", "1/10", "--radius", "5/2", "--pairs", "20",
                     "--seed", "7", "--out", str(path)]) == 0
        rpts.append(path.read_bytes())
    assert rpts[0] == rpts[1]
    assert b"worst 0" in rpts[0]


def test_analyze_weakap_report_bytes(tmp_path, golden_scheme):
    # a Fibonacci patch and a Fraction radius: worst is 2/13 and the pair
    # lines carry shifts such as -2995/233; the hash pins every byte
    scheme = tmp_path / "fib.cps"
    write_scheme(scheme, golden_scheme)
    qps = tmp_path / "fib.qps"
    assert main(["gen", "model", "--scheme", str(scheme), "--radius", "60",
                 "--out", str(qps)]) == 0
    rpt = tmp_path / "w.rpt"
    assert main(["analyze", "weakap", "--in", str(qps), "--epsilon", "1/10",
                 "--radius", "13/2", "--pairs", "12", "--seed", "17",
                 "--out", str(rpt)]) == 0
    blob = rpt.read_bytes()
    assert b"worst 2/13\npass false\n" in blob
    assert b" -2995/233 2/13\n" in blob
    assert hashlib.sha256(blob).hexdigest() == (
        "fc5f77bc9083e82f940e5144b332a42a2c92bfe48ff009f88c48a5298628dce3")


def test_analyze_density_report_bytes(tmp_path, golden_scheme):
    # a Fibonacci patch and the ladder 95/32 ... 95/2: the hash pins every
    # bracket of the report
    scheme = tmp_path / "fib.cps"
    write_scheme(scheme, golden_scheme)
    qps = tmp_path / "fib.qps"
    assert main(["gen", "model", "--scheme", str(scheme), "--radius", "60",
                 "--out", str(qps)]) == 0
    rpt = tmp_path / "d.rpt"
    assert main(["analyze", "density", "--in", str(qps), "--rmax", "95/2",
                 "--eps", "1/20", "--out", str(rpt)]) == 0
    blob = rpt.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "77bdb1a4647edf27d757413a5d35f84a8c22c89eb0b4f1b5a71dc05e84800885")


def test_iterate_deterministic(tmp_path):
    blobs = []
    for tag in ("one", "two"):
        qps = tmp_path / f"{tag}.qps"
        chn = tmp_path / f"{tag}.chn"
        assert main(["iterate", "--seed", "42", "--k", "2", "--radius", "20",
                     "--out", str(qps), "--chain-out", str(chn)]) == 0
        blobs.append((qps.read_bytes(), chn.read_bytes()))
    assert blobs[0] == blobs[1]


def test_render_ppm_pixel_count(tmp_path):
    qps = tmp_path / "z.qps"
    assert main(["gen", "zn", "--dim", "2", "--radius", "5/2",
                 "--out", str(qps)]) == 0
    img = tmp_path / "z.ppm"
    assert main(["render", "--in", str(qps), "--out", str(img),
                 "--ppu", "4", "--point-px", "1"]) == 0
    blob = img.read_bytes()
    assert blob.startswith(b"P6\n20 20\n255\n")
    body = blob[len(b"P6\n20 20\n255\n"):]
    black = sum(1 for i in range(0, len(body), 3) if body[i] == 0)
    assert black == 25


def test_render_empty_is_white(tmp_path):
    qps = tmp_path / "empty.qps"
    write_qps(qps, PointSet.build(2, [], (0, 0), 3))
    img = tmp_path / "empty.ppm"
    assert main(["render", "--in", str(qps), "--out", str(img),
                 "--ppu", "2"]) == 0
    blob = img.read_bytes()
    body = blob[len(b"P6\n12 12\n255\n"):]
    assert body == b"\xff" * (12 * 12 * 3)


def test_render_svg_deterministic(tmp_path):
    qps = tmp_path / "z.qps"
    assert main(["gen", "zn", "--dim", "2", "--radius", "2",
                 "--out", str(qps)]) == 0
    img1, img2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for img in (img1, img2):
        assert main(["render", "--in", str(qps), "--out", str(img),
                     "--format", "svg", "--ppu", "3"]) == 0
    assert img1.read_bytes() == img2.read_bytes()
    assert img1.read_text().count("<rect") == 9 + 1  # points plus background


def test_render_rejects_dim_one(tmp_path, residue_file):
    qps = tmp_path / "res.qps"
    main(["gen", "model", "--scheme", residue_file, "--radius", "5",
          "--out", str(qps)])
    assert main(["render", "--in", str(qps), "--out",
                 str(tmp_path / "x.ppm")]) == 2


def test_verify_random_passes(capsys):
    assert main(["verify", "--random", "--seed", "9", "--count", "3",
                 "--k", "2", "--dim", "2", "--radius", "20",
                 "--denom", "8"]) == 0
    out = capsys.readouterr().out
    assert "3/3 cases passed" in out


def test_verify_reports_mismatch(tmp_path, capsys, monkeypatch):
    chain = tmp_path / "maps.chn"
    chain.write_text("chain 1 2\n1 0\n0 1\n")
    monkeypatch.setattr(quasigrid.discretize, "chain_model_witness",
                        lambda *a, **k: (Fraction(1), Fraction(2)))
    assert main(["verify", "--chain", str(chain), "--radius", "5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL first differing point (1 2)" in out


class TestExitCodes:
    def test_help_exits_zero(self):
        for args in (["--help"], ["gen", "--help"], ["analyze", "--help"],
                     ["render", "--help"], ["verify", "--help"],
                     ["iterate", "--help"], ["gen", "zn", "--help"]):
            with pytest.raises(SystemExit) as err:
                main(args)
            assert err.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["gen", "zn", "--dim", "2", "--radius", "2", "--bogus"])
        assert err.value.code == 2

    def test_float_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["gen", "zn", "--dim", "2", "--radius", "2.5"])
        assert err.value.code == 2

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.qps"
        bad.write_text("qps 9\n")
        assert main(["analyze", "density", "--in", str(bad),
                     "--rmax", "5"]) == 2

    def test_domain_too_small_exits_four(self, tmp_path, capsys):
        qps = tmp_path / "z.qps"
        main(["gen", "zn", "--dim", "2", "--radius", "5", "--out", str(qps)])
        assert main(["analyze", "density", "--in", str(qps),
                     "--rmax", "50"]) == 4
        assert "need a complete radius above 50" in capsys.readouterr().err

    def test_budget_exceeded_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUASIGRID_BUDGET", "50")
        assert main(["gen", "zn", "--dim", "2", "--radius", "40",
                     "--out", str(tmp_path / "z.qps")]) == 3

    @pytest.mark.parametrize("raw, message", [
        ("abc", "QUASIGRID_BUDGET is not an integer: 'abc'"),
        ("0", "QUASIGRID_BUDGET must be positive"),
    ])
    def test_malformed_budget_exits_two(self, tmp_path, monkeypatch, capsys,
                                        raw, message):
        monkeypatch.setenv("QUASIGRID_BUDGET", raw)
        assert main(["gen", "zn", "--dim", "2", "--radius", "3",
                     "--out", str(tmp_path / "z.qps")]) == 2
        assert message in capsys.readouterr().err

    def test_iterate_over_budget_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUASIGRID_BUDGET", "50")
        assert main(["iterate", "--seed", "42", "--k", "2", "--radius", "20",
                     "--out", str(tmp_path / "i.qps")]) == 3
        assert "more than 50 (raise QUASIGRID_BUDGET" in capsys.readouterr().err


def test_gen_output_round_trips_through_tools(tmp_path, residue_file):
    qps = tmp_path / "res.qps"
    assert main(["gen", "model", "--scheme", residue_file, "--radius", "40",
                 "--out", str(qps)]) == 0
    data = read_qps(qps)
    assert len(data) > 0
    assert main(["analyze", "density", "--in", str(qps), "--rmax", "10",
                 "--out", str(tmp_path / "d.rpt")]) == 0
