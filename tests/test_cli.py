"""Command-line surface: outputs, exports, exit codes."""

import csv
import json

from peanoquad import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_rules(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("ostrowski", "simpson", "gauss_legendre2", "lobatto4", "liu_park", "q44"):
        assert name in out
    # deterministic order
    code2, out2, _ = run(capsys, "catalog")
    assert out == out2


def test_analyze_simpson(capsys):
    code, out, _ = run(capsys, "analyze", "simpson")
    assert code == 0
    assert "degree of exactness 3" in out
    for frac in ("5/9", "8/81", "1/36", "1/90"):
        assert frac in out


def test_analyze_with_params_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "mod3_opt", "-p", "x=1/4", "--json", str(path))
    assert code == 0
    assert "degree of exactness 2" in out
    data = json.loads(path.read_text())
    assert data["degree"] == 2
    assert data["rule"]["params"]["x"] == "1/4"
    assert data["constants"][0]["exact"] is not None


def test_analyze_radau2(capsys):
    code, out, _ = run(capsys, "analyze", "radau2")
    assert code == 0
    for frac in ("25/36", "1/6", "2/27"):
        assert frac in out


def test_analyze_strict_clean_rule_exits_zero(capsys):
    code, _, _ = run(capsys, "analyze", "lobatto4", "--strict")
    assert code == 0


def test_analyze_strict_ambiguous_exits_three(capsys, monkeypatch):
    import peanoquad.exactness as exactness_mod

    real = exactness_mod.degree_of_exactness

    def flagged(rule, k_max=20):
        rep = real(rule, k_max)
        return exactness_mod.ExactnessReport(
            rep.remainders, rep.degree, rep.first_nonzero_index, rep.at_least, (2,)
        )

    monkeypatch.setattr(cli, "degree_of_exactness", flagged)
    code, _, err = run(capsys, "analyze", "simpson", "--strict")
    assert code == 3
    assert "ambiguous" in err


def test_unknown_rule_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "not_a_rule")
    assert code == 2
    assert "error" in err


def test_unknown_parameter_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "simpson", "-p", "x=1")
    assert code == 2


def test_out_of_domain_exits_two(capsys):
    code, _, _ = run(capsys, "analyze", "dcr", "-p", "lambda=1", "-p", "x=0")
    assert code == 2


def test_bad_scalar_exits_two(capsys):
    code, _, _ = run(capsys, "analyze", "ostrowski", "-p", "x=oops")
    assert code == 2


def test_kernel_export(tmp_path, capsys):
    csv_path = tmp_path / "k.csv"
    json_path = tmp_path / "k.json"
    code, out, _ = run(capsys, "kernel", "simpson", "--r", "3",
                       "--grid", "201", "--csv", str(csv_path), "--json", str(json_path))
    assert code == 0
    rows = list(csv.reader(open(csv_path)))
    assert rows[0] == ["t", "K3"]
    assert len(rows) == 202
    data = json.loads(json_path.read_text())
    assert data["l1_norm"] == "1/90"


def test_scan_command(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    code, out, _ = run(capsys, "scan", "gs2", "--r", "1", "--grid", "31",
                       "--csv", str(csv_path), "--json", str(json_path))
    assert code == 0
    assert "minimizer" in out
    data = json.loads(json_path.read_text())
    assert abs(float(data["minimizer"]["x_decimal"]) - 0.5358983848622454) < 1e-6
    rows = list(csv.reader(open(csv_path)))
    assert len(rows) == 32


def test_minimize_command(capsys):
    code, out, _ = run(capsys, "minimize", "liu_park", "--r", "0")
    assert code == 0
    assert "0.25" in out and "0.375" in out


def test_minimize_tolerance_below_float_range(capsys):
    # 1e-400 underflows a float to 0; the tolerance is compared exactly
    code, out, _ = run(capsys, "minimize", "gs2", "--r", "0", "--tol", "1e-400")
    assert code == 0
    assert "x*  = 0.5" in out


def test_minimize_with_fixed_param(capsys):
    code, out, _ = run(capsys, "minimize", "alomari4", "-p", "lambda=1/3", "--r", "0")
    assert code == 0
    assert "0.333333" in out


def test_integrate_command(tmp_path, capsys):
    path = tmp_path / "res.json"
    code, out, _ = run(capsys, "integrate", "simpson", "--function", "exp",
                       "--a", "0", "--b", "1", "--n", "4", "--r", "3",
                       "--deriv-sup", "2.7182818284590453", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    import math
    assert abs(float(data["value"]) - (math.e - 1)) <= float(data["certificate"])


def test_integrate_polynomial_function(capsys):
    code, out, _ = run(capsys, "integrate", "liu_park", "-p", "x=1/2",
                       "--function", "poly:0,0,1", "--a", "-1", "--b", "1",
                       "--r", "1", "--deriv-sup", "2")
    assert code == 0


def test_integrate_unknown_function_exits_two(capsys):
    code, _, _ = run(capsys, "integrate", "simpson", "--function", "tan",
                     "--a", "0", "--b", "1", "--r", "3", "--deriv-sup", "1")
    assert code == 2


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "liu_park_gauss", "--r", "3")
    assert code == 0
    assert "verified" in out


def test_verify_order_too_high_exits_two(capsys):
    code, _, _ = run(capsys, "verify", "gs2", "-p", "x=1/2", "--r", "3")
    assert code == 2


def test_outdir_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PEANOQUAD_OUTDIR", str(tmp_path / "outputs"))
    code, out, _ = run(capsys, "kernel", "simpson", "--r", "2", "--grid", "11",
                       "--csv", "rel.csv")
    assert code == 0
    assert (tmp_path / "outputs" / "rel.csv").exists()


def test_rounding_digits_flag(capsys):
    code, out, _ = run(capsys, "analyze", "gauss_legendre2", "--digits", "8")
    assert code == 0
    assert "0.019183303" in out


def test_analyze_shows_quadratic_field_constants_exactly(tmp_path, capsys):
    path = tmp_path / "gl2.json"
    code, out, _ = run(capsys, "analyze", "gauss_legendre2", "--json", str(path))
    assert code == 0
    exact = [c["exact"] for c in json.loads(path.read_text())["constants"]]
    assert exact == ["5/3-2/3*sqrt(3)", None, "1/12-1/27*sqrt(3)", "1/135"]
    line = next(ln for ln in out.splitlines() if "M_0" in ln)
    assert "5/3-2/3*sqrt(3)" in line and "radius" not in line


def test_json_payloads_share_one_writer(tmp_path, capsys, monkeypatch):
    # analyze, minimize and integrate write two-space indented JSON with a
    # final newline, under PEANOQUAD_OUTDIR for a relative path, and say so
    monkeypatch.setenv("PEANOQUAD_OUTDIR", str(tmp_path / "out"))
    commands = [
        ("analyze", "simpson", "--json", "a.json"),
        ("minimize", "gs2", "--r", "1", "--json", "m.json"),
        ("integrate", "simpson", "--function", "poly:1,0,3", "--a", "0", "--b", "1",
         "--r", "3", "--deriv-sup", "0", "--json", "i.json"),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        path = tmp_path / "out" / argv[-1]
        assert code == 0
        assert out.count("wrote ") == 1 and out.rstrip().endswith(f"wrote {path}")
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
