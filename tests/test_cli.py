import json
import math

import pytest

from hypfrac.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_float(text):
    return float(text.split()[0])


def test_integrate_rl(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                           "0.5", "--fn", "1", "--a", "0", "--b", "1",
                           "--side", "left", "--at", "1")
    assert code == 0
    assert first_float(out) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-7)


def test_integrate_exp(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--family", "exp", "--alpha",
                           "0.5", "--fn", "1", "--a", "0", "--b", "1",
                           "--side", "left", "--at", "1")
    assert code == 0
    assert first_float(out) == pytest.approx(2.0 * (1 - math.exp(-1)), rel=1e-7)


def test_integrate_invalid_alpha_message_and_exit(capsys):
    code, _, err = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                           "-1", "--fn", "1", "--a", "0", "--b", "1",
                           "--side", "left", "--at", "1")
    assert code == 2
    assert "alpha must be positive for family rl" in err


def test_integrate_parse_failure(capsys):
    code, _, err = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                           "0.5", "--fn", "frobnicate(x)", "--a", "0", "--b",
                           "1", "--side", "left", "--at", "1")
    assert code == 2
    assert "error" in err


def test_classify_convex(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "exp(2*x)", "--p", "1",
                           "--a", "0", "--b", "1")
    assert code == 0
    assert "CONVEX" in out
    assert "4/4 methods agree" in out


def test_classify_concave_power(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "pow(x,0.5)", "--p", "1",
                           "--a", "0.1", "--b", "1")
    assert code == 0
    assert "verdict: CONCAVE" in out


def test_classify_boundary(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "cosh(x)", "--p", "1",
                           "--a", "0", "--b", "1")
    assert code == 0
    assert "verdict: BOUNDARY" in out


def test_verify_equality_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "D1", "--fn",
                           "cosh(1*(x-0.5))", "--p", "1", "--a", "0", "--b", "1")
    assert code == 0
    assert "holds: True" in out
    lhs = float(out.splitlines()[1].split("=")[1])
    assert lhs == pytest.approx(2.0 * math.sinh(0.5), rel=1e-7)


def test_verify_d4_holds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "D4", "--fn", "cosh(2*x)",
                           "--p", "1", "--alpha", "0.5", "--a", "0", "--b", "1")
    assert code == 0
    assert "holds: True" in out


def test_verify_fhh_triple(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "FHH", "--fn", "pow(x,2)",
                           "--alpha", "1", "--a", "0", "--b", "1")
    assert code == 0
    lines = out.splitlines()
    vals = [float(line.split("=")[1]) for line in lines[1:4]]
    assert vals == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-7)


def test_verify_violated_exits_3(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "D4", "--fn",
                           "cosh(1*(x-0.5))", "--p", "1", "--alpha", "0.5",
                           "--a", "0", "--b", "1", "--strict-printed")
    assert code == 3
    assert "holds: False" in out


def test_verify_missing_weight_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--thm", "FHHF", "--fn",
                           "pow(x,2)", "--alpha", "0.5", "--a", "0", "--b", "1")
    assert code == 2
    assert "weight" in err


def test_campaign_roundtrip(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "campaign", "--seed", "3", "--n", "2",
                           "--alphas", "0.5,1.0", "--rows", str(rows),
                           "--report", str(report), "--workers", "1")
    assert code == 0
    assert rows.exists() and report.exists()
    parsed = json.loads(report.read_text())
    assert parsed["violations"] == 0
    header = rows.read_text().splitlines()[0]
    assert header.startswith("theorem_id,a,b,p,alpha")
    assert "0 violations" in out


def test_campaign_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        f"seed = 5\nn_instances = 1\nalphas = 0.5\n"
        f"rows_path = {tmp_path / 'r.csv'}\n"
        f"report_path = {tmp_path / 'rep.json'}\nworkers = 1\n"
    )
    code, _, _ = run_cli(capsys, "campaign", "--config", str(cfgfile))
    assert code == 0
    assert (tmp_path / "r.csv").exists()


def test_campaign_with_violations_exits_3(tmp_path, capsys):
    # an absurdly tight slack tolerance turns boundary-member round-off
    # into reported violations; the exit code must say so
    code, out, _ = run_cli(capsys, "campaign", "--seed", "1", "--n", "4",
                           "--alphas", "0.5", "--tol", "1e-18",
                           "--rows", str(tmp_path / "r.csv"),
                           "--report", str(tmp_path / "rep.json"),
                           "--workers", "1")
    assert code == 3
    assert "violations" in out


def test_campaign_io_error_exits_4(tmp_path, capsys):
    code, _, err = run_cli(capsys, "campaign", "--seed", "3", "--n", "1",
                           "--alphas", "0.5", "--rows",
                           str(tmp_path / "no_dir" / "rows.csv"),
                           "--report", str(tmp_path / "rep.json"),
                           "--workers", "1")
    assert code == 4
    assert "i/o error" in err


def test_limits_d4_to_fhh(capsys):
    code, out, _ = run_cli(capsys, "limits", "--thm", "D4", "--to", "FHH",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1",
                           "--p", "1e-2,1e-4,1e-6", "--alpha", "0.5")
    assert code == 0
    assert "approach monotone: True" in out


def test_limits_d5_prints_discrepancy_note(capsys):
    code, out, _ = run_cli(capsys, "limits", "--thm", "D5", "--to", "FHH2",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1",
                           "--p", "1e-3,1e-5", "--alpha", "0.5")
    assert code == 0
    assert "does not match" in out


def test_limits_unknown_pairing_exits_2(capsys):
    code, _, err = run_cli(capsys, "limits", "--thm", "D4", "--to", "D3",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1")
    assert code == 2
    assert "no documented limit" in err


@pytest.mark.parametrize("grid_n", ["2", "1002"])
def test_classify_grid_outside_bounds_exits_2(capsys, grid_n):
    code, out, err = run_cli(capsys, "classify", "--fn", "cosh(2*x)", "--p", "1",
                             "--a", "0", "--b", "1", "--grid-n", grid_n)
    assert code == 2
    assert out == ""
    assert "error: --grid-n must be in [3, 1001]" in err


def test_classify_largest_grid_runs(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fn", "cosh(2*x)", "--p", "1",
                           "--a", "0", "--b", "1", "--grid-n", "1001")
    assert code == 0
    assert "verdict: CONVEX, 4/4 methods agree" in out


def test_integrate_huge_alpha_exits_2(capsys):
    # Gamma(200) overflows a double
    code, out, err = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                             "200", "--fn", "x", "--a", "0", "--b", "1",
                             "--side", "left", "--at", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_huge_alpha_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--thm", "FHH", "--alpha", "200",
                           "--fn", "cosh(2*x)", "--p", "1", "--a", "0", "--b", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,bad", [
    # cosh(2x) overflows on [0, 1000]: every method's worst violation is nan
    (["classify", "--fn", "cosh(2*x)", "--p", "1", "--a", "0", "--b", "1000"],
     "chord=nan"),
    # cosh(p*(x-y)) overflows in the gradient test alone
    (["classify", "--fn", "cosh(2*x)", "--p", "1000", "--a", "0", "--b", "1"],
     "gradient=nan"),
    # the cosh moment of D1 overflows at p*(b-a)/2 > 709
    (["verify", "--thm", "D1", "--fn", "cosh(x)", "--p", "1500", "--a", "0",
      "--b", "1"], "rhs=nan"),
    (["integrate", "--family", "rl", "--alpha", "0.5", "--fn", "exp(x)",
      "--a", "0", "--b", "1000", "--side", "left", "--at", "1000"],
     "value=inf"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_result_exits_2(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: non-finite" in err and bad in err


def test_usage_error_exits_2(capsys):
    assert main(["integrate", "--family", "bogus"]) == 2


def test_float_output_precision(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                           "0.5", "--fn", "1", "--a", "0", "--b", "1",
                           "--side", "left", "--at", "1")
    # 9 significant digits
    assert out.split()[0] == "1.12837917"
