import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypfrac
from hypfrac import cli, inequalities
from hypfrac.cli import main
from hypfrac.generators import (
    GenConfig,
    draw_interval,
    gen_p_convex,
    gen_symmetric_weight,
    rng_for,
)
from hypfrac.grammar import to_grammar


@pytest.fixture(autouse=True)
def reader_matches_argparse(monkeypatch):
    """Every argv these tests hand ``main`` that the reader reads, it reads
    to the namespace ``parse_args`` makes of it."""
    read = cli._read_argv

    def checked(argv):
        args = read(argv)
        if args is not None:
            assert args == cli._build_parser().parse_args(argv), argv
        return args

    monkeypatch.setattr(cli, "_read_argv", checked)


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


def test_classify_tie_goes_to_the_first_method_under_any_hash_seed():
    # chord and gradient say BOUNDARY, second_order and phi CONVEX: the
    # 2-2 tie is broken in Method order, never by the set order of the
    # verdicts, which changes with the process's hash seed
    argv = ["classify", "--fn", "exp(x)+3e-09*(x*x*x)", "--p", "1",
            "--a", "0", "--b", "1"]
    runs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.dirname(
            os.path.dirname(hypfrac.__file__)))
        done = subprocess.run([sys.executable, "-m", "hypfrac.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0] == runs[1]
    assert runs[0][1].endswith("verdict: BOUNDARY, 2/4 methods agree\n")


def test_verify_symmetric_weight_on_a_long_interval(capsys):
    # the weight reaches 8.1e5 here, and round-off in v(a+b-x) - v(x)
    # reaches 1.16e-10
    code, out, err = run_cli(capsys, "verify", "--thm", "FEJER_1_2", "--fn",
                             "cosh(x/10)", "--a", "-29", "--b", "31",
                             "--weight", "1+pow(x-1,4)")
    assert (code, err) == (0, "")
    assert "holds: True" in out


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


_ALL_IDS = ("expected one of HH_1_1, FEJER_1_2, FHH, FHHF, FHH2, FHHF2, D1, "
            "D2, D3, D4, D5, D6, D7, D8, D9")


@pytest.mark.parametrize("argv,bad", [
    (["verify", "--thm", "XX", "--alpha", "0.5"], "XX"),
    (["limits", "--thm", "xx", "--to", "FHH"], "XX"),
    (["limits", "--thm", "D5", "--to", "FHH2X"], "FHH2X"),
])
def test_unknown_theorem_id_exits_2_naming_the_valid_ones(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv, "--fn", "cosh(x)", "--a", "0",
                             "--b", "1")
    assert (code, out) == (2, "")
    assert err == f"error: unknown theorem id {bad!r}; {_ALL_IDS}\n"


def test_unknown_theorem_id_from_python_names_the_valid_ones():
    with pytest.raises(ValueError, match=f"^unknown theorem id 'd4'; {_ALL_IDS}$"):
        inequalities.eval_theorem("d4", hypfrac.parse_function("x"),
                                  hypfrac.Interval(0.0, 1.0))


def test_importing_the_cli_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(hypfrac.__file__)))
    probe = ("import sys, hypfrac.cli; print(sorted(m for m in sys.modules if "
             "m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, timeout=60)
    assert (loaded.returncode, loaded.stdout) == (0, "[]\n")


_CAMPAIGN_PROBE = """
import contextlib, io, os, sys
import numpy
if "numpy.random" in sys.modules:
    print("preloaded")
    sys.exit()
from hypfrac.campaign import (CampaignConfig, run_campaign, write_report,
                              write_rows)
from hypfrac.cli import main
out = sys.argv[1]
report, rows = run_campaign(CampaignConfig(seed=42, n_instances=12, workers=1))
for fmt in ("csv", "json"):
    write_rows(rows, os.path.join(out, "rows." + fmt), fmt)
write_report(report, os.path.join(out, "report.json"))
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["campaign", "--seed", "7", "--n", "12", "--workers", "1",
                 "--rows", os.path.join(out, "cli.csv"),
                 "--report", os.path.join(out, "cli.json")])
print(code, "numpy.random" in sys.modules)
"""


def test_a_campaign_loads_no_numpy_random(tmp_path):
    # the campaign draws from the pure-Python Philox stream; numpy.random
    # (with hashlib and OpenSSL's libcrypto) is only loaded by rng_for
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(hypfrac.__file__)))
    done = subprocess.run([sys.executable, "-c", _CAMPAIGN_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    if done.stdout == "preloaded\n":
        pytest.skip("this numpy loads numpy.random on import")
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 False\n", "")


def test_campaign_on_long_intervals_exits_0(tmp_path, capsys):
    # weight rates used to be drawn from an empty range once L > 100/3,
    # and numpy's "high - low < 0" ended the campaign
    code, out, err = run_cli(capsys, "campaign", "--length-range", "40,50",
                             "--n", "20", "--workers", "1",
                             "--rows", str(tmp_path / "r.csv"),
                             "--report", str(tmp_path / "rep.json"))
    assert (code, err) == (0, "")
    assert "0 violations, 0 non-finite" in out


def test_campaign_center_range_overflow_exits_2_with_numpys_message(
        tmp_path, capsys):
    code, out, err = run_cli(capsys, "campaign", "--center-range",
                             "-1e308,1e308", "--n", "2", "--workers", "1",
                             "--rows", str(tmp_path / "r.csv"),
                             "--report", str(tmp_path / "rep.json"))
    assert (code, out, err) == (
        2, "", "error: high - low range exceeds valid bounds\n")


def test_verify_missing_weight_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--thm", "FHHF", "--fn",
                           "pow(x,2)", "--alpha", "0.5", "--a", "0", "--b", "1")
    assert code == 2
    assert "weight" in err


def test_verify_reads_a_constant_sub_expression_as_its_value(capsys):
    verify = ("verify", "--thm", "HH_1_1", "--a", "0", "--b", "1", "--fn")
    folded = run_cli(capsys, *verify, "pow(x,2**2)")
    assert folded == run_cli(capsys, *verify, "pow(x,4)")
    assert folded[0] == 0
    code, out, err = run_cli(capsys, *verify, "x/(1-1)")
    assert (code, out) == (2, "") and "division by zero" in err


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


def test_campaign_without_probe_writes_no_probe_rows(tmp_path, capsys):
    rows, report = tmp_path / "rows.csv", tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "campaign", "--seed", "3", "--n", "2",
                         "--alphas", "0.5", "--no-probe", "--rows", str(rows),
                         "--report", str(report), "--workers", "1")
    assert code == 0
    names = {line.split(",")[0] for line in rows.read_text().splitlines()[1:]}
    assert names and not any(name.endswith("_printed") for name in names)
    parsed = json.loads(report.read_text())
    assert parsed["printed_constant_probe"] == {}
    assert parsed["config"]["printed_probe"] is False


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


def test_campaign_with_non_finite_rows_exits_2(tmp_path, capsys):
    # no finite row fails on these ranges; 15 rows overflow a double
    cfgfile = tmp_path / "edge.cfg"
    cfgfile.write_text(
        "seed = 7\nn_instances = 12\nalphas = 0.5\npl_range = 5,80\n"
        "length_range = 0.01,12\ncenter_range = -40,40\nworkers = 1\n"
        f"rows_path = {tmp_path / 'r.csv'}\n"
        f"report_path = {tmp_path / 'rep.json'}\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfgfile))
    assert code == 2
    assert "0 violations, 15 non-finite" in out
    assert err.startswith("error: non-finite values in 15 verdicts")
    assert json.loads((tmp_path / "rep.json").read_text())["nonfinite"] == 15


def test_bad_hypfrac_threads_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPFRAC_THREADS", "two")
    code, _, err = run_cli(capsys, "campaign", "--n", "1",
                           "--rows", str(tmp_path / "r.csv"),
                           "--report", str(tmp_path / "rep.json"))
    assert code == 2
    assert "HYPFRAC_THREADS" in err and "'two'" in err


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


def test_limits_judges_monotone_within_each_alpha(capsys):
    # each alpha's p sweep shrinks; the second alpha starts above the first's end
    code, out, _ = run_cli(capsys, "limits", "--thm", "D4", "--to", "FHH",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1",
                           "--alpha", "0.3,0.5", "--p", "1e-2,1e-4")
    assert code == 0
    assert "approach monotone: True" in out
    # an alpha sweep is one sweep: moving away from alpha = 1 is not monotone
    code, out, _ = run_cli(capsys, "limits", "--thm", "D8", "--to", "D3",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1",
                           "--weight", "1+pow(x-0.5,2)", "--p", "1",
                           "--alpha", "0.99,0.9")
    assert code == 0
    assert "approach monotone: False" in out


def test_limits_alpha_sweep_runs_every_p_and_judges_each(capsys):
    code, out, _ = run_cli(capsys, "limits", "--thm", "D8", "--to", "D3",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1",
                           "--weight", "1+pow(x-0.5,2)", "--p", "1,2",
                           "--alpha", "0.9,0.99,0.999")
    assert code == 0
    table = [line.split() for line in out.splitlines()[2:8]]
    assert [(float(r[0]), float(r[1])) for r in table] == [
        (p, alpha) for p in (1.0, 2.0) for alpha in (0.9, 0.99, 0.999)]
    # p = 2 starts above where p = 1 ends; each p on its own shrinks
    assert float(table[3][2]) > float(table[2][2])
    assert "approach monotone: True" in out


def test_limits_unknown_pairing_exits_2(capsys):
    code, _, err = run_cli(capsys, "limits", "--thm", "D4", "--to", "D3",
                           "--fn", "cosh(2*x)", "--a", "0", "--b", "1")
    assert code == 2
    assert "no documented limit" in err


@pytest.mark.parametrize("argv, message", [
    (("--thm", "D4", "--to", "FHH", "--p", ""), "alphas and ps must be nonempty"),
    (("--thm", "D4", "--to", "FHH", "--alpha", ""),
     "alphas and ps must be nonempty"),
    (("--thm", "D6", "--to", "FHHF"), "D6 requires a weight function"),
])
def test_limits_empty_sweep_or_missing_weight_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "limits", *argv, "--fn", "cosh(x)",
                             "--a", "0", "--b", "1")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("sweep", [
    ("--p", "1e-2,1e-2", "--alpha", "0.5"),
    ("--p", "1e-2,1e-3", "--alpha", "0.3,0.3"),
])
def test_limits_repeated_sweep_value_exits_2_without_warnings(capsys, sweep):
    # two equal points would fit a decay rate through one point, with a
    # numpy RankWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "limits", "--thm", "D4", "--to", "FHH",
                                 "--fn", "cosh(x)", "--a", "0", "--b", "1",
                                 *sweep)
    assert code == 2
    assert out == ""
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert len(lines) == 1 and "must not repeat a value" in lines[0]


@pytest.mark.parametrize("fn", ["+".join(["x"] * 1500), "-" * 3000 + "x",
                                "*".join(["x"] * 400)])
def test_huge_function_string_exits_2_with_one_error_line(capsys, fn):
    code, out, err = run_cli(capsys, "verify", "--thm", "HH_1_1", "--fn=" + fn,
                             "--a", "0", "--b", "1")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: function string")


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
    assert err == ("error: alpha 200.0 is out of range for family rl: "
                   "Gamma(alpha) overflows a double\n")


def test_verify_huge_alpha_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--thm", "FHH", "--alpha", "200",
                           "--fn", "cosh(2*x)", "--p", "1", "--a", "0", "--b", "1")
    assert code == 2
    assert err == ("error: alpha 200.0 is out of range for family rl: "
                   "Gamma(alpha) overflows a double\n")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: a small alpha "
                   "fails silently, in the RL Gauss-Jacobi rule and in the "
                   "EXP kernel's boundary layer")
@pytest.mark.parametrize("thm,alpha", [("FHH", "1e-12"), ("FHH2", "0.0001")])
def test_verify_at_a_small_alpha_holds(capsys, thm, alpha):
    code, out, _ = run_cli(capsys, "verify", "--thm", thm, "--fn", "cosh(x)",
                           "--a", "0", "--b", "1", "--alpha", alpha)
    assert (code, out.splitlines()[-1]) == (0, "  holds: True")


@pytest.mark.parametrize("argv,message", [
    (["limits", "--thm", "D4", "--to", "FHH", "--alpha", "200"],
     "alpha 200.0 is out of range for family rl: Gamma(alpha) overflows a double"),
    (["limits", "--thm", "D4", "--to", "FHH", "--alpha", "-1"],
     "alpha must be positive for family rl"),
    (["limits", "--thm", "D5", "--to", "FHH2", "--alpha", "1.5"],
     "alpha must be in (0, 1) for family exp"),
    # Gamma(171) is finite, but Gamma(172) of the kernel mass is not
    (["verify", "--thm", "FHH", "--alpha", "171"],
     "alpha 171.0 is out of range for family rl: Gamma(alpha+1) overflows a "
     "double"),
], ids=["limits-D4-200", "limits-D4-negative", "limits-D5-1.5", "verify-171"])
def test_out_of_range_alpha_exits_2_with_the_family_message(capsys, argv,
                                                            message):
    code, out, err = run_cli(capsys, *argv, "--fn", "cosh(x)", "--a", "0",
                             "--b", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "math " not in err


@pytest.mark.parametrize("argv", [
    # L**alpha of the kernel mass overflows a double
    ["verify", "--thm", "FHH", "--alpha", "170", "--b", "100"],
    ["limits", "--thm", "D4", "--to", "FHH", "--alpha", "170", "--b", "100"],
    # the sides overflow: the deltas would print as nan
    ["limits", "--thm", "D4", "--to", "FHH", "--alpha", "0.5", "--b", "800"],
], ids=["verify-FHH-170", "limits-D4-170", "limits-D4-b800"])
def test_overflowing_sides_exit_2_as_non_finite(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--fn", "cosh(x)", "--a", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: non-finite ")
    assert "Numerical result" not in err


def test_campaign_tiny_alpha_exits_2(tmp_path, monkeypatch, capsys):
    # Gamma(1e-320) overflows a double: the campaign fails before it runs
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "campaign", "--n", "2", "--alphas",
                             "0.5,1e-320")
    assert code == 2
    assert out == "" and not os.listdir(tmp_path)
    assert err == ("error: alpha 1e-320 is out of range for family rl: "
                   "Gamma(alpha) overflows a double\n")


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


def test_overflow_prints_one_error_line_and_no_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--thm", "D1", "--fn",
                                 "cosh(x)", "--p", "1500", "--a", "0",
                                 "--b", "1")
    assert code == 2
    assert out == ""
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite")


@pytest.mark.parametrize("a,b", [("-1", "-4.98e-05"), ("-2E-1", "1"),
                                 ("-1.5e+00", "-.5e-3")])
def test_negative_exponent_endpoints_are_values(capsys, a, b):
    code, out, err = run_cli(capsys, "verify", "--thm", "HH_1_1", "--fn",
                             "exp(x)", "--a", a, "--b", b)
    assert code == 0, err
    assert "holds: True" in out


def test_negative_exponent_evaluation_point_is_a_value(capsys):
    code, out, err = run_cli(capsys, "integrate", "--family", "rl",
                             "--alpha", "1", "--fn", "1", "--a", "-1",
                             "--b", "0", "--side", "left", "--at", "-1e-05")
    assert code == 0, err
    assert first_float(out) == pytest.approx(1.0 - 1e-05, rel=1e-12)


def test_negative_list_is_a_value():
    args = cli._build_parser().parse_args(
        ["campaign", "--center-range", "-1.5,-0.5", "--alphas", "-1e-1,2"])
    assert args.center_range == (-1.5, -0.5)
    assert args.alphas == (-0.1, 2.0)


def test_unknown_negative_looking_option_still_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--thm", "HH_1_1", "--fn",
                           "exp(x)", "--a", "-1", "--b", "1", "-e5")
    assert code == 2
    assert "unrecognized arguments: -e5" in err


def test_usage_error_exits_2(capsys):
    assert main(["integrate", "--family", "bogus"]) == 2


def test_float_output_precision(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--family", "rl", "--alpha",
                           "0.5", "--fn", "1", "--a", "0", "--b", "1",
                           "--side", "left", "--at", "1")
    # 9 significant digits
    assert out.split()[0] == "1.12837917"


_FHH = ["verify", "--thm", "FHH", "--fn", "cosh(x)", "--a", "0", "--b", "1",
        "--alpha", "0.5"]
_D4 = ["verify", "--thm", "D4", "--fn", "cosh(x)", "--a", "0", "--b", "1",
       "--alpha", "0.5"]
_CLASSIFY = ["classify", "--fn", "cosh(x)", "--a", "0", "--b", "1"]
_LIMITS = ["limits", "--thm", "D4", "--to", "FHH", "--fn", "cosh(x)",
           "--a", "0", "--b", "1"]
_INTEGRATE = ["integrate", "--family", "rl", "--alpha", "0.5", "--fn", "1",
              "--side", "left"]


@pytest.mark.parametrize("argv,option", [
    # before the check, a nan or negative tolerance made verify exit 3
    # with both slacks positive, classify call everything NEITHER and a
    # campaign count every row as a violation
    (_FHH + ["--tol", "nan"], "--tol"),
    (_FHH + ["--tol", "-1"], "--tol"),
    (_CLASSIFY + ["--p", "1", "--tol", "nan"], "--tol"),
    (_CLASSIFY + ["--p", "1", "--tol", "-1"], "--tol"),
    (["campaign", "--n", "1", "--tol", "nan"], "--tol"),
    (["campaign", "--n", "1", "--tol", "-1"], "--tol"),
    (_D4 + ["--p", "nan"], "--p"),
    (_D4 + ["--p", "-inf"], "--p"),
    (_CLASSIFY + ["--p", "nan"], "--p"),
    (_CLASSIFY + ["--p", "-inf"], "--p"),
    (_LIMITS + ["--p", "nan"], "--p"),
    (_LIMITS + ["--p", "1e-2,-inf"], "--p"),
    (_LIMITS + ["--alpha", "0.5,nan"], "--alpha"),
    (_FHH[:-1] + ["inf"], "--alpha"),
    (_FHH[:5] + ["--b", "1", "--a", "-inf"], "--a"),
    (_INTEGRATE + ["--a", "0", "--at", "1", "--b", "nan"], "--b"),
    (_INTEGRATE + ["--a", "0", "--b", "1", "--at", "inf"], "--at"),
    (["campaign", "--n", "1", "--alphas", "0.5,nan"], "--alphas"),
    (["campaign", "--n", "1", "--p-list", "inf"], "--p-list"),
    (["campaign", "--n", "1", "--pl-range", "0.1,inf"], "--pl-range"),
    (["campaign", "--n", "1", "--length-range", "nan,1"], "--length-range"),
    (["campaign", "--n", "1", "--center-range", "-inf,1"], "--center-range"),
])
def test_non_finite_or_negative_option_exits_2(tmp_path, monkeypatch, capsys,
                                               argv, option):
    monkeypatch.chdir(tmp_path)  # a campaign that did run writes here
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: argument {option}: expected" in err
    assert err.rstrip().endswith(f"got {argv[-1]!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_campaign_workers_below_one_exits_2(tmp_path, monkeypatch, capsys,
                                             workers):
    monkeypatch.chdir(tmp_path)  # a campaign that did run writes here
    code, out, err = run_cli(capsys, "campaign", "--n", "1", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_campaign_config_file_bad_tol_exits_2(tmp_path, capsys, tol):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"n_instances = 1\ntol = {tol}\n"
                       f"rows_path = {tmp_path / 'r.csv'}\n"
                       f"report_path = {tmp_path / 'rep.json'}\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfgfile))
    assert code == 2
    assert out == ""
    assert "error: tol must be finite and >= 0" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("line,message", [
    ("foo = 3", "unknown key 'foo'"),
    ("printed_probe = nope", "printed_probe must be true or false"),
    ("p_list = inf", "p_list must be finite"),
    ("alphas = inf", "alphas must be finite"),
    ("center_range = nan,1", "center_range must be finite"),
    ("pl_range = 5", "pl_range must be two numbers low,high"),
    ("pl_range = 5,0.05", "pl_range must be two numbers low,high"),
    ("length_range = -2,-1", "length_range entries must be > 0"),
    ("seed = abc", "config line 3: seed: invalid literal"),
    ("tol = x", "config line 3: tol: could not convert"),
    ("workers = -1", "workers must be >= 1, got -1"),
])
def test_campaign_config_file_bad_entry_exits_2(tmp_path, capsys, line,
                                                message):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"n_instances = 1\nworkers = 1\n{line}\n"
                       f"rows_path = {tmp_path / 'r.csv'}\n"
                       f"report_path = {tmp_path / 'rep.json'}\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfgfile))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "r.csv").exists()


def test_repeated_main_calls_build_the_parser_once(capsys, monkeypatch):
    main(_FHH)
    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    tables = cli._command_table.cache_info()
    assert main(_FHH) == 0
    assert main(_CLASSIFY + ["--p", "1"]) == 0
    assert main(["verify", "--thm"]) == 2
    assert built == []
    assert tables.currsize == 1
    assert cli._command_table.cache_info().misses == tables.misses


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--thm", "D8", "--fn", "cosh(2*x)", "--weight", "1+x",
      "--p", "1", "--alpha", "0.5", "--a", "0", "--b", "1"],
     "--asymmetric-weight"),
    (["verify", "--thm", "D4", "--fn", "cosh(1*(x-0.5))", "--p", "1",
      "--alpha", "0.5", "--a", "0", "--b", "1"], "--strict-printed"),
])
def test_flags_do_not_leak_into_the_next_call(capsys, argv, flag):
    before = run_cli(capsys, *argv)
    with_flag = run_cli(capsys, *argv, flag)
    after = run_cli(capsys, *argv)
    assert with_flag[:2] != before[:2]
    assert after == before


def test_call_after_usage_error_matches_a_fresh_process(capsys):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(hypfrac.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "hypfrac.cli", *_FHH],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    assert run_cli(capsys, *_FHH, "--tol", "nan")[0] == 2
    assert run_cli(capsys, "verify", "--bogus")[0] == 2
    code, out, err = run_cli(capsys, *_FHH)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert "holds: True" in out


def test_help_twice_goes_to_captured_stdout(capsys):
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: hypfrac")
        assert "limits" in out


def test_limits_default_p_sweep_after_an_explicit_one(capsys):
    run_cli(capsys, *_LIMITS, "--p", "0.1")
    code, out, _ = run_cli(capsys, *_LIMITS)
    assert code == 0
    assert [float(line.split()[0]) for line in out.splitlines()[2:5]] == \
        [1e-2, 1e-4, 1e-6]


def test_in_process_calls_stay_cold(capsys, monkeypatch):
    # the parser is shared between calls; functions and evaluators are not
    evaluators, parsed = [], []

    class CountingEvaluator(inequalities.TheoremEvaluator):
        def __init__(self, *args, **kwargs):
            evaluators.append(self)
            super().__init__(*args, **kwargs)

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    real_parse = cli.parse_function
    monkeypatch.setattr(inequalities, "TheoremEvaluator", CountingEvaluator)
    monkeypatch.setattr(cli, "parse_function", counting_parse)
    first = run_cli(capsys, *_FHH)
    second = run_cli(capsys, *_FHH)
    assert first == second and first[0] == 0
    assert len(evaluators) == 2 and evaluators[0] is not evaluators[1]
    assert parsed == ["cosh(x)", "cosh(x)"]


def outcome(argv, reader=True):
    """(exit code, stdout, stderr) of ``main(argv)``; with ``reader`` off,
    every argv goes to ``parse_args``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if not reader:
            stack.enter_context(
                mock.patch.object(cli, "_read_argv", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parsed(argv):
    return cli._build_parser().parse_args(argv)


def generated_argvs(index):
    """Canonical verify, integrate, classify and limits argvs of one
    generated instance, as a campaign draws it."""
    rng = rng_for(11, index)
    cfg = GenConfig(seed=11)
    interval = draw_interval(cfg, rng)
    p = float(rng.uniform(0.05, 5.0)) / interval.length
    fn = to_grammar(gen_p_convex(cfg, p, interval, rng=rng))
    wt = to_grammar(gen_symmetric_weight(cfg, interval, rng=rng).v)
    ab = ["--a", repr(interval.a), "--b", repr(interval.b)]
    argvs = [["verify", "--thm", tid.value, "--fn", fn, *ab, "--p", repr(p),
              "--alpha", "0.5", "--weight", wt]
             for tid in inequalities.TheoremId]
    argvs += [["integrate", "--family", family, "--alpha", "0.5", "--fn", fn,
               *ab, "--side", side, "--at", repr(at)]
              for family in ("rl", "exp")
              for side, at in (("left", interval.b), ("right", interval.a))]
    argvs.append(["classify", "--fn", fn, "--p", repr(p), *ab,
                  "--grid-n", "101", "--tol", "1e-9"])
    argvs.append(["limits", "--thm", "D8", "--to", "D3", "--fn", fn,
                  "--weight", wt, "--p", repr(p), "--alpha", "0.9,0.99", *ab])
    argvs.append(["limits", "--thm", "D4", "--to", "FHH", "--fn", fn, *ab])
    return argvs


@pytest.mark.parametrize("index", range(8))
def test_reader_reads_generated_argvs_as_argparse_does(index):
    for argv in generated_argvs(index):
        args = cli._read_argv(argv)
        assert args is not None, argv
        want = parsed(argv)
        assert args == want and list(vars(args)) == list(vars(want))


def test_reader_reads_campaign_options_and_flags_as_argparse_does():
    argv = ["campaign", "--seed", "3", "--n", "2", "--alphas", "0.5,1",
            "--center-range", "-1.5,-0.5", "--format", "json", "--no-probe",
            "--rows", "r.json", "--workers", "1"]
    assert cli._read_argv(argv) == parsed(argv)
    assert cli._read_argv(["campaign"]) == parsed(["campaign"])


def test_reader_keeps_the_last_of_a_repeated_option():
    argv = _FHH + ["--alpha", "0.25", "--fn", "x", "--strict-printed",
                   "--strict-printed"]
    args = cli._read_argv(argv)
    assert (args.alpha, args.fn, args.strict_printed) == (0.25, "x", True)
    assert args == parsed(argv)


@pytest.mark.parametrize("argv,code,message", [
    (["verify", "--thm=FHH"] + _FHH[3:], 0, ""),
    (_FHH[:-2] + ["--alph", "0.5"], 0, ""),
    (["verify", "-h"], 0, ""),
    (["verify", "--thm", "D4", "--fn", "-x", "--a", "0", "--b", "1"], 2,
     "argument --fn: expected one argument"),
    (_CLASSIFY + ["--p", "1", "--grid-n", "1e3"], 2,
     "argument --grid-n: invalid int value: '1e3'"),
    (_INTEGRATE[:2] + ["bogus"] + _INTEGRATE[3:] + ["--a", "0", "--b", "1",
                                                    "--at", "1"], 2,
     "argument --family: invalid choice: 'bogus'"),
    (_FHH + ["--a", "-inf"], 2,
     "argument --a: expected a finite number, got '-inf'"),
    (_FHH[:1] + _FHH[3:], 2, "the following arguments are required: --thm"),
    (["verify", "--thm", "HH_1_1", "--fn", "exp(x)", "--a", "-1", "--b", "1",
      "-e5"], 2, "unrecognized arguments: -e5"),
], ids=["opt=value", "abbreviated", "help", "fn-dash-x", "grid-n-1e3",
        "bad-choice", "a-minus-inf", "missing-thm", "trailing-e5"])
def test_declined_forms_are_read_by_argparse(argv, code, message):
    assert cli._read_argv(argv) is None
    got = outcome(argv)
    assert got == outcome(argv, reader=False)
    assert got[0] == code
    assert message in got[2]


def test_parser_holds_only_the_shapes_the_table_reads():
    # the table reads a store of one value and a store_true flag, each
    # with a default argparse keeps as it is (a string default would go
    # through the type), under a top level of help and the subcommands; an
    # option of any other shape (nargs="+", append, a string default) would
    # read differently, so it must fail here
    parser = cli._build_parser()
    assert not parser._defaults
    assert [type(a) for a in parser._actions] == \
        [argparse._HelpAction, argparse._SubParsersAction]
    sub = parser._actions[1]
    assert list(sub.choices) == ["integrate", "classify", "verify", "campaign",
                                 "limits"]
    for name, subparser in sub.choices.items():
        for action in subparser._actions[1:]:
            where = (name, action.dest)
            assert not isinstance(action.default, str), where
            assert type(action) is argparse._StoreTrueAction or (
                type(action) is argparse._StoreAction
                and action.nargs is None), where
        assert type(subparser._actions[0]) is argparse._HelpAction
    assert set(cli._command_table()) == set(sub.choices)


def test_no_subcommand_or_an_unknown_one_is_declined():
    for argv in ([], ["--help"], ["bogus", "--fn", "x"], ["-h", "verify"]):
        assert cli._read_argv(argv) is None


_INTERVALS = [("-1", "1"), ("-2.5e-1", "2.5e-1"), ("-1.5", "1.5")]
_LIMITS_PAIRS = [("D4", "FHH"), ("D6", "FHHF"), ("D8", "D3")]
_WILD = ["XX", "d4", "-x", "", "inf", "-inf", "nan", "-0.5,0.5", "1,1",
         "1e3", "--", "-h", "--fn=x", "--alph"]
_FLAGS = ["--asymmetric-weight", "--strict-printed"]


@st.composite
def verify_or_limits_argv(draw):
    """A verify or limits argv: every option once and a few more, each with
    a value of its own kind (a symmetric interval and weight, a documented
    limit pair) or, one time in eight, any other token; shuffled, with a
    stray token or one option sometimes left out."""
    command = draw(st.sampled_from(["verify", "limits"]))
    a, b = draw(st.sampled_from(_INTERVALS))
    typed = {"--fn": ["cosh(x)", "x*x", "exp(2*x)", "1+x*x"],
             "--a": [a], "--b": [b], "--weight": ["1+x*x", "cosh(x)", "2"]}
    if command == "verify":
        typed.update({"--thm": [t.value for t in inequalities.TheoremId],
                      "--p": ["1", "0.5", "-2.5e-1"],
                      "--alpha": ["0.5", "0.3", "1"],
                      "--tol": ["1e-8", "0", "-1"]})
    else:
        thm, to = draw(st.sampled_from(_LIMITS_PAIRS))
        typed.update({"--thm": [thm], "--to": [to],
                      "--p": ["1e-2,1e-4", "1", "1,2"],
                      "--alpha": (["0.9,0.99", "0.99,0.999"] if to == "D3"
                                  else ["0.5", "0.3,0.5"])})

    def one_in(n):  # False is the simplest draw, so examples shrink to it
        return draw(st.sampled_from([False] * (n - 1) + [True]))

    def value(option):
        return draw(st.sampled_from(_WILD if one_in(8) else typed[option]))

    options = sorted(typed) + draw(
        st.lists(st.sampled_from(sorted(typed)), max_size=2))
    pieces = [[option, value(option)] for option in options]
    if command == "verify":
        pieces += [[flag] for flag in draw(st.lists(st.sampled_from(_FLAGS),
                                                    max_size=2))]
    if one_in(5):
        pieces.append([draw(st.sampled_from(_WILD))])
    pieces = draw(st.permutations(pieces))
    if one_in(5):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verify_or_limits_argv())
def test_main_gives_the_same_result_with_the_reader_off(argv):
    assert outcome(argv) == outcome(argv, reader=False)
