"""Tests of the benchmark itself: a tiny smoke run of every workload and
the correctness gates.  Run from the repository root:

    python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Two instances per campaign pass: a pass takes well under a second."""
    monkeypatch.setattr(workloads, "CAMPAIGN_PASS_INSTANCES", 2)


def _run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _assert_metrics_printed(lines, result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(" " + m["unit"]) for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(tiny, capsys, workload):
    code, lines, result = _run_main(capsys, workload, 0)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1
    _assert_metrics_printed(lines, result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_prints_every_per_layer_metric(tiny, capsys):
    code, lines, result = _run_main(capsys, "campaign_serial", 1)
    assert code == 0 and result["correct"]
    _assert_metrics_printed(lines, result, BENCH["per_layer"])


def _tiny_workload(workload):
    run.OUT.mkdir(exist_ok=True)
    return workloads.Workload(workload, 3, str(run.OUT))


def test_parallel_rows_gate_trips_on_one_corrupted_byte(tiny):
    wl = _tiny_workload("campaign_parallel")
    res = workloads.LoopResult()
    wl.run_pass(res)
    assert res.errors == []
    assert wl.parallel_gate_errors(res) == []
    csv = bytearray(res.first_csv)
    at = csv.index(b"0.", len(csv) // 2)
    csv[at] = ord("1")
    res.first_csv = bytes(csv)
    errors = wl.parallel_gate_errors(res)
    assert len(errors) == 1 and f"byte {at}" in errors[0]


def test_violation_gate_trips_on_one_false_verdict(tiny):
    cfg = _tiny_workload("campaign_serial").config(0)
    report, rows = workloads.campaign_pass(cfg)
    assert workloads.campaign_gate_errors(cfg, report, rows) == []
    probe = next(r for r in rows if r["theorem_id"] in workloads.PROBE_ROW_IDS)
    probe["holds"] = False          # printed-constant probes never count
    assert workloads.campaign_gate_errors(cfg, report, rows) == []
    rows[7]["holds"] = False
    assert len(workloads.campaign_gate_errors(cfg, report, rows)) == 1
    assert len(workloads.campaign_gate_errors(cfg, report, rows[:-1])) == 2


def test_forced_violation_fails_the_run(tiny, capsys, monkeypatch):
    real = workloads.run_campaign

    def one_false(cfg):
        report, rows = real(cfg)
        rows[0]["holds"] = False
        return report, rows

    monkeypatch.setattr(workloads, "run_campaign", one_false)
    code, lines, result = _run_main(capsys, "campaign_serial", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("GATE FAILED") for line in lines)


def test_verify_exit_code_gate(tiny, capsys, monkeypatch):
    real = workloads.cli_main
    monkeypatch.setattr(workloads, "cli_main", lambda argv: 3
                        if argv[0] == "verify" else real(argv))
    code, _, result = _run_main(capsys, "interactive_mix", 0)
    assert code == 1 and result["correct"] is False


def test_unconverged_integral_is_counted_apart_not_failed():
    unconverged = "0.1234  (error estimate 0.02, subdivisions 80, NOT CONVERGED)"
    assert not workloads.call_failed("integrate", 0, unconverged)
    assert not workloads.call_failed("integrate", 0, "0.5  (error estimate 1e-12, "
                                     "subdivisions 3)")
    assert workloads.call_failed("integrate", 0, "-  (error estimate nan, "
                                 "subdivisions 0)")
    assert workloads.call_failed("integrate", 0, "nan  (error estimate nan, "
                                 "subdivisions 0, NOT CONVERGED)")
    assert workloads.call_failed("verify", 3, "")
    assert workloads.call_failed("classify", None, "RuntimeError()")


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark files must not produce a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:] +
        ["--workload", "campaign_serial", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
