import concurrent.futures
import csv
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

import hypfrac.campaign as campaign
from hypfrac.campaign import (
    CSV_COLUMNS,
    CampaignConfig,
    _draw,
    _plan,
    instance_rows,
    load_config,
    parse_config_text,
    report_to_json,
    rows_to_csv,
    rows_to_json,
    run_campaign,
    write_report,
    write_rows,
)
from hypfrac.expressions import Interval
from hypfrac.grammar import parse_function
from hypfrac.inequalities import TheoremEvaluator, eval_theorem, limit_sweep

SMALL = CampaignConfig(seed=9, n_instances=4, workers=1)

# overflow-prone ranges: some instances have inf or nan sides
EDGE = CampaignConfig(seed=7, n_instances=12, alphas=(0.5,), pl_range=(5.0, 80.0),
                      length_range=(0.01, 12.0), center_range=(-40.0, 40.0),
                      workers=1)


@pytest.fixture(scope="module")
def small_run():
    return run_campaign(SMALL)


def test_zero_violations_on_generated_population(small_run):
    report, rows = small_run
    assert report.violations == 0
    non_probe = [r for r in rows if not r["theorem_id"].endswith("_printed")]
    assert all(r["holds"] for r in non_probe)


def test_counts_invariant(small_run):
    report, rows = small_run
    n = SMALL.n_instances
    rl_cells = len(SMALL.alphas)
    exp_cells = len([a for a in SMALL.alphas if a < 1.0])
    expected = {
        "HH_1_1": n, "FEJER_1_2": n, "D1": n, "D2": n, "D3": n,
        "FHH": n * rl_cells, "FHHF": n * rl_cells, "D4": n * rl_cells,
        "D6": n * rl_cells, "D8": n * rl_cells,
        "FHH2": n * exp_cells, "FHHF2": n * exp_cells, "D5": n * exp_cells,
        "D7": n * exp_cells, "D9": n * exp_cells,
    }
    for tid, count in expected.items():
        entry = report.per_theorem[tid]
        assert entry["pass"] + entry["fail"] == count, tid


def test_rows_sorted_by_theorem_then_instance(small_run):
    _, rows = small_run
    seen_pairs = [(r["theorem_id"], r["instance_index"]) for r in rows]
    by_theorem = {}
    for tid, idx in seen_pairs:
        by_theorem.setdefault(tid, []).append(idx)
    for tid, idxs in by_theorem.items():
        assert idxs == sorted(idxs), tid


def test_csv_schema(small_run):
    _, rows = small_run
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rows) + 1
    # alpha empty for the non-fractional rows, mid empty for upper bounds
    first_d3 = next(line for line in lines if line.startswith("D3,"))
    cells = first_d3.split(",")
    assert cells[CSV_COLUMNS.index("alpha")] == ""
    assert cells[CSV_COLUMNS.index("mid")] == ""
    assert cells[CSV_COLUMNS.index("holds")] == "true"


def test_csv_quotes_descriptors_with_commas():
    # seed 42 draws weights such as pow((x-0.949),4.0)
    _, rows = run_campaign(CampaignConfig(seed=42, n_instances=20, workers=1))
    assert any("," in r["weight_descriptor"] for r in rows)
    parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
    assert len(parsed) == len(rows)
    for got, row in zip(parsed, rows):
        assert list(got) == CSV_COLUMNS and None not in got.values()
        assert int(got["seed"]) == 42
        assert int(got["instance_index"]) == row["instance_index"]
        assert got["fn_descriptor"] == row["fn_descriptor"]
        assert got["weight_descriptor"] == row["weight_descriptor"]


def test_csv_cell_formatting():
    row = {"theorem_id": "D3", "a": 0.0, "b": 1.5, "p": 2.0, "alpha": None,
           "lhs": 0.1, "mid": None, "rhs": 0.3, "slack_left": 1e-17,
           "slack_right": 0.2, "holds": True, "fn_descriptor": "cosh(2*x)",
           "weight_descriptor": "pow((x-0.5),2.0)", "seed": 4,
           "instance_index": 7}
    plain = dict(row, weight_descriptor="1", holds=False)
    assert rows_to_csv([row, plain]).splitlines()[1:] == [
        'D3,0.0,1.5,2.0,,0.1,,0.3,1e-17,0.2,true,cosh(2*x),"pow((x-0.5),2.0)",4,7',
        "D3,0.0,1.5,2.0,,0.1,,0.3,1e-17,0.2,false,cosh(2*x),1,4,7",
    ]


def test_probe_rows_and_report_section(small_run):
    report, rows = small_run
    probe_rows = [r for r in rows if r["theorem_id"].endswith("_printed")]
    assert probe_rows
    assert set(report.printed_constant_probe) == {"D4", "D5"}
    for entry in report.printed_constant_probe.values():
        assert entry["instances"] > 0
        assert entry["worst_slack"] is not None


def test_determinism_same_seed_same_bytes(small_run):
    _, rows = small_run
    _, rows2 = run_campaign(CampaignConfig(seed=9, n_instances=4, workers=1))
    assert rows_to_csv(rows) == rows_to_csv(rows2)


def test_determinism_across_worker_counts(small_run):
    report, rows = small_run
    report2, rows2 = run_campaign(CampaignConfig(seed=9, n_instances=4, workers=2))
    assert rows_to_csv(rows) == rows_to_csv(rows2)
    # the reports differ only in the wall time and the workers echoed
    d1, d2 = report.to_dict(), report2.to_dict()
    d1["wall_time_s"] = d2["wall_time_s"] = 0.0
    assert (d1["config"]["workers"], d2["config"]["workers"]) == (1, 2)
    d2["config"]["workers"] = 1
    assert json.dumps(d1) == json.dumps(d2)


# the theorem order of the rows file: plain, RL, EXP, then the probes
_THEOREM_RANK = {tid: i for i, tid in enumerate([
    "HH_1_1", "FEJER_1_2", "D1", "D2", "D3",
    "FHH", "FHHF", "D4", "D6", "D8",
    "FHH2", "FHHF2", "D5", "D7", "D9",
    "D4_printed", "D5_printed"])}


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_by_theorem_then_instance_then_alpha(workers):
    # unsorted and repeated alphas: the plan lists each theorem's alphas
    # ascending, and the campaign gathers rows by theorem without sorting
    cfg = CampaignConfig(seed=42, n_instances=3, alphas=(1.5, 0.3, 0.5, 0.3, 1.0),
                         workers=workers)
    _, rows = run_campaign(cfg)
    assert list(rows) == sorted(rows, key=lambda r: (
        _THEOREM_RANK[r["theorem_id"]], r["instance_index"],
        -1.0 if r["alpha"] is None else r["alpha"]))
    assert [r["alpha"] for r in rows if r["theorem_id"] == "FHH"
            and r["instance_index"] == 1] == [0.3, 0.3, 0.5, 1.0, 1.5]
    assert [r["alpha"] for r in rows if r["theorem_id"] == "D5_printed"
            and r["instance_index"] == 0] == [0.3, 0.3, 0.5]


def test_different_seed_differs():
    _, rows1 = run_campaign(CampaignConfig(seed=1, n_instances=2, workers=1))
    _, rows2 = run_campaign(CampaignConfig(seed=2, n_instances=2, workers=1))
    assert rows_to_csv(rows1) != rows_to_csv(rows2)


def test_report_identical_modulo_wall_time(small_run):
    report, _ = small_run
    report2, _ = run_campaign(SMALL)
    d1, d2 = report.to_dict(), report2.to_dict()
    d1["wall_time_s"] = d2["wall_time_s"] = 0.0
    assert json.dumps(d1) == json.dumps(d2)


def test_report_json_round_trips(small_run, tmp_path):
    report, _ = small_run
    path = tmp_path / "report.json"
    write_report(report, str(path))
    raw = path.read_bytes()
    parsed = json.loads(raw)
    again = (json.dumps(parsed, indent=2) + "\n").encode()
    assert raw == again
    assert parsed["artifact_version"]
    assert parsed["config"]["seed"] == 9


def test_rows_json_format(small_run, tmp_path):
    _, rows = small_run
    path = tmp_path / "rows.json"
    write_rows(rows, str(path), "json")
    parsed = json.loads(path.read_text())
    assert len(parsed) == len(rows)
    assert parsed[0]["theorem_id"] == rows[0]["theorem_id"]


def test_rows_json_is_json_dumps_byte_for_byte(tmp_path):
    _, rows = run_campaign(SMALL)
    text = rows_to_json(rows)  # from the blocks: no row dict is built yet
    expected = json.dumps(list(rows), indent=2) + "\n"
    assert text == expected
    path = tmp_path / "rows.json"
    write_rows(rows, str(path), "json")
    assert path.read_bytes() == expected.encode()


def test_rows_json_special_values_match_json_dumps():
    rows = [
        {"lhs": math.nan, "mid": math.inf, "rhs": -math.inf, "slack": None,
         "holds": True, "probe": False, "seed": 42, "index": -3,
         "zero": -0.0, "tiny": 5e-324, "np": np.float64(0.1),
         "fn_descriptor": 'pow((x-0.949),4.0), "quoted" \\ tab\t é',
         "key with %s and \"quotes\"": "100%"},
        {},
        {"only": 1.5},
    ]
    assert rows_to_json(rows) == json.dumps(rows, indent=2) + "\n"
    assert rows_to_json([]) == json.dumps([], indent=2) + "\n"


def _cell_reference(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow([v])
        return buf.getvalue()
    return repr(v) if isinstance(v, float) else str(v)


def test_writers_format_equal_values_of_other_text_apart():
    # per-instance fields are cached by value, but 0.0 == -0.0 and
    # 1 == 1.0 == True print differently; sides may be None, nan or numpy
    base = dict(zip(CSV_COLUMNS, (
        "D3", 0.5, 1.5, 2.0, 1.0, 0.1, None, 0.3, None, 0.2, True,
        "cosh(2*x)", "pow((x-0.5),2.0)", 4, 7)))
    rows = [base, dict(base, alpha=1), dict(base, alpha=True),
            dict(base, a=0.0), dict(base, a=-0.0), dict(base, p=-0.0),
            dict(base, seed=0), dict(base, instance_index=True),
            dict(base, mid=math.nan, slack_left=math.inf),
            dict(base, lhs=-math.inf, holds=False),
            dict(base, rhs=np.float64(0.25), mid=0.2, slack_left=0.1),
            dict(base, lhs=1, mid="x", holds=None), base]
    assert rows_to_json(rows) == json.dumps(rows, indent=2) + "\n"
    lines = rows_to_csv(rows).splitlines()
    assert lines[1:] == [",".join(_cell_reference(r[c]) for c in CSV_COLUMNS)
                         for r in rows]
    assert [line.split(",")[4] for line in lines[1:4]] == ["1.0", "1", "true"]
    assert [line.split(",")[1] for line in lines[4:6]] == ["0.0", "-0.0"]


@pytest.mark.parametrize("cfg", [
    CampaignConfig(seed=42, n_instances=40, workers=1),
    CampaignConfig(seed=42, n_instances=40, workers=2),
    EDGE,
    CampaignConfig(seed=42, n_instances=6, alphas=(1.5, 0.3, 0.5, 0.3, 1.0),
                   workers=1),
    CampaignConfig(seed=42, n_instances=6, p_list=(0.5, 2.0),
                   printed_probe=False, workers=1),
], ids=["seed42-w1", "seed42-w2", "edge", "alphas", "p_list"])
def test_campaign_writers_equal_the_reference_path(cfg):
    # campaign rows are written from their blocks; a list of the same
    # dicts goes through the per-cell reference path
    _, rows = run_campaign(cfg)
    from_blocks = rows_to_csv(rows), rows_to_json(rows)
    reference = list(rows)
    assert from_blocks[0] == rows_to_csv(reference)
    assert from_blocks[1] == rows_to_json(reference) == \
        json.dumps(reference, indent=2) + "\n"


def _reference_texts(rows):
    """The CSV and JSON of a list of the same row dicts (per cell, json.dumps)."""
    listed = list(rows)
    return rows_to_csv(listed), json.dumps(listed, indent=2) + "\n"


@pytest.mark.parametrize("order", ["csv-json", "json-csv"])
@pytest.mark.parametrize("cfg", [CampaignConfig(seed=42, n_instances=20, workers=1),
                                 EDGE], ids=["seed42", "edge"])
def test_one_rows_object_writes_both_formats_from_one_set_of_texts(cfg, order):
    # each block carries its side texts, made where it was evaluated, and
    # both writers read them
    _, rows = run_campaign(cfg)
    assert [block.texts for block in rows.blocks] == \
        [campaign._side_texts(block.verdicts) for block in rows.blocks]
    writers = {"csv": rows_to_csv, "json": rows_to_json}
    got = {}
    for fmt in order.split("-"):
        got[fmt] = writers[fmt](rows)
        assert rows.dicts is None
    assert (got["csv"], got["json"]) == _reference_texts(rows)


def test_rows_edited_after_a_write_leave_the_written_files_as_evaluated(tmp_path):
    # a changed dict shows in later reads; the files hold the verdicts as
    # they were evaluated
    _, rows = run_campaign(CampaignConfig(seed=42, n_instances=3, workers=1))
    before = rows_to_csv(rows), rows_to_json(rows)
    rows[7]["rhs"] = -0.0
    rows[7]["holds"] = False
    assert repr(rows[7]["rhs"]) == "-0.0" and rows[7]["holds"] is False
    assert (rows_to_csv(rows), rows_to_json(rows)) == before
    for fmt, text in zip(("csv", "json"), before):
        write_rows(rows, str(tmp_path / f"rows.{fmt}"), fmt)
        assert (tmp_path / f"rows.{fmt}").read_bytes() == text.encode()
    # a list of the same dicts is written cell by cell, with the edit
    edited = _reference_texts(rows)
    assert "-0.0" in edited[0].splitlines()[8] and edited != before


def _block(index, a, b, p, fn, verdicts):
    """A hand-made block with weight "1", its texts made as a worker makes
    them."""
    verdicts = tuple(verdicts)
    return campaign._Block(index, a, b, p, fn, "1", verdicts,
                           campaign._side_texts(verdicts))


def test_signed_zero_and_non_finite_sides_are_written_as_the_dict_path_writes_them():
    plan = _plan(CampaignConfig(alphas=(0.5,)))
    sides = (-0.0, math.nan, math.inf, -math.inf, 0.0)
    verdicts = []
    for j, (tid, alpha, printed) in enumerate(plan):
        mid = sides[(j + 1) % 5] if campaign._REQUIRES[tid].has_mid else None
        left = sides[(j + 3) % 5] if mid is not None else None
        verdicts.append((sides[j % 5], mid, sides[(j + 2) % 5], left,
                         sides[(j + 4) % 5], j % 2 == 0))
    verdicts[0] = (0.0, -0.0, 1.0, -0.0, 1.0, True)  # a finite row in the block
    blocks = [_block(0, -0.0, 0.0, 1.0, "x", verdicts),
              _block(1, 0.0, 1.0, -0.0, "pow((x-0.5),2.0)",
                     [(0.5, None if v[1] is None else 0.25, -0.0,
                       None if v[3] is None else -0.0, 0.0, True)
                      for v in verdicts])]
    rows = campaign._Rows(5, plan, blocks)
    texts = rows_to_csv(rows), rows_to_json(rows)
    assert blocks[0].texts[0] == ("0.0", "-0.0", "1.0", "-0.0", "1.0", "True")
    assert blocks[0].texts[1] is None and None not in blocks[1].texts
    assert texts == _reference_texts(rows)
    assert "NaN" in texts[1] and "-Infinity" in texts[1] and "-0.0" in texts[0]


@pytest.mark.parametrize("cfg", [CampaignConfig(seed=42, n_instances=20, workers=1),
                                 EDGE], ids=["seed42", "edge"])
def test_written_files_are_the_writers_texts(cfg, tmp_path):
    # write_rows streams the rows a theorem at a time
    _, rows = run_campaign(cfg)
    write_rows(rows, str(tmp_path / "rows.csv"), "csv")
    write_rows(rows, str(tmp_path / "rows.json"), "json")
    assert (tmp_path / "rows.csv").read_bytes() == rows_to_csv(rows).encode()
    assert (tmp_path / "rows.json").read_bytes() == rows_to_json(rows).encode()
    assert rows.dicts is None
    listed = list(rows)
    write_rows(listed, str(tmp_path / "listed.csv"), "csv")
    write_rows(listed, str(tmp_path / "listed.json"), "json")
    assert (tmp_path / "listed.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "listed.json").read_bytes() == (tmp_path / "rows.json").read_bytes()


def test_rows_read_and_change_like_a_list_of_dicts(tmp_path):
    _, rows = run_campaign(CampaignConfig(seed=3, n_instances=3, workers=1))
    unread = rows_to_csv(rows)
    assert len(rows) == 3 * 53 and rows.dicts is None  # no dict built yet
    listed = list(rows)
    assert rows_to_csv(rows) == rows_to_csv(listed) == unread
    assert [rows[i] for i in range(len(rows))] == listed
    assert rows[-1] is listed[-1] and rows[2:7] == listed[2:7]
    with pytest.raises(IndexError):
        rows[len(rows)]
    # a changed row shows in later reads, not in the written file
    rows[5]["lhs"] = -1.0
    next(iter(rows))["holds"] = False
    assert rows[5]["lhs"] == -1.0 and rows[0]["holds"] is False
    path = tmp_path / "rows.csv"
    write_rows(rows, str(path))
    assert path.read_text() == rows_to_csv(rows) == unread != rows_to_csv(listed)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alphas,message", [
    ((0.5, -1.0), "alpha must be positive for family rl"),
    ((0.5, 1e-320), "alpha 1e-320 is out of range for family rl: Gamma"),
])
def test_bad_alpha_grid_raises_before_any_instance(monkeypatch, workers, alphas,
                                                   message):
    def evaluated(*args):
        raise AssertionError("an instance was evaluated")

    monkeypatch.setattr(campaign, "_chunk_blocks", evaluated)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", evaluated)
    with pytest.raises(ValueError, match=message):
        run_campaign(CampaignConfig(n_instances=4, alphas=alphas, workers=workers))


def test_single_instance_config():
    cfg = CampaignConfig(seed=4, n_instances=1, alphas=(0.5,), p_list=(),
                         workers=1)
    report, rows = run_campaign(cfg)
    # 5 plain + 5 RL + 5 EXP + 2 probe rows for the single alpha cell
    assert report.n_rows == 17
    assert report.violations == 0
    # an empty p grid samples p, and the report echoes it as None
    assert report.config["p_list"] is None
    assert json.loads(report_to_json(report))["config"]["alphas"] == [0.5]


def test_p_list_override():
    cfg = CampaignConfig(seed=4, n_instances=2, alphas=(0.5,),
                         p_list=(0.75,), workers=1)
    _, rows = run_campaign(cfg)
    assert all(r["p"] == 0.75 for r in rows)


def test_config_text_parsing():
    text = """
    # campaign config
    seed = 17
    n_instances = 3
    alphas = 0.3, 0.5
    pl_range = 0.1, 2
    output_format = json
    printed_probe = false
    """
    fields = parse_config_text(text)
    assert fields["seed"] == 17
    assert fields["alphas"] == (0.3, 0.5)
    assert fields["output_format"] == "json"
    assert fields["printed_probe"] is False
    cfg = CampaignConfig(**fields)
    assert cfg.n_instances == 3


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 17\nn_instances = 3\n")
    cfg = load_config(str(path), {"n_instances": 5, "tol": None})
    assert cfg.seed == 17
    assert cfg.n_instances == 5


def test_hypfrac_threads_env_caps_workers(monkeypatch):
    from hypfrac.campaign import _resolve_workers

    cfg = CampaignConfig(workers=8)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setenv("HYPFRAC_THREADS", "2")
    assert _resolve_workers(cfg) == 2
    monkeypatch.setenv("HYPFRAC_THREADS", "")
    assert _resolve_workers(cfg) == 8
    monkeypatch.delenv("HYPFRAC_THREADS")
    assert _resolve_workers(CampaignConfig(workers=1)) == 1


def test_non_finite_rows_are_counted_apart_from_violations():
    report, rows = run_campaign(EDGE)
    bad = [r for r in rows if not all(
        math.isfinite(v) for v in (r["lhs"], r["mid"], r["rhs"], r["slack_left"],
                                   r["slack_right"]) if v is not None)]
    plain = [r for r in bad if not r["theorem_id"].endswith("_printed")]
    assert len(plain) == report.nonfinite == 15 and len(bad) == 17
    # the report and the writers flag the same rows: those without texts
    texts = [block.texts[j] for _, start, stop in rows.groups
             for block in rows.blocks for j in range(start, stop)]
    assert [i for i, t in enumerate(texts) if t is None] == \
        [i for i, r in enumerate(rows) if any(r is b for b in bad)]
    lines = rows_to_csv(rows).splitlines()[1:]
    assert sum("inf" in line or "nan" in line for line in lines) == 17
    # a nan slack (HH_1_1 with mid = rhs = inf) never holds
    assert not any(r["holds"] for r in bad)
    assert any(r["slack_right"] != r["slack_right"] and r["slack_left"] is not None
               and r["slack_left"] == r["slack_left"] for r in bad)
    # no finite row fails
    assert report.violations == 0
    for tid, entry in report.per_theorem.items():
        n_tid = sum(r["theorem_id"] == tid for r in rows)
        assert entry["pass"] + entry["fail"] + entry["nonfinite"] == n_tid
        assert entry["nonfinite"] == sum(r["theorem_id"] == tid for r in bad)
        assert math.isfinite(entry["worst_slack"])
    for entry in report.printed_constant_probe.values():
        assert entry["nonfinite"] == 1 and math.isfinite(entry["worst_slack"])
    assert json.loads(report_to_json(report))["nonfinite"] == 15


@pytest.mark.parametrize("cfg,indices", [
    (CampaignConfig(seed=42, n_instances=20, workers=1), range(20)),
    (EDGE, range(EDGE.n_instances)),
])
def test_instance_rows_are_one_row_evaluations(cfg, indices):
    # the stacked pass gives, bit for bit (nan equal to nan), what a fresh
    # one-row evaluation gives for every row
    sides = ("lhs", "mid", "rhs", "slack_left", "slack_right", "holds")
    with np.errstate(all="ignore"):
        for index in indices:
            u, interval, p, w = _draw(cfg, index)
            rows = instance_rows(cfg, index)
            for row, (tid, alpha, printed) in zip(rows, _plan(cfg)):
                name = tid.value + "_printed" if printed else tid.value
                assert row["theorem_id"] == name
                v = eval_theorem(tid, u, interval, v=w, alpha=alpha, p=p,
                                 tol=cfg.tol, strict_printed=printed)
                assert [repr(row[k]) for k in sides] == \
                    [repr(getattr(v, k)) for k in sides], (index, name, alpha)


def test_instance_block_is_one_evaluate_plan_of_the_plan(small_run):
    # the block holds the verdicts of the campaign's plan as it is, and the
    # report reads them by theorem in file order, the probes by their theorem
    report, rows = small_run
    plan = _plan(SMALL)
    with np.errstate(all="ignore"):
        for index in range(SMALL.n_instances):
            u, interval, p, w = _draw(SMALL, index)
            want = TheoremEvaluator(u, interval, p=p, weight=w,
                                    tol=SMALL.tol).evaluate_plan(plan)
            block, = campaign._chunk_blocks(SMALL, plan, range(index, index + 1))
            assert repr(block.verdicts) == repr(tuple(want)), index
    names = list(dict.fromkeys(r["theorem_id"] for r in rows))
    assert list(report.per_theorem) == [n for n in names
                                        if not n.endswith("_printed")]
    assert list(report.printed_constant_probe) == ["D4", "D5"]
    assert names[-2:] == ["D4_printed", "D5_printed"]


def _relative_worst(rows):
    worst = {}
    for r in rows:
        slacks = [s for s in (r["slack_left"], r["slack_right"]) if s is not None]
        if all(map(math.isfinite, [r["lhs"], r["rhs"], *slacks])):
            rel = min(slacks) / max(1.0, abs(r["rhs"]))
            tid = r["theorem_id"]
            worst[tid] = min(worst.get(tid, rel), rel)
    return worst


def _artifacts(cfg):
    """The rows CSV and JSON of a serial run, and its report less the wall
    time."""
    report, rows = run_campaign(cfg)
    report = report.to_dict()
    report.pop("wall_time_s")
    return rows_to_csv(rows), rows_to_json(rows), report


@pytest.mark.parametrize("cfg", [CampaignConfig(seed=42, n_instances=30, workers=1),
                                 EDGE], ids=["seed42", "edge"])
def test_chunked_campaign_equals_one_instance_at_a_time(monkeypatch, cfg):
    # every chunk size, including chunks cut mid-plan and one chunk of all
    # the instances, writes the bytes of instances evaluated one at a time
    # (the edge ranges have non-finite rows)
    monkeypatch.setattr(campaign, "CHUNK_INSTANCES", 1)
    alone = _artifacts(cfg)
    assert alone[2]["nonfinite"] == (15 if cfg is EDGE else 0)
    for size in (2, 5, 12, cfg.n_instances):
        monkeypatch.setattr(campaign, "CHUNK_INSTANCES", size)
        assert _artifacts(cfg) == alone, size


def test_p_list_with_zero_raises_the_same_error_chunked(monkeypatch):
    # the generator admits no p = 0, so such a campaign fails on its first
    # instance whatever the chunk size
    cfg = CampaignConfig(seed=42, n_instances=6, p_list=(0.0, 1.0), workers=1)
    for size in (1, 4):
        monkeypatch.setattr(campaign, "CHUNK_INSTANCES", size)
        with pytest.raises(ValueError, match="p must be nonzero"):
            run_campaign(cfg)


def test_chunks_share_one_fixed_weight_stack(monkeypatch):
    # the per-part weights broadcast over a chunk: one cache entry per plan,
    # whatever the number or the size of the chunks
    from hypfrac.quadrature import _fixed_weights

    run_campaign(CampaignConfig(seed=5, n_instances=2, workers=1))
    entries = _fixed_weights.cache_info().currsize
    for size, n in ((1, 3), (2, 7), (5, 11), (12, 12), (64, 40)):
        monkeypatch.setattr(campaign, "CHUNK_INSTANCES", size)
        run_campaign(CampaignConfig(seed=5 + n, n_instances=n, workers=1))
        assert _fixed_weights.cache_info().currsize == entries, size


def test_report_relative_worst_slack_is_what_holds_tests():
    report, rows = run_campaign(EDGE)
    worst = _relative_worst(rows)
    for tid, entry in report.per_theorem.items():
        assert entry["worst_rel_slack"] == worst[tid]
        # no failing row: the relative worst is within the tolerance even
        # where the absolute worst (D6, about -2e7 here) is not
        assert entry["fail"] == 0 and entry["worst_rel_slack"] >= -EDGE.tol
    assert report.per_theorem["D6"]["worst_slack"] < -1e6
    for tid, entry in report.printed_constant_probe.items():
        assert entry["worst_rel_slack"] == worst[tid + "_printed"]


@pytest.mark.parametrize("call", [
    lambda: run_campaign(EDGE)[0].nonfinite == 15,
    lambda: limit_sweep("D4", "FHH", parse_function("cosh(x)"),
                        Interval(0.0, 800.0), alphas=(0.5,)).rows[0].sides
    == (1.732848392815529e+176, math.inf, math.inf),
    lambda: math.isinf(eval_theorem("D4", parse_function("cosh(x)"),
                                    Interval(0.0, 800.0), alpha=0.5, p=1.0).lhs),
], ids=["campaign", "limit_sweep", "eval_theorem"])
def test_overflowing_rows_raise_no_warning(call):
    # overflow shows as an inf or nan side, not as a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call()


def test_row_with_only_a_non_finite_mid_is_counted_apart(monkeypatch):
    def block(cfg, plan, index):  # mid overflowed; lhs and rhs are finite
        verdicts = []
        for tid, alpha, printed in plan:
            mid = math.inf if index and tid == "D2" else 2.0
            verdicts.append((1.0, mid, 3.0, mid - 1.0, 3.0 - mid, 3.0 - mid >= 0))
        return _block(index, 0.0, 1.0, 1.0, "x", verdicts)

    monkeypatch.setattr(campaign, "_chunk_blocks", lambda cfg, plan, indices: [
        block(cfg, plan, index) for index in indices])
    report, _ = run_campaign(CampaignConfig(n_instances=2, workers=1))
    assert (report.violations, report.nonfinite) == (0, 1)
    assert report.per_theorem["D2"]["worst_slack"] == 1.0


def test_workers_capped_by_instances_and_cpus(monkeypatch):
    # only the pool size is computed: no pool is started
    from hypfrac.campaign import _resolve_workers

    monkeypatch.delenv("HYPFRAC_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _resolve_workers(CampaignConfig(n_instances=2, workers=3)) == 2
    assert _resolve_workers(CampaignConfig(n_instances=100, workers=5000)) == 4
    assert _resolve_workers(CampaignConfig(n_instances=1)) == 1
    assert _resolve_workers(CampaignConfig(n_instances=100)) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(CampaignConfig(n_instances=100, workers=8)) == 1


def test_env_capped_run_is_still_identical(monkeypatch, small_run):
    _, rows = small_run
    monkeypatch.setenv("HYPFRAC_THREADS", "1")
    _, rows2 = run_campaign(CampaignConfig(seed=9, n_instances=4, workers=6))
    assert rows_to_csv(rows) == rows_to_csv(rows2)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(n_instances=0)
    with pytest.raises(ValueError):
        CampaignConfig(alphas=())
    with pytest.raises(ValueError):
        CampaignConfig(output_format="xml")
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            CampaignConfig(workers=workers)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            CampaignConfig(tol=tol)
    with pytest.raises(ValueError):
        parse_config_text("this is not a key value line")


@pytest.mark.parametrize("line,message", [
    ("foo = 3", "config line 2: unknown key 'foo'"),
    ("printed_probe = nope", "config line 2: printed_probe must be true or "
                             "false, got 'nope'"),
])
def test_config_text_rejects_unknown_keys_and_bad_booleans(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config_text(f"seed = 1\n{line}\n")


def test_config_text_booleans():
    for word, value in (("On", True), ("yes", True), ("1", True),
                        ("off", False), ("NO", False), ("0", False)):
        assert parse_config_text(f"printed_probe = {word}") == {
            "printed_probe": value}


@pytest.mark.parametrize("name,values", [
    ("alphas", (0.5, math.inf)), ("p_list", (math.inf,)),
    ("pl_range", (0.05, math.nan)), ("length_range", (-math.inf, 4.0)),
    ("center_range", (math.nan, 1.0)),
])
def test_config_rejects_non_finite_entries(name, values):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CampaignConfig(**{name: values})


@pytest.mark.parametrize("name,values,message", [
    ("pl_range", (5.0,), "pl_range must be two numbers low,high"),
    ("pl_range", (5.0, 0.05), "pl_range must be two numbers low,high"),
    ("center_range", (-1.0, 0.0, 1.0), "center_range must be two numbers"),
    ("center_range", (1.0, -1.0), "center_range must be two numbers"),
    ("length_range", (4.0, 0.2), "length_range must be two numbers"),
    ("length_range", (-2.0, -1.0), r"length_range entries must be > 0"),
    ("length_range", (0.0, 1.0), r"length_range entries must be > 0"),
])
def test_config_rejects_malformed_ranges(name, values, message):
    with pytest.raises(ValueError, match=message):
        CampaignConfig(**{name: values})


@pytest.mark.parametrize("line,message", [
    ("seed = abc", "config line 2: seed: invalid literal for int"),
    ("workers = 1.5", "config line 2: workers: invalid literal for int"),
    ("tol = x", "config line 2: tol: could not convert string to float: 'x'"),
    ("alphas = 0.5,y", "config line 2: alphas: could not convert string"),
])
def test_config_text_number_errors_name_the_line(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config_text(f"n_instances = 1\n{line}\n")
