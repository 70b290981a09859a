"""The three workloads: generated inputs and the timed loops.

Every input is derived from the workload seed; the program only ever sees
a ``CampaignConfig`` or CLI argv strings.  A loop runs whole *passes* until
its time is up and reports per-pass rates, so the medians it feeds are
taken over many passes:

* ``campaign_serial`` / ``campaign_parallel``: one pass is ``run_campaign``
  over ``CAMPAIGN_PASS_INSTANCES`` fresh instances (a new campaign seed per
  pass) followed by the rows CSV, rows JSON and report JSON, exactly what
  ``hypfrac campaign`` writes.  A campaign pass is one call.
* ``interactive_mix``: one pass is a round of ``ROUND_INSTANCES`` generated
  instances, each driven through ``hypfrac.cli.main`` in-process; every CLI
  invocation is one call and is timed on its own.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field

from hypfrac import (
    CampaignConfig,
    WeightSpec,
    gen_p_convex,
    gen_symmetric_weight,
    rng_for,
    run_campaign,
    to_grammar,
)
from hypfrac.campaign import instance_rows, write_report, write_rows
from hypfrac.cli import main as cli_main
from hypfrac.expressions import Interval
from hypfrac.generators import GenConfig, draw_interval

from tracing import NULL_TRACER

WORKLOADS = ("campaign_serial", "campaign_parallel", "interactive_mix")

# the campaign's default fractional-order grid; exp kernels need alpha < 1
ALPHAS = (0.3, 0.5, 0.8, 1.0, 1.5)
EXP_ALPHAS = tuple(a for a in ALPHAS if a < 1.0)
PL_RANGE = (0.05, 5.0)          # p * (b - a), as CampaignConfig samples it

# 5 plain + 5 RL x 5 alphas + 5 exp x 3 alphas + 8 printed-constant probes
ROWS_PER_INSTANCE = 53
PROBE_ROWS_PER_INSTANCE = 8
PROBE_ROW_IDS = ("D4_printed", "D5_printed")

CAMPAIGN_PASS_INSTANCES = 12
ROUND_INSTANCES = 5             # one full cadence of the mix below

PLAIN_THMS = ("HH_1_1", "FEJER_1_2", "D1", "D2", "D3")
RL_THMS = ("FHH", "FHHF", "D4", "D6", "D8")
EXP_THMS = ("FHH2", "FHHF2", "D5", "D7", "D9")
NEEDS_P = {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}
NEEDS_WEIGHT = {"FEJER_1_2", "FHHF", "FHHF2", "D2", "D3", "D6", "D7", "D8",
                "D9"}


def worker_count() -> int:
    """Two workers, never more than the machine's CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# generated instances

@dataclass(frozen=True)
class Instance:
    index: int
    interval: Interval
    p: float
    u: object
    weight: WeightSpec


def make_instance(seed: int, index: int, rng=None) -> Instance:
    """One seeded instance drawn the way a campaign draws them: interval,
    p from p*(b-a) in PL_RANGE, a p-convex u and a symmetric weight."""
    if rng is None:
        rng = rng_for(seed, index)
    gencfg = GenConfig(seed=seed)
    interval = draw_interval(gencfg, rng)
    p = float(rng.uniform(*PL_RANGE)) / interval.length
    u = gen_p_convex(gencfg, p, interval, rng=rng)
    w = gen_symmetric_weight(gencfg, interval, rng=rng)
    return Instance(index, interval, p, u, w)


def _num(x: float) -> str:
    return repr(float(x))


def cli_calls(inst: Instance, rng) -> list:
    """The argv lists of one instance's share of the interactive mix:
    15 verify, 2 integrate, 1 classify (grid 201 on every fifth instance,
    else 101) and, on every fifth instance, one limits sweep alternating
    D4->FHH and D8->D3.

    Fractional orders are stratified so that every instance, and every
    round of five, holds the same mix of them: the five RL verifies take
    the five grid values in a random order, the five exp verifies the exp
    grid 2/2/1 times, and the integrate orders cycle with the instance
    index.  ``rng`` draws the orders' pairing and the integrate sides."""
    fn = to_grammar(inst.u)
    wt = to_grammar(inst.weight.v)
    ab = ["--a", _num(inst.interval.a), "--b", _num(inst.interval.b)]
    alpha_of = dict(zip(RL_THMS, (ALPHAS[i] for i in rng.permutation(len(ALPHAS)))))
    exp_idx = (rng.permutation(len(EXP_THMS)) + inst.index) % len(EXP_ALPHAS)
    alpha_of.update(zip(EXP_THMS, (EXP_ALPHAS[i] for i in exp_idx)))
    calls = []
    for thm in PLAIN_THMS + RL_THMS + EXP_THMS:
        argv = ["verify", "--thm", thm, "--fn", fn] + ab
        if thm in NEEDS_P:
            argv += ["--p", _num(inst.p)]
        if thm in alpha_of:
            argv += ["--alpha", _num(alpha_of[thm])]
        if thm in NEEDS_WEIGHT:
            argv += ["--weight", wt]
        calls.append(("verify", argv))
    rl_left = bool(rng.integers(2))
    for family, grid, left in (("rl", ALPHAS, rl_left),
                               ("exp", EXP_ALPHAS, not rl_left)):
        side, at = (("left", inst.interval.b) if left
                    else ("right", inst.interval.a))
        calls.append(("integrate", ["integrate", "--family", family,
                                    "--alpha", _num(grid[inst.index % len(grid)]),
                                    "--fn", fn] + ab +
                      ["--side", side, "--at", _num(at)]))
    fifth = inst.index % ROUND_INSTANCES == ROUND_INSTANCES - 1
    calls.append(("classify", ["classify", "--fn", fn, "--p", _num(inst.p)] +
                  ab + ["--grid-n", "201" if fifth else "101"]))
    if fifth:
        if inst.index % (2 * ROUND_INSTANCES) < ROUND_INSTANCES:
            argv = ["limits", "--thm", "D4", "--to", "FHH", "--fn", fn] + ab
        else:
            argv = ["limits", "--thm", "D8", "--to", "D3", "--fn", fn,
                    "--weight", wt, "--p", _num(inst.p),
                    "--alpha", "0.9,0.99,0.999"] + ab
        calls.append(("limits", argv))
    return calls


def mix_instance(seed: int, index: int):
    """(Instance, calls) for interactive item ``index``."""
    rng = rng_for(seed, index)
    inst = make_instance(seed, index, rng)
    return inst, cli_calls(inst, rng)


def run_cli(argv) -> tuple:
    """(exit code, captured stdout) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def integrate_value(out: str) -> float:
    """The value an ``integrate`` call printed (NaN if there is none)."""
    try:
        return float(out.split()[0])
    except (IndexError, ValueError):
        return math.nan


def call_failed(kind: str, code: int, out: str) -> bool:
    """A call fails on a nonzero exit (every generated input is valid and
    p-convex, so verify must hold) or an ``integrate`` that prints no
    finite value.  An integral flagged ``NOT CONVERGED`` still exits 0 with
    a value and an error estimate; it is counted apart (``unconverged``),
    not as a failed call."""
    if code != 0:
        return True
    return kind == "integrate" and not math.isfinite(integrate_value(out))


# ---------------------------------------------------------------------------
# campaigns

def failed_verdicts(rows) -> int:
    return sum(1 for r in rows
               if r["theorem_id"] not in PROBE_ROW_IDS and not r["holds"])


def campaign_gate_errors(cfg: CampaignConfig, report, rows) -> list:
    """Campaign correctness: no non-probe violation (counted from the rows
    and from the report) and 53 rows per instance."""
    errors = []
    expected = ROWS_PER_INSTANCE * cfg.n_instances
    if report.n_rows != expected or len(rows) != expected:
        errors.append(f"seed {cfg.seed}: {report.n_rows} rows reported, "
                      f"{len(rows)} returned, {expected} expected")
    bad = failed_verdicts(rows)
    if bad or report.violations:
        errors.append(f"seed {cfg.seed}: {bad} non-probe rows fail, report "
                      f"counts {report.violations} violations")
    return errors


def campaign_pass(cfg: CampaignConfig, tracer=NULL_TRACER):
    """run_campaign plus the three artifacts; returns (report, rows)."""
    with tracer.span("campaign.run_campaign", instances=cfg.n_instances,
                     workers=cfg.workers):
        report, rows = run_campaign(cfg)
    with tracer.span("campaign.write_rows", fmt="csv"):
        write_rows(rows, cfg.rows_path, "csv")
    with tracer.span("campaign.write_rows", fmt="json"):
        write_rows(rows, cfg.rows_path + ".json", "json")
    with tracer.span("campaign.write_report"):
        write_report(report, cfg.report_path)
    return report, rows


# ---------------------------------------------------------------------------
# the timed loop

@dataclass
class LoopResult:
    pass_s: list = field(default_factory=list)       # wall time of each pass
    pass_instances: list = field(default_factory=list)
    pass_calls: list = field(default_factory=list)
    call_ms: list = field(default_factory=list)      # one entry per call
    attempted: int = 0
    failed: int = 0
    integrate_calls: int = 0
    unconverged: int = 0                             # integrate NOT CONVERGED
    errors: list = field(default_factory=list)       # gate failures
    first_csv: bytes | None = None                   # campaign pass 0 rows


class Workload:
    """Set-up state of one workload run; ``run_pass`` does one pass."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.pass_instances = CAMPAIGN_PASS_INSTANCES
        self.workers = worker_count() if name == "campaign_parallel" else 1
        self.next_pass = 0
        self.pending = None   # the interactive instance prepared in set-up

    def prepare(self) -> None:
        """Input generation and one untimed warm-up call."""
        if self.name == "interactive_mix":
            self.pending = mix_instance(self.seed, 0)
            run_cli(self.pending[1][0][1])
        else:
            instance_rows(self.config(0), 0)

    def config(self, pass_index: int, workers: int | None = None):
        """The campaign of one pass; its files are private to this process
        and worker count."""
        workers = self.workers if workers is None else workers
        tag = f"{os.getpid()}_{workers}"
        return CampaignConfig(
            seed=self.seed * 1000 + pass_index,
            n_instances=self.pass_instances,
            alphas=ALPHAS,
            workers=workers,
            printed_probe=True,
            rows_path=os.path.join(self.workdir, f"rows_{tag}.csv"),
            report_path=os.path.join(self.workdir, f"report_{tag}.json"),
        )

    def run_pass(self, res: LoopResult, tracer=NULL_TRACER) -> None:
        k = self.next_pass
        self.next_pass += 1
        tracer.trace_id = k
        if self.name == "interactive_mix":
            self._interactive_pass(k, res, tracer)
        else:
            self._campaign_pass(k, res, tracer)

    def _campaign_pass(self, k, res, tracer):
        cfg = self.config(k)
        n_ops = (ROWS_PER_INSTANCE - PROBE_ROWS_PER_INSTANCE) * cfg.n_instances
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.pass", workload=self.name):
                report, rows = campaign_pass(cfg, tracer)
        except Exception as exc:  # a raising pass fails all its verdicts
            res.attempted += n_ops
            res.failed += n_ops
            res.errors.append(f"seed {cfg.seed}: {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        res.pass_s.append(dt)
        res.pass_instances.append(cfg.n_instances)
        res.pass_calls.append(1)
        res.call_ms.append(dt * 1e3)
        res.attempted += n_ops
        res.failed += failed_verdicts(rows)
        res.errors += campaign_gate_errors(cfg, report, rows)
        if k == 0:
            with open(cfg.rows_path, "rb") as fh:
                res.first_csv = fh.read()

    def _interactive_pass(self, k, res, tracer):
        items = []
        for j in range(k * ROUND_INSTANCES, (k + 1) * ROUND_INSTANCES):
            if j == 0 and self.pending is not None:
                items.append(self.pending)
            else:
                items.append(mix_instance(self.seed, j))
        n_calls = 0
        t0 = time.perf_counter()
        with tracer.span("bench.pass", workload=self.name):
            for inst, calls in items:
                tracer.trace_id = inst.index
                with tracer.span("bench.instance", index=inst.index):
                    for kind, argv in calls:
                        c0 = time.perf_counter()
                        with tracer.span("cli." + kind) as attrs:
                            try:
                                code, out = run_cli(argv)
                            except Exception as exc:  # counted, never fatal
                                code, out = None, repr(exc)
                            attrs["exit"] = code
                        res.call_ms.append((time.perf_counter() - c0) * 1e3)
                        res.attempted += 1
                        if kind == "integrate":
                            res.integrate_calls += 1
                            res.unconverged += "NOT CONVERGED" in out
                        if call_failed(kind, code, out):
                            res.failed += 1
                            if kind == "verify":
                                res.errors.append(
                                    f"verify exited {code}: {' '.join(argv)}")
                n_calls += len(calls)
        res.pass_s.append(time.perf_counter() - t0)
        res.pass_instances.append(len(items))
        res.pass_calls.append(n_calls)

    def parallel_gate_errors(self, res: LoopResult) -> list:
        """Pass 0 re-run serially must give the same CSV bytes."""
        if self.name != "campaign_parallel" or res.first_csv is None:
            return []
        serial_cfg = self.config(0, workers=1)
        campaign_pass(serial_cfg)
        with open(serial_cfg.rows_path, "rb") as fh:
            serial_csv = fh.read()
        return csv_identity_errors(serial_csv, res.first_csv)


def csv_identity_errors(serial_csv: bytes, parallel_csv: bytes) -> list:
    if serial_csv == parallel_csv:
        return []
    at = next((i for i, (x, y) in enumerate(zip(serial_csv, parallel_csv))
               if x != y), min(len(serial_csv), len(parallel_csv)))
    return [f"parallel rows CSV differs from serial at byte {at} "
            f"({len(parallel_csv)} vs {len(serial_csv)} bytes)"]


def run_loop(wl: Workload, seconds: float, res: LoopResult,
             tracer=NULL_TRACER, between=None) -> LoopResult:
    """Whole passes until ``seconds`` have elapsed (at least one); the
    optional ``between`` callback runs after each pass, outside its time."""
    deadline = time.perf_counter() + seconds
    while True:
        wl.run_pass(res, tracer)
        if time.perf_counter() >= deadline:
            return res
        if between is not None:
            between()
