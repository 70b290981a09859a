"""hypfrac benchmark: one workload run, result as the last stdout line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign_serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the loop half untraced and half traced (their ratio is
the tracing overhead), then the per-layer probe, and reports the per-layer
metrics.  Either way the correctness gates run, the machine facts are
printed, and the spans and results are written under ``.perfbench_out/``.
The exit code is 1 when a gate fails and 2 when hypfrac cannot be
imported from the checkout's ``src/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh-interpreter set-ups per run, plus this process's own; they are
# spread over the run so a slow spell of the host does not take them all
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "HYPFRAC_THREADS")


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import hypfrac from this checkout's src/ and nowhere else."""
    if not (SRC / "hypfrac" / "__init__.py").is_file():
        raise ProgramMissing(f"no hypfrac package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypfrac
    if Path(hypfrac.__file__).resolve().parent != SRC / "hypfrac":
        raise ProgramMissing(f"hypfrac imported from {hypfrac.__file__}")
    return hypfrac


def machine_facts() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def sample_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter (the parent waits for it)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(OUT)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _rate(res, counts) -> float:
    """Work done over the summed pass time.  The host's speed flips between
    a fast and a slow state every few seconds, so per-pass rates are
    bimodal and their median jumps between the two states from run to run;
    the whole-run rate moves only with the share of time spent in each."""
    return sum(counts) / sum(res.pass_s)


def call_p90_ms(res) -> float:
    calls = res.call_ms
    return statistics.quantiles(calls, n=10)[8] if len(calls) > 1 else calls[0]


def end_to_end_metrics(res, setup_s: float, peak_rss_kb: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (_rate(res, res.pass_instances), "1/s"),
        "calls_per_s": (_rate(res, res.pass_calls), "1/s"),
        "call_p50_ms": (statistics.median(res.call_ms), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (and writes files)."""
    import layers
    import workloads
    from tracing import NULL_TRACER, Tracer

    OUT.mkdir(exist_ok=True)
    wl = workloads.Workload(name, seed, str(OUT))
    wl.prepare()
    setup_main = time.perf_counter() - T_START

    res = workloads.LoopResult()
    loop_tracer = Tracer() if trace else NULL_TRACER
    if trace:
        workloads.run_loop(wl, seconds / 2, res)
        untraced = list(res.pass_s)
        workloads.run_loop(wl, seconds / 2, res, loop_tracer)
        traced = res.pass_s[len(untraced):]
    else:
        setups = [setup_main]
        start = time.perf_counter()

        def between_passes():
            due = start + seconds * (len(setups) - 0.5) / SETUP_SAMPLES
            if len(setups) <= SETUP_SAMPLES and time.perf_counter() >= due:
                setups.append(sample_setup(name, seed))

        workloads.run_loop(wl, seconds, res, between=between_passes)
    peak_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    errors = list(res.errors) + wl.parallel_gate_errors(res)
    oracle = layers.oracle_max_rel_err(
        [workloads.make_instance(seed, layers.PROBE_INDEX + i).interval
         for i in range(layers.N_QUAD)])
    if not oracle <= layers.ORACLE_TOL:
        errors.append(f"oracle max relative error {oracle:.3g} > "
                      f"{layers.ORACLE_TOL:g}")

    probe_tracer = Tracer()
    if not res.pass_s:      # every pass raised: the errors say why
        metrics = {}
    elif trace:
        extra = layers.run_probe(seed, probe_tracer)
        metrics = layers.layer_metrics(probe_tracer, extra)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
    else:
        while len(setups) <= SETUP_SAMPLES:
            setups.append(sample_setup(name, seed))
        metrics = end_to_end_metrics(res, statistics.median(setups),
                                     max(peak_self_kb, peak_children_kb))

    result = {
        "correct": not errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    stem = OUT / f"{name}_seed{seed}_trace{int(trace)}"
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "machine": machine_facts(), "errors": errors,
              "passes": len(res.pass_s), "calls": len(res.call_ms),
              "call_p90_ms": call_p90_ms(res) if res.call_ms else None,
              "integrate_calls": res.integrate_calls,
              "integrate_unconverged": res.unconverged,
              "pass_s": res.pass_s,
              "peak_rss_self_mb": peak_self_kb / 1024.0,
              "peak_rss_children_mb": peak_children_kb / 1024.0,
              "result": result}
    if trace:
        spans = stem.with_suffix(".spans.jsonl")
        with open(spans, "w", encoding="utf-8") as fh:
            for phase, tracer in (("loop", loop_tracer), ("probe", probe_tracer)):
                for s in tracer.spans:
                    fh.write(json.dumps(dict(s, phase=phase), default=str) + "\n")
        detail["loop_self_ms"] = {k: 1e3 * v for k, v in
                                  loop_tracer.self_time_by_layer_s().items()}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n")
    return detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import hypfrac: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(detail["machine"]))
    if detail["call_p90_ms"] is not None:
        print(f"call p90: {detail['call_p90_ms']:.6g} ms (printed, not a metric)")
    if detail["integrate_calls"]:
        print(f"integrate NOT CONVERGED: {detail['integrate_unconverged']} of "
              f"{detail['integrate_calls']} calls (not failures; see README)")
    print(f"passes: {detail['passes']}, calls: {detail['calls']}, "
          f"peak RSS {detail['peak_rss_self_mb']:.1f} MB (this process), "
          f"{detail['peak_rss_children_mb']:.1f} MB (largest child)")
    for err in detail["errors"]:
        print(f"GATE FAILED: {err}")
    for name, m in detail["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail["result"]))
    return 0 if detail["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
