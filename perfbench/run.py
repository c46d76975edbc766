"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (sizes and predictions in
``perfbench/README.md``): ``coin-circulant``, ``churn-replicas``,
``symmetric-cycle`` and ``gossip-serve``.  With ``--trace 0`` it prints
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` a
separate run prints every per-layer metric from spans around the
program's public entry points.  Every output is checked.  Human-readable
lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

SIM_WORKLOADS = ("coin-circulant", "churn-replicas", "symmetric-cycle")
WORKLOADS = SIM_WORKLOADS + ("gossip-serve",)
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-run budget; the run fails (no result) rather than overrun it.
DEADLINE_S = 170
SIM_WORKER = Path(__file__).resolve().parent / "sim.py"


class Deadline(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _spawn_sim(args, role: str, procs: list):
    """Start a simulation worker (appended to ``procs``); returns
    ``(proc, seconds to ready)``."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(SIM_WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--role", role],
        stdout=subprocess.PIPE, text=True, env=common.program_env(),
    )
    procs.append(proc)
    for line in proc.stdout:
        if common.parse_line(line, common.READY) is not None:
            return proc, perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"{args.workload} worker exited with {proc.returncode} before ready")


def run_sim(args) -> dict:
    setups = []
    roles = ["main"] if args.trace else ["probe"] * (SETUP_SAMPLES - 1) + ["main"]
    procs: list = []
    try:
        for role in roles:
            proc, took = _spawn_sim(args, role, procs)
            setups.append(took)
            if role == "probe":
                proc.stdout.close()
                proc.wait()
        result = None
        for line in proc.stdout:
            found = common.parse_line(line, common.RESULT)
            if found is not None:
                result = found
        proc.stdout.close()
        if proc.wait() != 0 or result is None:
            raise RuntimeError(f"{args.workload} worker failed (exit {proc.returncode})")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()

    rows = result["rows"]
    times = [r["request_s"] for r in rows]
    row_failures = sum(1 for r in rows if r["problems"])
    problems = [p for r in rows for p in r["problems"]][:5]
    problems += result["warmup_problems"] + result["cross_engine_problems"]
    out = {
        "problems": problems,
        # the cross-engine comparison counts as one more attempted operation
        "attempted": len(rows) + 1,
        "failed": row_failures + (1 if result["cross_engine_problems"] else 0),
        "setup_samples": setups,
        "times": times,
        "request_statistic": "p90",
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        trace = result["trace"]
        out["per_layer"] = trace["metrics"]
        out["problems"] += trace["problems"]
        out["missing_targets"] = trace["missing"]
        out["span_file"] = result["span_file"]
    return out


def report(args, spec: dict, res: dict, facts: dict) -> dict:
    """Print the human-readable lines; return the metrics object."""
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(facts, sort_keys=True))
    metrics = {}
    if not args.trace:
        setups = res["setup_samples"]
        times = res["times"]
        _q1, med, q3 = common.quartiles(times)
        p90 = statistics.quantiles(times, n=10)[8]
        tail = (f", p99 {common.percentile(times, 99):.4g} s"
                if len(times) >= 1000 else "")
        if res["request_statistic"] == "median":
            request, label = med, "median"
        else:
            request, label = p90, "90th percentile"
        notes = {
            "setup_s": f"median of {len(setups)} set-ups: "
                       + ", ".join(f"{s:.3f}" for s in setups),
            "request_s": f"{label} of {len(times)} requests; median {med:.4g} s, "
                         f"upper quartile {q3:.4g} s, 90th percentile {p90:.4g} s{tail}",
            "peak_rss_mb": "peak RSS of the process(es) running the program",
        }
        values = {
            "setup_s": common.median(setups),
            "request_s": request,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']} "
                  f"({notes[m['name']]})")
        if len(times) <= 100:
            print("request times (s): " + " ".join(f"{t:.4f}" for t in times))
    else:
        layers = res["per_layer"]
        absent = []
        for m in spec["per_layer"]:
            value = layers.get(m["name"])
            if value is None:
                absent.append(m["name"])
                value = 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"layer {m['name']} = {value:.6g} {m['unit']}")
        if absent:
            print("not called on this workload (reported as 0): " + ", ".join(absent))
        err = layers.get("trace.reconcile_error", 0.0)
        print(f"tracing overhead: traced/untraced request median = "
              f"{layers.get('trace.overhead_ratio', 0.0):.4f}; "
              f"self times + unattributed vs traced request: "
              f"{err:.2%} {'(within 5%)' if err <= 0.05 else '(EXCEEDS 5%)'}")
        if res.get("missing_targets"):
            print("wrapped targets not found: " + ", ".join(res["missing_targets"]))
        if res.get("span_file"):
            print(f"spans written to {res['span_file']}")
    print(f"failed_share = {res['failed']}/{res['attempted']} "
          f"= {res['failed'] / res['attempted']:.4f}")
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_importable() or not Path("BENCHMARK.json").is_file():
        print("perfbench: run from a checkout root holding BENCHMARK.json and "
              "src/repro", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    facts = common.host_facts()
    try:
        if args.workload == "gossip-serve":
            import gossip

            res = gossip.run(args.seed, args.seconds, bool(args.trace))
        else:
            res = run_sim(args)
    finally:
        signal.alarm(0)
    facts["loadavg_after"] = list(os.getloadavg())
    facts["loadavg_before"] = facts.pop("loadavg")
    metrics = report(args, spec, res, facts)
    print(json.dumps({
        "correct": not res["problems"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
