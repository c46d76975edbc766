"""Steadiness report: run workloads repeatedly and summarize the spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--out FILE]

For every workload and seed it runs ``perfbench/run.py --trace 0`` for
``run_seconds`` (one process after another, never in parallel), then prints
each end-to-end metric's median, quartiles, interquartile spread as a
share of the median (what the bounds in ``BENCHMARK.json`` are checked
against) and max/min ratio.  Host facts are recorded per run.  The raw
results go to ``--out`` (JSON) when given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    host = next(json.loads(l[5:]) for l in lines if l.startswith("host "))
    times = next(([float(t) for t in l.split(":", 1)[1].split()]
                  for l in lines if l.startswith("request times")), None)
    return {"workload": workload, "seed": seed, "host": host,
            "result": json.loads(lines[-1]), "times": times}


def summarize(runs: list[dict], spec: dict) -> list[str]:
    out = []
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = common.quartiles(values)
        spread = (q3 - q1) / med
        flag = "ok" if spread <= m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "EXCEEDS BOUND")
        out.append(
            f"  {m['name']:<16} median {med:.6g} {m['unit']}  q1 {q1:.6g}  "
            f"q3 {q3:.6g}  iqr/median {spread:.2%} (bound {m['bound']:.0%}: {flag})  "
            f"max/min {max(values) / min(values):.3f}  n={len(values)}")
    correct = sum(1 for r in runs if r["result"]["correct"])
    out.append(f"  correct {correct}/{len(runs)}; failed "
               f"{sum(r['result']['failed'] for r in runs)} of "
               f"{sum(r['result']['attempted'] for r in runs)} attempted")
    return out


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    print("host " + json.dumps(common.host_facts(), sort_keys=True), flush=True)
    runs_by_workload: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, spec["run_seconds"])
            runs.append(run)
            vals = ", ".join(f"{k}={v['value']:.5g}"
                             for k, v in run["result"]["metrics"].items())
            print(f"{workload} seed {seed}: {vals} "
                  f"load {run['host']['loadavg_before'][0]:.2f}"
                  f"->{run['host']['loadavg_after'][0]:.2f}", flush=True)
        runs_by_workload[workload] = runs
        print(f"{workload}:")
        print("\n".join(summarize(runs, spec)), flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(runs_by_workload, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
