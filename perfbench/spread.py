"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads tu-cold tu-warm --seeds 1-10 --out spread.json

Runs perfbench/run.py once per (workload, seed), one run at a time, and
reports for every metric its median, quartiles and interquartile distance as
a share of the median next to the metric's bound in BENCHMARK.json. A spread
above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_range(args.seeds):
            res = run_once(workload, seed, seconds)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = relative_spread(values) if len(values) > 1 and q2 else 0.0
            table[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            mark = " <-- above a third of the bound" if bound and spread > bound / 3 else ""
            print(f"  {name:32s} median {statistics.median(values):.6g}  spread {spread:.4f}"
                  f"{f'  bound {bound}' if bound else ''}{mark}")
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
