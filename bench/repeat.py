"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seconds 25                       # every workload, seed 1
    python3 bench/repeat.py --workloads desk-exact,scale-exact --seeds 1-10 --seconds 25
    python3 bench/repeat.py --workloads desk-exact --seeds 1-3 --seconds 25 --trace 1

For each workload and metric prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, the
figure BENCHMARK.json's bounds are checked against.  Runs execute one after
another, never in parallel.  `--out` also writes the summary and every
run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worker import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--seeds", default="1", help="a seed or an inclusive range such as 1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary and every result line to this JSON file")
    args = p.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   | {"unit": runs[0]["metrics"][name]["unit"]}
                   for name in runs[0]["metrics"]}
        report[workload] = {"metrics": metrics, "runs": runs}
        for name, s in metrics.items():
            print(f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
