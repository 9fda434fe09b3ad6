"""The wail benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload desk-exact --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory and
`src/wail` is imported from it.  Every worker is a fresh single-threaded
subprocess (`worker.py`) with BLAS threads pinned to 1.

--trace 0  SETUP_SAMPLES fresh processes time the set-up (the last of them
           then runs the timed cells); prints the end-to-end metrics.
--trace 1  an untraced worker, then a traced one, run the same cells, as many
           as fill half of --seconds at the workload's nominal cell time;
           prints the per-layer metrics and checks that both runs end with
           bit-identical policies.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it name every metric with its unit and sample count, and the
run metadata.  The full record (and, traced, every span) is written under
`.bench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_VARS, WORKLOADS, trace_cells

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and return the
    JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env.update({v: "1" for v in BLAS_VARS})
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker {args[:1]} exceeded the time limit") from err
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[:1]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "wail").glob("*.py")))


def ok_cells(cells: list[dict]) -> list[dict]:
    return [c for c in cells if c["ok"]]


def end_to_end(res: dict, setup: list[float]) -> dict:
    """{metric: (value, unit, samples)} from one untraced worker result."""
    good = ok_cells(res["cells"])
    walls = [c["wall_s"] for c in good]
    return {
        "cell_s": (statistics.median(walls), "s", len(walls)),
        "rounds_per_s": (sum(c["rounds"] for c in good) / sum(walls), "1/s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "score": (statistics.median(c["score"] for c in good), "scaled", len(good)),
    }


def traced_metrics(ref: dict, traced: dict) -> tuple[dict, int]:
    """Per-layer metrics, tracing overhead and the count of traced cells
    whose final policy differs from the untraced run's."""
    mismatched = sum(1 for a, b in zip(ref["cells"], traced["cells"])
                     if a["ok"] and b["ok"] and a["digest"] != b["digest"])
    n = len(traced["cells"])
    metrics = {k: (v, unit, n) for k, (v, unit) in traced["layers"].items()}
    walls = [c["wall_s"] for c in ok_cells(ref["cells"])]
    traced_walls = [c["wall_s"] for c in ok_cells(traced["cells"])]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0, "ratio", n)
    return metrics, mismatched


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one workload of the wail benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "wail" / "__init__.py").is_file():
        print(f"error: no wail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "git_commit": git_commit(),
                       "src_wail_lines": source_lines(), "nproc": os.cpu_count()}}
    try:
        if args.trace == 0:
            setup = [run_worker(["setup", *common], deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
            res = run_worker(["cells", *common, "--seconds", str(args.seconds)], deadline)
            setup.append(res["setup_s"])
            cells = res["cells"]
            failed = sum(not c["ok"] for c in cells)
            if failed == len(cells):
                raise WorkerError("every cell failed")
            metrics = end_to_end(res, setup)
            record |= {"setup_samples": setup, "cells": cells}
        else:
            n_cells = str(trace_cells(args.workload, args.seconds))
            ref = run_worker(["cells", *common, "--cells", n_cells], deadline)
            spans = OUT_DIR / f"spans-{tag}.json"
            traced = run_worker(["cells", *common, "--cells", n_cells, "--trace",
                                 "--spans", str(spans)], deadline)
            cells = ref["cells"] + traced["cells"]
            if not ok_cells(ref["cells"]) or not ok_cells(traced["cells"]):
                raise WorkerError("every cell failed")
            metrics, mismatched = traced_metrics(ref, traced)
            failed = sum(not c["ok"] for c in cells) + mismatched
            record |= {"absent": traced["absent"], "untraced_methods": traced["untraced_methods"],
                       "n_spans": traced["n_spans"], "cells": ref["cells"],
                       "traced_cells": traced["cells"], "policies_mismatched": mismatched}
            res = traced
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    record["meta"]["versions"] = res["versions"]
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    width = max(len(k) for k in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<{width}}  {value:12.6g} {unit:<7} n={n}")
    print(f"fail_frac  {failed / len(cells):.6g}  ({failed} failed of {len(cells)} cells)")
    if args.trace:
        print(f"absent: {record['absent']}  policies mismatched: {record['policies_mismatched']}")
    print("meta " + json.dumps(record["meta"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(cells), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
