"""Interleaved benchmark pairs of two source trees, and the gain verdict.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload desk-exact --pairs 10

Each pair runs both trees' own `bench/run.py` on one fresh seed (seeds
--first-seed, --first-seed + 1, ...), the parent first in even pairs and
the change first in odd ones, each for --seconds of cells with tracing off.
Each run's last stdout line is its result.  For every end-to-end metric the
tool prints both sides' median and quartiles and how many pairs the change
won, then the gain verdict of a sandboxed benchmark: the change wins at
least nine tenths of the pairs (ties count for neither side) and the
medians differ, in the better direction, by more than the parent's
interquartile range.  It also compares the final-policy digest of every
cell both runs of a pair made.  Nothing is written under either tree's
`bench/`; bench/run.py itself writes its records to `.bench_out/`.  Each
metric's better direction comes from the parent tree's BENCHMARK.json.

Exit status 0 when every run succeeded and every common cell digest
matched, 1 otherwise; a verdict that does not pass is not an error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9   # share of pairs the change must win for a gain


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by statistics.quantiles'
    default (exclusive) method, the one bench/repeat.py's spread uses."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str) -> dict:
    """The gain verdict for one metric over paired runs: parent[i] and
    change[i] ran as pair i.  `better` is "lower" or "higher".  A pair is
    a win when the change's value is strictly better, a loss when strictly
    worse, and a tie otherwise.  The gain holds when wins reach WIN_SHARE
    of the pairs and the change's median beats the parent's by more than
    the parent's interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gain = sign * (c_q[1] - p_q[1])
    iqr = p_q[2] - p_q[0]
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "parent": p_q, "change": c_q,
            "median_gain": gain, "parent_iqr": iqr,
            "gain": wins >= math.ceil(WIN_SHARE * len(parent)) and gain > iqr}


def better_of(tree: Path) -> dict:
    """Metric -> "lower" or "higher", from the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run of `tree`: its last JSON line, plus the
    digest of each cell from the record it wrote."""
    proc = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    cells = json.loads(record.read_text())["cells"] if record.is_file() else []
    return {"ok": bool(result["correct"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": {c["index"]: c.get("digest") for c in cells}}


def fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    digests_equal = digests_differ = 0
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(trees[side], args.workload, seed, args.seconds) for side in order}
        for side in order:
            runs[side].append(pair[side])
        if not (pair["parent"]["ok"] and pair["change"]["ok"]):
            ok = False
            print(f"pair {i} (seed {seed}): a run failed: "
                  f"{[pair[s].get('error', 'cells failed') for s in order if not pair[s]['ok']]}")
            continue
        common = pair["parent"]["digests"].keys() & pair["change"]["digests"].keys()
        same = sum(pair["parent"]["digests"][c] == pair["change"]["digests"][c] for c in common)
        digests_equal += same
        digests_differ += len(common) - same
        print(f"pair {i} (seed {seed}, {order[0]} first): " + "  ".join(
            f"{m} {pair['parent']['metrics'][m]:.6g} -> {pair['change']['metrics'][m]:.6g}"
            for m in pair["parent"]["metrics"]), flush=True)
    good = [i for i in range(args.pairs) if runs["parent"][i]["ok"] and runs["change"][i]["ok"]]
    if good:
        better = better_of(trees["parent"])
        print(f"\n{args.workload}: {len(good)} complete pairs; median [q1, q3]")
        for m in runs["parent"][good[0]]["metrics"]:
            v = verdict([runs["parent"][i]["metrics"][m] for i in good],
                        [runs["change"][i]["metrics"][m] for i in good], better[m])
            print(f"  {m:<14} parent {fmt(v['parent'])}  change {fmt(v['change'])}  "
                  f"wins {v['wins']}/{v['pairs']} (ties {v['ties']})  "
                  f"median gain {v['median_gain']:.6g} vs parent IQR {v['parent_iqr']:.6g}: "
                  f"{'GAIN' if v['gain'] else 'no gain'}")
    print(f"cell digests: {digests_equal} equal, {digests_differ} differ")
    return 0 if ok and good and digests_differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
