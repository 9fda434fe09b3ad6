"""One benchmark worker process: set-up timing and a closed loop of cells.

    python3 bench/worker.py setup --workload desk-exact --seed 1
    python3 bench/worker.py cells --workload desk-exact --seed 1 --seconds 20
    python3 bench/worker.py cells --workload desk-exact --seed 1 --cells 8 --trace --spans out.json

`run.py` starts this script with BLAS threads pinned and `src` on
PYTHONPATH; it prints one JSON object on stdout.  Only the standard library
is imported at module level, so the set-up timing includes `import wail`
and everything it pulls in (numpy, scipy).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import resource
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload exists, and which layer it loads, is in README.md.
WORKLOADS = {
    # 5x5 gridworld at the desk defaults (800 rounds, one demonstration),
    # alternating wail and gail cells: tiny solves, Python overhead dominates.
    "desk-exact": {"algorithms": ("wail", "gail"), "config": {}, "nominal_cell_s": 1.2},
    # 30x30 gridworld (S = 900): dense solves and the (S*A)^2 ground metric.
    # Ten demonstrations and a 0.1 KL budget reach a steady score in 20 rounds.
    "scale-exact": {"algorithms": ("wail",),
                    "config": {"env": {"name": "gridworld", "n": 30}, "k_max": 20,
                               "dataset_size": 10, "delta0": 0.1},
                    "nominal_cell_s": 8.0},
    # 5x5 gridworld in sampled mode: the restart-chain sampler and the
    # score-function gradient dominate.
    "desk-sampled": {"algorithms": ("wail",),
                     "config": {"sampling": "sampled", "pg_mode": "sampled", "k_max": 50},
                     "nominal_cell_s": 1.3},
}


def trace_cells(workload: str, seconds: float) -> int:
    """Cells on each side of a traced run: half of `seconds` at the
    workload's nominal cell time (measured on a 2-vCPU box), in whole
    rotations.  A count fixed by the arguments, not by the clock, makes two
    traced runs of one seed trace the same cells."""
    spec = WORKLOADS[workload]
    rotation = len(spec["algorithms"])
    return rotation * max(1, round(seconds / 2 / spec["nominal_cell_s"] / rotation))


def cell_config(workload: str, seed: int, index: int):
    """RunConfig of cell `index`; its seed derives from the workload seed."""
    import numpy as np
    import wail

    spec = WORKLOADS[workload]
    algos = spec["algorithms"]
    cell_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return wail.RunConfig(**copy.deepcopy(spec["config"]), algorithm=algos[index % len(algos)],
                          seed=cell_seed)


def timed_setup(workload: str, seed: int) -> float:
    """Wall time of import wail + build_environment + make_expert +
    reference_returns for the workload's first cell, as direct calls."""
    t0 = time.perf_counter()
    import wail
    cfg = cell_config(workload, seed, 0)
    mdp = wail.build_environment(cfg.env)
    expert, _ = wail.make_expert(mdp, cfg.expert_lambda, n_traj=cfg.dataset_size,
                                 traj_len=cfg.traj_len, seed=cfg.seed)
    wail.reference_returns(mdp, expert, n_ref=cfg.n_ref, seed=cfg.seed + 1)
    return time.perf_counter() - t0


def run_cells(workload: str, seed: int, seconds: float | None = None,
              n_cells: int | None = None, tracer=None) -> list[dict]:
    """Closed loop, concurrency 1: each cell is one `wail.run_single` and the
    next starts when it returns.  Stops after `n_cells`, or once `seconds`
    have passed at the end of a whole rotation of the workload's algorithms.
    A cell fails when it raises or its final logits or score are not finite."""
    import numpy as np
    import wail

    algos = len(WORKLOADS[workload]["algorithms"])
    cells = []
    start = time.perf_counter()
    while True:
        i = len(cells)
        if n_cells is not None and i >= n_cells:
            break
        if n_cells is None and i % algos == 0 and time.perf_counter() - start >= seconds:
            break
        cfg = cell_config(workload, seed, i)
        if tracer is not None:
            tracer.cell = i
        t = time.perf_counter()
        try:
            row, art = wail.run_single(cfg)
        except Exception as err:   # noqa: BLE001 - a failing cell is counted, the loop goes on
            cells.append({"index": i, "algorithm": cfg.algorithm, "ok": False,
                          "wall_s": time.perf_counter() - t,
                          "error": f"{type(err).__name__}: {err}"})
            continue
        wall = time.perf_counter() - t
        logits = art["policy"].logits
        cells.append({"index": i, "algorithm": cfg.algorithm, "wall_s": wall,
                      "ok": bool(np.isfinite(logits).all()) and math.isfinite(row["scaled"]),
                      "rounds": int(art["log"].meta["iterations_run"]),
                      "score": float(row["scaled"]),
                      "digest": hashlib.sha256(logits.tobytes()).hexdigest()})
    if tracer is not None:
        tracer.cell = -1
    return cells


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "cells"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--cells", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="file for the recorded spans (with --trace)")
    args = p.parse_args(argv)
    out = {"setup_s": timed_setup(args.workload, args.seed)}
    if args.mode == "cells":
        if (args.seconds is None) == (args.cells is None):
            p.error("cells mode needs exactly one of --seconds and --cells")
        if args.trace:
            import tracing
            with tracing.Tracer() as tracer:
                cells = run_cells(args.workload, args.seed, args.seconds, args.cells, tracer)
            rounds = {a: sum(c.get("rounds", 0) for c in cells if c["algorithm"] == a)
                      for a in ("wail", "gail")}
            layers, absent = tracing.layer_metrics(
                tracer.spans, tracer.names,
                {"rounds": rounds["wail"] + rounds["gail"], "wail_rounds": rounds["wail"],
                 "gail_rounds": rounds["gail"], "cells": len(cells)})
            out |= {"layers": layers, "absent": sorted(absent),
                    "untraced_methods": sorted(tracer.missing), "n_spans": len(tracer.spans)}
            if args.spans:
                tracer.dump(args.spans)
        else:
            cells = run_cells(args.workload, args.seed, args.seconds, args.cells)
        out["cells"] = cells
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    for var in BLAS_VARS:   # before numpy loads; run.py sets them already
        os.environ.setdefault(var, "1")
    sys.exit(main())
