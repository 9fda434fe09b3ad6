"""Per-round policy drift between two builds of wail, on the fingerprint cases.

A change that alters floating-point rounding cannot keep the fixed-seed
digests; ROADMAP's equivalence contract instead asks that its per-round
policy logits stay within 1e-8 of the parent's over the first 50 rounds of
every case in tests/test_fingerprint.py.  This tool measures that.

    record --out X.npz
        Run every fingerprint case for 50 rounds with a checkpoint each
        round, in a temporary directory, and store the per-round policy
        logits (shape rounds x S x A) under the case's name.
        Cases without rounds (behaviour cloning) store their final logits as
        one row.  WAIL and GAIL cases also store the parameters of their
        final reward or discriminator file under "<case>.final_params".
    compare A.npz B.npz
        Print, per case, the largest |logit difference| over all rounds and
        then the per-round values, and the largest |final parameter
        difference| for information; a finite final-fit drift is not gated.
        Exit 1 if any of the first 50 rounds' logits differ by more than
        1e-8 or by a non-finite amount (a NaN on either side), or if any
        final parameters differ by a non-finite amount, 2 if the files hold
        different cases or shapes.

Record each side with its own source tree first on the path, e.g.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<parent>/src python tools/round_drift.py record --out parent.npz
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/round_drift.py record --out head.npz
    python tools/round_drift.py compare parent.npz head.npz
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
import tempfile

import numpy as np

TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
ROUNDS = 50  # the contract's window, recorded and compared
TOL = 1e-8   # the contract's largest per-round |logit difference|
FINAL = ".final_params"


def cmd_record(args) -> int:
    sys.path.insert(0, TESTS)
    import test_fingerprint
    import wail

    arrays = {}
    for name, (overrides, _) in sorted(test_fingerprint.CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            config = dataclasses.replace(test_fingerprint.BASE, **{
                **overrides, "k_max": ROUNDS, "checkpoint_every": 1, "out_dir": tmp})
            _, art = wail.run_single(config)
            paths = sorted(glob.glob(os.path.join(tmp, "checkpoints", "iter_*_policy.json")))
            arrays[name] = (np.stack([wail.load_policy(p).logits for p in paths]) if paths
                            else art["policy"].logits[None])
            for artifact in wail.experiments.MODEL_FILES.values():
                if os.path.exists(os.path.join(tmp, artifact)):
                    arrays[name + FINAL] = wail.load_model(os.path.join(tmp, artifact)).params
        print(f"{name}: {arrays[name].shape[0]} rounds", flush=True)
    np.savez(args.out, **arrays)
    return 0


def cmd_compare(args) -> int:
    a, b = np.load(args.a), np.load(args.b)
    if sorted(a.files) != sorted(b.files):
        print(f"different cases: {sorted(a.files)} vs {sorted(b.files)}")
        return 2
    for name in a.files:
        if a[name].shape != b[name].shape:
            print(f"{name}: shapes differ, {a[name].shape} vs {b[name].shape}")
            return 2
    worst, final_finite = 0.0, True
    for name in sorted(n for n in a.files if not n.endswith(FINAL)):
        per_round = np.abs(a[name] - b[name]).reshape(a[name].shape[0], -1).max(axis=1)
        top = int(per_round.argmax())
        print(f"{name}: max |dlogit| {per_round[top]:.3e} at round {top + 1}")
        print("   " + " ".join(f"{v:.1e}" for v in per_round))
        if name + FINAL in a.files:
            drift = float(np.abs(a[name + FINAL] - b[name + FINAL]).max())
            final_finite &= bool(np.isfinite(drift))
            print(f"   final reward or discriminator parameters: max |dparam| {drift:.3e}"
                  + (" (information, not gated)" if np.isfinite(drift) else " (non-finite)"))
        # np.maximum keeps a NaN, which then fails `<= TOL`; Python's max would drop it
        worst = float(np.maximum(worst, per_round[:ROUNDS].max()))
    verdict = "within" if worst <= TOL else "exceeds"
    print(f"largest over the first {ROUNDS} rounds: {worst:.3e} ({verdict} {TOL:g})")
    if not final_finite:
        print("final parameters differ by a non-finite amount")
    return 0 if worst <= TOL and final_finite else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the fingerprint cases and store per-round logits")
    rec.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare", help="largest per-round logit difference of two records")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_record(args) if args.command == "record" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
