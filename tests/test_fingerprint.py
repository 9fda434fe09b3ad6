"""Fixed-seed fingerprints of short run_single cells.

Each case runs one short cell with out_dir set and hashes, in order: the
final policy logits, metrics.csv, the final reward or discriminator file,
run_meta.json with its config's out_dir removed, demos.jsonl and the
scaled score.  A change that claims byte-identical outputs must leave
every digest as it is.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS),
and agree under OPENBLAS_NUM_THREADS=1 and 2.  Another numpy, scipy or
BLAS build may round differently; on such a build a mismatch says nothing
about the change under test.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wail

GRID = {"name": "gridworld", "n": 5}
# S = 900: past mdp.DENSE_SOLVE_MAX_STATES, so the flow solves take the
# sparse-LU side, and WAIL's cost block is 3600 x the expert support
GRID30 = {"name": "gridworld", "n": 30}
AT_SCALE = dict(env=GRID30, dataset_size=10, delta0=0.1, k_max=5)
CLIFF = {"name": "cliff"}
BASE = wail.RunConfig(dataset_size=2, n_eval=100, n_ref=100)

CASES = {
    "grid-wail-exact": (dict(env=GRID, k_max=50),
                        "a7c3d2d92d0d46a170e2b56e7cd6ecf2bb05ec2d3be9041154fb72f8d2d88bec"),
    "grid-gail-exact": (dict(env=GRID, algorithm="gail", k_max=50),
                        "bc51cb65ebd837a4dcea349c75f8fd9385e777d66e6ddd317c3a9ca16134db43"),
    "grid-bc": (dict(env=GRID, algorithm="bc"),
                "670275aff676d16627eb0788512d1c731c851d1be3db5c30d5e24c1ca7419ce1"),
    "grid-wail-sampled": (dict(env=GRID, sampling="sampled", pg_mode="sampled", k_max=20),
                          "5c832900791b8c25b275cdf4722793a0cbe41eaad0722be296f48e567e9bd57b"),
    "grid-wail-sampled-batch-exact-gradient": (dict(env=GRID, sampling="sampled", k_max=30),
                                               "7b0a3f5cd21d542b3c9cb86bb26d37bec1ec2c17e66e3fe1b7814f9a3d241542"),
    "grid30-wail-exact": (AT_SCALE,
                          "e52b7415be277a14ceed5c5d98c79312d546221d4895c9786e7f0197db362dc1"),
    "grid30-gail-exact": (dict(AT_SCALE, algorithm="gail"),
                          "05bd1f35e9515e36bb0d6d1684f70dc855e9cee3c0c892e110b5538dad76fec0"),
    "cliff-wail-exact": (dict(env=CLIFF, k_max=50),
                         "508f68d13880f2e286aca163e8df61ea9899acb32b3693b2a9daf7de0f3d3b17"),
    "cliff-gail-exact": (dict(env=CLIFF, algorithm="gail", k_max=50),
                         "7981e75f7b84362bd4d1c9ffa0459661a3bbd99854d5e603f2c53449dd7930cd"),
    "cliff-bc": (dict(env=CLIFF, algorithm="bc"),
                 "8e0c3f82fa1d6d3c51542ebca693ef1dc74c1d0eae86d397935e60e14210fbd2"),
    "cliff-wail-sampled": (dict(env=CLIFF, sampling="sampled", pg_mode="sampled", k_max=20),
                           "a7d2fde9d9042722a47e525349a99d92efab02d079d7711c89015e7026a812b0"),
    "cliff-wail-sampled-batch-exact-gradient": (dict(env=CLIFF, sampling="sampled", k_max=30),
                                                "b41e78f093a473b610a6ec549414bf0ce0ea10833594a672c5f41567d4e1f902"),
}

ARTIFACT = {"wail": "reward_final.json", "gail": "discriminator_final.json"}


def fingerprint(overrides: dict, out_dir: str) -> str:
    config = dataclasses.replace(BASE, out_dir=out_dir, **overrides)
    row, art = wail.run_single(config)
    digest = hashlib.sha256(art["policy"].logits.tobytes())

    def read(name):
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()

    if config.algorithm in ARTIFACT:
        digest.update(read("metrics.csv"))
        digest.update(read(ARTIFACT[config.algorithm]))
        meta = json.loads(read("run_meta.json"))
        del meta["config"]["out_dir"]
        digest.update(json.dumps(meta, indent=2).encode())
    digest.update(read("demos.jsonl"))
    digest.update(repr(row["scaled"]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprint_unchanged(name, tmp_path):
    overrides, expected = CASES[name]
    assert fingerprint(overrides, str(tmp_path)) == expected


# sha256 over the row, col and prob bytes of each builder's stored
# transition entries: the dense references in test_sparse_rows and
# test_sampler are rebuilt from these same entries, so the builders'
# output is pinned here on its own
BUILDER_ROWS = {
    "grid5": (lambda: wail.make_gridworld(5),
              "298f9f7d69fcf9ca2aeafe8e7642e6b4caea838c027f8d98d6d57f002d8982db"),
    "grid14-slip": (lambda: wail.make_gridworld(14, slip=0.2),
                    "e12aac82b61723b54b2d7068e0a7b5e28ed7f30032fd7d6b4c000f81ad404ea3"),
    "grid30": (lambda: wail.make_gridworld(30),
               "13e01db2859b6f63fe3f71498c418c1a6bac1a33739f67d338df51d72bac2223"),
    "chain": (wail.make_chain,
              "d70a5db0cf102c2a603aab2e25eab4d049d04aa014f55edc5e0702b5ede57d86"),
    "cliff": (wail.make_cliff,
              "0163bb61035c7307e0a90ed67b6c97eb6e0835eb547e1cb886b5c1f3660115f3"),
    "mountain-car": (wail.make_mountain_car,
                     "615bab92a259ddb96f9689af5cc81dbd140d28abbd795c10d72038c4ae50af0a"),
}


@pytest.mark.parametrize("name", sorted(BUILDER_ROWS))
def test_builder_rows_unchanged(name):
    make, expected = BUILDER_ROWS[name]
    rows = make()._rows
    digest = hashlib.sha256()
    for arr in (rows.row, rows.col, rows.prob):
        assert arr.dtype == (np.float64 if arr is rows.prob else np.int64)
        digest.update(arr.tobytes())
    assert digest.hexdigest() == expected


SRC = Path(__file__).resolve().parent.parent / "src"

# A 5-round 30x30 WAIL cell, run in a fresh interpreter so the BLAS thread
# count holds before numpy loads; prints its final logits' digest.
GRID30_PROBE = """
import hashlib, wail
config = wail.RunConfig(env={"name": "gridworld", "n": 30}, dataset_size=10, delta0=0.1,
                        k_max=5, seed=3)
_, art = wail.run_single(config)
print(hashlib.sha256(art["policy"].logits.tobytes()).hexdigest())
"""


def test_sparse_side_does_not_depend_on_the_blas_thread_count():
    # S = 900 solves every flow system with the sparse LU; the dense side
    # (mountain car, S = 109) still rounds by the thread count
    path = os.environ.get("PYTHONPATH")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
        done = subprocess.run([sys.executable, "-c", GRID30_PROBE],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1
