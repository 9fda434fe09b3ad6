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
                        "e9f8e9191ce2c006f8a3584d4b1396fadeea11f9605805c6c7ef4b62939be8ed"),
    "grid-gail-exact": (dict(env=GRID, algorithm="gail", k_max=50),
                        "a85c53996e6ca6baa9f22a84b0b4eae21876762b3531e5316433e7dcda185f4c"),
    "grid-bc": (dict(env=GRID, algorithm="bc"),
                "bddcf2c6775e9c579c9349cceaaacc906cf0c96d90e47100dfd564d3fda7a00a"),
    "grid-wail-sampled": (dict(env=GRID, sampling="sampled", pg_mode="sampled", k_max=20),
                          "28cbd76a33e574d7aeff4c58c864e1ec198d1633876e9718a6af521ed240ce8f"),
    "grid-wail-sampled-batch-exact-gradient": (dict(env=GRID, sampling="sampled", k_max=30),
                                               "a5d820602eb9ecea77a68b2735f69c3c8d20820dc1d30439bff60c7b334d3581"),
    "grid30-wail-exact": (AT_SCALE,
                          "877be4f8bcaa4356bcc04f7faa127a4c3b5af0d125a6f5d45ea66ae1b01c94bd"),
    "grid30-gail-exact": (dict(AT_SCALE, algorithm="gail"),
                          "f6a7ac79cdcaf4e211a8f9c3478021a6b0d16aa00cdc29436dd8a7974fa29381"),
    "cliff-wail-exact": (dict(env=CLIFF, k_max=50),
                         "623fbc36c547e3d56d95b140bb5d29b87b864fcd8db7ec0fda3e774e86916762"),
    "cliff-gail-exact": (dict(env=CLIFF, algorithm="gail", k_max=50),
                         "0798e7a4413b1e0bea2a69b80c9160a4b8a10b47b78c7190a8c3fc98e3c4de4b"),
    "cliff-bc": (dict(env=CLIFF, algorithm="bc"),
                 "666b64e52d36ffc8a9452e4fa43842304c52818595db1da7559daf091aa5b5e7"),
    "cliff-wail-sampled": (dict(env=CLIFF, sampling="sampled", pg_mode="sampled", k_max=20),
                           "e3d0c1c5645ce92fdd5ff8becf319c772665858d2dafec9ebd4aba6777ad29e6"),
    "cliff-wail-sampled-batch-exact-gradient": (dict(env=CLIFF, sampling="sampled", k_max=30),
                                                "75a8a6b475739f84b6c39134fc1bda37d462ee650981f6380d8df8e62f4cae78"),
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
