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
                        "d6596a34deaf0130df5330ff821ed53a61c2b8cea6012a6778a479874514645f"),
    "grid-gail-exact": (dict(env=GRID, algorithm="gail", k_max=50),
                        "5c62ad07530ba94bbb2bffcc723a80eb8e1efc9266951b076db6c226e0a672a3"),
    "grid-bc": (dict(env=GRID, algorithm="bc"),
                "bddcf2c6775e9c579c9349cceaaacc906cf0c96d90e47100dfd564d3fda7a00a"),
    "grid-wail-sampled": (dict(env=GRID, sampling="sampled", pg_mode="sampled", k_max=20),
                          "02dcdca817103286b0db3efd2e657295b88422ae915961b5bfd60b80f0af1b69"),
    "grid-wail-sampled-batch-exact-gradient": (dict(env=GRID, sampling="sampled", k_max=30),
                                               "1d59ebfcfae558454a58b1ca462720d96649ba227f141a61f4032af07cacd39c"),
    "grid30-wail-exact": (AT_SCALE,
                          "a498637003d9a0c66552944f3389dfbef2496823a70011f99ced13453355d214"),
    "grid30-gail-exact": (dict(AT_SCALE, algorithm="gail"),
                          "ce6aece1cd7588816f9cb34a294955715d596f04b462d21d087eebc9a3b451af"),
    "cliff-wail-exact": (dict(env=CLIFF, k_max=50),
                         "42e7381200de81872e1813e51b752935a06dde02136727132a9cae53dc2c2152"),
    "cliff-gail-exact": (dict(env=CLIFF, algorithm="gail", k_max=50),
                         "d5b20a70ffb300ecf4d8aeb83585acac807cc6bfe9de561399ce7c30ef2e5b38"),
    "cliff-bc": (dict(env=CLIFF, algorithm="bc"),
                 "666b64e52d36ffc8a9452e4fa43842304c52818595db1da7559daf091aa5b5e7"),
    "cliff-wail-sampled": (dict(env=CLIFF, sampling="sampled", pg_mode="sampled", k_max=20),
                           "e99111f02555884ef0ffc706013dcd39ebf1bfc86612c7fced2e9991bd4bc988"),
    "cliff-wail-sampled-batch-exact-gradient": (dict(env=CLIFF, sampling="sampled", k_max=30),
                                                "db7748f69b5dcfdbfa901aa920e39612c50e20be879706765e022e55f3a8578e"),
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
