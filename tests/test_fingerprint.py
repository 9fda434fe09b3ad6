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
                        "dec6ecc4772ef8ead6416755e5a08a9b69e86644d9fec4757cecbe33d14364f8"),
    "grid-gail-exact": (dict(env=GRID, algorithm="gail", k_max=50),
                        "a85c53996e6ca6baa9f22a84b0b4eae21876762b3531e5316433e7dcda185f4c"),
    "grid-bc": (dict(env=GRID, algorithm="bc"),
                "bddcf2c6775e9c579c9349cceaaacc906cf0c96d90e47100dfd564d3fda7a00a"),
    "grid-wail-sampled": (dict(env=GRID, sampling="sampled", pg_mode="sampled", k_max=20),
                          "3bf3592fe37b361ca880e3dc36464c8292fc2b7f4be8d114f6654c34364f4c85"),
    "grid-wail-sampled-batch-exact-gradient": (dict(env=GRID, sampling="sampled", k_max=30),
                                               "1e3b70256950951c0377c6da85155afc52614bf5ec7196bd99f5f14ce890ff62"),
    "grid30-wail-exact": (AT_SCALE,
                          "5623bbe9ae9600ebe6a69063a0141ccad62ac3e5008304cd08a42cf5506b035a"),
    "grid30-gail-exact": (dict(AT_SCALE, algorithm="gail"),
                          "f6a7ac79cdcaf4e211a8f9c3478021a6b0d16aa00cdc29436dd8a7974fa29381"),
    "cliff-wail-exact": (dict(env=CLIFF, k_max=50),
                         "74c841c9b0bab26b56308a120d9b7112142550817a073f18cbef55cfb1a4faf2"),
    "cliff-gail-exact": (dict(env=CLIFF, algorithm="gail", k_max=50),
                         "0798e7a4413b1e0bea2a69b80c9160a4b8a10b47b78c7190a8c3fc98e3c4de4b"),
    "cliff-bc": (dict(env=CLIFF, algorithm="bc"),
                 "666b64e52d36ffc8a9452e4fa43842304c52818595db1da7559daf091aa5b5e7"),
    "cliff-wail-sampled": (dict(env=CLIFF, sampling="sampled", pg_mode="sampled", k_max=20),
                           "6c70b58eeb2c9584520924afd85e69fc3cbc4040b637cf93133d2198b2e91b90"),
    "cliff-wail-sampled-batch-exact-gradient": (dict(env=CLIFF, sampling="sampled", k_max=30),
                                                "ae67b2f189546f6f831efae81d9fc71d1198b924a050cb9b06280e6f44026f1d"),
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
