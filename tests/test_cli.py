import dataclasses
import hashlib
import json
import os

import pytest

import wail
from wail.cli import main
from wail.experiments import derived_seeds

from conftest import FOLDED_CONFIG_KEYS


SURFACE_AS_DISCRIMINATOR_SHA256 = "5e3c7d04afa148129b3e71936dafd9a10221d4638bb70174a93cb395c8afb416"


@pytest.fixture
def config_file(tmp_path):
    cfg = wail.RunConfig(env={"name": "gridworld", "n": 3}, k_max=10,
                         n_eval=50, n_ref=50, dataset_size=2)
    path = tmp_path / "config.json"
    wail.save_config(path, cfg)
    return str(path)


class TestMakeExpert:
    def test_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "expert_out"
        rc = main(["make-expert", "--config", config_file, "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert (out / "mdp.json").exists()
        assert (out / "expert_policy.json").exists()
        demos = wail.load_trajectories(out / "demos.jsonl")
        assert len(demos) == 2

    def test_demos_match_run_single(self, config_file, tmp_path, capsys):
        # make-expert seeds the demonstrations the way run_single does
        main(["make-expert", "--config", config_file, "--out", str(tmp_path / "e")])
        main(["train", "--config", config_file, "--algo", "bc", "--out", str(tmp_path / "bc")])
        assert ((tmp_path / "e" / "demos.jsonl").read_bytes()
                == (tmp_path / "bc" / "demos.jsonl").read_bytes())


class TestTrain:
    def test_bc_end_to_end(self, config_file, tmp_path, capsys):
        out = tmp_path / "bc_out"
        rc = main(["train", "--config", config_file, "--algo", "bc", "--out", str(out)])
        assert rc == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert row["algorithm"] == "bc"
        assert (out / "policy_final.json").exists()

    def test_wail_with_demos_file(self, config_file, tmp_path, capsys):
        expert_out = tmp_path / "e"
        main(["make-expert", "--config", config_file, "--out", str(expert_out)])
        out = tmp_path / "w"
        rc = main(["train", "--config", config_file, "--algo", "wail",
                   "--demos", str(expert_out / "demos.jsonl"), "--out", str(out)])
        assert rc == 0
        assert (out / "policy_final.json").exists()
        assert (out / "reward_final.json").exists()

    @pytest.mark.parametrize("algo,model_file", [("wail", "reward_final.json"),
                                                 ("gail", "discriminator_final.json")])
    def test_trainer_writes_final_artifacts(self, config_file, tmp_path, capsys, algo, model_file):
        out = tmp_path / algo
        rc = main(["train", "--config", config_file, "--algo", algo, "--out", str(out)])
        assert rc == 0
        policy = wail.load_policy(out / "policy_final.json")
        assert policy.logits.shape == (9, 4)
        assert wail.load_model(out / model_file).params.size > 0

    @pytest.mark.parametrize("algo,model_file", [("wail", "reward_final.json"),
                                                 ("gail", "discriminator_final.json"),
                                                 ("bc", None)])
    def test_demos_path_matches_trainer_artifacts(self, config_file, tmp_path, capsys,
                                                  algo, model_file):
        # with --demos, the files run_single writes match a direct trainer call
        expert_out = tmp_path / "e"
        main(["make-expert", "--config", config_file, "--out", str(expert_out)])
        out = tmp_path / algo
        rc = main(["train", "--config", config_file, "--algo", algo,
                   "--demos", str(expert_out / "demos.jsonl"), "--out", str(out)])
        assert rc == 0
        mdp = wail.build_environment({"name": "gridworld", "n": 3})
        demos = wail.load_trajectories(expert_out / "demos.jsonl")
        # the --demos path trains with run_single's derived seed
        config = wail.load_config(config_file)
        config = dataclasses.replace(config, seed=derived_seeds(config.seed)["train"])
        if algo == "bc":
            policy = wail.train_bc(mdp, demos)
        else:
            train = wail.train_wail if algo == "wail" else wail.train_gail
            policy, _, _ = train(mdp, demos, config)
            assert (out / model_file).exists()
            assert (out / "run_meta.json").exists()
        assert wail.load_policy(out / "policy_final.json").logits.tobytes() == policy.logits.tobytes()

    @pytest.mark.parametrize("overrides", [["sampling=sampled", "pg_mode=sampled"],
                                           ["model_form=linear"], ["eval_every=3"]],
                             ids=["sampled-tabular", "exact-linear", "eval-every"])
    def test_demos_path_reproduces_train(self, config_file, tmp_path, capsys, overrides):
        # make-expert writes train's demonstrations, and train --demos is
        # run_single on them, so both runs write the same files
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        main(["make-expert", "--config", config_file, "--out", str(tmp_path / "e"), *sets])
        assert main(["train", "--config", config_file, "--algo", "wail",
                     "--out", str(tmp_path / "run"), *sets]) == 0
        assert main(["train", "--config", config_file, "--algo", "wail",
                     "--demos", str(tmp_path / "e" / "demos.jsonl"),
                     "--out", str(tmp_path / "demos"), *sets]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-1] == printed[-2]
        run, demos = tmp_path / "run", tmp_path / "demos"
        assert (tmp_path / "e" / "demos.jsonl").read_bytes() == (run / "demos.jsonl").read_bytes()
        for name in ("policy_final.json", "reward_final.json", "metrics.csv", "result.json",
                     "demos.jsonl"):
            assert (demos / name).read_bytes() == (run / name).read_bytes()
        metas = [json.loads((d / "run_meta.json").read_text()) for d in (run, demos)]
        for meta in metas:
            del meta["config"]["out_dir"]
        assert metas[0] == metas[1]
        if "eval_every=3" in overrides:
            # the old --demos fork left this column empty
            evaluated = wail.RunLog.load(demos).column("scaled_perf_eval")
            assert evaluated.size == 3

    def test_demos_path_reports_the_demonstrations_trained_on(self, config_file, tmp_path,
                                                             capsys):
        main(["make-expert", "--config", config_file, "--out", str(tmp_path / "e"),
              "--set", "dataset_size=2"])
        out = tmp_path / "bc"
        assert main(["train", "--config", config_file, "--algo", "bc",
                     "--demos", str(tmp_path / "e" / "demos.jsonl"), "--out", str(out),
                     "--set", "dataset_size=7"]) == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert row["dataset_size"] == 2
        assert json.loads((out / "result.json").read_text())["dataset_size"] == 2
        assert len(wail.load_trajectories(out / "demos.jsonl")) == 2

    @pytest.mark.parametrize("command", [["surface", "--reward", "{reward}"], ["train"]],
                             ids=["surface", "train"])
    @pytest.mark.parametrize("step", [[2, 5], [40, 1]], ids=["action-past-A", "state-past-S"])
    def test_out_of_range_demo_step_is_a_validation_error(self, config_file, tmp_path, capsys,
                                                          command, step):
        # on the 9-state, 4-action grid, surface --demos used to accept
        # [2, 5] (flat index 2 * 4 + 5 is state 3, action 1) and to die with
        # an IndexError traceback on [40, 1]
        demos = tmp_path / "demos.jsonl"
        demos.write_text(json.dumps({"steps": [[0, 1], step], "truncated": True}) + "\n")
        reward = tmp_path / "reward.json"
        wail.save_model(reward, wail.create_model("tabular", (36,), 0))
        argv = [arg.format(reward=reward) for arg in command]
        rc = main([*argv, "--config", config_file, "--demos", str(demos),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "validation error: expert pairs out of MDP bounds\n"
        assert not (tmp_path / "out").exists()

    def test_divergence_exit_code(self, config_file, tmp_path, capsys):
        rc = main(["train", "--config", config_file, "--algo", "wail",
                   "--out", str(tmp_path / "d"),
                   "--set", "epsilon=1e-6", "--set", "ot_lr=1e6",
                   "--set", "k_max=40"])
        assert rc == 2

    def test_validation_exit_code(self, config_file, capsys):
        rc = main(["train", "--config", config_file, "--set", "epsilon=-1"])
        assert rc == 1

    @pytest.mark.parametrize("override", ["k_max=2.5", "k_max=true", "l1=3.5", "dataset_size=1.5",
                                          "traj_len=2.5", "n_eval=3.5", "seed=0.5"])
    def test_fractional_or_boolean_count_is_a_validation_error(self, config_file, tmp_path,
                                                              capsys, override):
        # these used to raise TypeError after set-up, or (true) run as 1
        rc = main(["train", "--config", config_file, "--out", str(tmp_path / "v"),
                   "--set", override])
        assert rc == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_overrides_complete_a_config_file_before_its_check(self, tmp_path, capsys):
        # the file and --set are merged first, and the merged config checked once
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"env": {"name": "gridworld", "n": 3}, "k_max": -1,
                                    "n_eval": 50, "n_ref": 50}))
        assert main(["train", "--config", str(path), "--algo", "bc"]) == 1
        assert "k_max must be >= 0" in capsys.readouterr().err
        assert main(["train", "--config", str(path), "--set", "k_max=3"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["algorithm"] == "wail"

    def test_unknown_config_key_rejected(self, config_file, capsys):
        rc = main(["train", "--config", config_file, "--set", "nonsense=1"])
        assert rc == 1

    @pytest.mark.parametrize("name", FOLDED_CONFIG_KEYS)
    def test_folded_config_key_rejected(self, config_file, capsys, name):
        assert main(["train", "--config", config_file, "--set", f"{name}=1"]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ['{"name":"gridworld","m":3}', '{"name":"gridworld","n":"3"}',
                                     '{"name":"gridworld","n":2.5}',
                                     '{"name":"gridworld","n":3,"goal":2.5}',
                                     '{"name":"gridworld","n":3,"gamma":"0.9"}',
                                     '{"name":"gridworld","n":3,"slip":"0.1"}'],
                             ids=["unknown-key", "string-size", "fractional-size",
                                  "fractional-goal", "string-gamma", "string-slip"])
    def test_bad_environment_spec_is_a_validation_error(self, config_file, tmp_path, capsys, env):
        # these used to stop with a TypeError traceback, or (goal 2.5) ran
        # with the goal truncated to a cell
        rc = main(["train", "--config", config_file, "--out", str(tmp_path / "v"),
                   "--set", f"env={env}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: environment") and err.count("\n") == 1

    def test_gamma_near_one_is_a_validation_error(self, config_file, tmp_path, capsys,
                                                  monkeypatch):
        # this gamma's horizon is 1.4e13 steps: the run used to hang in soft
        # value iteration; the MDP's constructor now rejects it, and the
        # test stops rather than run the expert should it get that far
        def never(*args, **kwargs):
            raise AssertionError("a near-1 gamma reached soft value iteration")

        monkeypatch.setattr(wail.envs, "soft_value_iteration", never)
        rc = main(["train", "--config", config_file, "--out", str(tmp_path / "v"),
                   "--set", 'env={"name":"gridworld","n":5,"gamma":0.999999999999}'])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: gamma 0.999999999999: horizon")
        assert "MAX_HORIZON" in err and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["[]", "{}"], ids=["list", "dict"])
    def test_non_string_environment_name_is_a_validation_error(self, config_file, tmp_path,
                                                               capsys, name):
        # an unhashable name used to stop with a TypeError traceback at the
        # builder lookup
        rc = main(["train", "--config", config_file, "--out", str(tmp_path / "v"),
                   "--set", f'env={{"name":{name},"n":3}}'])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: env.name must be a string")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_scalar_layer_sizes_are_a_validation_error(self, config_file, tmp_path, capsys):
        # tuple(5) used to raise TypeError, from --set or from the config file
        rc = main(["train", "--config", config_file, "--set", "mlp_hidden=5"])
        assert rc == 1
        assert "mlp_hidden must be two ints" in capsys.readouterr().err
        path = tmp_path / "scalar_layers.json"
        path.write_text(json.dumps({"mlp_hidden": 5}))
        assert main(["train", "--config", str(path)]) == 1
        assert "mlp_hidden must be two ints" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train", "--config", "{missing}"],
                                         ["eval", "--policy", "{missing}"],
                                         ["train", "--algo", "bc", "--demos", "{missing}"]],
                             ids=["config", "policy", "demos"])
    def test_missing_input_file_is_a_validation_error(self, config_file, tmp_path, capsys,
                                                      command):
        missing = str(tmp_path / "no_such_file.json")
        argv = [arg.format(missing=missing) for arg in command]
        if "--config" not in argv:
            argv += ["--config", config_file]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and missing in err and err.count("\n") == 1

    @pytest.mark.parametrize("command,files,named", [
        (["eval", "--policy", "{f}"], {"f": "{}"}, "'logits'"),
        (["train", "--algo", "bc", "--demos", "{f}"], {"f": '{"steps": [[0, 1]]}\n'},
         "'truncated'"),
        (["surface", "--reward", "{f}"], {"f": '{"form": "tabular"}'}, "'dims'"),
        (["train", "--config", "{f}"], {"f": "null"}, "JSON object"),
        (["train", "--config", "{f}"], {"f": "[]"}, "JSON object"),
        (["train", "--set", "out_dir=5"], {}, "out_dir"),
        (["train", "--set", "seed=-1"], {}, "seed"),
        (["eval", "--policy", "{f}"], {"f": '{"logits": {"a": 1}}'}, "'logits'"),
        (["surface", "--reward", "{f}"],
         {"f": '{"form": "tabular", "dims": 36, "params": [], "seed": 0}'}, "'dims'"),
        (["surface", "--reward", "{f}"],
         {"f": '{"form": "tabular", "dims": [], "params": [], "seed": 0}'}, "dims"),
        (["train", "--algo", "bc", "--demos", "{f}"],
         {"f": '{"steps": [[0, 1.5]], "truncated": false}\n'}, "'steps'"),
        (["surface", "--reward", "{f}"],
         {"f": json.dumps(wail.model_to_json(wail.create_model("tabular", (10,))))}, "10"),
        (["surface", "--reward", "{f}"],
         {"f": json.dumps(wail.model_to_json(wail.create_model("tabular", (100,))))}, "100"),
        (["train", "--config", "{d}"], {"d": None}, "Is a directory"),
        (["eval", "--policy", "{d}"], {"d": None}, "Is a directory"),
        (["train", "--algo", "bc", "--demos", "{d}"], {"d": None}, "Is a directory"),
        (["train", "--out", "{f}"], {"f": "{}"}, "File exists"),
    ], ids=["policy-without-logits", "demo-without-truncated", "reward-without-dims",
            "null-config", "array-config", "numeric-out-dir", "negative-seed",
            "policy-logits-object", "reward-dims-number", "reward-dims-empty",
            "demo-fractional-action", "tabular-reward-too-short", "tabular-reward-too-long",
            "directory-config", "directory-policy", "directory-demos", "out-is-a-file"])
    def test_malformed_input_is_a_validation_error(self, config_file, tmp_path, capsys,
                                                   command, files, named):
        # each used to stop with a KeyError, TypeError or (a tabular reward
        # for fewer than the grid's 36 points) IndexError traceback, or (an
        # array config) to run the default config, or (seed -1) to fail
        # without naming the field, or (a fractional action) to be
        # truncated, or (a tabular reward for more points) to be read from
        # its first 36 entries, or (a directory as an input file, an
        # existing file as --out) to stop with an OSError traceback, the
        # last only after training; a None file is made a directory
        paths = {}
        for key, text in files.items():
            paths[key] = tmp_path / f"{key}.json"
            if text is None:
                paths[key].mkdir()
            else:
                paths[key].write_text(text)
        argv = [arg.format(**paths) for arg in command]
        if "--config" not in argv:
            argv += ["--config", config_file]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]   # --set overrides --out
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command,text,where", [
        (["train", "--config", "{f}"], '{"seed": 1,\n "k_max": }\n', "line 2 column 11"),
        (["eval", "--policy", "{f}"], "{logits: [[0.0]]}", "line 1 column 2"),
        (["train", "--algo", "bc", "--demos", "{f}"],
         '{"steps": [[0, 1]], "truncated": false}\n{"steps": [[0, 1]],\n', "line 2 column 20"),
        (["surface", "--reward", "{f}"], '{"form": "tabular" "dims": [36]}', "line 1 column 20"),
    ], ids=["config", "policy", "demos", "reward"])
    def test_json_syntax_error_names_the_file_and_line(self, config_file, tmp_path, capsys,
                                                       command, text, where):
        # a syntax error used to name neither the file nor, in a JSON-lines
        # file, its line: "Expecting ...: line 1 column 2 (char 1)"
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [arg.format(f=path) for arg in command]
        if "--config" not in argv:
            argv += ["--config", config_file]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert f"{path} {where}: invalid JSON" in err


class TestEvalAndSurface:
    def test_eval_roundtrip(self, config_file, tmp_path, capsys):
        out = tmp_path / "bc_out"
        main(["train", "--config", config_file, "--algo", "bc", "--out", str(out)])
        rc = main(["eval", "--config", config_file, "--policy",
                   str(out / "policy_final.json"), "--out", str(tmp_path / "ev")])
        assert rc == 0
        doc = json.loads((tmp_path / "ev" / "eval.json").read_text())
        assert {"mean", "std", "scaled", "expert_ref", "random_ref"} <= set(doc)

    @pytest.mark.parametrize("shape", [(4, 4), (16, 4), (9, 3)])
    def test_eval_rejects_policy_of_another_shape(self, config_file, tmp_path, capsys, shape):
        # on the 9-state, 4-action grid a smaller policy used to crash with
        # IndexError and a larger or 3-action one was silently scored
        path = tmp_path / "policy.json"
        wail.save_policy(path, wail.SoftmaxPolicy.uniform(*shape))
        rc = main(["eval", "--config", config_file, "--policy", str(path)])
        assert rc == 1
        assert "validation error" in capsys.readouterr().err

    def test_eval_reproduces_train_result(self, config_file, tmp_path, capsys):
        # eval seeds references and evaluation the way run_single does
        out = tmp_path / "w"
        main(["train", "--config", config_file, "--algo", "wail", "--out", str(out)])
        main(["eval", "--config", config_file, "--policy", str(out / "policy_final.json"),
              "--out", str(tmp_path / "ev")])
        doc = json.loads((tmp_path / "ev" / "eval.json").read_text())
        result = json.loads((out / "result.json").read_text())
        for key in ("mean", "std", "scaled", "expert_ref", "random_ref"):
            assert doc[key] == result[key]

    def test_surface_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "w"
        main(["train", "--config", config_file, "--algo", "wail", "--out", str(out)])
        rc = main(["surface", "--config", config_file,
                   "--reward", str(out / "reward_final.json"),
                   "--out", str(tmp_path / "surf"), "--grid-n", "9"])
        assert rc == 0
        surf = wail.load_surface(tmp_path / "surf" / "surface.csv")
        assert surf.scores.shape == (9, 9)

    def test_surface_as_discriminator(self, config_file, tmp_path, capsys):
        # The digest was recorded with numpy 2.4.6 and scipy 1.17.1
        # (OpenBLAS); another build may round differently, and a mismatch
        # there says nothing about the change under test.
        out = tmp_path / "g"
        assert main(["train", "--config", config_file, "--algo", "gail", "--out", str(out)]) == 0
        csvs = {}
        for flag in ([], ["--as-discriminator"]):
            surf_out = tmp_path / ("disc" if flag else "plain")
            rc = main(["surface", "--config", config_file, *flag,
                       "--reward", str(out / "discriminator_final.json"),
                       "--demos", str(out / "demos.jsonl"),
                       "--out", str(surf_out), "--grid-n", "9"])
            assert rc == 0
            csvs[bool(flag)] = (surf_out / "surface.csv").read_bytes()
        assert hashlib.sha256(csvs[True]).hexdigest() == SURFACE_AS_DISCRIMINATOR_SHA256
        assert csvs[True] != csvs[False]


class TestGrid:
    def test_grid_success_exit(self, config_file, tmp_path, capsys):
        rc = main(["grid", "--config", config_file, "--algos", "bc",
                   "--sizes", "1,2", "--seeds", "0", "--out", str(tmp_path / "g")])
        assert rc == 0
        rows = wail.load_summary(tmp_path / "g" / "summary.csv")
        assert len(rows) == 2

    def test_partial_failure_exit(self, config_file, tmp_path, capsys):
        rc = main(["grid", "--config", config_file, "--algos", "wail,bc",
                   "--sizes", "1", "--seeds", "0", "--out", str(tmp_path / "g"),
                   "--set", "epsilon=1e-6", "--set", "ot_lr=1e6",
                   "--set", "k_max=40"])
        assert rc == 3
        assert (tmp_path / "g" / "failures.json").exists()
        rows = wail.load_summary(tmp_path / "g" / "summary.csv")
        assert [r["algorithm"] for r in rows] == ["bc"]

    def test_invalid_cell_fails_alone(self, config_file, tmp_path, capsys):
        # a size-0 cell's config fails its check inside the cell, so the
        # grid records it and runs the others
        rc = main(["grid", "--config", config_file, "--algos", "bc",
                   "--sizes", "0,1", "--seeds", "0", "--out", str(tmp_path / "g")])
        assert rc == 3
        failures = json.loads((tmp_path / "g" / "failures.json").read_text())
        assert [(f["dataset_size"], f["error"]) for f in failures] == [
            (0, "ValueError: dataset_size must be > 0, got 0")]
        rows = wail.load_summary(tmp_path / "g" / "summary.csv")
        assert [r["dataset_size"] for r in rows] == [1]
