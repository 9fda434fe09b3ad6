"""The gain verdict and the no-regression rule of `tools/bench_pairs.py` on
synthetic paired runs: no benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_quartiles_interpolate_exclusively():
    # the default method of statistics.quantiles, as bench/repeat.py's
    # spread; the inclusive one would read PARENT's spread as 99 .. 101
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, q2, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, q2, q3) == (98.75, 100.0, 101.25)


def test_clear_gain_passes():
    v = bench_pairs.verdict(PARENT, [p + 10.0 for p in PARENT], "higher")
    assert (v["wins"], v["losses"], v["ties"]) == (10, 0, 0)
    assert v["median_gain"] == 10.0 and v["parent_iqr"] == 2.5
    assert v["gain"]


def test_nine_of_ten_wins_suffice_and_eight_do_not():
    change = [p + 10.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0
    assert bench_pairs.verdict(PARENT, change, "higher")["wins"] == 9
    assert bench_pairs.verdict(PARENT, change, "higher")["gain"]
    change[1] = PARENT[1] - 1.0
    v = bench_pairs.verdict(PARENT, change, "higher")
    assert (v["wins"], v["losses"]) == (8, 2)
    assert v["median_gain"] > v["parent_iqr"]
    assert not v["gain"]


def test_ties_count_for_neither_side():
    change = [p + 10.0 for p in PARENT]
    change[:2] = PARENT[:2]
    v = bench_pairs.verdict(PARENT, change, "higher")
    assert (v["wins"], v["losses"], v["ties"]) == (8, 0, 2)
    assert not v["gain"]


def test_every_pair_won_inside_the_parent_spread_is_no_gain():
    # the change wins all ten pairs by 1, but the medians differ by less
    # than the parent's interquartile range
    v = bench_pairs.verdict(PARENT, [p + 1.0 for p in PARENT], "higher")
    assert v["wins"] == 10
    assert v["median_gain"] == 1.0 < v["parent_iqr"] == 2.5
    assert not v["gain"]


def test_lower_is_better_reverses_the_direction():
    faster = [p - 10.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, faster, "lower")["gain"]
    v = bench_pairs.verdict(PARENT, faster, "higher")
    assert (v["wins"], v["losses"]) == (0, 10)
    assert v["median_gain"] == -10.0
    assert not v["gain"]


def test_rejects_unpaired_runs_and_unknown_direction():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1], "higher")
    with pytest.raises(ValueError):
        bench_pairs.verdict([], [], "higher")
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT, "faster")


def test_setup_time_a_third_slower_regresses():
    # desk-exact set-up time read 0.1305 -> 0.1755 s, 34% worse than a 25% bound
    r = bench_pairs.regression([0.12, 0.1305, 0.14], [0.17, 0.1755, 0.19], "lower", 0.25)
    assert r["worse_share"] == pytest.approx(0.345, abs=1e-3)
    assert r["regressed"]


def test_faster_rounds_do_not_regress():
    # desk-sampled rounds per second read 264 -> 353: better, not worse
    r = bench_pairs.regression([250.0, 264.0, 270.0], [340.0, 353.0, 360.0], "higher", 0.25)
    assert r["worse_share"] < 0
    assert not r["regressed"]


@pytest.mark.parametrize("better, change", [("lower", 125.0), ("higher", 75.0)])
def test_worse_by_exactly_the_bound_holds(better, change):
    r = bench_pairs.regression(PARENT, [change] * len(PARENT), better, 0.25)
    assert r["worse_share"] == 0.25
    assert not r["regressed"]
    assert bench_pairs.regression(PARENT, [change + (1.0 if better == "lower" else -1.0)]
                                  * len(PARENT), better, 0.25)["regressed"]


def test_several_workloads_get_a_report_each(tmp_path, monkeypatch, capsys):
    # a gain claimed on one workload and a set-up regression on another
    # that the change did not claim: both must show in one command's output
    root = Path(__file__).resolve().parent.parent
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        i, change = seed - 1000, tree.name == "change"
        metrics = {"rounds_per_s": 600.0 + i + (150.0 if change and workload == "desk-sampled"
                                                else 0.0),
                   "setup_s": 0.160 + 0.001 * i + (0.05 if change and workload == "scale-exact"
                                                   else 0.0)}
        return {"ok": True, "metrics": metrics, "digests": {0: workload, 1: workload}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    status = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--workload", "desk-sampled", "--workload", "scale-exact",
                               "--pairs", "10"])
    out = capsys.readouterr().out
    assert status == 0
    # pairs outermost, workloads in the order given, the first side alternating
    assert calls[:8] == [("parent", "desk-sampled", 1000), ("change", "desk-sampled", 1000),
                         ("parent", "scale-exact", 1000), ("change", "scale-exact", 1000),
                         ("change", "desk-sampled", 1001), ("parent", "desk-sampled", 1001),
                         ("change", "scale-exact", 1001), ("parent", "scale-exact", 1001)]
    assert len(calls) == 40
    sampled, scale = out.split("\ndesk-sampled: ")[1], out.split("\nscale-exact: ")[1]
    rows = {name: {line.split()[0]: line for line in text.splitlines()[1:3]}
            for name, text in (("desk-sampled", sampled), ("scale-exact", scale))}
    assert "GAIN" in rows["desk-sampled"]["rounds_per_s"]
    assert "no regression" in rows["desk-sampled"]["setup_s"]
    assert "no gain" in rows["scale-exact"]["rounds_per_s"]
    assert "REGRESSED" in rows["scale-exact"]["setup_s"]
    assert "desk-sampled cell digests: 20 equal, 0 differ" in out
    assert "scale-exact cell digests: 20 equal, 0 differ" in out
