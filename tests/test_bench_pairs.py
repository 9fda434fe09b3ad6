"""The gain verdict of `tools/bench_pairs.py` on synthetic paired runs: no
benchmark process is started."""

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
