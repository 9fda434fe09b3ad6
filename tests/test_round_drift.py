"""Exit codes of `tools/round_drift.py compare` on synthetic records: 0 when
every case stays within the tolerance, 1 above it or on a non-finite drift
of the logits or of the final parameters, 2 when the two files hold
different cases or shapes.  No fingerprint case is run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "round_drift.py"
_spec = importlib.util.spec_from_file_location("round_drift", TOOL)
round_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(round_drift)


def compare(tmp_path, a: dict, b: dict) -> int:
    np.savez(tmp_path / "a.npz", **a)
    np.savez(tmp_path / "b.npz", **b)
    return round_drift.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")])


def shifted(value, at=(1, 0, 0), shape=(3, 2, 2)):
    case = np.zeros(shape)
    case[at] = value
    return case


@pytest.mark.parametrize("value,code", [(0.0, 0), (0.5 * round_drift.TOL, 0),
                                        (2.0 * round_drift.TOL, 1), (np.nan, 1), (np.inf, 1)],
                         ids=["equal", "within", "above", "nan", "inf"])
def test_drift_exit_code(tmp_path, capsys, value, code):
    assert compare(tmp_path, {"case": np.zeros((3, 2, 2))}, {"case": shifted(value)}) == code
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert ("within" if code == 0 else "exceeds") in verdict


def test_nan_on_both_sides_exceeds(tmp_path):
    # nan - nan is nan: a logit that is NaN in both records is no agreement
    assert compare(tmp_path, {"case": shifted(np.nan)}, {"case": shifted(np.nan)}) == 1


def test_nan_in_a_later_case_is_not_dropped(tmp_path):
    # the running largest drift must keep a NaN met after a finite one
    a = {"first": np.zeros((3, 2, 2)), "second": np.zeros((3, 2, 2))}
    b = {"first": shifted(0.5 * round_drift.TOL), "second": shifted(np.nan)}
    assert compare(tmp_path, a, b) == 1


@pytest.mark.parametrize("value,code", [(1.0, 0), (np.nan, 1)], ids=["finite", "nan"])
def test_final_fit_drift_exit_code(tmp_path, capsys, value, code):
    # a finite final-fit drift is information only; a non-finite one fails
    final = round_drift.FINAL
    a = {"case": np.zeros((3, 2, 2)), "case" + final: np.zeros(4)}
    b = {"case": np.zeros((3, 2, 2)), "case" + final: np.array([0.0, value, 0.0, 0.0])}
    assert compare(tmp_path, a, b) == code
    assert ("non-finite" in capsys.readouterr().out) == (code == 1)


@pytest.mark.parametrize("b", [{"other": np.zeros((3, 2, 2))},
                               {"case": np.zeros((3, 2, 2)), "extra": np.zeros((3, 2, 2))},
                               {"case": np.zeros((4, 2, 2))}],
                         ids=["different-case", "extra-case", "different-shape"])
def test_mismatched_records_exit_2(tmp_path, b):
    assert compare(tmp_path, {"case": np.zeros((3, 2, 2))}, b) == 2
