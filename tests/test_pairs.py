"""tools/pairs.py's summary, on canned benchmark results: no benchmark runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [{"name": "setup_s", "better": "lower"}, {"name": "test_auroc", "better": "higher"}]


def _result(setup_s: float, test_auroc: float = 0.9, failed: int = 0) -> dict:
    return {"attempted": 100, "failed": failed,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"}, "test_auroc": {"value": test_auroc, "unit": "ratio"}}}


def _runs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": _result(p), "change": _result(c)} for p, c in zip(parent, change)]


def test_sides_alternate_which_runs_first():
    assert pairs.first_sides(3) == [("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_lists_medians_quartiles_and_wins():
    runs = _runs([0.30, 0.31, 0.29, 0.30], [0.28, 0.32, 0.27, 0.28])
    lines = pairs.summary(runs, METRICS)
    assert lines[1].split() == ["setup_s", "0.3000", "[0.2975,", "0.3025]", "0.2800", "[0.2775,", "0.2900]",
                                "3", "of", "4", "pairs"]
    assert lines[2].split()[-3:] == ["of", "4", "pairs"] and lines[2].split()[-4] == "0"  # equal AUROCs tie
    assert lines[-1] == "failed operations: parent 0 of 400, change 0 of 400"


@pytest.mark.parametrize("parent, change, holds", [
    ([0.30 + 0.001 * i for i in range(10)], [0.27 + 0.001 * i for i in range(10)], True),
    # better in 8 of 10 pairs only
    ([0.30 + 0.001 * i for i in range(10)], [0.27] * 8 + [0.4, 0.4], False),
    # better in every pair, but by less than the parent's IQR (0.0045)
    ([0.30 + 0.001 * i for i in range(10)], [0.298 + 0.001 * i for i in range(10)], False),
    # fewer than 10 pairs
    ([0.30 + 0.001 * i for i in range(5)], [0.27 + 0.001 * i for i in range(5)], False),
], ids=["holds", "too-few-wins", "within-iqr", "too-few-pairs"])
def test_claim_rule(parent, change, holds):
    verdict = pairs.summary(_runs(parent, change), METRICS, claim="setup_s")[-1]
    assert verdict.startswith(f"claim setup_s: {'holds' if holds else 'does not hold'};"), verdict


def test_claim_on_a_metric_where_higher_is_better():
    runs = [{"parent": _result(0.3, 0.80 + 0.001 * i), "change": _result(0.3, 0.90 + 0.001 * i)} for i in range(10)]
    assert pairs.summary(runs, METRICS, claim="test_auroc")[-1].startswith("claim test_auroc: holds;")
