"""Output checks for the benchmark's CLI invocations, and the failure tally they feed.

Every check returns a list of problems; an empty list means the output passed.
A problem never stops the run: the invocation is counted as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def pairwise_auroc(scores, labels) -> float:
    """P(score of a positive > score of a negative), ties counted half, over all pairs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_datapoints(path: Path, target_table: int, labels, signal_table: int, amounts) -> tuple[list[str], float]:
    """Check `relgnn sample` output: one datapoint per target row, in row order, holding its own
    target and label. Also returns the AUROC of the planted signal (the sum of `amounts` over the
    datapoint's nodes of `signal_table`), which is 1.0 when every subgraph holds all of its
    target's signal rows and the labels carry no noise."""
    problems: list[str] = []
    scores = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read {path}: {exc}"], float("nan")
    if len(lines) != len(labels):
        problems.append(f"{path.name}: {len(lines)} datapoints for {len(labels)} target rows")
    for row, line in enumerate(lines[:len(labels)]):
        try:
            record = json.loads(line)
            target, label = record["target"], record["label"]
            node_ids = [tuple(node["id"]) for node in record["nodes"]]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path.name} line {row + 1}: malformed datapoint ({exc})")
            break
        if target != [target_table, row]:
            problems.append(f"{path.name} line {row + 1}: target {target}, expected {[target_table, row]}")
            break
        if label != int(labels[row]):
            problems.append(f"{path.name} line {row + 1}: label {label}, expected {int(labels[row])}")
            break
        if (target_table, row) not in node_ids:
            problems.append(f"{path.name} line {row + 1}: datapoint does not hold its target node")
            break
        scores.append(sum(amounts[r] for t, r in node_ids if t == signal_table))
    if problems:
        return problems, float("nan")
    planted = pairwise_auroc(scores, labels)
    if not math.isfinite(planted):
        problems.append(f"{path.name}: planted-signal AUROC is not finite")
    return problems, planted


def check_report(report_path: Path, n_folds: int, golden: list[float] | None,
                 tolerance: float) -> tuple[list[str], list[float], float]:
    """Check a `relgnn train` report.json: the fold count, finite AUROCs and, when given,
    per-fold test AUROCs within `tolerance` of the recorded golden values.
    Returns the problems, the per-fold test AUROCs and mean_test_auroc."""
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        aurocs = [float(fold["test_auroc"]) for fold in report["folds"]]
        mean = float(report["mean_test_auroc"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read a train report from {report_path}: {exc}"], [], math.nan
    problems = []
    if len(aurocs) != n_folds:
        problems.append(f"{len(aurocs)} folds reported, expected {n_folds}")
    if not all(math.isfinite(a) for a in aurocs + [mean]):
        problems.append(f"non-finite test AUROC in {aurocs} (mean {mean})")
    if golden is not None and (len(golden) != len(aurocs)
                               or any(abs(a - g) > tolerance for a, g in zip(aurocs, golden))):
        problems.append(f"per-fold test AUROC {aurocs} differs from the recorded {golden} by more than {tolerance}")
    return problems, aurocs, mean


class Tally:
    """Invocations attempted and failed; an invocation fails on a non-zero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
