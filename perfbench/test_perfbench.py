"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import Tally, check_datapoints, check_report  # noqa: E402

TINY_DEEP = run.Dataset("three_level", "grandchild_aggregate", 60, (1, 3), "Grand")
TINY_SHALLOW = run.Dataset("parent_child", "child_aggregate", 200, (1, 4), "Child")


def files_of(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_same_seed_generates_byte_identical_datasets(tmp_path):
    run.make_dataset(run.DEEP, 7, tmp_path / "a")
    run.make_dataset(run.DEEP, 7, tmp_path / "b")
    run.make_dataset(run.DEEP, 8, tmp_path / "c")
    assert files_of(tmp_path / "a") == files_of(tmp_path / "b")
    assert files_of(tmp_path / "a") != files_of(tmp_path / "c")


@pytest.fixture
def tiny_runner(monkeypatch):
    """A Runner on the real CLI with the workloads shrunk to a few dozen targets."""
    runners = []

    def make(workload: str, dataset: run.Dataset, seed: int = run.GOLDEN_SEED, trace: bool = False) -> run.Runner:
        monkeypatch.setitem(run.WORKLOADS, workload, run.Workload(dataset, run.WORKLOADS[workload].invocations))
        runner = run.Runner(ROOT, workload, seed, trace=trace, record_golden=False)
        runners.append(runner)
        return runner

    yield make
    for runner in runners:
        runner.close()


def corrupt(path: Path, how: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    if how == "swap":
        lines[0], lines[1] = lines[1], lines[0]
    elif how == "label":
        record = json.loads(lines[3])
        record["label"] = 1 - record["label"]
        lines[3] = json.dumps(record, sort_keys=True) + "\n"
    elif how == "drop":
        del lines[-1]
    elif how == "garbage":
        lines[5] = "{not json\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("how", ["swap", "label", "drop", "garbage"])
def test_corrupted_datapoints_are_reported(tiny_runner, how):
    runner = tiny_runner("sample-deep", TINY_DEEP, seed=3)
    runner.iteration("i0", traced=False)
    assert (runner.tally.attempted, runner.tally.failed) == (1, 0)
    path = runner.work / "out-sample-main" / "datapoints.jsonl"
    _, expect = runner.data["main"]
    good, planted = check_datapoints(path, expect["target_table"], expect["labels"],
                                     expect["signal_table"], expect["amounts"])
    assert good == [] and planted == 1.0

    corrupt(path, how)
    problems, _ = check_datapoints(path, expect["target_table"], expect["labels"],
                                   expect["signal_table"], expect["amounts"])
    assert problems
    tally = Tally()
    tally.record("sample", [])
    tally.record("sample", problems)
    assert (tally.attempted, tally.failed, tally.fail_rate) == (2, 1, 0.5)


def test_datapoints_other_than_the_recorded_digest_count_as_failures(tiny_runner):
    runner = tiny_runner("sample-deep", TINY_DEEP)
    runner.golden = {"sample-deep": {"sample": {"sha256": "0" * 64}}}
    runner.iteration("i0", traced=False)
    assert (runner.tally.attempted, runner.tally.failed) == (1, 1)
    assert "is not the recorded" in runner.tally.problems[0]


def test_altered_auroc_counts_as_failure(tiny_runner):
    runner = tiny_runner("train-dfs", TINY_DEEP)
    runner.golden = {}
    runner.record_golden = True  # compare nothing; just produce the outputs
    runner.iteration("i0", traced=False)
    assert runner.tally.failed == 0
    recorded = runner.recorded["train-dfs-logreg"]["test_auroc"]

    runner.record_golden = False
    altered = list(recorded)
    altered[2] += 10 * run.AUROC_TOLERANCE
    runner.golden = {"train-dfs": {"train-dfs-logreg": {"test_auroc": altered}}}
    runner.iteration("i1", traced=False)
    assert (runner.tally.attempted, runner.tally.failed) == (2, 1)
    assert "differs from the recorded" in runner.tally.problems[0]
    assert runner.tally.fail_rate == 0.5

    report = runner.work / "out-train-dfs-logreg-main" / "report.json"
    doc = json.loads(report.read_text())
    doc["folds"][0]["test_auroc"] = float("nan")
    report.write_text(json.dumps(doc))
    problems, _, _ = check_report(report, 5, None, run.AUROC_TOLERANCE)
    assert any("non-finite" in p for p in problems)


def test_gnn_workload_runs_clean_under_trace(tiny_runner):
    runner = tiny_runner("train-gnn", TINY_SHALLOW, seed=5, trace=True)
    plain = runner.iteration("i0", traced=False)
    traced = runner.iteration("t0", traced=True)
    assert runner.tally.failed == 0, runner.tally.problems
    metrics, forward_ms, step_ms = traced["layers"]
    assert plain["auroc"] == traced["auroc"]  # tracing does not change what is learned
    assert metrics["encode.encode_node_calls"] > 0 and metrics["models.build_batch_s"] > 0
    assert forward_ms and step_ms
    assert metrics["sampler.scaling_exponent"] > 0
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layer_self + metrics["cli.self_s"] == pytest.approx(metrics["trace.wall_s"])


def test_self_time_subtracts_children_and_splits_forward():
    doc = {
        "names": ["training.train", "models.forward", "tensor.matmul", "training.scores"],
        # name id, parent index, start, end
        "spans": [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0],
                  [3, 0, 5.0, 9.0], [1, 3, 6.0, 8.0]],
        "counters": {},
        "step_s": [0.5],
    }
    s = run.summarize_spans(doc)
    assert s["root"] == 10.0
    assert s["self"] == {"training.train": 3.0, "models.forward": 4.0, "tensor.matmul": 1.0, "training.scores": 2.0}
    assert s["forward"] == {"train": 3.0, "score": 2.0}
    assert s["step_ms"] == [500.0]


def test_benchmark_json_matches_the_runner():
    import tracer

    assert tracer.OPS == run.OPS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
