"""End-to-end command-line pipeline tests."""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relgnn
from relgnn.cli import main
from relgnn.tensor import Tensor, load_checkpoint, save_checkpoint


def _run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", "--out", str(out), "--targets", "80", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def gcn_run(synth_dir):
    run = synth_dir.parent / "gcn_run"
    assert main(["train", "--dataset", str(synth_dir), "--model", "gcn", "--hidden", "8", "--out", str(run),
                 "--max-epochs", "4", "--patience", "2"]) == 0
    return run


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--dataset", str(fixtures_dir / "patients_small"), "--bogus"])
    assert exc.value.code == 2


def test_validate_lists_two_tables(capsys, fixtures_dir):
    code, payload, _ = _run(capsys, ["validate", "--dataset", str(fixtures_dir / "patients_small")])
    assert code == 0
    assert payload["n_tables"] == 2
    assert set(payload["tables"]) == {"Patient", "Visit"}


def test_validate_reports_dangling(capsys, fixtures_dir):
    code, payload, _ = _run(capsys, ["validate", "--dataset", str(fixtures_dir / "dangling")])
    assert code == 0
    assert payload["dangling_cells"] >= 1


def test_validate_missing_dataset_fails(capsys, tmp_path):
    code, _, err = _run(capsys, ["validate", "--dataset", str(tmp_path / "nope")])
    assert code == 1
    assert "error:" in err


def test_graph_stats_clinic(capsys, fixtures_dir):
    code, payload, _ = _run(capsys, ["graph-stats", "--dataset", str(fixtures_dir / "clinic")])
    assert code == 0
    assert payload["node_counts"] == {"Doctor": 1, "Patient": 2, "Visit": 3}
    assert any(name.endswith(":reverse") for name in payload["edge_counts"])
    code, forward_only, _ = _run(capsys, ["graph-stats", "--dataset", str(fixtures_dir / "clinic"),
                                          "--no-reverse-edges"])
    assert code == 0
    assert all(name.endswith(":forward") for name in forward_only["edge_counts"])


# graph_stats.json byte for byte, keyed by (fixture, reverse edges on)
_GRAPH_STATS = {
    ("clinic", True): (
        '{\n'
        '  "edge_counts": {\n'
        '    "Visit.doctor_id:forward": 2,\n'
        '    "Visit.doctor_id:reverse": 2,\n'
        '    "Visit.patient_id:forward": 3,\n'
        '    "Visit.patient_id:reverse": 3\n'
        '  },\n'
        '  "in_degree_histogram": {\n'
        '    "0": 3,\n'
        '    "1": 1,\n'
        '    "2": 2\n'
        '  },\n'
        '  "node_counts": {\n'
        '    "Doctor": 1,\n'
        '    "Patient": 2,\n'
        '    "Visit": 3\n'
        '  }\n'
        '}\n'
    ),
    ("clinic", False): (
        '{\n'
        '  "edge_counts": {\n'
        '    "Visit.doctor_id:forward": 2,\n'
        '    "Visit.patient_id:forward": 3\n'
        '  },\n'
        '  "in_degree_histogram": {\n'
        '    "0": 3,\n'
        '    "1": 1,\n'
        '    "2": 2\n'
        '  },\n'
        '  "node_counts": {\n'
        '    "Doctor": 1,\n'
        '    "Patient": 2,\n'
        '    "Visit": 3\n'
        '  }\n'
        '}\n'
    ),
    ("patients_small", True): (
        '{\n'
        '  "edge_counts": {\n'
        '    "Visit.patient_id:forward": 3,\n'
        '    "Visit.patient_id:reverse": 3\n'
        '  },\n'
        '  "in_degree_histogram": {\n'
        '    "0": 3,\n'
        '    "1": 1,\n'
        '    "2": 1\n'
        '  },\n'
        '  "node_counts": {\n'
        '    "Patient": 2,\n'
        '    "Visit": 3\n'
        '  }\n'
        '}\n'
    ),
    ("patients_small", False): (
        '{\n'
        '  "edge_counts": {\n'
        '    "Visit.patient_id:forward": 3\n'
        '  },\n'
        '  "in_degree_histogram": {\n'
        '    "0": 3,\n'
        '    "1": 1,\n'
        '    "2": 1\n'
        '  },\n'
        '  "node_counts": {\n'
        '    "Patient": 2,\n'
        '    "Visit": 3\n'
        '  }\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("fixture, reverse_edges", sorted(_GRAPH_STATS))
def test_graph_stats_json_bytes(fixtures_dir, tmp_path, capsys, fixture, reverse_edges):
    out = tmp_path / "stats"
    argv = ["graph-stats", "--dataset", str(fixtures_dir / fixture), "--out", str(out)]
    assert main(argv + ([] if reverse_edges else ["--no-reverse-edges"])) == 0
    assert (out / "graph_stats.json").read_bytes() == _GRAPH_STATS[fixture, reverse_edges].encode()


# sha256 of graph-stats' stdout and graph_stats.json on a dataset with in-degrees of two digits, whose
# histogram keys sort as text ("10" before "6"), per flag set
_GRAPH_STATS_SHA256 = {
    (): "cd27d420813ce79d9c60c1da009688448c1358bc4857fe036277d667e7ab6dcd",
    ("--no-reverse-edges",): "dc798edd08f8a3d1b70e4caabdafc395bccc535afdb7c58750ad6823e7c88c3c",
}


@pytest.mark.parametrize("flags", sorted(_GRAPH_STATS_SHA256), ids=lambda flags: "".join(flags) or "default")
def test_graph_stats_output_bytes_are_pinned(capsys, tmp_path, flags):
    data, out = tmp_path / "data", tmp_path / "stats"
    assert main(["synth", "--out", str(data), "--targets", "60", "--template", "three_level",
                 "--children", "6", "14", "--seed", "4"]) == 0
    capsys.readouterr()
    assert main(["graph-stats", "--dataset", str(data), "--out", str(out), *flags]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == (out / "graph_stats.json").read_bytes()
    assert hashlib.sha256(printed).hexdigest() == _GRAPH_STATS_SHA256[flags]


# sha256 of `validate`'s stdout, which validate_report.json repeats, on the fixtures and on a synth dataset with
# null cells; the counts come from null masks and codes, and must print as Python ints and floats
_VALIDATE_SHA256 = {
    "clinic": "7fa34838e28f5602e5517cec404f59594c32a6df3b05e21a6fb31e0f33727c6b",
    "dangling": "8d30ba9954c49dceda6fea990059ba3dbf0400273489562291408d3196954ea6",
    "employees": "d3a92c58a06ec31a88a2d1b898f383edb519d68147c8dee0f93783287e9ad357",
    "patients_small": "2e0206795d2c0bf758e10d2bd54cb572b167abd435829f4761aaa7ab0d7cbaba",
    "three_level": "d75bc06ac7b26f2e738cd4f32cdb3ed624263788a6aadf58e5c85bfbb00c39bb",
}


@pytest.mark.filterwarnings("ignore:1 dangling")
@pytest.mark.parametrize("dataset", sorted(_VALIDATE_SHA256))
def test_validate_report_bytes_are_pinned(capsys, fixtures_dir, tmp_path, dataset):
    data, out = fixtures_dir / dataset, tmp_path / "report"
    if dataset == "three_level":
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--targets", "300", "--template", "three_level",
                     "--signal", "grandchild_aggregate", "--children", "1", "4", "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["validate", "--dataset", str(data), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == (out / "validate_report.json").read_bytes()
    assert hashlib.sha256(printed).hexdigest() == _VALIDATE_SHA256[dataset]


def test_synth_writes_dataset(synth_dir):
    for name in ("schema.json", "Target.csv", "Child.csv", "manifest.json", "synth_report.json"):
        assert (synth_dir / name).is_file(), name
    report = json.loads((synth_dir / "synth_report.json").read_text())
    assert report["tables"]["Target"] == 80
    assert 0.4 <= report["positive_rate"] <= 0.6


def test_sample_writes_datapoints(capsys, synth_dir, tmp_path):
    out = tmp_path / "samples"
    code, payload, _ = _run(capsys, ["sample", "--dataset", str(synth_dir), "--out", str(out)])
    assert code == 0
    assert payload["datapoints"] == 80
    assert len((out / "datapoints.jsonl").read_text().splitlines()) == 80
    assert (out / "manifest.json").is_file()


# sha256 of datapoints.jsonl from `relgnn sample` on `three_level_dir`, per flag set, as written by the
# per-record `json.dumps` writer that tests/oracles.py keeps as the reference
_SAMPLE_SHA256 = {
    (): "1026a4995ab036b6937a4b4efe84987de9accaf3c2f49b75988992c918d06a00",
    ("--edge-type-once",): "1026a4995ab036b6937a4b4efe84987de9accaf3c2f49b75988992c918d06a00",
    ("--no-reverse-edges",): "fbf9a0577f1106d0cdce26716c503f0b620345ab92a140f2ee7557c107c93cd2",
    ("--no-reverse-edges", "--edge-type-once"): "fbf9a0577f1106d0cdce26716c503f0b620345ab92a140f2ee7557c107c93cd2",
}


@pytest.fixture(scope="module")
def three_level_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("three_level") / "data"
    assert main(["synth", "--out", str(out), "--targets", "150", "--template", "three_level",
                 "--signal", "grandchild_aggregate", "--children", "1", "4", "--seed", "5"]) == 0
    return out


@pytest.mark.parametrize("flags", sorted(_SAMPLE_SHA256), ids=lambda flags: "".join(flags) or "default")
def test_sample_output_bytes_are_pinned(capsys, three_level_dir, tmp_path, flags):
    out = tmp_path / "samples"
    assert main(["sample", "--dataset", str(three_level_dir), "--out", str(out), *flags]) == 0
    assert hashlib.sha256((out / "datapoints.jsonl").read_bytes()).hexdigest() == _SAMPLE_SHA256[flags]


def _linear_percentile(values, q):
    """The q-th percentile, interpolating linearly between the two nearest order statistics."""
    ordered = sorted(values)
    position = q / 100 * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def test_report_subgraph_sizes_match_the_sampled_datapoints(capsys, synth_dir, gcn_run, tmp_path):
    out = tmp_path / "samples"
    code, sampled, _ = _run(capsys, ["sample", "--dataset", str(synth_dir), "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in (out / "datapoints.jsonl").read_text().splitlines()]
    nodes = [len(record["nodes"]) for record in records]
    forward = [sum(edge["type"].endswith(":forward") for edge in record["edges"]) for record in records]
    assert (sum(nodes), max(nodes)) == (sampled["total_nodes"], sampled["max_nodes"])
    sizes = json.loads((gcn_run / "report.json").read_text())["subgraphs"]
    assert list(sizes) == ["forward_edges", "nodes"]
    for name, counts in (("nodes", nodes), ("forward_edges", forward)):
        assert sizes[name] == {"max": max(counts), "median": pytest.approx(_linear_percentile(counts, 50)),
                               "min": min(counts), "p99": pytest.approx(_linear_percentile(counts, 99))}
    assert sizes["nodes"]["max"] == sampled["max_nodes"]


def test_dfs_writes_features(capsys, synth_dir, tmp_path):
    out = tmp_path / "feats"
    code, payload, _ = _run(capsys, ["dfs", "--dataset", str(synth_dir), "--out", str(out), "--depth", "1"])
    assert code == 0
    lines = (out / "features.csv").read_text().splitlines()
    assert len(lines) == 81
    assert lines[0].startswith("target_id,Child.target_id<__COUNT__*,Child.target_id<__SUM__amount")
    assert payload["rows"] == 80


def _write_parent_child(root, parent_rows, child_rows):
    """A dataset of a target table P (key, label) and a table C whose rows reference it."""
    root.mkdir()
    (root / "schema.json").write_text(json.dumps({"tables": [
        {"name": "P", "file": "P.csv", "columns": [{"name": "id", "kind": "primary_key"},
                                                   {"name": "label", "kind": "categorical", "target": True}]},
        {"name": "C", "file": "C.csv", "columns": [{"name": "id", "kind": "primary_key"},
                                                   {"name": "p", "kind": "foreign_key",
                                                    "references": {"table": "P", "column": "id"}},
                                                   {"name": "x", "kind": "scalar"}]},
    ]}), encoding="utf-8")
    (root / "P.csv").write_text("id,label\n" + "".join(f"{row}\n" for row in parent_rows), encoding="utf-8")
    (root / "C.csv").write_text("id,p,x\n" + "".join(f"{row}\n" for row in child_rows), encoding="utf-8")


def test_dfs_csv_is_utf8_under_an_ascii_locale(tmp_path):
    # a C locale without UTF-8 mode makes the platform's default text encoding ASCII
    data, out = tmp_path / "data", tmp_path / "feats"
    _write_parent_child(data, ["é,1", "b,0"], ["c1,é,2.5", "c2,b,1.0"])
    source = str(Path(relgnn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-m", "relgnn.cli", "dfs", "--dataset", str(data), "--out", str(out),
                           "--depth", "1"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "features.csv").read_text(encoding="utf-8").splitlines()[1].startswith("é,")


_NULL_LABEL = (["p0,1", "p1,", "p2,0"], "null label at table P row 1 column label")
_THIRD_LABEL = (["p0,1", "p1,0", "p2,1", "p3,x", "p4,y"],
                "target column must be binary, found 4 distinct tokens; the third, 'x', at table P row 3 column label")


# `validate` reports null rates, so only a third token fails it
@pytest.mark.parametrize("command, label_rows, message", [
    ("sample", *_NULL_LABEL), ("train", *_NULL_LABEL),
    ("sample", *_THIRD_LABEL), ("train", *_THIRD_LABEL), ("validate", *_THIRD_LABEL),
], ids=["sample-null", "train-null", "sample-third-token", "train-third-token", "validate-third-token"])
def test_bad_label_fails_naming_table_row_and_column(capsys, tmp_path, command, label_rows, message):
    data = tmp_path / "data"
    _write_parent_child(data, label_rows, ["c0,p0,1.0"])
    argv = [command, "--dataset", str(data), "--out", str(tmp_path / "out")]
    code, _, err = _run(capsys, argv + (["--model", "logreg"] if command == "train" else []))
    assert (code, err.splitlines()[-1]) == (1, f"error: {message}")


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("command", ["sample", "train"])
def test_size_cap_below_one_is_rejected_before_any_output(capsys, tmp_path, cap, command):
    # every subgraph holds its target, so no such cap can be honoured, whatever the data
    data, out = tmp_path / "data", tmp_path / "out"
    _write_parent_child(data, ["p0,1", "p1,0"], ["c0,p0,1.0"])
    argv = [command, "--dataset", str(data), "--out", str(out), "--size-cap", str(cap)]
    code, payload, err = _run(capsys, argv + (["--model", "gcn"] if command == "train" else []))
    assert (code, payload) == (1, None)
    assert err == f"error: --size-cap must be at least 1, got {cap}: every subgraph holds its target\n"
    assert not out.exists()


@pytest.mark.parametrize("dropout", ["-0.5", "1.0", "1.5", "nan"])
@pytest.mark.parametrize("model", ["gcn", "mlp"])
def test_dropout_outside_the_unit_interval_is_rejected_before_any_output(capsys, synth_dir, tmp_path, dropout, model):
    out = tmp_path / "out"
    code, payload, err = _run(capsys, ["train", "--dataset", str(synth_dir), "--out", str(out), "--model", model,
                                       "--dropout", dropout, "--folds", "2", "--max-epochs", "1"])
    assert (code, payload) == (1, None)
    assert err == f"error: --dropout must be in [0, 1), got {float(dropout)}: it is the probability of dropping a unit\n"
    assert not out.exists()


def test_sample_empty_target_table_fails_naming_it(capsys, tmp_path):
    data, out = tmp_path / "data", tmp_path / "samples"
    _write_parent_child(data, [], [])
    code, _, err = _run(capsys, ["sample", "--dataset", str(data), "--out", str(out)])
    assert code == 1
    assert err == "error: target table P has no rows to sample\n"
    assert not (out / "datapoints.jsonl").exists()


def test_train_logreg_report(capsys, synth_dir, tmp_path):
    out = tmp_path / "run"
    code, payload, _ = _run(capsys, ["train", "--dataset", str(synth_dir), "--model", "logreg",
                                     "--out", str(out), "--max-epochs", "20"])
    assert code == 0
    assert payload["n_folds"] == 5
    assert len(payload["folds"]) == 5
    assert 0.0 <= payload["mean_test_auroc"] <= 1.0
    report = json.loads((out / "report.json").read_text())
    assert report == payload
    assert "subgraphs" not in report  # a GNN run's only
    for fi in range(5):
        assert (out / f"fold{fi}" / "checkpoint.bin").is_file()
        assert (out / f"fold{fi}" / "encoders.json").is_file()
    assert (out / "manifest.json").is_file()
    assert (out / "model.json").is_file()
    assert (out / "log.txt").is_file()


def test_train_gcn_then_eval(capsys, synth_dir, tmp_path):
    run = tmp_path / "run"
    code, payload, _ = _run(capsys, ["train", "--dataset", str(synth_dir), "--model", "gcn",
                                     "--hidden", "8", "--out", str(run),
                                     "--max-epochs", "4", "--patience", "2"])
    assert code == 0
    assert len(payload["folds"]) == 5
    eval_out = tmp_path / "eval"
    code, metrics, _ = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir),
                                     "--fold", "1", "--out", str(eval_out)])
    assert code == 0
    assert metrics["model"] == "gcn"
    assert metrics["n"] == 80
    assert 0.0 <= metrics["auroc"] <= 1.0
    assert (eval_out / "eval_report.json").is_file()


def test_train_rerun_is_bit_identical(capsys, synth_dir, tmp_path):
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(synth_dir), "--model", "gcn", "--hidden", "8",
            "--out", str(out), "--max-epochs", "4", "--patience", "2"]
    assert main(argv) == 0
    first_report = (out / "report.json").read_bytes()
    first_ckpt = (out / "fold0" / "checkpoint.bin").read_bytes()
    first_manifest = (out / "manifest.json").read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    assert (out / "report.json").read_bytes() == first_report
    assert (out / "fold0" / "checkpoint.bin").read_bytes() == first_ckpt
    assert (out / "manifest.json").read_bytes() == first_manifest


def test_train_dfs_logreg_then_eval(capsys, synth_dir, tmp_path):
    run = tmp_path / "run"
    code, payload, _ = _run(capsys, ["train", "--dataset", str(synth_dir), "--model", "dfs-logreg",
                                     "--depth", "1", "--out", str(run), "--max-epochs", "10"])
    assert code == 0
    assert (run / "fold0" / "dfs_encoders.json").is_file()
    meta = json.loads((run / "model.json").read_text())
    assert meta["depth"] == 1
    assert len(meta["aggspecs"]) == 5
    code, metrics, _ = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert code == 0
    assert metrics["model"] == "dfs-logreg"


def test_train_mlp_runs(capsys, synth_dir, tmp_path):
    code, payload, _ = _run(capsys, ["train", "--dataset", str(synth_dir), "--model", "mlp",
                                     "--out", str(tmp_path / "run"), "--max-epochs", "5"])
    assert code == 0
    assert len(payload["folds"]) == 5


def test_report_keeps_each_folds_history(gcn_run):
    for fold in json.loads((gcn_run / "report.json").read_text())["folds"]:
        history = fold["history"]
        assert len(history) == fold["epochs_run"]
        assert [h["epoch"] for h in history] == list(range(1, fold["epochs_run"] + 1))
        assert history[fold["best_epoch"] - 1]["val_auroc"] == fold["val_auroc"]


def test_eval_scores_the_folds_test_rows_as_train_did(capsys, synth_dir, gcn_run, tmp_path):
    report = json.loads((gcn_run / "report.json").read_text())
    code, metrics, _ = _run(capsys, ["eval", "--run", str(gcn_run), "--dataset", str(synth_dir), "--fold", "1"])
    assert code == 0
    assert metrics["rows"] == "all" and metrics["n"] == 80
    assert metrics["fold_test"]["auroc"] == report["folds"][1]["test_auroc"]
    assert metrics["fold_test"]["accuracy"] == report["folds"][1]["test_accuracy"]
    assert metrics["fold_test"]["n"] == report["folds"][1]["test_n"]
    # another dataset has no rows of the run's plan to score
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--targets", "60", "--seed", "4"]) == 0
    code, metrics, _ = _run(capsys, ["eval", "--run", str(gcn_run), "--dataset", str(other), "--fold", "1"])
    assert code == 0
    assert metrics["rows"] == "all" and metrics["n"] == 60
    assert "fold_test" not in metrics


@pytest.fixture(scope="module")
def dfs_run(synth_dir):
    run = synth_dir.parent / "dfs_run"
    assert main(["train", "--dataset", str(synth_dir), "--model", "dfs-logreg", "--out", str(run),
                 "--folds", "2", "--max-epochs", "2"]) == 0
    return run


@pytest.mark.parametrize("trained, edit, named", [
    ("gcn_run", lambda meta: meta.pop("edge_type_once"), "'edge_type_once'"),
    ("gcn_run", lambda meta: meta["config"].update(bogus=1), "'bogus'"),
    ("gcn_run", lambda meta: meta.update(model="svm"), "'svm'"),
    ("dfs_run", lambda meta: meta["aggspecs"][0].update(aggregator="median"), "'median'"),
    ("dfs_run", lambda meta: meta["aggspecs"][0].update(path=[[9, 9, "reverse"]]), "(9, 9)"),
    ("gcn_run", lambda meta: meta["config"].update(dropout=1.5), "dropout must be in [0, 1), got 1.5"),
    ("dfs_run", lambda meta: meta.update(dropout=-0.5), "dropout must be in [0, 1), got -0.5"),
], ids=["missing-key", "unknown-config-field", "unknown-model", "unknown-aggregator", "hop-out-of-range",
        "gnn-dropout", "baseline-dropout"])
def test_eval_rejects_malformed_model_json(capsys, request, synth_dir, tmp_path, trained, edit, named):
    run = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(trained), run)
    meta = json.loads((run / "model.json").read_text())
    edit(meta)
    (run / "model.json").write_text(json.dumps(meta))
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert code == 1
    assert "model.json" in err and named in err


def test_eval_rejects_a_malformed_checkpoint(capsys, gcn_run, synth_dir, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(gcn_run, run)
    checkpoint = run / "fold0" / "checkpoint.bin"
    raw = checkpoint.read_bytes()
    blocks = raw[20 + int.from_bytes(raw[12:20], "little"):]  # after magic, version, length and manifest
    checkpoint.write_bytes(raw[:12] + (3).to_bytes(8, "little") + b"[1]" + blocks)
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert code == 1
    assert err.strip().splitlines()[-1].startswith(f"error: {checkpoint}: checkpoint manifest entry 0 is 1,")


@pytest.fixture(scope="module")
def three_level_runs(three_level_dir):
    runs = {}
    for model in ("gcn", "logreg"):
        runs[model] = three_level_dir.parent / f"{model}_run"
        assert main(["train", "--dataset", str(three_level_dir), "--model", model, "--hidden", "4",
                     "--out", str(runs[model]), "--folds", "2", "--max-epochs", "1"]) == 0
    return runs


@pytest.mark.parametrize("model", ["gcn", "logreg"])
@pytest.mark.parametrize("dataset, message", [
    ("clinic", 'table Patient: dense_columns[1] is [2, "scalar"], but the table has no further encoded column'),
    ("employees", "3 table encoders for the 1 tables of the database"),
], ids=["clinic", "employees"])
def test_eval_rejects_encoders_of_another_database(capsys, fixtures_dir, three_level_runs, model, dataset, message):
    run = three_level_runs[model]
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(fixtures_dir / dataset)])
    assert (code, err.splitlines()[-1]) == (1, f"error: {run / 'fold0' / 'encoders.json'}: {message}")


def test_eval_names_the_encoders_a_checkpoint_does_not_fit(capsys, three_level_dir, three_level_runs, tmp_path):
    # without its last token a vocabulary is well-formed, so only the checkpoint's embedding shape tells
    # that the model was built from other encoders than the fold was trained with
    run = tmp_path / "run"
    shutil.copytree(three_level_runs["gcn"], run)
    path = run / "fold0" / "encoders.json"
    doc = json.loads(path.read_text())
    color = doc[0]["categorical"]["3"]  # Target.color
    del color[max(color, key=color.get)]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(three_level_dir)])
    assert (code, err.splitlines()[-1]) == (1, f"error: {run / 'fold0' / 'checkpoint.bin'}: parameter emb/t0c3 "
                                               f"has shape (6, 5), but the model built from {path} needs (5, 4)")


@pytest.mark.parametrize("edit, message", [
    (lambda names: names[:3] + names[4:], "no parameter {}, which the model built from {} has"),
    (lambda names: names + ["emb/t9c9"], "parameter {}, which the model built from {} does not have"),
], ids=["missing", "extra"])
def test_eval_names_a_parameter_the_checkpoint_and_model_disagree_on(capsys, three_level_dir, three_level_runs,
                                                                     tmp_path, edit, message):
    run = tmp_path / "run"
    shutil.copytree(three_level_runs["gcn"], run)
    checkpoint = run / "fold0" / "checkpoint.bin"
    arrays = load_checkpoint(checkpoint)
    names = list(arrays)
    kept = edit(names)
    save_checkpoint(checkpoint, {name: Tensor(arrays.get(name, np.zeros(2))) for name in kept})
    odd = next(iter(set(names) ^ set(kept)))
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(three_level_dir)])
    built = run / "fold0" / "encoders.json"
    assert (code, err.splitlines()[-1]) == (1, f"error: {checkpoint}: " + message.format(odd, built))


def _without_median(text):
    entries = json.loads(text)
    del entries[0]["median"]
    return json.dumps(entries)


@pytest.mark.parametrize("trained, name, edit, message", [
    ("gcn_run", "encoders.json", lambda text: "[1]", "1 table encoders for the 2 tables of the database"),
    ("gcn_run", "encoders.json", lambda text: text[:len(text) // 2], "not JSON text ("),
    ("gcn_run", "encoders.json", lambda text: text.replace('"table": 1', '"table": 0'),
     "table Child: encoder 1 is for table 0"),
    ("dfs_run", "dfs_encoders.json", _without_median,
     "entry 0 does not hold a finite median, a finite positive iqr and an all_null flag"),
    ("dfs_run", "dfs_encoders.json", lambda text: json.dumps(json.loads(text)[:3]), "3 feature encoders for 5 aggspecs"),
], ids=["not-encoders", "truncated", "wrong-table", "no-median", "too-few"])
def test_eval_rejects_a_malformed_encoder_file(capsys, request, synth_dir, tmp_path, trained, name, edit, message):
    run = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(trained), run)
    path = run / "fold0" / name
    path.write_text(edit(path.read_text()))
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert code == 1
    assert err.splitlines()[-1].startswith(f"error: {path}: {message}")


def _write_lookup(root, n=40):
    """A target table T of every column kind whose rows reference a lookup table G, whose categorical
    and scalar cells dfs copies onto T."""
    root.mkdir()
    (root / "schema.json").write_text(json.dumps({"tables": [
        {"name": "T", "file": "T.csv", "columns": [
            {"name": "id", "kind": "primary_key"},
            {"name": "g", "kind": "foreign_key", "references": {"table": "G", "column": "id"}},
            {"name": "x", "kind": "scalar"}, {"name": "pos", "kind": "latlong"},
            {"name": "when", "kind": "datetime"}, {"name": "label", "kind": "categorical", "target": True}]},
        {"name": "G", "file": "G.csv", "columns": [
            {"name": "id", "kind": "primary_key"}, {"name": "color", "kind": "categorical"},
            {"name": "note", "kind": "text"}, {"name": "size", "kind": "scalar"}]},
    ]}), encoding="utf-8")
    (root / "T.csv").write_text("id,g,x,pos,when,label\n" + "".join(
        f'{i},g{i % 4},{i / 2},"{i}.5,-{i}.5",2020-{i % 12 + 1:02d}-{i % 28 + 1:02d},{i % 2}\n'
        for i in range(n)), encoding="utf-8")
    (root / "G.csv").write_text("id,color,note,size\n" + "".join(
        f"g{j},{('red', 'blue')[j % 2]},a note of {j} words,{j}.25\n" for j in range(4)), encoding="utf-8")


def _json_slots(value, slots):
    """(container, key) of every value below `value`, a parsed JSON document, appended to `slots`."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        slots.append((value, key))
        _json_slots(child, slots)
    return slots


def test_encoder_files_fuzz_fail_naming_the_file(capsys, tmp_path):
    """Seeded wrong types, deletions and truncations of a GNN fold's encoders.json (every column kind)
    and of a dfs-logreg fold's dfs_encoders.json (scalar and categorical entries): eval fails each with
    exit 1 and a message that names the file, never with a traceback. Tokens stay in their vocabulary:
    without its last token a vocabulary is well-formed, and only the checkpoint can tell."""
    data = tmp_path / "data"
    _write_lookup(data)
    runs = {"encoders.json": tmp_path / "gcn", "dfs_encoders.json": tmp_path / "dfs"}
    for (name, run), model in zip(runs.items(), ("gcn", "dfs-logreg")):
        assert main(["train", "--dataset", str(data), "--model", model, "--hidden", "4", "--out", str(run),
                     "--folds", "2", "--max-epochs", "1", "--seed", "2"]) == 0  # seed 2: both labels in each split
    wrong = (5, 2.5, None, True, [], {}, "x")
    mutations = ("type", "delete", "truncate")
    for seed in range(200):
        rng = np.random.default_rng(seed)
        name, mutation = list(runs)[seed % 2], mutations[seed // 2 % 3]
        path = runs[name] / "fold0" / name
        valid = path.read_text()
        if mutation == "truncate":
            text = valid[:int(rng.integers(0, len(valid)))]
        else:
            doc = json.loads(valid)
            slots = _json_slots(doc, [])
            if mutation == "delete":
                slots = [(c, k) for c, k in slots if not (isinstance(c, dict) and c and
                                                          all(type(v) is int for v in c.values()))]
            container, key = slots[int(rng.integers(0, len(slots)))]
            if mutation == "delete":
                del container[key]
            else:
                choices = [v for v in wrong if type(v) is not type(container[key])]
                container[key] = choices[int(rng.integers(0, len(choices)))]
            text = json.dumps(doc)
        path.write_text(text)
        code, _, err = _run(capsys, ["eval", "--run", str(runs[name]), "--dataset", str(data)])
        path.write_text(valid)
        assert code == 1 and err.splitlines()[-1].startswith(f"error: {path}: "), (seed, mutation, text, err)


@pytest.mark.parametrize("folds", ["0", "1", "81"])
def test_train_rejects_a_fold_count_the_plan_cannot_honour(capsys, synth_dir, tmp_path, folds):
    code, _, err = _run(capsys, ["train", "--dataset", str(synth_dir), "--model", "logreg",
                                 "--out", str(tmp_path / "run"), "--folds", folds])
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: fold count must be between 2 and 80 (the number of ids), got {folds}"


_TRAIN_SPANS = {"training.train", "encode.fit_encoders", "training.evaluate",
                "optim.step", "optim.zero_grad", "tensor.backward"}


@pytest.mark.parametrize("command, spans", [
    ("gcn", _TRAIN_SPANS | {"sampler.batch_sample", "models.build_batch", "encode.encode_node"}),
    ("dfs-logreg", _TRAIN_SPANS | {"dfs.compute_features", "encode.single_table_features",
                                   "encode.encode_node.single_table"}),
    ("sample", {"sampler.batch_sample", "sampler.write_datapoints_jsonl"}),
])
def test_benchmark_tracer_sees_every_layer_call(synth_dir, tmp_path, command, spans):
    # perfbench/tracer.py times each layer by wrapping the names that relgnn.cli, relgnn.models,
    # relgnn.training and relgnn.optim.AdamW look up; a call that bypasses them would read 0 in the
    # benchmark instead of failing.
    # It also counts the sampled nodes through len() of batch_sample's result and each item's num_nodes.
    repo = Path(__file__).resolve().parents[1]
    paths = [str(repo / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    span_file = tmp_path / "spans.json"
    out = tmp_path / "run"
    argv = ["sample"] if command == "sample" else ["train", "--model", command, "--folds", "2", "--max-epochs", "1"]
    proc = subprocess.run([sys.executable, str(repo / "perfbench" / "tracer.py"), str(span_file), "--", *argv,
                           "--dataset", str(synth_dir), "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(span_file.read_text())
    recorded = {trace["names"][span[0]] for span in trace["spans"]}
    assert spans <= recorded
    if command == "sample":
        report = json.loads((out / "sample_report.json").read_text())
        assert trace["counters"]["sampler.nodes_out"] == report["total_nodes"] > 0
    else:  # the minibatch step times, from AdamW.zero_grad entry to AdamW.step exit
        assert trace["step_s"]


def test_train_single_class_fold_fails_cleanly(capsys, tmp_path):
    data = tmp_path / "tiny"
    assert main(["synth", "--out", str(data), "--targets", "40", "--seed", "3"]) == 0
    capsys.readouterr()
    code = main(["train", "--dataset", str(data), "--model", "logreg", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert "positive" in err


def test_gradcheck_subcommand(capsys):
    code, payload, _ = _run(capsys, ["gradcheck", "--model", "gcn"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["checks"]["gcn"] <= 1e-4


def test_module_invocation_subprocess(fixtures_dir):
    # the child imports the same relgnn as this process, from wherever its source directory is
    source = str(Path(relgnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "relgnn.cli", "validate",
                           "--dataset", str(fixtures_dir / "patients_small")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_tables"] == 2
