"""End-to-end command-line pipeline tests."""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import relgnn
from relgnn import cli
from relgnn.cli import _build_parser, main
from relgnn.tensor import Tensor, load_checkpoint, save_checkpoint
from test_training import gc_disabled


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


# only synth, train and gradcheck read a seed
@pytest.mark.parametrize("command", ["validate", "graph-stats", "sample", "dfs", "eval"])
def test_seed_is_rejected_where_nothing_reads_it(capsys, fixtures_dir, tmp_path, command):
    argv = [command, "--dataset", str(fixtures_dir / "patients_small"), "--out", str(tmp_path / "out"), "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--run", str(tmp_path)] if command == "eval" else []))
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_lists_two_tables(capsys, fixtures_dir):
    code, payload, _ = _run(capsys, ["validate", "--dataset", str(fixtures_dir / "patients_small")])
    assert code == 0
    assert payload["n_tables"] == 2
    assert set(payload["tables"]) == {"Patient", "Visit"}


def test_validate_reports_dangling(capsys, fixtures_dir):
    with pytest.warns(UserWarning, match="dangling"):
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


# sha256 of datapoints.jsonl from `relgnn sample` on a 600-target `three_level` dataset, about 6,000
# nodes: a file that the writer builds in several chunks of records
_LONG_SAMPLE_SHA256 = {
    (): "be3e9e9dd3966ede8a655c1d285e9ecd23a2e1be63eb0ddcbf61db3358007195",
    ("--no-reverse-edges",): "4938d9cb72c32de3fc62a2f8969050565e0424f9c0236b0b11f8678d649343e1",
}


@pytest.fixture(scope="module")
def three_level_600_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("three_level_600") / "data"
    assert main(["synth", "--out", str(out), "--targets", "600", "--template", "three_level",
                 "--signal", "grandchild_aggregate", "--children", "1", "4", "--seed", "5"]) == 0
    return out


@pytest.mark.parametrize("flags", sorted(_LONG_SAMPLE_SHA256), ids=lambda flags: "".join(flags) or "default")
def test_many_chunk_sample_output_bytes_are_pinned(capsys, three_level_600_dir, tmp_path, flags):
    out = tmp_path / "samples"
    assert main(["sample", "--dataset", str(three_level_600_dir), "--out", str(out), *flags]) == 0
    assert hashlib.sha256((out / "datapoints.jsonl").read_bytes()).hexdigest() == _LONG_SAMPLE_SHA256[flags]


# sha256 of features.csv from `relgnn dfs` on `three_level_dir`, keyed by the target's primary key, and
# with that key declared as text, which leaves the target table without one and keys it by row number
_DFS_SHA256 = {
    "primary_key": "517545d2e13d76dbe3cc536709d22ba264538da88a62d0a39068895293ad9b29",
    "text": "6585c8b75b845fa9b69e5b506c27309aa83ae1f3a4a5316088482a99e54f0f15",
}


@pytest.mark.parametrize("key_kind", sorted(_DFS_SHA256))
def test_dfs_features_bytes_are_pinned(three_level_dir, tmp_path, key_kind):
    data, out = tmp_path / "data", tmp_path / "dfs"
    shutil.copytree(three_level_dir, data)
    schema = json.loads((data / "schema.json").read_text())
    assert schema["tables"][0]["columns"][0] == {"name": "target_id", "kind": "primary_key"}
    schema["tables"][0]["columns"][0]["kind"] = key_kind
    (data / "schema.json").write_text(json.dumps(schema))
    assert main(["dfs", "--dataset", str(data), "--out", str(out)]) == 0
    features = (out / "features.csv").read_bytes()
    assert features.startswith(b"target_id," if key_kind == "primary_key" else b"row,")
    assert hashlib.sha256(features).hexdigest() == _DFS_SHA256[key_kind]


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


@pytest.mark.parametrize("flags, message", [
    (["--model", "gcn", "--hidden", "0"], "hidden width must be positive"),
    (["--model", "gcn", "--rounds", "0"], "message-passing variants need rounds >= 1"),
    (["--model", "poolmlp", "--rounds", "-2"], "poolmlp runs no message passing, so rounds must be 0 or unset, got -2"),
    (["--model", "poolmlp", "--rounds", "3"], "poolmlp runs no message passing, so rounds must be 0 or unset, got 3"),
    (["--model", "logreg", "--folds", "1"], "fold count must be between 2 and 80"),
    (["--model", "mlp", "--batch", "0"], "batch_size and max_epochs must be positive"),
    (["--model", "gcn", "--max-epochs", "0"], "batch_size and max_epochs must be positive"),
    (["--model", "gcn", "--patience", "0"], "patience must be at least 1"),
    (["--model", "gcn", "--lr", "nan"], "learning rate must be finite and non-negative, got nan"),
    (["--model", "gcn", "--lr", "inf"], "learning rate must be finite and non-negative, got inf"),
    (["--model", "logreg", "--lr", "-0.01"], "learning rate must be finite and non-negative, got -0.01"),
    (["--model", "mlp", "--weight-decay", "-5"], "weight decay must be finite and non-negative, got -5.0"),
    # a model flag that the model does not read
    (["--model", "logreg", "--rounds", "3"], "--rounds does not apply to --model logreg"),
    (["--model", "logreg", "--hidden", "3"], "--hidden does not apply to --model logreg"),
    (["--model", "logreg", "--dropout", "0.9"], "--dropout does not apply to --model logreg"),
    (["--model", "mlp", "--edge-type-once"], "--edge-type-once does not apply to --model mlp"),
    (["--model", "mlp", "--no-reverse-edges"], "--no-reverse-edges does not apply to --model mlp"),
    (["--model", "dfs-logreg", "--size-cap", "5"], "--size-cap does not apply to --model dfs-logreg"),
    (["--model", "gcn", "--depth", "7"], "--depth does not apply to --model gcn"),
], ids=["hidden", "gcn-rounds", "poolmlp-negative-rounds", "poolmlp-rounds", "folds", "batch", "max-epochs", "patience",
        "lr-nan", "lr-inf", "lr-negative", "weight-decay-negative", "logreg-rounds", "logreg-hidden", "logreg-dropout",
        "mlp-edge-type-once", "mlp-no-reverse-edges", "dfs-logreg-size-cap", "gcn-depth"])
def test_train_rejects_a_bad_flag_before_any_output(capsys, synth_dir, tmp_path, flags, message):
    out = tmp_path / "out"
    code, payload, err = _run(capsys, ["train", "--dataset", str(synth_dir), "--out", str(out)] + flags)
    assert (code, payload) == (1, None)
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_train_honours_the_model_flags_its_model_reads(three_level_dir, tmp_path):
    def run(model, *flags):
        out = tmp_path / "-".join((model,) + flags)
        assert main(["train", "--dataset", str(three_level_dir), "--model", model, "--out", str(out),
                     "--folds", "2", "--max-epochs", "2", *flags]) == 0
        return json.loads((out / "model.json").read_text()), [(out / f"fold{fi}" / "checkpoint.bin").read_bytes()
                                                              for fi in range(2)]

    mlp, low_dropout = run("mlp"), run("mlp", "--dropout", "0.2")
    assert (mlp[0]["dropout"], low_dropout[0]["dropout"]) == (0.3, 0.2)
    assert all(a != b for a, b in zip(mlp[1], low_dropout[1]))
    deep, shallow = run("dfs-logreg")[0], run("dfs-logreg", "--depth", "1")[0]
    assert (deep["depth"], shallow["depth"]) == (2, 1)
    assert len(deep["aggspecs"]) > len(shallow["aggspecs"]) > 0
    assert all(len(spec["path"]) == 1 for spec in shallow["aggspecs"])


@pytest.mark.parametrize("targets, folds, one_class, message", [
    (60, "5", True, "target column Target.label holds one class only"),
    (40, "2", False, "fold 1's validation rows hold one class only"),
    (40, "10", False, "fold 0's test rows hold one class only"),
], ids=["one-class", "validation-split", "test-split"])
def test_train_rejects_labels_it_cannot_score_before_any_output(capsys, tmp_path, targets, folds, one_class, message):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", "--out", str(data), "--targets", str(targets), "--seed", "3"]) == 0
    if one_class:  # every target row labelled 1
        lines = (data / "Target.csv").read_text(encoding="utf-8").splitlines()
        (data / "Target.csv").write_text("\n".join(lines[:1] + [line.rsplit(",", 1)[0] + ",1" for line in lines[1:]]),
                                         encoding="utf-8")
    code, payload, err = _run(capsys, ["train", "--dataset", str(data), "--model", "logreg", "--folds", folds,
                                       "--out", str(out)])
    assert (code, payload) == (1, None)
    assert err == f"error: {message}: AUROC needs at least one positive and one negative label\n"
    assert not out.exists()


def test_gnn_trains_on_a_categorical_column_without_a_token(capsys, synth_dir, tmp_path):
    """A categorical column null in every row fits no token, so its embedding is 0 wide; initializing it
    draws nothing and warns of nothing (a warning fails this test)."""
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(synth_dir, data)
    lines = (data / "Child.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",flavor")
    (data / "Child.csv").write_text("\n".join(lines[:1] + [line.rsplit(",", 1)[0] + "," for line in lines[1:]]),
                                    encoding="utf-8")
    code, payload, err = _run(capsys, ["train", "--dataset", str(data), "--model", "gcn", "--hidden", "4",
                                     "--folds", "2", "--max-epochs", "1", "--out", str(out)])
    assert code == 0 and len(payload["folds"]) == 2, err
    child = json.loads((out / "fold0" / "encoders.json").read_text())[1]
    assert child["categorical"] == {str(child["cat_columns"][0]): {}}
    assert load_checkpoint(out / "fold0" / "checkpoint.bin")[f"emb/t1c{child['cat_columns'][0]}"].shape[1] == 0


@pytest.mark.parametrize("command", ["train", "dfs"])
def test_unloadable_dataset_or_bad_depth_is_rejected_before_any_output(capsys, synth_dir, tmp_path, command):
    model = ["--model", "dfs-logreg"] if command == "train" else []
    for dataset, depth, message in ((tmp_path / "nowhere", "1", "missing file"),
                                    (synth_dir, "-1", "max_depth must be non-negative, got -1")):
        out = tmp_path / "out"
        code, payload, err = _run(capsys, [command, "--dataset", str(dataset), "--out", str(out), "--depth", depth]
                                  + model)
        assert (code, payload) == (1, None)
        assert err.startswith("error: ") and message in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--dataset", "nowhere"], "missing file"),
    (["sample", "--size-cap", "1"], "selected subgraph exceeds size cap"),
    (["synth", "--targets", "0"], "need at least 2 target rows"),
    (["synth", "--targets", "20", "--noise", "1"], "noise rate must be in [0, 1), got 1.0"),
    (["synth", "--targets", "20", "--children", "3", "1"], "bad children-per-parent range (3, 1)"),
], ids=["sample-missing-dataset", "sample-size-cap", "synth-targets", "synth-noise", "synth-children"])
def test_sample_or_synth_that_fails_writes_no_manifest(capsys, synth_dir, tmp_path, argv, message):
    out = tmp_path / "out"
    if argv[0] == "sample" and "--dataset" not in argv:
        argv = argv + ["--dataset", str(synth_dir)]
    code, payload, err = _run(capsys, argv + ["--out", str(out)])
    assert (code, payload) == (1, None)
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_weight_decay_defaults_to_the_model_family(capsys, synth_dir, tmp_path):
    # 0.01 for the single-table baselines, 0 for the GNNs: an unset --weight-decay runs as that value
    def run(model, *flags):
        out = tmp_path / "-".join((model,) + flags)
        hidden = ["--hidden", "4"] if model == "gcn" else []
        assert main(["train", "--dataset", str(synth_dir), "--model", model, *hidden, "--out", str(out),
                     "--folds", "2", "--max-epochs", "2", *flags]) == 0
        return [(out / name).read_bytes() for name in ("report.json", "fold0/checkpoint.bin", "fold1/checkpoint.bin")]

    logreg = run("logreg")
    assert logreg == run("logreg", "--weight-decay", "0.01")
    assert logreg[1:] != run("logreg", "--weight-decay", "0")[1:]
    gcn = run("gcn")
    assert gcn == run("gcn", "--weight-decay", "0")
    assert gcn[1:] != run("gcn", "--weight-decay", "0.5")[1:]


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


@pytest.mark.parametrize("flags, message", [
    (["--model", "logreg"], "--model logreg has no input: target table P has no feature column"),
    (["--model", "mlp"], "--model mlp has no input: target table P has no feature column"),
    (["--model", "dfs-logreg", "--depth", "0"],
     "--model dfs-logreg has no input: target table P has no feature column and no DFS feature"),
], ids=["logreg", "mlp", "dfs-logreg"])
def test_baseline_without_input_is_rejected_before_any_output(capsys, tmp_path, flags, message):
    # P holds only its key and the label; its child C has a feature, which only a GNN or DFS reads
    data, out = tmp_path / "data", tmp_path / "out"
    _write_parent_child(data, [f"p{i},{i % 2}" for i in range(60)], [f"c{i},p{i},{i}.5" for i in range(60)])
    code, payload, err = _run(capsys, ["train", "--dataset", str(data), "--out", str(out), "--folds", "2"] + flags)
    assert (code, payload, err) == (1, None, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "dfs"])
def test_duplicate_target_key_fails_naming_it(capsys, tmp_path, command):
    # no foreign key references the key of a single-table dataset, and it must be unique all the same
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--targets", "20", "--template", "flat", "--signal", "single_table"]) == 0
    lines = (data / "Target.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "t0," + lines[2].split(",", 1)[1]
    (data / "Target.csv").write_text("".join(lines), encoding="utf-8")
    code, payload, err = _run(capsys, [command, "--dataset", str(data), "--out", str(tmp_path / "out")])
    assert (code, payload) == (1, None)
    assert err == f"error: {data / 'Target.csv'}: duplicate key 't0' at table Target row 1 column target_id\n"


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


def test_train_names_the_fold_whose_loss_diverges(capsys, synth_dir, tmp_path):
    argv = ["train", "--dataset", str(synth_dir), "--model", "gcn", "--folds", "2", "--max-epochs", "2",
            "--lr", "1e300", "--out", str(tmp_path / "run")]
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = _run(capsys, argv)
    assert code == 1
    assert re.fullmatch(r"error: fold 0: non-finite training loss \(nan\) at epoch \d+\n", err.splitlines(True)[-1])
    # the run's log ends with the same line
    assert (tmp_path / "run" / "log.txt").read_text().splitlines(True)[-1] == err.splitlines(True)[-1]


def test_a_run_log_takes_nothing_after_its_run(capsys, synth_dir, tmp_path):
    for lr, code in (("1e-3", 0), ("1e300", 1)):  # a run that ends, and one whose loss diverges
        run = tmp_path / f"run{code}"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--dataset", str(synth_dir), "--model", "gcn", "--folds", "2", "--max-epochs", "2",
                         "--lr", lr, "--out", str(run)]) == code
        text = (run / "log.txt").read_text()
        assert main(["gradcheck", "--model", "gcn"]) == 0
        assert (run / "log.txt").read_text() == text


@pytest.mark.parametrize("model", ["gcn", "dfs-logreg"])
def test_train_frees_each_fold_before_the_next_fold_builds(monkeypatch, synth_dir, tmp_path, model):
    # fold k's network and dataset, and the arrays the dataset encoded, are gone by reference count
    # when fold k + 1's _build runs
    refs, alive = [], []
    build = cli._build

    def recording_build(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        net, data = build(*args, **kwargs)
        arrays = [data.tables[0][0], data.tables[-1][1]] if model == "gcn" else [data.features]
        refs.extend(weakref.ref(x) for x in [net, data, *arrays])
        return net, data

    monkeypatch.setattr(cli, "_build", recording_build)
    with gc_disabled():
        assert main(["train", "--dataset", str(synth_dir), "--model", model, "--folds", "3", "--max-epochs", "1",
                     "--out", str(tmp_path / "run")]) == 0
    assert alive == [0, 0, 0]


# every command, and train with every model, in the arguments of `main`; {data}, {run} and {out} are filled in
# with the dataset, a trained gcn run and a new output directory
_COMMANDS = {
    "validate": ["validate", "--dataset", "{data}"],
    "graph-stats": ["graph-stats", "--dataset", "{data}"],
    "sample": ["sample", "--dataset", "{data}", "--out", "{out}"],
    "sample-edge-type-once": ["sample", "--dataset", "{data}", "--out", "{out}", "--edge-type-once"],
    "synth": ["synth", "--out", "{out}", "--targets", "30", "--seed", "2"],
    "dfs": ["dfs", "--dataset", "{data}", "--out", "{out}"],
    **{f"train-{model}": ["train", "--dataset", "{data}", "--out", "{out}", "--model", model, "--folds", "2",
                          "--max-epochs", "1"] for model in cli.MODELS},
    "eval": ["eval", "--dataset", "{data}", "--run", "{run}"],
    "gradcheck": ["gradcheck"],
}


def _relgnn_name(obj):
    """The qualified name of a function from a relgnn module, or of an object whose type is from one; else None."""
    origin = obj if isinstance(obj, types.FunctionType) else type(obj)
    module = getattr(origin, "__module__", None) or ""
    return f"{module}.{origin.__qualname__}" if module.split(".")[0] == "relgnn" else None


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_no_command_leaves_a_relgnn_object_in_a_cycle(capsys, synth_dir, gcn_run, tmp_path, command):
    # cli.run turns the cyclic collector off, so an object in a cycle would stay until the process ends
    argv = [arg.format(data=synth_dir, run=gcn_run, out=tmp_path / "out") for arg in _COMMANDS[command]]
    flags = gc.get_debug()
    with gc_disabled():
        assert main(argv) == 0
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            names = sorted({name for name in map(_relgnn_name, gc.garbage) if name is not None})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
    assert names == []


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
    ("dfs_run", lambda meta: meta.pop("depth"), "'depth'"),
    ("gcn_run", lambda meta: meta["config"].update(bogus=1), "'bogus'"),
    ("gcn_run", lambda meta: meta.update(model="svm"), "'svm'"),
    ("dfs_run", lambda meta: meta["aggspecs"][0].update(aggregator="median"), "'median'"),
    ("dfs_run", lambda meta: meta["aggspecs"][0].update(path=[[9, 9, "reverse"]]), "(9, 9)"),
    ("gcn_run", lambda meta: meta["config"].update(dropout=1.5), "dropout must be in [0, 1), got 1.5"),
    ("dfs_run", lambda meta: meta.update(dropout=-0.5), "dropout must be in [0, 1), got -0.5"),
], ids=["missing-key", "missing-dfs-key", "unknown-config-field", "unknown-model", "unknown-aggregator",
        "hop-out-of-range", "gnn-dropout", "baseline-dropout"])
def test_eval_rejects_malformed_model_json(capsys, request, synth_dir, tmp_path, trained, edit, named):
    run = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(trained), run)
    meta = json.loads((run / "model.json").read_text())
    edit(meta)
    (run / "model.json").write_text(json.dumps(meta))
    code, _, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert code == 1
    assert "model.json" in err and named in err


@pytest.mark.parametrize("name, edit, message", [
    ("report.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "seed"}),
     "missing key 'seed'"),
    ("report.json", lambda text: json.dumps({**json.loads(text), "n_folds": 1}),
     "fold count must be between 2 and 80 (the number of ids), got 1"),
    ("report.json", lambda text: text[:len(text) // 2], "not JSON text ("),
    ("fold0/encoders.json", lambda text: json.dumps({"encoders": json.loads(text)}), "not a list of table encoders"),
    ("fold0/encoders.json", lambda text: json.dumps([{**item, "dense_columns": 7} for item in json.loads(text)]),
     "table Target: dense_columns is 7, not a list"),
    ("fold0/dfs_encoders.json", lambda text: json.dumps({"encoders": json.loads(text)}),
     "not a list of feature encoders"),
], ids=["report-without-seed", "report-one-fold", "report-truncated", "encoders-not-a-list",
        "dense-columns-not-a-list", "dfs-encoders-not-a-list"])
def test_eval_names_the_run_file_at_fault(capsys, synth_dir, dfs_run, tmp_path, name, edit, message):
    run = tmp_path / "run"
    shutil.copytree(dfs_run, run)
    path = run / name
    path.write_text(edit(path.read_text()))
    code, payload, err = _run(capsys, ["eval", "--run", str(run), "--dataset", str(synth_dir)])
    assert (code, payload) == (1, None)
    assert err.splitlines()[-1].startswith(f"error: {path}: {message}"), err


@pytest.mark.parametrize("fold", ["2", "-1"])
def test_eval_rejects_a_fold_outside_the_run_before_loading_anything(capsys, dfs_run, tmp_path, fold):
    # the dataset does not exist: the fold is checked against the run first
    code, payload, err = _run(capsys, ["eval", "--run", str(dfs_run), "--dataset", str(tmp_path / "nowhere"),
                                       "--fold", fold])
    assert (code, payload) == (1, None)
    assert err == f"error: --fold {fold} is out of range: the run {dfs_run} has 2 folds, 0 to 1\n"


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
    for model, hidden in (("gcn", ["--hidden", "4"]), ("logreg", [])):
        runs[model] = three_level_dir.parent / f"{model}_run"
        assert main(["train", "--dataset", str(three_level_dir), "--model", model, *hidden,
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


def _write_every_kind(root, n=40):
    """A target table T with a null in each of the five feature kinds, a lookup table G that T references
    and whose kinds are nulled too (dfs copies its categorical and scalar cells onto T), and a child table
    C of T (dfs aggregates it)."""
    root.mkdir()
    fk = {"kind": "foreign_key"}
    kinds = [{"name": name, "kind": kind} for name, kind in
             (("x", "scalar"), ("tier", "categorical"), ("when", "datetime"), ("note", "text"), ("pos", "latlong"))]
    (root / "schema.json").write_text(json.dumps({"tables": [
        {"name": "T", "file": "T.csv", "columns": [
            {"name": "id", "kind": "primary_key"}, {"name": "g", **fk, "references": {"table": "G", "column": "id"}},
            *kinds, {"name": "label", "kind": "categorical", "target": True}]},
        {"name": "G", "file": "G.csv", "columns": [{"name": "id", "kind": "primary_key"}, *kinds]},
        {"name": "C", "file": "C.csv", "columns": [
            {"name": "id", "kind": "primary_key"}, {"name": "t", **fk, "references": {"table": "T", "column": "id"}},
            {"name": "amount", "kind": "scalar"}, {"name": "kind", "kind": "categorical"}]},
    ]}), encoding="utf-8")

    def kind_cells(i):
        if i % 5 == 4:
            return ",,,,"
        when = f"{2015 + i % 6}-{i % 12 + 1:02d}-{i % 27 + 1:02d}T0{i % 9}:30:00"
        return f'{i % 7 * 1.5},{"abc"[i % 3]},{when},{"word " * (i % 4 + 1)}end,"{i * 2 - 40}.25,{i * 7 - 150}.5"'

    (root / "T.csv").write_text("id,g,x,tier,when,note,pos,label\n" + "".join(
        f"t{i},{'' if i % 9 == 8 else f'g{i % 5}'},{kind_cells(i)},{(i * 7 // 3) % 2}\n" for i in range(n)),
        encoding="utf-8")
    (root / "G.csv").write_text("id,x,tier,when,note,pos\n" + "".join(
        f"g{j},{kind_cells(j + 2)}\n" for j in range(5)), encoding="utf-8")
    (root / "C.csv").write_text("id,t,amount,kind\n" + "".join(
        f"c{k},t{k * 3 % n},{'' if k % 6 == 5 else k % 11 - 4.5},{'' if k % 4 == 3 else 'xy'[k % 2]}\n"
        for k in range(2 * n)), encoding="utf-8")


# sha256 of the fitted-encoder files and the run description that `train` writes on `_write_every_kind`:
# every feature kind, its nulls and a copied categorical pass through the per-fold fit and its JSON form
_FITTED_SHA256 = {
    ("ergat", "fold0/encoders.json"): "3f3c06268d8492b5e3a268aba25c20e4475f99756c566d70a3f1e9a735beac00",
    ("ergat", "fold1/encoders.json"): "9815e3059266b73fd7e9a4a39ada442513a8bf21b5f9657bb2882ecb6a5cce13",
    ("ergat", "model.json"): "36be81fcebf663baf498055d852441f8c4bc3eed142f64ac8956db3551f5a783",
    ("dfs-logreg", "fold0/encoders.json"): "0dc542530978e7ad94db0bcb196c628ee6fc99fe5471f69c55b5662aa256f36d",
    ("dfs-logreg", "fold0/dfs_encoders.json"): "17551b155c052daf6532db32b2e9216b9861df18c8f9d5d96fcb7741f57c7b2b",
    ("dfs-logreg", "fold1/dfs_encoders.json"): "489e9ab7cb28640916a014ec0f2b4ec9f9dc7d2127504827ecaae2912f9b36ba",
    ("dfs-logreg", "model.json"): "c8787c8589764a5f73eac713b5647c51c503ff246e360e8c78d5183cd251a574",
}


@pytest.mark.parametrize("model", ["ergat", "dfs-logreg"])
def test_fitted_encoder_files_are_pinned(capsys, tmp_path, model):
    data, run = tmp_path / "data", tmp_path / "run"
    _write_every_kind(data)
    hidden = ["--hidden", "4"] if model == "ergat" else []
    assert main(["train", "--dataset", str(data), "--model", model, *hidden, "--out", str(run),
                 "--folds", "2", "--max-epochs", "1", "--seed", "2"]) == 0  # seed 2: both labels in each split
    pinned = {name: sha for (m, name), sha in _FITTED_SHA256.items() if m == model}
    assert {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in pinned} == pinned
    if model == "dfs-logreg":
        kinds = [entry["kind"] for entry in json.loads((run / "fold0" / "dfs_encoders.json").read_text())]
        assert "categorical" in kinds and "scalar" in kinds
    # eval reads the files back and rebuilds the fold that train scored
    code, scored, _ = _run(capsys, ["eval", "--dataset", str(data), "--run", str(run), "--fold", "1"])
    fold = json.loads((run / "report.json").read_text())["folds"][1]
    assert code == 0 and scored["fold_test"]["auroc"] == fold["test_auroc"]


def test_encoder_files_fuzz_fail_naming_the_file(capsys, tmp_path):
    """Seeded wrong types, deletions and truncations of a GNN fold's encoders.json (every column kind)
    and of a dfs-logreg fold's dfs_encoders.json (scalar and categorical entries): eval fails each with
    exit 1 and a message that names the file, never with a traceback. Tokens stay in their vocabulary:
    without its last token a vocabulary is well-formed, and only the checkpoint can tell."""
    data = tmp_path / "data"
    _write_lookup(data)
    runs = {"encoders.json": tmp_path / "gcn", "dfs_encoders.json": tmp_path / "dfs"}
    for (name, run), model, hidden in zip(runs.items(), ("gcn", "dfs-logreg"), (["--hidden", "4"], [])):
        assert main(["train", "--dataset", str(data), "--model", model, *hidden, "--out", str(run),
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


_TRAIN_SPANS = {"training.train", "encode.fit_encoders", "training.evaluate", "training.scores",
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


# sha256 of gradcheck's stdout, which gradcheck_report.json repeats: every variant on the built-in database,
# and gcn on the clinic fixture; the errors are floats printed in full, so a batch whose features or
# layout change in any bit moves them
_GRADCHECK_SHA256 = {
    "builtin": "2b8e04ee5a1490dba42295a8de0df4874aa60e6cb8c84dfd96e9f62366d41730",
    "clinic": "a4a7f7d03d17cf0cb2611ede6e28d3e676807366a7362879753c5e27d7281e21",
}


@pytest.mark.parametrize("dataset", sorted(_GRADCHECK_SHA256))
def test_gradcheck_report_bytes_are_pinned(capsys, fixtures_dir, tmp_path, dataset):
    flags = [] if dataset == "builtin" else ["--dataset", str(fixtures_dir / dataset), "--model", "gcn",
                                             "--hidden", "2"]
    capsys.readouterr()
    assert main(["gradcheck", "--out", str(tmp_path), *flags]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == (tmp_path / "gradcheck_report.json").read_bytes()
    assert hashlib.sha256(printed).hexdigest() == _GRADCHECK_SHA256[dataset]


def test_module_invocation_subprocess(fixtures_dir, cold_python):
    out = cold_python("-m", "relgnn.cli", "validate", "--dataset", str(fixtures_dir / "patients_small"))
    assert json.loads(out)["n_tables"] == 2


def test_run_calls_main_with_the_collector_off_and_what_was_built_frozen(monkeypatch):
    seen = []

    def recording_main(argv=None):
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return 3

    monkeypatch.setattr(cli, "main", recording_main)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
    finally:
        gc.unfreeze()
        gc.enable()
    [(enabled, frozen)] = seen
    assert (exc.value.code, enabled) == (3, False) and frozen > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_its_caller_set_it(capsys, fixtures_dir, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        code, payload, _ = _run(capsys, ["validate", "--dataset", str(fixtures_dir / "clinic")])
        assert (code, payload["n_tables"], gc.isenabled(), gc.get_freeze_count()) == (0, 3, enabled, 0)
    finally:
        gc.enable()


# modules that a command which draws nothing at random does not need: hashlib's `_hashlib`, which maps OpenSSL's
# libcrypto (3.6 MiB resident), and numpy.random, for seeding and drawing; numpy.ma (1.2 MiB), which np.unique
# imports on its first call
_LAZY_MODULES = ("_hashlib", "numpy.ma", "numpy.random")
_LOADED = f"import json, sys; print(json.dumps(sorted(set(sys.modules) & set({_LAZY_MODULES!r}))))"
_COLD_COMMAND = f"""
import contextlib, io, sys
from relgnn.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
{_LOADED}
"""


@pytest.mark.parametrize("argv", [["validate"], ["graph-stats"], ["sample", "--out", "{out}"],
                                  ["dfs", "--out", "{out}/dfs.csv"]], ids=lambda argv: argv[0])
def test_commands_that_draw_nothing_load_no_lazy_module(cold_python, fixtures_dir, tmp_path, argv):
    # a module that `cli` imports keeps these off its module scope; a check is skipped where a bare
    # `import numpy` already loads the module
    with_numpy = set(json.loads(cold_python("-c", "import numpy; " + _LOADED)))
    if with_numpy == set(_LAZY_MODULES):
        pytest.skip("a bare `import numpy` loads every one of them here")
    argv = [arg.format(out=tmp_path) for arg in argv] + ["--dataset", str(fixtures_dir / "clinic")]
    assert set(json.loads(cold_python("-c", _COLD_COMMAND, *argv))) <= with_numpy


# each subcommand's argument lists, which together give every flag it takes; {data}, {run}, {out} and
# {fixtures} are filled in with the dataset, a trained run, a new output directory and the fixtures
# (gradcheck takes tens of seconds on the synth dataset, whose wide datetime encoding it differences
# entry by entry)
_EVERY_FLAG = {
    "validate": [["--dataset", "{data}", "--out", "{out}"]],
    "graph-stats": [["--dataset", "{data}", "--out", "{out}", "--no-reverse-edges"]],
    "sample": [["--dataset", "{data}", "--out", "{out}", "--edge-type-once", "--no-reverse-edges",
                "--size-cap", "500"]],
    "synth": [["--out", "{out}", "--targets", "30", "--template", "three_level", "--signal", "grandchild_aggregate",
               "--noise", "0.1", "--children", "1", "3", "--seed", "2"]],
    "dfs": [["--dataset", "{data}", "--out", "{out}", "--depth", "1"]],
    "train": [["--dataset", "{data}", "--out", "{out}", "--model", "gcn", "--seed", "1", "--hidden", "4",
               "--rounds", "1", "--dropout", "0.2", "--lr", "0.01", "--weight-decay", "0.001", "--batch", "16",
               "--patience", "1", "--max-epochs", "1", "--folds", "2", "--oversample", "--edge-type-once",
               "--no-reverse-edges", "--size-cap", "500"],
              ["--dataset", "{data}", "--out", "{out}", "--model", "dfs-logreg", "--depth", "1", "--folds", "2",
               "--max-epochs", "1"]],
    "eval": [["--dataset", "{data}", "--out", "{out}", "--run", "{run}", "--fold", "1"]],
    "gradcheck": [["--dataset", "{fixtures}/clinic", "--out", "{out}", "--model", "gcn", "--hidden", "2",
                   "--seed", "1"]],
}


def _recording_namespace():
    """A namespace that adds the name of each attribute read from it to the returned set. `vars(args)`,
    which `_write_manifest` reads, reads `__dict__` and so no flag."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("__"):
                reads.add(name)
            return super().__getattribute__(name)

    return Recording(), reads


@pytest.mark.parametrize("command", sorted(_EVERY_FLAG))
def test_every_flag_given_is_read(capsys, fixtures_dir, synth_dir, gcn_run, tmp_path, command):
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    dest = {option: action.dest for action in commands[command]._actions if action.dest != "help"
            for option in action.option_strings}
    given = set()
    for k, case in enumerate(_EVERY_FLAG[command]):
        argv = [arg.format(data=synth_dir, run=gcn_run, out=tmp_path / f"out{k}", fixtures=fixtures_dir)
                for arg in case]
        args, reads = _recording_namespace()
        parser.parse_args([command] + argv, namespace=args)
        reads.clear()  # of the parser
        assert args.func(args) == 0
        flags = [arg for arg in argv if arg in dest]
        assert [flag for flag in flags if dest[flag] not in reads] == [], "given flags that nothing read"
        given.update(flags)
    assert sorted(set(dest) - given) == [], "flags that no case gives"


# minor page faults, after cli.main(["--help"]) when argv[1] is "main", of argv[2]'s case: "ops", 20 rounds of two
# live float64 temporaries at each of 265 KiB, 1 MiB and 2.1 MiB; "bursts", 20 bursts of 12 live 4 MiB arrays
# freed together, more than the 16 MiB top pad
_TEMPORARIES = """
import contextlib, io, resource, sys
import numpy as np
from relgnn import cli
if sys.argv[1] == "main":
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(["--help"])
faults = 0
if sys.argv[2] == "ops":
    for n in (265 << 7, 1 << 17, 2100 << 7):
        a = np.ones(n)
        b = a * 2.0
        del b
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            b = a * 2.0
            c = b + 1.0
            del b, c
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
else:
    burst = [np.ones(1 << 19) for _ in range(12)]
    del burst
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        burst = [np.ones(1 << 19) for _ in range(12)]
        del burst
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the top pad is glibc's mallopt option; on another C library main leaves malloc as it is")
def test_main_keeps_freed_heap_so_temporaries_stop_faulting():
    source = str(Path(relgnn.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if not name.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))

    def faults(mode: str, case: str) -> int:
        proc = subprocess.run([sys.executable, "-c", _TEMPORARIES, mode, case], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    for case in ("ops", "bursts"):
        kept, trimmed = faults("main", case), faults("import", case)
        assert kept * 10 < trimmed, (case, kept, trimmed)


def _library_without_mallopt(name):
    return types.SimpleNamespace()


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_library_without_mallopt, _no_library])
def test_main_runs_where_libc_has_no_mallopt(monkeypatch, capsys, fixtures_dir, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    code, payload, _ = _run(capsys, ["validate", "--dataset", str(fixtures_dir / "clinic")])
    assert code == 0 and payload["n_tables"] == 3
