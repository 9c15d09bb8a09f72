"""Command-line pipeline: validate, graph-stats, sample, synth, dfs, train, eval, gradcheck."""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .dfs import (
    DFS_DEPTH,
    aggspecs_from_json,
    aggspecs_to_json,
    apply_feature_encoders,
    compute_features,
    enumerate_aggs,
    feature_encoders_from_json,
    feature_encoders_to_json,
    feature_width,
    fit_feature_encoders,
    write_features_csv,
)
from .encode import encoded_columns, encoders_from_json, encoders_to_json, fit_encoders
from .graph import database_to_graph, graph_stats
from .models import DEFAULT_ROUNDS, VARIANTS, GraphSchema, Model, ModelConfig, build_batch
from .rdb import RdbError, load_database, remove_target_column, target_labels, validate_schema
from .sampler import DEFAULT_SIZE_CAP, DatapointStore, SizeCapError, batch_sample, write_datapoints_jsonl
from .synth import SIGNALS, TEMPLATES, SynthSpec, generate
from .tensor import dropout_in_range, load_checkpoint, save_checkpoint, gradcheck as run_gradcheck
from .training import (
    MLP_DROPOUT,
    GraphDataset,
    LinearModel,
    MlpModel,
    TableDataset,
    TrainConfig,
    evaluate,
    fold_encoder_rows,
    make_cv_plan,
    single_table_features,
    train,
)

MODELS = VARIANTS + ("logreg", "mlp", "dfs-logreg")

GRADCHECK_TOLERANCE = 1e-4

GNN_WEIGHT_DECAY, BASELINE_WEIGHT_DECAY = 0.0, 0.01  # AdamW's, per model family, when --weight-decay is unset

ERRORS = (RdbError, SizeCapError, OSError, ValueError, KeyError, RuntimeError)  # main reports each as one line

# glibc's mallopt options: the free heap at the top from which `free` gives memory back to the kernel, the
# free heap it keeps when it does, and the size from which malloc maps memory of its own. Setting any of
# them stops glibc from raising the first and the last as it goes (from 128 KiB), so main sets all three.
M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD = -1, -2, -3
KEPT_HEAP = 16 << 20  # bytes, for the pad and the mmap threshold: what fits in the kept heap is served from it
TRIM_THRESHOLD = 256 << 20  # bytes: free heap at the top stays in the process until it grows past this

log = logging.getLogger("relgnn")


def _setup_logging(*handlers: logging.Handler) -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        handlers=[logging.StreamHandler(sys.stderr), *handlers], force=True)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, payload: dict, filename: str) -> None:
    """Print the report and, when an output directory was given, persist it there."""
    sys.stdout.write(_json_text(payload))
    out = getattr(args, "out", None)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(_json_text(payload), encoding="utf-8")


def _write_manifest(args) -> None:
    skip = {"func"}
    payload = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k not in skip}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "manifest.json").write_text(_json_text(payload), encoding="utf-8")


def cmd_validate(args) -> int:
    _emit(args, validate_schema(load_database(args.dataset, strict=False)), "validate_report.json")
    return 0


def cmd_graph_stats(args) -> int:
    db = load_database(args.dataset)
    graph = database_to_graph(remove_target_column(db))
    _emit(args, graph_stats(graph, reverse_edges=args.reverse_edges), "graph_stats.json")
    return 0


def _check_flags(args) -> None:
    """Reject a flag that can never be honoured, before anything is written."""
    size_cap = getattr(args, "size_cap", DEFAULT_SIZE_CAP)
    if size_cap < 1:
        raise ValueError(f"--size-cap must be at least 1, got {size_cap}: every subgraph holds its target")
    if getattr(args, "dropout", None) is not None and not dropout_in_range(args.dropout):
        raise ValueError(f"--dropout must be in [0, 1), got {args.dropout}: it is the probability of dropping a unit")


def cmd_sample(args) -> int:
    _check_flags(args)
    masked = remove_target_column(load_database(args.dataset))
    graph, datapoints = _sample(masked, edge_type_once=args.edge_type_once, size_cap=args.size_cap)
    _write_manifest(args)
    write_datapoints_jsonl(args.out / "datapoints.jsonl", datapoints, graph, args.reverse_edges)
    sizes = np.diff(datapoints.node_start)
    payload = {
        "datapoints": len(datapoints),
        "total_nodes": int(np.sum(sizes)),
        "max_nodes": int(np.max(sizes)),
        "mean_nodes": float(np.mean(sizes)),
    }
    _emit(args, payload, "sample_report.json")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(seed=args.seed, n_targets=args.targets, template=args.template,
                     signal=args.signal, noise=args.noise, children=tuple(args.children))
    _write_manifest(args)
    db = generate(spec, args.out)
    payload = {
        "tables": {t.name: t.nrows for t in db.tables},
        "positive_rate": float(target_labels(db).mean()),
    }
    _emit(args, payload, "synth_report.json")
    return 0


def cmd_dfs(args) -> int:
    masked = remove_target_column(load_database(args.dataset))
    specs = enumerate_aggs(masked, args.depth)
    _write_manifest(args)
    rows = list(range(masked.tables[masked.target[0]].nrows))
    payload = {"rows": len(rows), "columns": write_features_csv(args.out / "features.csv", masked, specs, rows)}
    _emit(args, payload, "dfs_report.json")
    return 0


def _sample(masked, rows=None, *, edge_type_once: bool = False, size_cap: int = DEFAULT_SIZE_CAP):
    """The database graph and one subgraph datapoint per target row (all of them when `rows` is None);
    a target table without rows fails naming it."""
    table = masked.tables[masked.target[0]]
    if not table.nrows:
        raise RdbError(f"target table {table.name} has no rows to sample")
    graph = database_to_graph(masked)
    if rows is None:
        rows = range(table.nrows)
    return graph, batch_sample(graph, list(rows), edge_type_once=edge_type_once, size_cap=size_cap)


def _subgraph_sizes(datapoints: DatapointStore) -> dict:
    """Min, median, 99th percentile and max of the nodes and of the forward edges per datapoint. The
    percentiles interpolate linearly between the two nearest order statistics, numpy's default."""
    return {name: {"min": int(counts.min()), "median": float(np.median(counts)),
                   "p99": float(np.percentile(counts, 99)), "max": int(counts.max())}
            for name, counts in (("nodes", np.diff(datapoints.node_start)),
                                 ("forward_edges", np.diff(datapoints.edge_start)))}


# the flags of `train` that only some models read, by their names in `args`; on `train` a flag that was
# not given is absent from `args`, so `_describe` can tell a given flag that its model leaves unread
_MODEL_FLAGS = {"hidden": "--hidden", "rounds": "--rounds", "dropout": "--dropout", "depth": "--depth",
                "edge_type_once": "--edge-type-once", "reverse_edges": "--no-reverse-edges", "size_cap": "--size-cap"}


def _run_keys(model: str) -> tuple[str, ...]:
    """The keys of model.json after "model", in the order `_describe` reads them: what it writes for the
    model, and what `eval` requires."""
    if model in VARIANTS:
        return ("config", "reverse_edges", "edge_type_once", "size_cap")
    return ("dropout", "depth", "aggspecs") if model == "dfs-logreg" else ("dropout",)


def _describe(args, masked) -> dict:
    """The run description that model.json holds: with a fold's artifacts, all that rebuilds its network.
    Each model flag is read as given or at its family default; a given flag that the model does not read
    fails naming it."""
    read = set()

    def flag(name: str, default):
        read.add(name)
        return getattr(args, name, default)

    def config() -> dict:
        return asdict(ModelConfig(variant=args.model, hidden=flag("hidden", ModelConfig.hidden),
                                  rounds=flag("rounds", ModelConfig.rounds),
                                  dropout=flag("dropout", ModelConfig.dropout)))

    fields = {  # how each key is read, when the model's keys hold it
        "config": config,
        "reverse_edges": lambda: flag("reverse_edges", True),
        "edge_type_once": lambda: flag("edge_type_once", False),
        "size_cap": lambda: flag("size_cap", DEFAULT_SIZE_CAP),
        # logreg and dfs-logreg read no dropout, but model.json records the mlp's default for them too
        "dropout": lambda: flag("dropout", MLP_DROPOUT) if args.model == "mlp" else MLP_DROPOUT,
        "depth": lambda: flag("depth", DFS_DEPTH),
        "aggspecs": lambda: json.loads(aggspecs_to_json(enumerate_aggs(masked, desc["depth"]))),
    }
    desc = {"model": args.model}
    for key in _run_keys(args.model):
        desc[key] = fields[key]()
    unread = [option for name, option in _MODEL_FLAGS.items() if name in vars(args) and name not in read]
    if unread:
        raise ValueError(f"{unread[0]} does not apply to --model {args.model}")
    return desc


def _description(text: str, masked) -> dict:
    """model.json as `_describe` writes it, checked against the masked database."""
    desc = json.loads(text)
    model = desc["model"]
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    for key in _run_keys(model):
        if key not in desc:
            raise KeyError(key)
    dropout = ModelConfig(**desc["config"]).dropout if model in VARIANTS else desc["dropout"]
    if not (isinstance(dropout, (int, float)) and dropout_in_range(dropout)):
        raise ValueError(f"dropout must be in [0, 1), got {dropout!r}")
    if model == "dfs-logreg":
        aggspecs_from_json(json.dumps(desc["aggspecs"]), masked)
    return desc


def _read_run_file(path: Path, reader, *context):
    """`reader` applied to the text of one of a run's files and `context`; a fault fails naming the file
    and the key or value."""
    try:
        return reader(path.read_text(encoding="utf-8"), *context)
    except json.JSONDecodeError as exc:
        raise RdbError(f"{path}: not JSON text ({exc})") from None
    except KeyError as exc:
        raise RdbError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # RdbError and bad UTF-8 among them
        raise RdbError(f"{path}: {exc}") from None


def _shared_inputs(desc: dict, masked):
    """What every fold reads alike: the sampled datapoints (GNNs), the raw DFS features (dfs-logreg), or
    None (logreg, mlp)."""
    if desc["model"] in VARIANTS:
        return _sample(masked, edge_type_once=desc["edge_type_once"], size_cap=desc["size_cap"])[1]
    if "aggspecs" not in desc:
        return None
    specs = aggspecs_from_json(json.dumps(desc["aggspecs"]))
    return compute_features(masked, specs, range(masked.tables[masked.target[0]].nrows))


def _build(desc: dict, masked, labels, shared, encoders, dfs_encoders=None, seed: int = 0):
    """A fold's untrained network and its dataset, from the run description, the fold's encoders
    and the shared inputs."""
    if desc["model"] in VARIANTS:
        schema = GraphSchema.from_database(masked, encoders, reverse_edges=desc["reverse_edges"])
        return Model(ModelConfig(**desc["config"]), schema, seed=seed), GraphDataset(masked, shared, encoders)
    dfs_width = 0 if shared is None else feature_width(dfs_encoders)
    features = single_table_features(masked, encoders, dfs_width)
    if shared is not None:  # the DFS block fills the last columns, in place
        apply_feature_encoders(shared, dfs_encoders, features[:, features.shape[1] - dfs_width:])
    if desc["model"] == "mlp":
        net = MlpModel(features.shape[1], dropout_p=desc["dropout"], seed=seed)
    else:
        net = LinearModel(features.shape[1], seed=seed)
    return net, TableDataset(features, labels)


def _fold_report(fi: int, result, metrics) -> dict:
    return {
        "fold": fi,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "val_auroc": result.best_val_auroc,
        "test_auroc": metrics["auroc"],
        "test_accuracy": metrics["accuracy"],
        "test_n": metrics["n"],
        "history": result.history,
    }


def _check_scorable(db, labels: np.ndarray, plan) -> None:
    """AUROC scores every fold's validation and test rows, so each must hold both labels; fails naming
    the target column when it holds one class, otherwise the first fold and split that lack a label."""
    message = "AUROC needs at least one positive and one negative label"
    # labels are 0 and 1; np.unique would import numpy.ma this early and raise a run's peak RSS by 1.5 MiB
    if np.bincount(labels, minlength=2).min() == 0:
        table, column = db.target
        name = f"{db.tables[table].name}.{db.tables[table].columns[column].name}"
        raise RdbError(f"target column {name} holds one class only: {message}")
    for fi, fold in enumerate(plan):
        for split, ids in (("validation", fold.val_ids), ("test", fold.test_ids)):
            if np.bincount(labels[ids], minlength=2).min() == 0:
                raise RdbError(f"fold {fi}'s {split} rows hold one class only: {message}")


def cmd_train(args) -> int:
    _check_flags(args)
    db = load_database(args.dataset)
    labels = target_labels(db)
    masked = remove_target_column(db)
    plan = make_cv_plan(len(labels), args.seed, args.folds)
    _check_scorable(db, labels, plan)
    desc = _describe(args, masked)
    gnn = args.model in VARIANTS
    table = masked.tables[masked.target[0]]
    if not (gnn or desc.get("aggspecs") or any(encoded_columns(table))):
        dfs = " and no DFS feature" if "aggspecs" in desc else ""
        raise RdbError(f"--model {args.model} has no input: target table {table.name} has no feature column{dfs}")
    weight_decay = args.weight_decay
    if weight_decay is None:
        weight_decay = GNN_WEIGHT_DECAY if gnn else BASELINE_WEIGHT_DECAY
    config = TrainConfig(lr=args.lr, weight_decay=weight_decay, batch_size=args.batch,
                         max_epochs=args.max_epochs, patience=args.patience, oversample=args.oversample)
    args.out.mkdir(parents=True, exist_ok=True)
    log_file = logging.FileHandler(args.out / "log.txt", mode="w", encoding="utf-8")
    _setup_logging(log_file)
    try:
        _write_manifest(args)
        (args.out / "model.json").write_text(_json_text(desc), encoding="utf-8")
        shared = _shared_inputs(desc, masked)
        folds = []
        for fi, fold in enumerate(plan):
            # encoders see only the fold's fit rows: for a GNN, every row that their subgraphs reach
            fit_rows = fold_encoder_rows(shared, fold.fit_ids) if gnn else {masked.target[0]: list(fold.fit_ids)}
            encoders = fit_encoders(masked, fit_rows)
            dfs_encoders = fit_feature_encoders(shared, fold.fit_ids) if "aggspecs" in desc else None
            net, data = _build(desc, masked, labels, shared, encoders, dfs_encoders, seed=args.seed + fi)
            try:
                result = train(net, data, fold, replace(config, seed=args.seed + fi))
            except RuntimeError as exc:  # a diverging loss
                raise RuntimeError(f"fold {fi}: {exc}") from None
            metrics = evaluate(net, data, fold.test_ids)
            fold_dir = args.out / f"fold{fi}"
            fold_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(fold_dir / "checkpoint.bin", net.params)
            (fold_dir / "encoders.json").write_text(encoders_to_json(encoders), encoding="utf-8")
            if dfs_encoders is not None:
                (fold_dir / "dfs_encoders.json").write_text(feature_encoders_to_json(dfs_encoders), encoding="utf-8")
            folds.append(_fold_report(fi, result, metrics))
            log.info("fold %d: val auroc %.4f (epoch %d), test auroc %.4f",
                     fi, result.best_val_auroc, result.best_epoch, metrics["auroc"])
            del net, data  # before the next fold's _build
        aurocs = [f["test_auroc"] for f in folds]
        payload = {
            "model": args.model,
            "dataset": str(args.dataset),
            "seed": args.seed,
            "n_folds": len(folds),
            "folds": folds,
            "mean_test_auroc": float(np.mean(aurocs)),
            "sd_test_auroc": float(np.std(aurocs, ddof=1)) if len(aurocs) > 1 else 0.0,
            "mean_test_accuracy": float(np.mean([f["test_accuracy"] for f in folds])),
        }
        if gnn:
            payload["subgraphs"] = _subgraph_sizes(shared)
        _emit(args, payload, "report.json")
        return 0
    except ERRORS as exc:  # the line that main prints ends the run's log too
        log_file.stream.write(f"error: {exc}\n")
        raise
    finally:  # the log is the run's alone: a later command in this process does not write to it
        logging.getLogger().removeHandler(log_file)
        log_file.close()


def _load_params(net, arrays: dict[str, np.ndarray], checkpoint: Path, built_from: list[Path]) -> None:
    """Set the parameters of `net`, built from the fold files `built_from`, to the checkpoint's arrays;
    a parameter the two disagree on fails naming both files."""
    model = f"the model built from {' and '.join(map(str, built_from))}"
    missing = [name for name in net.params if name not in arrays]
    if missing:
        raise RdbError(f"{checkpoint}: no parameter {missing[0]}, which {model} has")
    extra = [name for name in arrays if name not in net.params]
    if extra:
        raise RdbError(f"{checkpoint}: parameter {extra[0]}, which {model} does not have")
    for name, tensor in net.params.items():
        if tensor.shape != arrays[name].shape:
            raise RdbError(f"{checkpoint}: parameter {name} has shape {arrays[name].shape}, "
                           f"but {model} needs {tensor.shape}")
        tensor.data = arrays[name]


def _plan(report_text: str) -> list:
    """The run's own CV plan, rebuilt from the seed, the fold count and the rows scored in its report.json."""
    report = json.loads(report_text)
    return make_cv_plan(sum(f["test_n"] for f in report["folds"]), report["seed"], report["n_folds"])


def cmd_eval(args) -> int:
    plan = _read_run_file(args.run / "report.json", _plan)
    if not 0 <= args.fold < len(plan):
        raise RdbError(f"--fold {args.fold} is out of range: the run {args.run} has {len(plan)} folds, "
                       f"0 to {len(plan) - 1}")
    db = load_database(args.dataset)
    labels = target_labels(db)
    masked = remove_target_column(db)
    desc = _read_run_file(args.run / "model.json", _description, masked)
    fold_dir = args.run / f"fold{args.fold}"
    arrays = load_checkpoint(fold_dir / "checkpoint.bin")
    built_from = [fold_dir / "encoders.json"]
    encoders = _read_run_file(built_from[0], encoders_from_json, masked)
    shared = _shared_inputs(desc, masked)
    dfs_encoders = None
    if "aggspecs" in desc:
        built_from.append(fold_dir / "dfs_encoders.json")
        dfs_encoders = _read_run_file(built_from[1], feature_encoders_from_json, shared)
    net, data = _build(desc, masked, labels, shared, encoders, dfs_encoders)
    _load_params(net, arrays, fold_dir / "checkpoint.bin", built_from)
    payload = {"model": desc["model"], "dataset": str(args.dataset), "fold": args.fold, "rows": "all",
               **evaluate(net, data, list(range(len(labels))))}
    if sum(len(fold.test_ids) for fold in plan) == len(labels):  # as many rows as the run's: its plan applies
        payload["fold_test"] = evaluate(net, data, plan[args.fold].test_ids)
    _emit(args, payload, "eval_report.json")
    return 0


def _gradcheck_db():
    """Tiny two-table database with narrow scalar features, so finite differences stay cheap."""
    from .rdb import Column, ColumnKind, Database, Table, _resolve_foreign_keys

    parent = Table("P", [
        Column("id", ColumnKind("primary_key"), False, ["p0", "p1"]),
        Column("x", ColumnKind("scalar"), False, [1.0, -2.0]),
        Column("label", ColumnKind("categorical"), True, ["1", "0"]),
    ])
    child = Table("C", [
        Column("id", ColumnKind("primary_key"), False, ["c0", "c1", "c2"]),
        Column("p", ColumnKind("foreign_key", ("P", "id")), False, ["p0", "p0", "p1"]),
        Column("y", ColumnKind("scalar"), False, [0.5, None, 3.0]),
    ])
    db = Database([parent, child], {}, [], [(0, 2)])
    _resolve_foreign_keys(db, strict=True)
    return db


def cmd_gradcheck(args) -> int:
    db = load_database(args.dataset) if args.dataset is not None else _gradcheck_db()
    masked = remove_target_column(db)
    _, datapoints = _sample(masked, [0])
    encoders = fit_encoders(masked, fold_encoder_rows(datapoints, [0]))
    schema = GraphSchema.from_database(masked, encoders)
    batch = build_batch(datapoints, masked, encoders)
    variants = [args.model] if args.model else list(VARIANTS)
    nudge = np.random.default_rng(args.seed)
    results = {}
    for variant in variants:
        config = ModelConfig(variant=variant, hidden=args.hidden, gin_train_eps=variant in ("gin", "ergin"))
        net = Model(config, schema, seed=args.seed)
        params = [t for t in net.params.values() if t.requires_grad]
        for tensor in params:
            # move zero-initialized parameters off relu kinks so central differences are clean
            if not tensor.data.any():
                tensor.data = nudge.normal(0.0, 0.1, size=tensor.shape)
        err = run_gradcheck(lambda _: net.loss(batch), params)
        results[variant] = float(err)
        log.info("gradcheck %s: max rel err %.3g", variant, err)
    payload = {
        "checks": results,
        "tolerance": GRADCHECK_TOLERANCE,
        "passed": all(v <= GRADCHECK_TOLERANCE for v in results.values()),
    }
    _emit(args, payload, "gradcheck_report.json")
    return 0 if payload["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relgnn",
                                     description="supervised learning on relational databases")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def dataset_flag(p, required=True):
        p.add_argument("--dataset", type=Path, required=required)

    def out_flag(p, required=False):
        p.add_argument("--out", type=Path, required=required)

    def sampling_flags(p, train=False):
        who = "GNNs only; " if train else ""
        p.add_argument("--edge-type-once", action="store_true", default=argparse.SUPPRESS if train else False,
                       help=f"{who}follow each edge type in at most one round of a subgraph's closure (default off)")
        p.add_argument("--no-reverse-edges", dest="reverse_edges", action="store_false",
                       default=argparse.SUPPRESS if train else True,
                       help=f"{who}leave out the reverse edges from a referenced row to its referrers")
        p.add_argument("--size-cap", type=int, default=argparse.SUPPRESS if train else DEFAULT_SIZE_CAP,
                       help=f"{who}fail when a subgraph would exceed this many nodes (default {DEFAULT_SIZE_CAP})")

    p = add("validate", cmd_validate, help="load a dataset and report schema health")
    dataset_flag(p)
    out_flag(p)

    p = add("graph-stats", cmd_graph_stats, help="node/edge counts of the database graph")
    dataset_flag(p)
    out_flag(p)
    p.add_argument("--no-reverse-edges", dest="reverse_edges", action="store_false")

    p = add("sample", cmd_sample, help="extract one subgraph datapoint per target row")
    dataset_flag(p)
    out_flag(p, required=True)
    sampling_flags(p)

    p = add("synth", cmd_synth, help="generate a synthetic dataset")
    out_flag(p, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--template", choices=TEMPLATES, default="parent_child")
    p.add_argument("--signal", choices=SIGNALS, default="child_aggregate")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--children", type=int, nargs=2, default=[1, 6], metavar=("LO", "HI"))

    p = add("dfs", cmd_dfs, help="write flat aggregate features as CSV")
    dataset_flag(p)
    out_flag(p, required=True)
    p.add_argument("--depth", type=int, default=DFS_DEPTH)

    p = add("train", cmd_train, help="cross-validated training with test metrics")
    dataset_flag(p)
    out_flag(p, required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--seed", type=int, default=0)
    unset = argparse.SUPPRESS  # see _MODEL_FLAGS
    p.add_argument("--hidden", type=int, default=unset, help=f"GNNs only; hidden width (default {ModelConfig.hidden})")
    rounds = ", ".join(f"{variant} {r}" for variant, r in DEFAULT_ROUNDS.items())
    p.add_argument("--rounds", type=int, default=unset, help=f"GNNs only; message-passing rounds (default {rounds})")
    p.add_argument("--dropout", type=float, default=unset, help=f"GNNs and mlp only; dropout probability "
                   f"(default {ModelConfig.dropout} for GNNs, {MLP_DROPOUT} for mlp)")
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=None, help=f"AdamW weight decay (default {GNN_WEIGHT_DECAY} "
                   f"for GNNs, {BASELINE_WEIGHT_DECAY} for logreg, mlp and dfs-logreg)")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--depth", type=int, default=unset,
                   help=f"dfs-logreg only; longest foreign-key path of a DFS feature (default {DFS_DEPTH})")
    p.add_argument("--oversample", action="store_true")
    sampling_flags(p, train=True)

    p = add("eval", cmd_eval, help="score a trained fold on a dataset")
    dataset_flag(p)
    out_flag(p)
    p.add_argument("--run", type=Path, required=True)
    p.add_argument("--fold", type=int, default=0)

    p = add("gradcheck", cmd_gradcheck, help="finite-difference check of model gradients")
    dataset_flag(p, required=False)
    out_flag(p)
    p.add_argument("--model", choices=VARIANTS, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=4)

    return parser


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap at the top up to TRIM_THRESHOLD bytes, and KEPT_HEAP bytes of it when it
    trims, and serve allocations up to KEPT_HEAP from the heap, so the next op's temporaries, and the next
    pass's, reuse pages already faulted in. The process's allocator is main's to set, not the library's; a
    libc without mallopt is left as it is."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        libc.mallopt(M_TOP_PAD, KEPT_HEAP)
        libc.mallopt(M_MMAP_THRESHOLD, KEPT_HEAP)
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        _setup_logging()
    try:
        return args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program's entry, for `python -m relgnn.cli` and the `relgnn` script: main, with Python's cyclic
    collector off and every object built so far frozen out of it. relgnn frees by reference count and builds
    no reference cycle, so the collector would free nothing a command needs freed: off, it runs no collection
    during the command, and the collection at exit skips what importing built. main, called as a function,
    leaves the collector as its caller set it."""
    gc.disable()
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
