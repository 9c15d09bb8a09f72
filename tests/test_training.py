from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import auroc_pairwise
from relgnn import training
from relgnn.encode import fit_encoders
from relgnn.graph import database_to_graph
from relgnn.models import Model, ModelConfig, GraphSchema
from relgnn.rdb import load_database, remove_target_column, target_labels
from relgnn.sampler import batch_sample
from relgnn.training import (
    CvFold,
    GraphDataset,
    LinearModel,
    MlpModel,
    TableDataset,
    TrainConfig,
    accuracy,
    _baseline_config,
    auroc,
    evaluate,
    fold_encoder_rows,
    make_cv_plan,
    oversample_ids,
    positive_scores,
    relative_auroc,
    single_table_features,
    train,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# cross-validation plans


def test_cv_plan_sizes_for_100():
    plan = make_cv_plan(100, seed=0)
    assert len(plan.folds) == 5
    for fold in plan.folds:
        assert len(fold.test_ids) == 20
        assert len(fold.train_ids) == 80
        assert len(fold.val_ids) == 12
        assert len(fold.fit_ids) == 68


def test_cv_plan_partition_properties():
    plan = make_cv_plan(47, seed=3)
    all_test = np.concatenate([f.test_ids for f in plan.folds])
    assert sorted(all_test) == list(range(47))  # disjoint cover
    for fold in plan.folds:
        train, val, test = set(fold.train_ids), set(fold.val_ids), set(fold.test_ids)
        fit = set(fold.fit_ids)
        assert val <= train and fit <= train
        assert not val & fit and val | fit == train
        assert not train & test
        assert len(train) + len(test) == 47


def test_cv_plan_largest_remainder_sizes():
    plan = make_cv_plan(13, seed=1)
    assert [len(f.test_ids) for f in plan.folds] == [3, 3, 3, 2, 2]
    assert [len(f.val_ids) for f in plan.folds] == [2, 2, 2, 2, 2]


def test_cv_plan_deterministic():
    a = make_cv_plan(30, seed=7)
    b = make_cv_plan(30, seed=7)
    c = make_cv_plan(30, seed=8)
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa.train_ids, fb.train_ids)
        assert np.array_equal(fa.val_ids, fb.val_ids)
        assert np.array_equal(fa.test_ids, fb.test_ids)
    assert any(not np.array_equal(fa.test_ids, fc.test_ids) for fa, fc in zip(a.folds, c.folds))


def test_cv_plan_minimum_size():
    make_cv_plan(10, seed=0)
    with pytest.raises(ValueError):
        make_cv_plan(9, seed=0)
    assert len(make_cv_plan(10, seed=0, n_folds=10).folds) == 10
    for n_folds in (-1, 0, 1, 11):
        with pytest.raises(ValueError, match=f"got {n_folds}$"):
            make_cv_plan(10, seed=0, n_folds=n_folds)


# ---------------------------------------------------------------------------
# metrics


def test_auroc_golden():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)


def test_auroc_edges():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    assert auroc([0.3, 0.3], [0, 1]) == 0.5  # tie credited half
    with pytest.raises(ValueError):
        auroc([0.1, 0.2], [1, 1])


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        assert abs(auroc(scores, labels) - auroc_pairwise(scores, labels)) <= 1e-12


def test_auroc_invariant_under_increasing_transforms():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=50)
    labels = (rng.random(50) < 0.4).astype(int)
    labels[:2] = [0, 1]
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == base
    assert auroc(3.0 * scores - 7.0, labels) == base


def test_accuracy_majority_golden():
    labels = np.zeros(10000, dtype=int)
    labels[:593] = 1
    scores = np.full(10000, 0.1)
    assert accuracy(scores, labels) == pytest.approx(94.07, abs=1e-9)


def test_accuracy_edges():
    assert accuracy([0.9, 0.1], [1, 0]) == 100.0
    assert accuracy([0.9, 0.1], [0, 1]) == 0.0
    assert accuracy([0.5], [1]) == 100.0  # threshold is inclusive


def test_relative_auroc():
    diffs, mean, sd = relative_auroc([0.7, 0.8], [0.7, 0.8])
    assert mean == 0.0 and sd == 0.0
    diffs, mean, sd = relative_auroc([0.72, 0.82], [0.7, 0.8])
    assert mean == pytest.approx(0.02, abs=1e-12) and sd == pytest.approx(0.0, abs=1e-12)
    diffs, mean, sd = relative_auroc([0.71, 0.73], [0.70, 0.70])
    assert list(np.round(diffs, 10)) == [0.01, 0.03]
    assert mean == pytest.approx(0.02, abs=1e-12)
    assert sd == pytest.approx(0.01 * np.sqrt(2.0), rel=1e-9)  # sample sd, n-1
    with pytest.raises(ValueError):
        relative_auroc([0.1, 0.2], [0.1])


def test_positive_scores_stable():
    assert positive_scores(np.array([[0.0, 0.0]]))[0] == 0.5
    big = positive_scores(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    assert big[0] == pytest.approx(0.0, abs=1e-12)
    assert big[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# oversampling


def test_oversample_balances_classes():
    ids = np.arange(24)
    labels = np.array([1] * 6 + [0] * 18)
    pool = oversample_ids(ids, labels)
    counts = Counter(labels[i] for i in pool)
    assert counts[0] == counts[1] == 18
    assert set(pool) == set(ids)  # only duplication, no new or dropped ids
    assert np.array_equal(pool, oversample_ids(ids, labels))


def test_oversample_noop_cases():
    ids = np.arange(10)
    balanced = np.array([0, 1] * 5)
    assert np.array_equal(oversample_ids(ids, balanced), ids)
    single = np.zeros(10, dtype=int)
    assert np.array_equal(oversample_ids(ids, single), ids)


# ---------------------------------------------------------------------------
# the training loop on a plain table


def _separable_table(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(0.5, 1.5, n // 2), rng.uniform(-1.5, -0.5, n // 2)])
    noise = rng.normal(size=n)
    labels = (x > 0).astype(int)
    order = rng.permutation(n)
    return np.column_stack([x, noise])[order], labels[order]


def _plain_fold(n, n_val):
    ids = np.arange(n)
    return CvFold(ids, ids[:n_val], ids[:0])


def test_training_reaches_full_accuracy_on_separable_data():
    features, labels = _separable_table()
    data = TableDataset(features, labels)
    fold = _plain_fold(40, 8)
    net = LinearModel(2, seed=0)
    result = train(net, data, fold, TrainConfig(lr=0.05, batch_size=16, max_epochs=50, patience=50, seed=0))
    assert result.epochs_run <= 50
    fit = fold.fit_ids
    assert accuracy(data.scores(net, fit), data.labels_of(fit)) == 100.0


def test_patience_one_without_improvement_stops_at_epoch_two():
    features, labels = _separable_table()
    data = TableDataset(features, labels)
    net = LinearModel(2, seed=0)
    result = train(net, data, _plain_fold(40, 8), TrainConfig(lr=0.0, max_epochs=30, patience=1, seed=0))
    assert result.epochs_run == 2
    assert result.best_epoch == 1


def test_training_is_bit_deterministic():
    features, labels = _separable_table()
    runs = []
    for _ in range(2):
        net = LinearModel(2, seed=3)
        data = TableDataset(features, labels)
        result = train(net, data, _plain_fold(40, 8), TrainConfig(lr=0.01, max_epochs=8, patience=8, seed=3))
        runs.append((result.history, {k: t.data.copy() for k, t in net.params.items()}))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_non_finite_loss_aborts():
    features, labels = _separable_table()
    features[20, 1] = np.nan  # row 20 is in the fit split of the fold below
    net = LinearModel(2, seed=0)
    with pytest.raises(RuntimeError, match="non-finite"):
        train(net, TableDataset(features, labels), _plain_fold(40, 8),
              TrainConfig(lr=0.01, max_epochs=5, patience=5, seed=0))


class _RecordingDataset(TableDataset):
    def __init__(self, features, labels):
        super().__init__(features, labels)
        self.seen = []

    def loss(self, net, ids, train=False, rng=None):
        if train:
            self.seen.extend(int(i) for i in ids)
        return super().loss(net, ids, train, rng)


def test_oversampling_presents_the_same_unique_datapoints():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(28, 3))
    labels = np.array([1] * 6 + [0] * 18 + [1, 1, 0, 0])
    fold = CvFold(np.concatenate([np.arange(24, 28), np.arange(24)]), np.arange(24, 28), np.arange(0))
    seen = {}
    for flag in (False, True):
        data = _RecordingDataset(features, labels)
        net = LinearModel(3, seed=0)
        train(net, data, fold, TrainConfig(lr=0.01, max_epochs=1, patience=1, oversample=flag, seed=0))
        seen[flag] = data.seen
    assert set(seen[False]) == set(seen[True]) == set(range(24))
    assert len(seen[False]) == 24
    counts = Counter(labels[i] for i in seen[True])
    assert counts[0] == counts[1] == 18


def test_early_stopping_restores_argmax_parameters():
    features, labels = _separable_table(seed=2)
    data = TableDataset(features, labels)
    fold = _plain_fold(40, 8)
    net = LinearModel(2, seed=1)
    result = train(net, data, fold, TrainConfig(lr=0.05, max_epochs=12, patience=3, seed=1))
    best_in_history = max(h["val_auroc"] for h in result.history)
    assert result.best_val_auroc == best_in_history
    assert result.history[result.best_epoch - 1]["val_auroc"] == best_in_history
    # the returned parameters reproduce the best recorded validation score exactly
    assert auroc(data.scores(net, fold.val_ids), data.labels_of(fold.val_ids)) == best_in_history


def test_evaluate_report():
    features, labels = _separable_table()
    data = TableDataset(features, labels)
    net = LinearModel(2, seed=0)
    train(net, data, _plain_fold(40, 8), TrainConfig(lr=0.05, max_epochs=30, patience=30, seed=0))
    report = evaluate(net, data, np.arange(40))
    assert set(report) == {"auroc", "accuracy", "n"}
    assert report["n"] == 40 and report["auroc"] > 0.9


# ---------------------------------------------------------------------------
# the loop on graph datapoints


def _clinic_dataset():
    db = remove_target_column(load_database(FIXTURES / "clinic"))
    graph = database_to_graph(db)
    dps = batch_sample(graph, [0, 1, 0, 1])  # four datapoints, two per class
    encoders = fit_encoders(db, fold_encoder_rows(dps, range(len(dps))))
    return db, dps, encoders


def test_fold_encoder_rows_scope():
    db = remove_target_column(load_database(FIXTURES / "clinic"))
    graph = database_to_graph(db)
    dps = batch_sample(graph, [0, 1])
    def as_lists(rows):
        return {t: r.tolist() for t, r in rows.items()}

    assert as_lists(fold_encoder_rows(dps, [0])) == {0: [0], 1: [0, 1], 2: [0]}
    assert as_lists(fold_encoder_rows(dps, [0, 1])) == {0: [0, 1], 1: [0, 1, 2], 2: [0]}


def test_gnn_training_runs_and_is_deterministic():
    db, dps, encoders = _clinic_dataset()
    schema = GraphSchema.from_database(db, encoders)
    fold = CvFold(np.array([0, 1, 2, 3]), np.array([0, 1]), np.arange(0))
    histories = []
    for _ in range(2):
        data = GraphDataset(db, dps, encoders)
        net = Model(ModelConfig("gcn", hidden=8), schema, seed=4)
        result = train(net, data, fold, TrainConfig(lr=1e-2, batch_size=2, max_epochs=3, patience=5, seed=4))
        assert all(np.isfinite(h["train_loss"]) for h in result.history)
        histories.append(result.history)
    assert histories[0] == histories[1]


def test_parameters_stay_views_of_the_optimizer_arena_after_a_fold(monkeypatch):
    # the restore of the best epoch writes into the views, so the arena still holds every parameter
    arenas = []

    class RecordingAdamW(training.AdamW):
        def __init__(self, params, **kwargs):
            super().__init__(params, **kwargs)
            arenas.append(self)

    monkeypatch.setattr(training, "AdamW", RecordingAdamW)
    db, dps, encoders = _clinic_dataset()
    net = Model(ModelConfig("ergat", hidden=4, heads=2), GraphSchema.from_database(db, encoders), seed=2)
    fold = CvFold(np.array([0, 1, 2, 3]), np.array([0, 1]), np.arange(0))
    result = train(net, GraphDataset(db, dps, encoders), fold,
                   TrainConfig(lr=0.1, batch_size=1, max_epochs=4, patience=4, seed=2))
    (opt,) = arenas
    assert opt.t == 2 * result.epochs_run
    trainable = [t for t in net.params.values() if t.requires_grad]
    assert list(opt.params.values()) == trainable
    for name, t in net.params.items():
        assert np.array_equal(t.data, result.best_params[name])
    for t in trainable:
        assert np.shares_memory(t.data, opt.flat_data) and np.shares_memory(t.grad, opt.flat_grad)
    assert opt.flat_data.tobytes() == np.concatenate([t.data.ravel() for t in trainable]).tobytes()


# ---------------------------------------------------------------------------
# single-table baselines


def test_mlp_hidden_widths_scale_with_input():
    net = MlpModel(10, seed=0)
    assert net.params["W1"].shape == (10, 40)
    assert net.params["W2"].shape == (40, 20)
    assert net.params["W3"].shape == (20, 2)


def test_baselines_reject_featureless_tables():
    with pytest.raises(ValueError):
        LinearModel(0)
    with pytest.raises(ValueError):
        MlpModel(0)


def test_single_table_features_clinic():
    db = remove_target_column(load_database(FIXTURES / "clinic"))
    encoders = fit_encoders(db, {0: [0, 1], 1: [0, 1, 2], 2: [0]})
    feats = single_table_features(db, encoders)
    assert feats.shape == (2, 2)  # scaled age + null flag
    assert feats[0, 0] == pytest.approx(-1.0) and feats[1, 0] == pytest.approx(1.0)
    assert feats[0, 1] == 0.0 and feats[1, 1] == 0.0


def test_single_table_features_one_hot(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "color", "kind": "categorical"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,color,label\na,red,1\nb,blue,0\nc,,1\nd,red,0\n")
    db = remove_target_column(load_database(tmp_path))
    encoders = fit_encoders(db, {0: [0, 1, 2, 3]})
    feats = single_table_features(db, encoders)
    assert feats.shape == (4, 3)  # vocabulary {blue, red} + null slot
    assert feats.sum(axis=1).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert feats[0].tolist() == [0.0, 1.0, 0.0]  # red
    assert feats[1].tolist() == [1.0, 0.0, 0.0]  # blue
    assert feats[2].tolist() == [0.0, 0.0, 1.0]  # null slot
    assert np.array_equal(feats[3], feats[0])


def _write_scalar_dataset(path, n, label_fn, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    labels = label_fn(x, rng)
    lines = ["id,x,label"]
    for i in range(n):
        lines.append(f"r{i},{float(x[i])!r},{int(labels[i])}")
    (path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "x", "kind": "scalar"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (path / "T.csv").write_text("\n".join(lines) + "\n")


def _run_logreg_fold(path, fold, config):
    db = remove_target_column(load_database(path))
    labels = target_labels(db)
    encoders = fit_encoders(db, {0: [int(i) for i in fold.fit_ids]})
    feats = single_table_features(db, encoders)
    net = LinearModel(feats.shape[1], seed=config.seed)
    data = TableDataset(feats, labels)
    train(net, data, fold, _baseline_config(config))
    return evaluate(net, data, fold.test_ids)


def test_logreg_learns_single_column_threshold(tmp_path):
    _write_scalar_dataset(tmp_path, 60, lambda x, rng: x > np.median(x), seed=0)
    fold = make_cv_plan(60, seed=0).folds[0]
    report = _run_logreg_fold(tmp_path, fold, TrainConfig(lr=0.05, batch_size=16, max_epochs=60, patience=60, seed=0))
    assert report["auroc"] >= 0.95


def test_logreg_is_chance_on_independent_labels(tmp_path):
    _write_scalar_dataset(tmp_path, 300, lambda x, rng: rng.random(len(x)) < 0.5, seed=1)
    plan = make_cv_plan(300, seed=1)
    config = TrainConfig(lr=0.05, batch_size=32, max_epochs=20, patience=5, seed=1)
    aurocs = [_run_logreg_fold(tmp_path, fold, config)["auroc"] for fold in plan.folds]
    assert 0.4 <= float(np.mean(aurocs)) <= 0.6


def test_baseline_weight_decay_defaults_to_regularized():
    features, labels = _separable_table()
    fold = _plain_fold(40, 8)
    hist = {}
    for wd in (None, 0.01, 0.0):
        config = _baseline_config(TrainConfig(lr=0.05, max_epochs=5, patience=5, weight_decay=wd, seed=0))
        hist[wd] = train(LinearModel(2, seed=0), TableDataset(features, labels), fold, config).history
    assert hist[None] == hist[0.01]
    assert hist[None] != hist[0.0]


def test_baseline_mlp_trains(tmp_path):
    _write_scalar_dataset(tmp_path, 60, lambda x, rng: x > np.median(x), seed=3)
    db = remove_target_column(load_database(tmp_path))
    labels = target_labels(db)
    fold = make_cv_plan(60, seed=3).folds[0]
    encoders = fit_encoders(db, {0: [int(i) for i in fold.fit_ids]})
    feats = single_table_features(db, encoders)
    net = MlpModel(feats.shape[1], seed=3)
    data = TableDataset(feats, labels)
    train(net, data, fold, _baseline_config(TrainConfig(lr=0.01, batch_size=16, max_epochs=40, patience=40, seed=3)))
    report = evaluate(net, data, fold.test_ids)
    assert report["auroc"] >= 0.9
