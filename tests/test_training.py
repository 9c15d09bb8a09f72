import contextlib
import gc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import auroc_pairwise, reference_backward
from relgnn import training
from relgnn.encode import fit_encoders
from relgnn.graph import database_to_graph
from relgnn.models import VARIANTS, Model, ModelConfig, GraphSchema
from relgnn.rdb import load_database, remove_target_column, target_labels
from relgnn.sampler import batch_sample
from relgnn.synth import SynthSpec, generate
from relgnn.tensor import backward
from relgnn.training import (
    CvFold,
    GraphDataset,
    LinearModel,
    MlpModel,
    TableDataset,
    TrainConfig,
    accuracy,
    auroc,
    evaluate,
    fold_encoder_rows,
    make_cv_plan,
    oversample_ids,
    positive_scores,
    single_table_features,
    train,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# cross-validation plans


def test_cv_plan_sizes_for_100():
    plan = make_cv_plan(100, seed=0)
    assert len(plan) == 5
    for fold in plan:
        assert len(fold.test_ids) == 20
        assert len(fold.train_ids) == 80
        assert len(fold.val_ids) == 12
        assert len(fold.fit_ids) == 68


def test_cv_plan_partition_properties():
    plan = make_cv_plan(47, seed=3)
    all_test = np.concatenate([f.test_ids for f in plan])
    assert sorted(all_test) == list(range(47))  # disjoint cover
    for fold in plan:
        train, val, test = set(fold.train_ids), set(fold.val_ids), set(fold.test_ids)
        fit = set(fold.fit_ids)
        assert val <= train and fit <= train
        assert not val & fit and val | fit == train
        assert not train & test
        assert len(train) + len(test) == 47


def test_cv_plan_largest_remainder_sizes():
    plan = make_cv_plan(13, seed=1)
    assert [len(f.test_ids) for f in plan] == [3, 3, 3, 2, 2]
    assert [len(f.val_ids) for f in plan] == [2, 2, 2, 2, 2]


def test_cv_plan_deterministic():
    a = make_cv_plan(30, seed=7)
    b = make_cv_plan(30, seed=7)
    c = make_cv_plan(30, seed=8)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.train_ids, fb.train_ids)
        assert np.array_equal(fa.val_ids, fb.val_ids)
        assert np.array_equal(fa.test_ids, fb.test_ids)
    assert any(not np.array_equal(fa.test_ids, fc.test_ids) for fa, fc in zip(a, c))


def test_cv_plan_minimum_size():
    make_cv_plan(10, seed=0)
    with pytest.raises(ValueError):
        make_cv_plan(9, seed=0)
    assert len(make_cv_plan(10, seed=0, n_folds=10)) == 10
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


def _unique_ranks_auroc(scores, labels):
    """`auroc` with its ranks from np.unique's runs of the sorted scores."""
    order = np.argsort(scores, kind="stable")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(first + 0.5 * (counts - 1) + 1.0, counts)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_auroc_is_bitwise_the_unique_ranking_on_tied_scores():
    rng = np.random.default_rng(2)
    for trial in range(300):
        n = int(rng.integers(2, 300))
        scores = rng.choice(np.array([0.0, -0.0, 0.25, 0.5, 1.0, np.nan])[:int(rng.integers(1, 7))], size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels).hex() == _unique_ranks_auroc(scores, labels).hex(), trial


def test_accuracy_majority_golden():
    labels = np.zeros(10000, dtype=int)
    labels[:593] = 1
    scores = np.full(10000, 0.1)
    assert accuracy(scores, labels) == pytest.approx(94.07, abs=1e-9)


def test_accuracy_edges():
    assert accuracy([0.9, 0.1], [1, 0]) == 100.0
    assert accuracy([0.9, 0.1], [0, 1]) == 0.0
    assert accuracy([0.5], [1]) == 100.0  # threshold is inclusive


def relative_auroc(method, baseline) -> tuple[np.ndarray, float, float]:
    """Per-fold AUROC differences against a baseline, with mean and sample (n-1) sd."""
    a = np.asarray(method, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"fold mismatch: {a.shape} vs {b.shape}")
    diffs = a - b
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0
    return diffs, mean, sd


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


@pytest.mark.parametrize("width", [2, 3, 5, 9])
def test_positive_scores_are_bitwise_the_full_reductions(width):
    rng = np.random.default_rng(width)
    for _ in range(20):
        few = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.5]), size=(48, width))
        logits = np.concatenate([few, rng.normal(size=(48, width))]) * 10.0 ** rng.integers(-3, 4, size=(96, 1))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert positive_scores(logits).tobytes() == (e[:, 1] / e.sum(axis=1)).tobytes()


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
            self.params = params
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


@pytest.fixture(scope="module")
def tape_data():
    """64 three_level targets as graph datapoints, and as the target table's features for the baselines."""
    spec = SynthSpec(seed=11, n_targets=64, template="three_level", signal="grandchild_aggregate", children=(1, 4))
    db = remove_target_column(generate(spec))
    dps = batch_sample(database_to_graph(db), list(range(64)))
    encoders = fit_encoders(db, fold_encoder_rows(dps, range(64)))
    return GraphDataset(db, dps, encoders), TableDataset(single_table_features(db, encoders), dps.labels)


@pytest.mark.parametrize("model", [*VARIANTS, "mlp", "logreg"])
def test_backward_is_bitwise_the_copying_reference_on_real_tapes(tape_data, model):
    # one training batch of 64 targets, dropout on: every parameter's gradient after two passes
    graphs, table = tape_data
    if model in VARIANTS:
        data = graphs
        net = Model(ModelConfig(model, hidden=8, heads=2 if model.endswith("gat") else 1),
                    GraphSchema.from_database(graphs.db, graphs.encoders), seed=3)
    else:
        data = table
        net = (MlpModel if model == "mlp" else LinearModel)(table.features.shape[1], seed=3)
    params = [t for t in net.params.values() if t.requires_grad]
    got = []
    for run in (backward, reference_backward):
        for t in params:
            t.grad = np.zeros_like(t.data)
        for k in range(2):  # the second pass adds into the first one's leaf gradients
            run(data.loss(net, np.arange(64), train=True, rng=np.random.default_rng(k)))
        got.append([t.grad.tobytes() for t in params])
    assert got[0] == got[1]
    assert all(t.grad.any() for t in params if t.grad.size)


@contextlib.contextmanager
def gc_disabled():
    """No cyclic collection inside the block, so whatever is freed there is freed by its reference count."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _scoring_case(kind):
    if kind == "graph":
        db, dps, encoders = _clinic_dataset()
        net = Model(ModelConfig("ergat", hidden=4, heads=2), GraphSchema.from_database(db, encoders), seed=2)
        return net, GraphDataset(db, dps, encoders), np.arange(4)
    features = np.random.default_rng(8).normal(size=(training.EVAL_NODES + 88, 3))  # two chunks
    return MlpModel(3, seed=1), TableDataset(features, np.arange(len(features)) % 2), np.arange(len(features))


@pytest.mark.parametrize("kind", ["graph", "table"])
def test_scores_run_every_forward_without_a_tape(kind):
    net, data, ids = _scoring_case(kind)
    outputs = []
    forward = net.forward

    def recording_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    net.forward = recording_forward
    scores = data.scores(net, ids)
    assert len(outputs) == -(-len(ids) // training.EVAL_NODES)
    for out in outputs:
        assert not out.requires_grad and out._parents == () and out._backward is None
    # the same scores as a taped forward pass over each chunk
    taped = [forward(data.inputs(ids[lo:lo + training.EVAL_NODES])) for lo in range(0, len(ids), training.EVAL_NODES)]
    assert all(out.requires_grad for out in taped)
    assert scores.tobytes() == np.concatenate([positive_scores(out.data) for out in taped]).tobytes()


@pytest.fixture(scope="module")
def wide_data():
    """40 parent_child targets of 1 to 9 nodes each, to score against small node budgets."""
    db = remove_target_column(generate(SynthSpec(seed=5, n_targets=40, children=(0, 8))))
    dps = batch_sample(database_to_graph(db), list(range(40)))
    return GraphDataset(db, dps, fit_encoders(db, fold_encoder_rows(dps, range(40))))


def _graph_net(data, variant):
    schema = GraphSchema.from_database(data.db, data.encoders)
    return Model(ModelConfig(variant, hidden=4, heads=2 if variant.endswith("gat") else 1), schema, seed=1)


def test_scoring_passes_hold_at_most_the_node_budget_or_one_target(monkeypatch, wide_data):
    budget = 6
    sizes = np.diff(wide_data.datapoints.node_start)
    assert sizes.max() > budget  # a target that alone holds more than the budget
    monkeypatch.setattr(training, "EVAL_NODES", budget)
    net = _graph_net(wide_data, "gcn")
    passes = []  # (nodes, targets) of each forward pass
    forward = net.forward

    def recording_forward(batch, *args, **kwargs):
        passes.append((batch.num_nodes, batch.num_graphs))
        return forward(batch, *args, **kwargs)

    net.forward = recording_forward
    ids = np.random.default_rng(5).permutation(40)
    assert len(wide_data.scores(net, ids)) == len(ids)
    assert sum(targets for _, targets in passes) == len(ids)
    assert all(nodes <= budget or targets == 1 for nodes, targets in passes)
    assert any(nodes > budget for nodes, _ in passes)
    # each pass takes the targets that fit: the next pass's first target would not have
    firsts = np.cumsum([targets for _, targets in passes])[:-1]
    assert all(nodes + sizes[ids[k]] > budget for (nodes, _), k in zip(passes, firsts))


@pytest.mark.parametrize("variant", VARIANTS)
def test_scores_of_one_target_passes_agree_with_one_whole_pass(monkeypatch, wide_data, variant):
    net, ids = _graph_net(wide_data, variant), np.arange(40)
    monkeypatch.setattr(training, "EVAL_NODES", 1)
    alone = wide_data.scores(net, ids)
    monkeypatch.setattr(training, "EVAL_NODES", int(wide_data.datapoints.num_nodes))
    whole = wide_data.scores(net, ids)
    assert np.abs(alone - whole).max() <= 1e-12


def test_train_frees_each_batch_loss_before_the_next_batch_runs():
    # the loop drops its loss after the backward pass, so no two batches' tapes are alive together
    class LossRecordingDataset(GraphDataset):
        def __init__(self, *args):
            super().__init__(*args)
            self.losses = []
            self.alive = []

        def loss(self, net, ids, train=False, rng=None):
            self.alive.append(sum(ref() is not None for ref in self.losses))
            out = super().loss(net, ids, train, rng)
            self.losses.append(weakref.ref(out.data))
            return out

    db, dps, encoders = _clinic_dataset()
    net = Model(ModelConfig("gcn", hidden=4), GraphSchema.from_database(db, encoders), seed=2)
    data = LossRecordingDataset(db, dps, encoders)
    fold = CvFold(np.array([0, 1, 2, 3]), np.array([0, 1]), np.arange(0))
    with gc_disabled():
        train(net, data, fold, TrainConfig(lr=0.1, batch_size=1, max_epochs=3, patience=3, seed=2))
    assert data.alive == [0] * 6


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
    train(net, data, fold, config)
    return evaluate(net, data, fold.test_ids)


def test_logreg_learns_single_column_threshold(tmp_path):
    _write_scalar_dataset(tmp_path, 60, lambda x, rng: x > np.median(x), seed=0)
    fold = make_cv_plan(60, seed=0)[0]
    config = TrainConfig(lr=0.05, weight_decay=0.01, batch_size=16, max_epochs=60, patience=60, seed=0)
    report = _run_logreg_fold(tmp_path, fold, config)
    assert report["auroc"] >= 0.95


def test_logreg_is_chance_on_independent_labels(tmp_path):
    _write_scalar_dataset(tmp_path, 300, lambda x, rng: rng.random(len(x)) < 0.5, seed=1)
    plan = make_cv_plan(300, seed=1)
    config = TrainConfig(lr=0.05, weight_decay=0.01, batch_size=32, max_epochs=20, patience=5, seed=1)
    aurocs = [_run_logreg_fold(tmp_path, fold, config)["auroc"] for fold in plan]
    assert 0.4 <= float(np.mean(aurocs)) <= 0.6


def test_baseline_mlp_trains(tmp_path):
    _write_scalar_dataset(tmp_path, 60, lambda x, rng: x > np.median(x), seed=3)
    db = remove_target_column(load_database(tmp_path))
    labels = target_labels(db)
    fold = make_cv_plan(60, seed=3)[0]
    encoders = fit_encoders(db, {0: [int(i) for i in fold.fit_ids]})
    feats = single_table_features(db, encoders)
    net = MlpModel(feats.shape[1], seed=3)
    data = TableDataset(feats, labels)
    train(net, data, fold, TrainConfig(lr=0.01, weight_decay=0.01, batch_size=16, max_epochs=40, patience=40, seed=3))
    report = evaluate(net, data, fold.test_ids)
    assert report["auroc"] >= 0.9
