"""Cross-validation plans, the minibatch training loop, metrics, and single-table baselines."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encode import NodeTypeEncoder, encode_node
from .graph import runs
from .models import VARIANTS, build_batch, encode_tables
from .optim import AdamW
from .rdb import Database
from .sampler import DatapointStore
from .tensor import (
    RngStream,
    Tensor,
    add,
    backward,
    cross_entropy,
    dropout,
    init_weight,
    matmul,
    no_tape,
    relu,
)

__all__ = [
    "CvFold",
    "make_cv_plan",
    "TrainConfig",
    "TrainResult",
    "train",
    "evaluate",
    "auroc",
    "accuracy",
    "positive_scores",
    "oversample_ids",
    "GraphDataset",
    "TableDataset",
    "LinearModel",
    "MlpModel",
    "single_table_features",
]

EVAL_NODES = 512  # nodes a scoring forward pass holds, or one target that alone holds more; a table row is one node

MLP_DROPOUT = 0.3

# what `relgnn train --model` trains: the GNNs, then the baselines, whose models live here
MODELS = VARIANTS + ("logreg", "mlp", "dfs-logreg")


@dataclass
class CvFold:
    train_ids: np.ndarray  # 80% block, shuffled order
    val_ids: np.ndarray  # leading 15% of the train block
    test_ids: np.ndarray

    @property
    def fit_ids(self) -> np.ndarray:
        return self.train_ids[len(self.val_ids):]


def make_cv_plan(n: int, seed: int, n_folds: int = 5) -> list[CvFold]:
    """Split ids into n_folds test blocks (largest-remainder sizes) with val carved from each train block."""
    if n < 10:
        raise ValueError(f"need at least 10 ids for a cross-validation plan, got {n}")
    if not 2 <= n_folds <= n:
        raise ValueError(f"fold count must be between 2 and {n} (the number of ids), got {n_folds}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, n_folds)
    sizes = [base + (1 if k < extra else 0) for k in range(n_folds)]
    bounds = np.cumsum([0] + sizes)
    folds = []
    for k in range(n_folds):
        test = perm[bounds[k]:bounds[k + 1]]
        train = np.concatenate([perm[:bounds[k]], perm[bounds[k + 1]:]])
        n_val = int(np.floor(0.15 * len(train) + 0.5))
        folds.append(CvFold(train, train[:n_val], test))
    return folds


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 5
    oversample: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):  # 0 leaves the parameters where they start
            raise ValueError(f"learning rate must be finite and non-negative, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight decay must be finite and non-negative, got {self.weight_decay}")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auroc: float = float("-inf")
    best_params: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def epochs_run(self) -> int:
        return len(self.history)


# ---------------------------------------------------------------------------
# metrics


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    s = x[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))  # run starts; each NaN is a run of its own
    counts = np.diff(first, append=len(s))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(first + 0.5 * (counts - 1) + 1.0, counts)  # ties share the average rank
    return ranks


def auroc(scores, labels) -> float:
    """Mann-Whitney estimate: P(score_pos > score_neg) with ties counted half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative label")
    ranks = _fractional_ranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(scores, labels) -> float:
    """Percentage of correct predictions, a score of 0.5 or more predicting class 1."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return float((np.where(s >= 0.5, 1, 0) == y).mean() * 100.0)


def positive_scores(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of class 1 from two-class logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e[:, 1] / np.add.reduce(e, axis=1)


# ---------------------------------------------------------------------------
# datasets the loop can train on


class _Dataset:
    """Labelled examples by id. A subclass's `inputs(ids)` is what the network's forward pass reads for
    those ids, and `node_counts(ids)` the nodes each id brings to it; the loss and the scores go through
    `inputs`. Scoring runs its forward passes without a tape, over consecutive runs of ids that hold at
    most `EVAL_NODES` nodes each (or one id)."""

    labels: np.ndarray

    def loss(self, net, ids, train: bool = False, rng=None) -> Tensor:
        ids = np.asarray(ids)
        return cross_entropy(net.forward(self.inputs(ids), train, rng), self.labels[ids])

    def scores(self, net, ids) -> np.ndarray:
        ids = np.asarray(ids)
        start = np.concatenate(([0], np.cumsum(self.node_counts(ids))))
        with no_tape():
            parts = [positive_scores(net.forward(self.inputs(ids[lo:hi])).data) for lo, hi in runs(start, EVAL_NODES)]
        return np.concatenate(parts)

    def labels_of(self, ids) -> np.ndarray:
        return self.labels[np.asarray(ids)]


class GraphDataset(_Dataset):
    """Datapoints indexed by target row; every table is encoded once with the fold's encoders, and a
    batch gathers its rows from those matrices."""

    def __init__(self, db: Database, datapoints: DatapointStore, encoders: list[NodeTypeEncoder]):
        self.db = db
        self.datapoints = datapoints
        self.encoders = encoders
        self.labels = datapoints.labels
        self.tables = encode_tables(db, encoders)

    def inputs(self, ids):
        return build_batch(self.datapoints.take(ids), self.db, self.encoders, self.tables)

    def node_counts(self, ids):
        start = self.datapoints.node_start
        return start[ids + 1] - start[ids]


class TableDataset(_Dataset):
    """A plain feature matrix with labels, for the single-table baselines; a row is one node."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)

    def inputs(self, ids):
        return Tensor(self.features[ids])

    def node_counts(self, ids):
        return np.ones(len(ids), dtype=np.int64)


def oversample_ids(ids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Duplicate minority-class ids (cycling) until both classes are equally frequent."""
    ids = np.asarray(ids)
    labels = np.asarray(labels)
    pos = ids[labels == 1]
    neg = ids[labels == 0]
    if len(pos) == 0 or len(neg) == 0 or len(pos) == len(neg):
        return ids.copy()
    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    return np.concatenate([majority, np.resize(minority, len(majority))])


# ---------------------------------------------------------------------------
# the loop


def train(net, data, fold: CvFold, config: TrainConfig) -> TrainResult:
    """Minibatch cross-entropy with AdamW; keeps the parameters of the best validation epoch."""
    rng = np.random.default_rng(config.seed)
    trainable = {k: t for k, t in net.params.items() if t.requires_grad}
    opt = AdamW(trainable, lr=config.lr, weight_decay=config.weight_decay)
    fit_ids = np.asarray(fold.fit_ids)
    pool = oversample_ids(fit_ids, data.labels_of(fit_ids)) if config.oversample else fit_ids
    result = TrainResult()
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(pool)
        weighted = 0.0
        for lo in range(0, len(order), config.batch_size):
            ids = order[lo:lo + config.batch_size]
            opt.zero_grad()
            loss = data.loss(net, ids, train=True, rng=rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise RuntimeError(f"non-finite training loss ({value}) at epoch {epoch}")
            backward(loss)
            del loss  # frees the batch's tape before the next batch records its own
            opt.step()
            weighted += value * len(ids)
        val_auroc = auroc(data.scores(net, fold.val_ids), data.labels_of(fold.val_ids))
        result.history.append({
            "epoch": epoch,
            "train_loss": weighted / len(order),
            "val_auroc": val_auroc,
        })
        if val_auroc > result.best_val_auroc:
            result.best_val_auroc = val_auroc
            result.best_epoch = epoch
            result.best_params = {k: t.data.copy() for k, t in net.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    for k, arr in result.best_params.items():
        net.params[k].data[...] = arr  # into the optimizer's views, which stay the parameters
    return result


def evaluate(net, data, ids) -> dict:
    scores = data.scores(net, ids)
    labels = data.labels_of(ids)
    return {"auroc": auroc(scores, labels), "accuracy": accuracy(scores, labels), "n": int(len(ids))}


# ---------------------------------------------------------------------------
# single-table baselines


class LinearModel:
    """Two-class logistic regression as a single linear layer trained with the same loop."""

    def __init__(self, in_width: int, seed: int = 0):
        if in_width < 1:
            raise ValueError("baseline needs at least one input feature")
        root = RngStream(seed)
        self.params = {
            "W": init_weight(root.child("W"), in_width, 2),
            "b": Tensor(np.zeros(2), requires_grad=True),
        }

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return add(matmul(x, self.params["W"]), self.params["b"])


class MlpModel:
    """Two hidden layers at 4x then 2x the input width, with dropout after each."""

    def __init__(self, in_width: int, dropout_p: float = MLP_DROPOUT, seed: int = 0):
        if in_width < 1:
            raise ValueError("baseline needs at least one input feature")
        h1, h2 = 4 * in_width, 2 * in_width
        root = RngStream(seed)
        self.dropout_p = dropout_p
        self.params = {
            "W1": init_weight(root.child("W1"), in_width, h1),
            "b1": Tensor(np.zeros(h1), requires_grad=True),
            "W2": init_weight(root.child("W2"), h1, h2),
            "b2": Tensor(np.zeros(h2), requires_grad=True),
            "W3": init_weight(root.child("W3"), h2, 2),
            "b3": Tensor(np.zeros(2), requires_grad=True),
        }

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        p = self.params
        h = relu(add(matmul(x, p["W1"]), p["b1"]))
        h = dropout(h, self.dropout_p, train, rng)
        h = relu(add(matmul(h, p["W2"]), p["b2"]))
        h = dropout(h, self.dropout_p, train, rng)
        return add(matmul(h, p["W3"]), p["b3"])


def single_table_features(db: Database, encoders: list[NodeTypeEncoder], extra_width: int = 0) -> np.ndarray:
    """Target-table rows encoded to a flat matrix; categoricals become one-hot columns. The last
    `extra_width` columns are left zero, for the caller to fill."""
    ti, _ = db.target
    enc = encoders[ti]
    n = db.tables[ti].nrows
    widths = [enc.fitted[ci].slots for ci in enc.cat_columns]
    out = np.zeros((n, enc.dense_width + sum(widths) + extra_width))
    _, cats = encode_node(db, ti, enc, out[:, :enc.dense_width])
    starts = enc.dense_width + np.cumsum([0] + widths)[:-1]
    out[np.arange(n)[:, None], starts + cats] = 1.0
    return out
