"""Message-passing classifiers over batched datapoints: GCN, GIN, GAT, per-type (ER) variants, PoolMLP."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encode import NodeTypeEncoder, encode_node
from .graph import SELF_LOOP, EdgeType, edge_types
from .rdb import Database
from .sampler import DatapointStore
from .tensor import (
    RngStream,
    Tensor,
    add,
    concat,
    cross_entropy,
    dropout,
    embedding_lookup,
    init_embedding,
    init_weight,
    leaky_relu,
    matmul,
    multiply,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
    sigmoid,
)

__all__ = ["ModelConfig", "GraphSchema", "GraphBatch", "encode_tables", "build_batch", "Model", "VARIANTS"]

VARIANTS = ("gcn", "gin", "gat", "ergcn", "ergin", "ergat", "poolmlp")

DEFAULT_ROUNDS = {"gcn": 1, "ergcn": 1, "gin": 2, "gat": 2, "ergin": 2, "ergat": 2, "poolmlp": 0}


@dataclass
class ModelConfig:
    variant: str
    hidden: int = 32
    rounds: int | None = None  # None is resolved to the variant's DEFAULT_ROUNDS when the config is built
    dropout: float = 0.5
    heads: int = 1
    gin_eps: float = 0.0
    gin_train_eps: bool = False
    classes: int = 2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.hidden <= 0:
            raise ValueError("hidden width must be positive")
        if self.variant == "poolmlp" and self.rounds not in (None, 0):
            raise ValueError(f"poolmlp runs no message passing, so rounds must be 0 or unset, got {self.rounds}")
        if self.rounds is None:
            self.rounds = DEFAULT_ROUNDS[self.variant]
        if self.variant != "poolmlp" and self.rounds < 1:
            raise ValueError("message-passing variants need rounds >= 1")
        if self.variant in ("gat", "ergat") and self.hidden % self.heads != 0:
            raise ValueError("hidden width must divide evenly across heads")


@dataclass
class GraphSchema:
    """What the parameter shapes depend on: per-type input widths and the possible edge types."""

    input_widths: list[int]
    cat_specs: list[list[tuple[int, int, int]]]  # per table: (column, rows incl null slot, dim)
    edge_types: list[EdgeType]

    @classmethod
    def from_database(cls, db: Database, encoders: list[NodeTypeEncoder], reverse_edges: bool = True) -> "GraphSchema":
        cat_specs = [[(ci, enc.fitted[ci].slots, enc.fitted[ci].embedding_dim) for ci in enc.cat_columns]
                     for enc in encoders]
        return cls([enc.input_width for enc in encoders], cat_specs, edge_types(db, reverse_edges))


@dataclass
class GraphBatch:
    num_nodes: int
    num_graphs: int
    node_type: np.ndarray  # (N,)
    graph_id: np.ndarray  # (N,)
    type_rows: dict[int, np.ndarray]  # type -> batch positions, ascending
    dense: dict[int, np.ndarray]  # type -> (n_t, dense width)
    cats: dict[int, np.ndarray]  # type -> (n_t, #categorical columns)
    scatter: np.ndarray  # (N,) batch position -> row of the type-major concatenation
    edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray  # (B,)


def encode_tables(db: Database, encoders: list[NodeTypeEncoder]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every row of every table encoded with one fold's encoders: the (dense, categorical) matrices
    that `build_batch` gathers from."""
    return [encode_node(db, t, encoders[t]) for t in range(len(db.tables))]


def build_batch(datapoints: DatapointStore | list[DatapointStore], db: Database, encoders: list[NodeTypeEncoder],
                tables: list[tuple[np.ndarray, np.ndarray]] | None = None) -> GraphBatch:
    """The datapoints as one disjoint graph, plus each forward edge's reverse and a self loop per node.
    A list of stores is concatenated first. Node features are gathered from `tables`, the output of
    `encode_tables`, which is computed here when not given."""
    if not len(datapoints):
        raise ValueError("empty batch")
    store = datapoints if isinstance(datapoints, DatapointStore) else DatapointStore.concat(datapoints)
    node_type, node_row = store.node_types, store.rows
    graph_id = np.repeat(np.arange(len(store), dtype=np.int64), np.diff(store.node_start))

    # type-major order: the types ascending, each type's batch positions ascending
    order = np.argsort(node_type, kind="stable")
    present, starts = np.unique(node_type[order], return_index=True)
    type_rows = dict(zip(present.tolist(), np.split(order, starts[1:])))
    scatter = np.empty(len(node_type), dtype=np.int64)
    scatter[order] = np.arange(len(node_type))

    # forward edges at batch positions, grouped by type with each type's edges in datapoint order
    by_type = np.argsort(store.edge_type, kind="stable")
    shift = np.repeat(store.node_start[:-1], np.diff(store.edge_start))
    src = (store.src + shift)[by_type]
    dst = (store.dst + shift)[by_type]
    cuts = np.searchsorted(store.edge_type[by_type], np.arange(1, len(store.types)))
    edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]] = {}
    for et, src_k, dst_k in zip(store.types, np.split(src, cuts), np.split(dst, cuts)):
        edges[et] = (src_k, dst_k)
        edges[et.paired_reverse()] = (dst_k, src_k)
    for t, rows in type_rows.items():
        edges[EdgeType(t, -1, SELF_LOOP)] = (rows, rows)

    if tables is None:
        tables = encode_tables(db, encoders)
    dense: dict[int, np.ndarray] = {}
    cats: dict[int, np.ndarray] = {}
    for t, positions in type_rows.items():
        rows = node_row[positions]
        dense[t], cats[t] = tables[t][0][rows], tables[t][1][rows]

    return GraphBatch(
        int(len(node_type)), len(store), node_type, graph_id, type_rows,
        dense, cats, scatter, dict(sorted(edges.items())), np.maximum(store.labels, 0),
    )


def _et_key(et: EdgeType) -> str:
    return f"et{et.table}_{et.column}_{et.direction}"


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)


class _EdgeGroup(NamedTuple):
    key: str  # parameter-name infix; "" names weights that every edge type shares
    src: np.ndarray
    dst: np.ndarray
    coeff: Tensor | None  # GCN normalization per edge, as a column
    rows: np.ndarray | None  # the group's positions in the union; None when it is the whole union


class _Plan(NamedTuple):
    """What every layer of a forward pass reads from the batch; built once per pass."""

    edges: list[_EdgeGroup]
    dst: np.ndarray  # destinations of the union, groups concatenated in order
    nodes: list[tuple[str, np.ndarray | None]]  # (parameter-name infix, batch positions; None for all)


class Model:
    """Parameter container plus forward pass for one variant; all init flows from one seed."""

    def __init__(self, config: ModelConfig, schema: GraphSchema, seed: int = 0):
        self.config = config
        self.schema = schema
        self.params: dict[str, Tensor] = {}
        self._root = RngStream(seed)
        # gcn, gin and gat are their per-type "er" twins with every relation weight tied
        self._family = config.variant.removeprefix("er")
        self._tied = self._family == config.variant
        d = config.hidden
        for ti, width in enumerate(schema.input_widths):
            for ci, rows, dim in schema.cat_specs[ti]:
                self._param(f"emb/t{ti}c{ci}", (rows, dim), kind="embedding")
            if width == 0:
                self._param(f"init/t{ti}/const", (1, d), kind="zeros")
            else:
                hidden = 4 * width
                self._param(f"init/t{ti}/W1", (width, hidden))
                self._param(f"init/t{ti}/b1", (hidden,), kind="zeros")
                self._param(f"init/t{ti}/W2", (hidden, d))
                self._param(f"init/t{ti}/b2", (d,), kind="zeros")
        if config.variant == "poolmlp":
            self._param("pool/W1", (d, d))
            self._param("pool/b1", (d,), kind="zeros")
            self._param("pool/W2", (d, config.classes))
            self._param("pool/b2", (config.classes,), kind="zeros")
        else:
            for layer in range(config.rounds):
                self._layer_params(layer)
            self._param("readout/gate_W", (d, d))
            self._param("readout/gate_b", (d,), kind="zeros")
            self._param("readout/proj_W", (d, d))
            self._param("readout/proj_b", (d,), kind="zeros")
            self._param("readout/out_W", (d, config.classes))
            self._param("readout/out_b", (config.classes,), kind="zeros")

    def _param(self, name: str, shape: tuple[int, ...], kind: str = "weight") -> None:
        stream = self._root.child(name)
        if kind == "zeros":
            self.params[name] = Tensor(np.zeros(shape), requires_grad=True)
        elif kind == "embedding":
            self.params[name] = init_embedding(stream, *shape)
        else:
            self.params[name] = init_weight(stream, *shape)

    def _edge_key(self, et: EdgeType) -> str:
        """Key map of the conv and attention layers: weights shared by all edge types, or one set per type."""
        return "" if self._tied else f"/{_et_key(et)}"

    def _node_key(self, node_type: int) -> str:
        """Key map of the GIN layer: one MLP shared by all node types, or one per type."""
        return "" if self._tied else f"/nt{node_type}"

    def _layer_params(self, layer: int) -> None:
        cfg = self.config
        d = cfg.hidden
        n_types = len(self.schema.input_widths)
        prefix = f"layer{layer}"
        if self._family == "gin":
            eps = np.asarray(cfg.gin_eps) if self._tied else np.full((n_types, 1), cfg.gin_eps)
            name = "eps" if self._tied else "eps_table"
            self.params[f"{prefix}/{name}"] = Tensor(eps, requires_grad=cfg.gin_train_eps)
            for key in dict.fromkeys(self._node_key(t) for t in range(n_types)):
                self._param(f"{prefix}{key}/W1", (d, d))
                self._param(f"{prefix}{key}/b1", (d,), kind="zeros")
                self._param(f"{prefix}{key}/W2", (d, d))
                self._param(f"{prefix}{key}/b2", (d,), kind="zeros")
            return
        edge_keys = dict.fromkeys(self._edge_key(et) for et in self.schema.edge_types)
        if self._family == "gcn":
            for key in edge_keys:
                self._param(f"{prefix}{key}/W", (d, d))
        else:
            dh = d // cfg.heads
            for head in range(cfg.heads):
                for key in edge_keys:
                    self._param(f"{prefix}/h{head}{key}/W", (d, dh))
                    self._param(f"{prefix}/h{head}{key}/a1", (dh, 1))
                    self._param(f"{prefix}/h{head}{key}/a2", (dh, 1))
        if self._tied:
            self._param(f"{prefix}/b", (d,), kind="zeros")
        else:
            self._param(f"{prefix}/bias_table", (n_types, d), kind="zeros")

    # ----- forward pieces -------------------------------------------------

    def _init_hidden(self, batch: GraphBatch) -> Tensor:
        blocks = []
        for t, rows in batch.type_rows.items():
            parts = []
            if batch.dense[t].shape[1]:
                parts.append(Tensor(batch.dense[t]))
            for j, (ci, _, _) in enumerate(self.schema.cat_specs[t]):
                parts.append(embedding_lookup(self.params[f"emb/t{t}c{ci}"], batch.cats[t][:, j]))
            if not parts:
                ones = Tensor(np.ones((len(rows), 1)))
                blocks.append(matmul(ones, self.params[f"init/t{t}/const"]))
                continue
            x = parts[0] if len(parts) == 1 else concat(parts, axis=1)
            hidden = relu(add(matmul(x, self.params[f"init/t{t}/W1"]), self.params[f"init/t{t}/b1"]))
            blocks.append(add(matmul(hidden, self.params[f"init/t{t}/W2"]), self.params[f"init/t{t}/b2"]))
        stacked = blocks[0] if len(blocks) == 1 else concat(blocks, axis=0)
        return embedding_lookup(stacked, batch.scatter)

    def _plan(self, batch: GraphBatch) -> _Plan:
        """Split the batch's edges and nodes into the parameter groups that the key maps name.

        Only the schema's edge types are read, in sorted order, and the union is
        the groups' edges concatenated in that order, multiplicity kept. GIN sums
        over the union without self-loops in both of its variants. GCN coefficients
        are 1/sqrt(deg(u) deg(v)), with degrees counted over every edge read,
        self-loops included.
        """
        gin = self._family == "gin"
        used = sorted(et for et in self.schema.edge_types if et in batch.edges)
        members: dict[str, list[EdgeType]] = {}
        for et in used:
            if not (gin and et.direction == SELF_LOOP):
                members.setdefault("" if gin else self._edge_key(et), []).append(et)
        if self._family == "gcn":
            deg = np.bincount(_cat([batch.edges[et][1] for et in used]), minlength=batch.num_nodes)
            inv_sqrt = 1.0 / np.sqrt(deg)
        groups = []
        start = 0
        for key, ets in (members or {"": []}).items():
            src = _cat([batch.edges[et][0] for et in ets])
            dst = _cat([batch.edges[et][1] for et in ets])
            coeff = Tensor((inv_sqrt[src] * inv_sqrt[dst])[:, None]) if self._family == "gcn" else None
            rows = None if len(members) <= 1 else np.arange(start, start + len(src))
            groups.append(_EdgeGroup(key, src, dst, coeff, rows))
            start += len(src)
        union_dst = groups[0].dst if len(groups) == 1 else np.concatenate([g.dst for g in groups])
        nodes = [(self._node_key(t), rows) for t, rows in batch.type_rows.items()]
        if len({key for key, _ in nodes}) == 1:
            nodes = [(nodes[0][0], None)]
        return _Plan(groups, union_dst, nodes)

    def _per_node(self, layer: int, shared: str, table: str, batch: GraphBatch) -> Tensor:
        """The layer's shared parameter when tied, else each node's row of its per-node-type table."""
        if self._tied:
            return self.params[f"layer{layer}/{shared}"]
        return embedding_lookup(self.params[f"layer{layer}/{table}"], batch.node_type)

    def _gcn_layer(self, layer: int, h: Tensor, batch: GraphBatch, plan: _Plan) -> Tensor:
        agg = None
        for group in plan.edges:
            y = matmul(h, self.params[f"layer{layer}{group.key}/W"])
            msg = multiply(embedding_lookup(y, group.src), group.coeff)
            part = segment_sum(msg, group.dst, batch.num_nodes)
            agg = part if agg is None else add(agg, part)
        return relu(add(agg, self._per_node(layer, "b", "bias_table", batch)))

    def _gin_layer(self, layer: int, h: Tensor, batch: GraphBatch, plan: _Plan) -> Tensor:
        (union,) = plan.edges
        neigh = segment_sum(embedding_lookup(h, union.src), union.dst, batch.num_nodes)
        scale = add(Tensor(1.0), self._per_node(layer, "eps", "eps_table", batch))
        pre = add(multiply(h, scale), neigh)
        p = self.params
        blocks = []
        for key, rows in plan.nodes:
            x = pre if rows is None else embedding_lookup(pre, rows)
            prefix = f"layer{layer}{key}"
            hidden = relu(add(matmul(x, p[f"{prefix}/W1"]), p[f"{prefix}/b1"]))
            blocks.append(add(matmul(hidden, p[f"{prefix}/W2"]), p[f"{prefix}/b2"]))
        if len(blocks) == 1:
            return blocks[0]
        return embedding_lookup(concat(blocks, axis=0), batch.scatter)  # type-major rows back to batch order

    def _gat_layer(self, layer: int, h: Tensor, batch: GraphBatch, plan: _Plan) -> Tensor:
        p = self.params
        heads = []
        for head in range(self.config.heads):
            ys, logit_parts = [], []
            for group in plan.edges:
                key = f"layer{layer}/h{head}{group.key}"
                y = matmul(h, p[f"{key}/W"])
                s1 = matmul(y, p[f"{key}/a1"])  # destination term
                s2 = matmul(y, p[f"{key}/a2"])  # source term
                ys.append(y)
                scores = add(embedding_lookup(s1, group.dst), embedding_lookup(s2, group.src))
                logit_parts.append(leaky_relu(scores, 0.2))
            logits = logit_parts[0] if len(logit_parts) == 1 else concat(logit_parts, axis=0)
            alpha = segment_softmax(logits, plan.dst, batch.num_nodes)  # joint over the whole in-neighborhood
            agg = None
            for group, y in zip(plan.edges, ys):
                weight = alpha if group.rows is None else embedding_lookup(alpha, group.rows)
                part = segment_sum(multiply(weight, embedding_lookup(y, group.src)), group.dst, batch.num_nodes)
                agg = part if agg is None else add(agg, part)
            heads.append(agg)
        agg = heads[0] if len(heads) == 1 else concat(heads, axis=1)
        return sigmoid(add(agg, self._per_node(layer, "b", "bias_table", batch)))

    def _readout(self, h: Tensor, batch: GraphBatch) -> Tensor:
        p = self.params
        gates = sigmoid(add(matmul(h, p["readout/gate_W"]), p["readout/gate_b"]))
        proj = add(matmul(h, p["readout/proj_W"]), p["readout/proj_b"])
        pooled = segment_sum(multiply(gates, proj), batch.graph_id, batch.num_graphs)
        return add(matmul(pooled, p["readout/out_W"]), p["readout/out_b"])

    def forward(self, batch: GraphBatch, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.config
        h = self._init_hidden(batch)
        if cfg.variant == "poolmlp":
            mean = segment_mean(h, batch.graph_id, batch.num_graphs)
            p = self.params
            hidden = relu(add(matmul(mean, p["pool/W1"]), p["pool/b1"]))
            hidden = dropout(hidden, cfg.dropout, train, rng)
            return add(matmul(hidden, p["pool/W2"]), p["pool/b2"])
        layer_fn = {"gcn": self._gcn_layer, "gin": self._gin_layer, "gat": self._gat_layer}[self._family]
        plan = self._plan(batch)
        for layer in range(cfg.rounds):
            h = layer_fn(layer, h, batch, plan)
            h = dropout(h, cfg.dropout, train, rng)
        return self._readout(h, batch)

    def loss(self, batch: GraphBatch, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        return cross_entropy(self.forward(batch, train, rng), batch.labels)
