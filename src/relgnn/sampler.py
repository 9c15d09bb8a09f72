"""Extract per-target subgraphs: ancestor closure, then descendant closure per target, then the induced
subgraphs of all targets in one pass, held in one `DatapointStore`."""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .graph import FORWARD, SELF_LOOP, EdgeType, HeteroGraph, edge_types, ranges

__all__ = [
    "DatapointStore",
    "SizeCapError",
    "rdb_to_graph",
    "batch_sample",
    "write_datapoints_jsonl",
]

DEFAULT_SIZE_CAP = 50_000


class SizeCapError(RuntimeError):
    def __init__(self, selected: int, cap: int, target_row: int | None = None):
        self.selected = selected
        self.cap = cap
        self.target_row = target_row
        at = "" if target_row is None else f" (target row {target_row})"
        super().__init__(f"selected subgraph exceeds size cap: {selected} > {cap}{at}")


@dataclass
class DatapointStore:
    """The subgraphs of one or more targets in flat arrays: the one type of sampled subgraph. Target i's
    nodes are `node_types`/`rows` from `node_start[i]` to `node_start[i + 1]`, its forward edges
    `src`/`dst`/`edge_type` from `edge_start[i]` to `edge_start[i + 1]`, with `src`/`dst` local ids
    within its nodes. Reverse edges and self loops are functions of these, derived where they are read
    (`models.build_batch`, `write_datapoints_jsonl`). `store[i]` is target i's one-target store, made of
    views of these arrays."""

    node_types: np.ndarray  # table index per node, int64; each target's nodes in (table, row) order
    rows: np.ndarray  # row within its table per node, int64
    node_start: np.ndarray  # (targets + 1,)
    src: np.ndarray  # local id of each forward edge's referencing row; each target's in ascending graph edge id
    dst: np.ndarray  # local id of each forward edge's referenced row
    edge_type: np.ndarray  # index of each forward edge's type in `types`
    edge_start: np.ndarray  # (targets + 1,)
    target_local: np.ndarray  # (targets,)
    labels: np.ndarray  # (targets,) int64; -1 for a target outside the target table, which has no label
    targets: np.ndarray  # (targets, 2): each target's (table, row)
    types: list[EdgeType]  # the graph's forward edge types, one list shared by all its stores

    @classmethod
    def concat(cls, stores: list["DatapointStore"]) -> "DatapointStore":
        """The stores, which share one `types` list, copied into one store in list order."""
        def joined(name):
            return np.concatenate([getattr(store, name) for store in stores])

        def offsets(name):  # each store's per-target counts, continued past the stores before it
            counts = np.concatenate([np.diff(getattr(store, name)) for store in stores])
            return np.concatenate(([0], np.cumsum(counts)))

        return cls(joined("node_types"), joined("rows"), offsets("node_start"), joined("src"), joined("dst"),
                   joined("edge_type"), offsets("edge_start"), joined("target_local"), joined("labels"),
                   joined("targets"), stores[0].types)

    @property
    def nodes(self) -> list[tuple[int, int]]:  # original (table, row) ids
        return list(zip(self.node_types.tolist(), self.rows.tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    def __len__(self) -> int:
        return len(self.target_local)

    def __getitem__(self, i: int) -> "DatapointStore":
        i = range(len(self))[i]
        (n0, n1), (e0, e1) = self.node_start[i:i + 2].tolist(), self.edge_start[i:i + 2].tolist()
        one = slice(i, i + 1)
        return DatapointStore(self.node_types[n0:n1], self.rows[n0:n1], np.array([0, n1 - n0]), self.src[e0:e1],
                              self.dst[e0:e1], self.edge_type[e0:e1], np.array([0, e1 - e0]), self.target_local[one],
                              self.labels[one], self.targets[one], self.types)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take(self, ids) -> "DatapointStore":
        """The store of the targets `ids`, in that order, gathered with one step per array."""
        ids = np.asarray(ids, dtype=np.int64)
        nodes, node_counts = ranges(self.node_start, ids)
        edges, edge_counts = ranges(self.edge_start, ids)
        return DatapointStore(
            self.node_types[nodes], self.rows[nodes], np.concatenate(([0], np.cumsum(node_counts))),
            self.src[edges], self.dst[edges], self.edge_type[edges], np.concatenate(([0], np.cumsum(edge_counts))),
            self.target_local[ids], self.labels[ids], self.targets[ids], self.types)


def _select_closure(graph: HeteroGraph, selected: np.ndarray, start: int, cap: int,
                    edge_type_once: bool = False) -> np.ndarray:
    """Sorted global ids of the target's ancestors to fixpoint, then of their descendants.

    `selected` is the visited set, one flag per graph node, all clear; the closure clears exactly the
    flags it sets, so the per-target cost depends on the subgraph's size, not the graph's. Each round
    expands the frontier, the nodes the last round added, through the graph's CSR lists. With
    `edge_type_once`, a round skips the edge types that earlier rounds spent, then spends each type
    that crossed into the set as it stood before the round. Only the frontier can have crossing edges
    of unspent types: an older node's crossed in the round after it joined, which spent their types.
    So both modes cost O(subgraph) per target."""
    spent = set() if edge_type_once else None
    touched = [start]
    selected[start] = True
    try:
        frontier = [start]
        for starts, order, ends in ((graph.in_start, graph.in_sorted, graph.src),
                                    (graph.out_start, graph.out_sorted, graph.dst)):  # ancestors, then descendants
            while frontier:
                if len(touched) > cap:
                    raise SizeCapError(len(touched), cap)
                level = len(touched)
                followed = []  # (reached node, edge type) of each edge the round follows; edge-type-once only
                for node in frontier:
                    edge_ids = order[starts[node] : starts[node + 1]]
                    reached = ends[edge_ids].tolist()
                    if spent is not None:
                        pairs = [(nb, t) for nb, t in zip(reached, graph.type_id[edge_ids].tolist()) if t not in spent]
                        followed += pairs
                        reached = [nb for nb, _ in pairs]
                    for nb in reached:
                        if not selected[nb]:
                            selected[nb] = True
                            touched.append(nb)
                frontier = touched[level:]
                if spent is not None:
                    fresh = set(frontier)
                    spent.update(t for nb, t in followed if nb in fresh)
            frontier = list(touched)
    finally:
        ids = np.asarray(touched, dtype=np.int64)
        selected[ids] = False
    return np.sort(ids)


def _induce(graph: HeteroGraph, ids: np.ndarray, sizes, targets: np.ndarray, labels: np.ndarray) -> DatapointStore:
    """The store of subgraphs whose nodes are `ids`, each target's `sizes[i]` ids in a row and sorted,
    with every forward edge between two nodes of the same target, all targets in one array pass. Each
    temporary is dropped once spent; kept to the end, they raised the pass's peak memory by 40%."""
    n = graph.num_nodes
    node_start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    owner = np.repeat(np.arange(len(targets)), np.diff(node_start))
    keys = owner * n
    keys += ids  # ascending: targets in order, each target's ids sorted
    target_keys = np.arange(len(targets)) * n + graph.offsets[targets[:, 0]] + targets[:, 1]
    target_local = np.searchsorted(keys, target_keys) - node_start[:-1]
    # out-edges of every selected node; an edge stays when its dst is selected for the same target
    edge_ids, counts = graph.out_edges(ids)
    src = np.repeat(np.arange(len(ids)), counts)  # position of each edge's source in `ids`
    del counts
    want = owner[src]
    want *= n
    want += graph.dst[edge_ids]
    dst = np.searchsorted(keys, want)
    inside = keys[np.minimum(dst, len(keys) - 1)] == want
    del keys, want
    src, dst, edge_ids = src[inside], dst[inside], edge_ids[inside]
    del inside
    # by target, then ascending edge id = per-type blocks, each in the graph's edge order
    order = np.lexsort((edge_ids, owner[src]))
    src, dst, edge_type = src[order], dst[order], graph.type_id[edge_ids[order]]
    del order, edge_ids
    edge_owner = owner[src]
    del owner
    shift = node_start[edge_owner]
    src -= shift
    dst -= shift
    del shift
    node_types = np.searchsorted(graph.offsets, ids, side="right") - 1
    return DatapointStore(node_types, ids - graph.offsets[node_types], node_start, src, dst, edge_type,
                          np.searchsorted(edge_owner, np.arange(len(targets) + 1)), target_local, labels, targets,
                          graph.types)


def _sample(graph: HeteroGraph, targets: np.ndarray, edge_type_once: bool, size_cap: int) -> DatapointStore:
    """One subgraph per `(table, row)` row of `targets`, in that order: a closure per target with one
    visited array, then one induce pass over all of them, with labels from `graph.labels`."""
    selected = np.zeros(graph.num_nodes, dtype=bool)
    starts = graph.offsets[targets[:, 0]] + targets[:, 1]
    ids, sizes = bytearray(), []  # the closures' int64 bytes back to back, with no array object per target
    for start, row in zip(starts.tolist(), targets[:, 1].tolist()):
        try:
            closure = _select_closure(graph, selected, start, size_cap, edge_type_once)
        except SizeCapError as exc:
            raise SizeCapError(exc.selected, exc.cap, row) from None
        ids += closure.tobytes()
        sizes.append(len(closure))
    return _induce(graph, np.frombuffer(ids, dtype=np.int64), sizes, targets, graph.labels[starts])


def rdb_to_graph(graph: HeteroGraph, target: tuple[int, int], *, size_cap: int = DEFAULT_SIZE_CAP,
                 edge_type_once: bool = False) -> DatapointStore:
    """The one-target store of `target`, a `(table, row)` pair: every ancestor of its node, then every
    descendant of the selected set; with `edge_type_once`, each edge type is followed in at most one
    expansion round."""
    return _sample(graph, np.array([target], dtype=np.int64), edge_type_once, size_cap)


def batch_sample(graph: HeteroGraph, target_rows: list[int], *, edge_type_once: bool = False,
                 size_cap: int = DEFAULT_SIZE_CAP) -> DatapointStore:
    """One subgraph per target row of the target table, in the requested order."""
    rows = np.asarray(target_rows, dtype=np.int64)
    targets = np.stack([np.full(len(rows), graph.db.target[0], dtype=np.int64), rows], axis=1)
    return _sample(graph, targets, edge_type_once, size_cap)


def write_datapoints_jsonl(path: str | Path, datapoints: DatapointStore, graph: HeteroGraph,
                           reverse_edges: bool) -> None:
    """One JSON record per datapoint, its edges listed per type of `edge_types(db, reverse_edges)`:
    the text `json.dumps(record, sort_keys=True)` would write, from templates filled per record."""
    node_tail = [f', "type": {json.dumps(table.name)}}}' for table in graph.db.tables]
    kinds = []  # (direction, a self loop's table or its forward type's index, the edge text's tail)
    for et in edge_types(graph.db, reverse_edges):
        k = et.table if et.direction == SELF_LOOP else graph.types.index(replace(et, direction=FORWARD))
        kinds.append((et.direction, k, f', "type": {json.dumps(graph.edge_type_name(et))}}}'))
    node_start, edge_start = datapoints.node_start.tolist(), datapoints.edge_start.tolist()
    labels, (tables, target_rows) = datapoints.labels.tolist(), datapoints.targets.T.tolist()
    with open(path, "w", encoding="utf-8") as handle:
        for i, (table, row) in enumerate(zip(tables, target_rows)):
            n0, n1, e0, e1 = node_start[i], node_start[i + 1], edge_start[i], edge_start[i + 1]
            types = datapoints.node_types[n0:n1].tolist()
            ids = [f"[{t}, {r}]" for t, r in zip(types, datapoints.rows[n0:n1].tolist())]
            edge_type = datapoints.edge_type[e0:e1].tolist()
            src = [ids[s] for s in datapoints.src[e0:e1].tolist()]
            dst = [ids[d] for d in datapoints.dst[e0:e1].tolist()]
            edges = []
            for direction, k, tail in kinds:
                if direction == SELF_LOOP:  # nodes are in table order, so each table's are one slice
                    lo, hi, s, d = bisect_left(types, k), bisect_right(types, k), ids, ids
                else:
                    lo, hi = bisect_left(edge_type, k), bisect_right(edge_type, k)
                    s, d = (src, dst) if direction == FORWARD else (dst, src)
                edges += [f'{{"dst": {b}, "src": {a}{tail}' for a, b in zip(s[lo:hi], d[lo:hi])]
            nodes = [f'{{"id": {x}{node_tail[t]}' for x, t in zip(ids, types)]
            label = "null" if labels[i] < 0 else str(labels[i])
            handle.write(f'{{"edges": [{", ".join(edges)}], "label": {label}, '
                         f'"nodes": [{", ".join(nodes)}], "target": [{table}, {row}]}}\n')
