"""Extract per-target datapoints: ancestor closure, then descendant closure, then the induced subgraph."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import FORWARD, REVERSE, SELF_LOOP, EdgeType, HeteroGraph
from .rdb import target_labels

__all__ = [
    "Datapoint",
    "SizeCapError",
    "rdb_to_graph",
    "rdb_to_graph_edge_type_once",
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
class Datapoint:
    nodes: list[tuple[int, int]]  # original (table, row) ids in canonical order
    node_types: np.ndarray  # table index per local node
    edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]]  # local src/dst indices
    target_local: int
    label: int | None
    provenance: tuple[int, int]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


class _ForwardIndex:
    """CSR adjacency over the forward edges, in global node ids, plus flat per-type edge arrays.

    `selected` (the closure's visited set) and `local_of` (the induced subgraph's local ids) are
    scratch arrays for one target at a time. Their users reset exactly the entries they set, so
    the per-target cost depends on the subgraph's size, not the graph's.
    """

    def __init__(self, graph: HeteroGraph):
        self.graph = graph
        self.offsets = np.cumsum([0] + graph.node_counts)
        n = graph.num_nodes
        self.types: list[EdgeType] = sorted(et for et in graph.edges if et.direction == FORWARD)
        srcs, dsts, type_ids = [], [], []
        for k, et in enumerate(self.types):
            src_t, dst_t, src, dst = graph.edges[et]
            srcs.append(self.offsets[src_t] + src)
            dsts.append(self.offsets[dst_t] + dst)
            type_ids.append(np.full(len(src), k, dtype=np.int64))
        self.src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        self.dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
        self.type_id = np.concatenate(type_ids) if type_ids else np.zeros(0, dtype=np.int64)
        order_out = np.argsort(self.src, kind="stable")
        self.out_sorted = order_out
        self.out_start = np.searchsorted(self.src[order_out], np.arange(n + 1))
        order_in = np.argsort(self.dst, kind="stable")
        self.in_sorted = order_in
        self.in_start = np.searchsorted(self.dst[order_in], np.arange(n + 1))
        self.selected = np.zeros(n, dtype=bool)
        self.local_of = np.full(n, -1, dtype=np.int64)

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.dst[self.out_sorted[self.out_start[node] : self.out_start[node + 1]]]

    def in_neighbors(self, node: int) -> np.ndarray:
        return self.src[self.in_sorted[self.in_start[node] : self.in_start[node + 1]]]


def _bfs(frontier: list[int], selected: np.ndarray, touched: list[int], neighbors, cap: int,
         target_row: int | None) -> None:
    """Select everything reachable from `frontier`, appending each newly selected node to `touched`."""
    while frontier:
        level = len(touched)
        for node in frontier:
            for nb in neighbors(node).tolist():
                if not selected[nb]:
                    selected[nb] = True
                    touched.append(nb)
        if len(touched) > cap:
            raise SizeCapError(len(touched), cap, target_row)
        frontier = touched[level:]


def _select_closure(index: _ForwardIndex, start: int, cap: int, target_row: int | None) -> np.ndarray:
    """Sorted global ids of the target's ancestors to fixpoint, then of their descendants."""
    selected = index.selected
    touched = [start]
    selected[start] = True
    try:
        _bfs([start], selected, touched, index.in_neighbors, cap, target_row)  # ancestors to fixpoint
        _bfs(list(touched), selected, touched, index.out_neighbors, cap, target_row)  # then descendants
    finally:
        ids = np.asarray(touched, dtype=np.int64)
        selected[ids] = False
    return np.sort(ids)


def _select_closure_edge_type_once(index: _ForwardIndex, start: int, cap: int,
                                   target_row: int | None) -> np.ndarray:
    """Round-based expansion; an edge type that contributes in some round is spent for the whole run.

    Returns sorted global ids, like `_select_closure`; each round scans every edge of the graph."""
    selected = np.zeros(index.graph.num_nodes, dtype=bool)
    selected[start] = True
    count = 1
    used = np.zeros(len(index.types), dtype=bool)
    for adds_from, adds_to in ((index.dst, index.src), (index.src, index.dst)):
        # first pass grows ancestors (edges entering the set), second grows descendants
        while True:
            if count > cap:
                raise SizeCapError(count, cap, target_row)
            crossing = selected[adds_from] & ~selected[adds_to] & ~used[index.type_id]
            if not crossing.any():
                break
            used[np.unique(index.type_id[crossing])] = True
            added = np.unique(adds_to[crossing])
            selected[added] = True
            count += len(added)
    return np.nonzero(selected)[0]


def _induce(index: _ForwardIndex, global_ids: np.ndarray, target: tuple[int, int], label: int | None,
            reverse_edges: bool) -> Datapoint:
    """The datapoint of the nodes `global_ids` (sorted) with every forward edge between them."""
    local_of = index.local_of
    local_of[global_ids] = np.arange(len(global_ids))
    try:
        # out-edges of the selected nodes, by position in the CSR, then those that stay inside
        starts = index.out_start[global_ids]
        counts = index.out_start[global_ids + 1] - starts
        first = np.cumsum(counts) - counts
        positions = np.arange(int(counts.sum())) + np.repeat(starts - first, counts)
        edge_ids = index.out_sorted[positions]
        dst = local_of[index.dst[edge_ids]]
        # ascending edge id = per-type blocks, each in the graph's edge order
        edge_ids = np.sort(edge_ids[dst >= 0])
        src = local_of[index.src[edge_ids]]
        dst = local_of[index.dst[edge_ids]]
        bounds = np.searchsorted(index.type_id[edge_ids], np.arange(len(index.types) + 1)).tolist()
        target_local = int(local_of[index.offsets[target[0]] + target[1]])
    finally:
        local_of[global_ids] = -1

    table_bounds = np.searchsorted(global_ids, index.offsets).tolist()  # first local id per table
    node_types = np.repeat(np.arange(len(table_bounds) - 1, dtype=np.int64), np.diff(table_bounds))
    nodes = list(zip(node_types.tolist(), (global_ids - index.offsets[node_types]).tolist()))
    edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]] = {}
    for k, et in enumerate(index.types):
        src_k, dst_k = src[bounds[k] : bounds[k + 1]], dst[bounds[k] : bounds[k + 1]]
        edges[et] = (src_k, dst_k)
        if reverse_edges:
            edges[et.paired_reverse()] = (dst_k, src_k)
    for ti, (lo, hi) in enumerate(zip(table_bounds, table_bounds[1:])):
        if lo < hi:
            rows = np.arange(lo, hi, dtype=np.int64)
            edges[EdgeType(ti, -1, SELF_LOOP)] = (rows, rows)
    return Datapoint(nodes, node_types, edges, target_local, label, target)


def _lookup_label(graph: HeteroGraph, target: tuple[int, int]) -> int | None:
    db = graph.db
    if len(db.target_flags) == 1 and db.target[0] == target[0]:
        return int(target_labels(db)[target[1]])
    return None


def rdb_to_graph(graph: HeteroGraph, target: tuple[int, int], *, size_cap: int = DEFAULT_SIZE_CAP,
                 reverse_edges: bool = True, label: int | None = None,
                 _index: _ForwardIndex | None = None) -> Datapoint:
    """Select every ancestor of the target node, then every descendant of the selected set."""
    index = _index or _ForwardIndex(graph)
    start = int(index.offsets[target[0]] + target[1])
    global_ids = _select_closure(index, start, size_cap, None)
    if label is None:
        label = _lookup_label(graph, target)
    return _induce(index, global_ids, target, label, reverse_edges)


def rdb_to_graph_edge_type_once(graph: HeteroGraph, target: tuple[int, int], *,
                                size_cap: int = DEFAULT_SIZE_CAP, reverse_edges: bool = True,
                                label: int | None = None,
                                _index: _ForwardIndex | None = None) -> Datapoint:
    """Closure variant that follows each edge type in at most one expansion round."""
    index = _index or _ForwardIndex(graph)
    start = int(index.offsets[target[0]] + target[1])
    global_ids = _select_closure_edge_type_once(index, start, size_cap, None)
    if label is None:
        label = _lookup_label(graph, target)
    return _induce(index, global_ids, target, label, reverse_edges)


def batch_sample(graph: HeteroGraph, target_rows: list[int], *, edge_type_once: bool = False,
                 size_cap: int = DEFAULT_SIZE_CAP, reverse_edges: bool = True) -> list[Datapoint]:
    """One datapoint per target row of the target table, in the requested order."""
    index = _ForwardIndex(graph)
    table = graph.db.target[0]
    labels = target_labels(graph.db)
    out = []
    for row in target_rows:
        try:
            if edge_type_once:
                dp = rdb_to_graph_edge_type_once(graph, (table, int(row)), size_cap=size_cap,
                                                 reverse_edges=reverse_edges, label=int(labels[row]), _index=index)
            else:
                dp = rdb_to_graph(graph, (table, int(row)), size_cap=size_cap,
                                  reverse_edges=reverse_edges, label=int(labels[row]), _index=index)
        except SizeCapError as exc:
            raise SizeCapError(exc.selected, exc.cap, int(row)) from None
        out.append(dp)
    return out


def write_datapoints_jsonl(path: str | Path, datapoints: list[Datapoint], graph: HeteroGraph) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for dp in datapoints:
            nodes = [{"id": list(nid), "type": graph.db.tables[nid[0]].name} for nid in dp.nodes]
            edges = []
            for et in sorted(dp.edges):
                src, dst = dp.edges[et]
                name = graph.edge_type_name(et)
                for s, d in zip(src, dst):
                    edges.append({"src": list(dp.nodes[s]), "dst": list(dp.nodes[d]), "type": name})
            record = {
                "target": list(dp.provenance),
                "label": dp.label,
                "nodes": nodes,
                "edges": edges,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
