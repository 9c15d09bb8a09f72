"""Extract per-target datapoints: ancestor closure, then descendant closure, then the induced subgraph."""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .graph import FORWARD, SELF_LOOP, EdgeType, HeteroGraph, edge_types
from .rdb import target_labels

__all__ = [
    "Datapoint",
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


@dataclass(slots=True)
class Datapoint:
    """One target's subgraph: its nodes and forward edges. Reverse edges and self loops are functions of
    these, derived where they are read (`models.build_batch`, `write_datapoints_jsonl`)."""

    node_types: np.ndarray  # table index per local node, int64; local ids in canonical (table, row) order
    rows: np.ndarray  # row within its table per local node, int64
    src: np.ndarray  # local id of each forward edge's referencing row, in ascending graph edge id
    dst: np.ndarray  # local id of each forward edge's referenced row
    edge_type: np.ndarray  # index of each forward edge's type in `types`
    types: list[EdgeType]  # the graph's forward edge types, one list shared by all its datapoints
    target_local: int
    label: int | None
    provenance: tuple[int, int]

    @property
    def nodes(self) -> list[tuple[int, int]]:  # original (table, row) ids
        return list(zip(self.node_types.tolist(), self.rows.tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)


class _Scratch:
    """Per-node work arrays for sampling one target at a time: `selected` (the closure's visited set)
    and `local_of` (the induced subgraph's local ids). Their users reset exactly the entries they set,
    so the per-target cost depends on the subgraph's size, not the graph's."""

    def __init__(self, num_nodes: int):
        self.selected = np.zeros(num_nodes, dtype=bool)
        self.local_of = np.full(num_nodes, -1, dtype=np.int64)


def _select_closure(graph: HeteroGraph, scratch: _Scratch, start: int, cap: int,
                    edge_type_once: bool = False) -> np.ndarray:
    """Sorted global ids of the target's ancestors to fixpoint, then of their descendants.

    Each round expands the frontier, the nodes the last round added, through the graph's CSR lists.
    With `edge_type_once`, a round skips the edge types that earlier rounds spent, then spends each
    type that crossed into the set as it stood before the round. Only the frontier can have crossing
    edges of unspent types: an older node's crossed in the round after it joined, which spent their
    types. So both modes cost O(subgraph) per target."""
    selected = scratch.selected
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


def _induce(graph: HeteroGraph, scratch: _Scratch, global_ids: np.ndarray, target: tuple[int, int],
            label: int | None) -> Datapoint:
    """The datapoint of the nodes `global_ids` (sorted) with every forward edge between them."""
    local_of = scratch.local_of
    local_of[global_ids] = np.arange(len(global_ids))
    try:
        # out-edges of the selected nodes, then those that stay inside
        edge_ids = graph.out_edges(global_ids)[0]
        dst = local_of[graph.dst[edge_ids]]
        # ascending edge id = per-type blocks, each in the graph's edge order
        edge_ids = np.sort(edge_ids[dst >= 0])
        src = local_of[graph.src[edge_ids]]
        dst = local_of[graph.dst[edge_ids]]
        target_local = int(local_of[graph.offsets[target[0]] + target[1]])
    finally:
        local_of[global_ids] = -1
    node_types = np.searchsorted(graph.offsets, global_ids, side="right") - 1
    return Datapoint(node_types, global_ids - graph.offsets[node_types], src, dst, graph.type_id[edge_ids],
                     graph.types, target_local, label, target)


def rdb_to_graph(graph: HeteroGraph, target: tuple[int, int], *, size_cap: int = DEFAULT_SIZE_CAP,
                 edge_type_once: bool = False, label: int | None = None,
                 _scratch: _Scratch | None = None) -> Datapoint:
    """Select every ancestor of the target node, then every descendant of the selected set; with
    `edge_type_once`, each edge type is followed in at most one expansion round."""
    scratch = _scratch or _Scratch(graph.num_nodes)
    start = int(graph.offsets[target[0]] + target[1])
    global_ids = _select_closure(graph, scratch, start, size_cap, edge_type_once)
    if label is None and len(graph.db.target_flags) == 1 and graph.db.target[0] == target[0]:
        label = int(target_labels(graph.db)[target[1]])
    return _induce(graph, scratch, global_ids, target, label)


def batch_sample(graph: HeteroGraph, target_rows: list[int], *, edge_type_once: bool = False,
                 size_cap: int = DEFAULT_SIZE_CAP) -> list[Datapoint]:
    """One datapoint per target row of the target table, in the requested order."""
    scratch = _Scratch(graph.num_nodes)
    table = graph.db.target[0]
    labels = target_labels(graph.db)
    out = []
    for row in target_rows:
        try:
            out.append(rdb_to_graph(graph, (table, int(row)), size_cap=size_cap,
                                    edge_type_once=edge_type_once, label=int(labels[row]), _scratch=scratch))
        except SizeCapError as exc:
            raise SizeCapError(exc.selected, exc.cap, int(row)) from None
    return out


def write_datapoints_jsonl(path: str | Path, datapoints: list[Datapoint], graph: HeteroGraph,
                           reverse_edges: bool) -> None:
    """One JSON record per datapoint, its edges listed per type of `edge_types(db, reverse_edges)`."""
    names = [table.name for table in graph.db.tables]
    kinds = [(graph.edge_type_name(et), et.direction,  # a self loop's table, else its forward type's index
              et.table if et.direction == SELF_LOOP else graph.types.index(replace(et, direction=FORWARD)))
             for et in edge_types(graph.db, reverse_edges)]
    with open(path, "w", encoding="utf-8") as handle:
        for dp in datapoints:
            ids = [[t, r] for t, r in zip(dp.node_types.tolist(), dp.rows.tolist())]
            forward: list[list] = [[] for _ in graph.types]
            for k, s, d in zip(dp.edge_type.tolist(), dp.src.tolist(), dp.dst.tolist()):
                forward[k].append((ids[s], ids[d]))
            edges = []
            for name, direction, k in kinds:
                if direction == SELF_LOOP:
                    pairs = [(nid, nid) for nid in ids if nid[0] == k]
                else:
                    pairs = forward[k] if direction == FORWARD else [(d, s) for s, d in forward[k]]
                edges += [{"src": s, "dst": d, "type": name} for s, d in pairs]
            record = {"target": list(dp.provenance), "label": dp.label, "edges": edges,
                      "nodes": [{"id": nid, "type": names[nid[0]]} for nid in ids]}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
