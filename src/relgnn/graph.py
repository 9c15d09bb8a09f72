"""Interpret a relational database as a typed directed multigraph: rows become nodes, FK cells become edges."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rdb import Database

__all__ = [
    "EdgeType",
    "HeteroGraph",
    "database_to_graph",
    "add_reverse_edges",
    "graph_stats",
    "GraphStats",
]

FORWARD = "forward"
REVERSE = "reverse"
SELF_LOOP = "self_loop"


@dataclass(frozen=True, order=True)
class EdgeType:
    table: int  # table owning the FK column; node type for self loops
    column: int  # FK column index; -1 for self loops
    direction: str

    def paired_reverse(self) -> "EdgeType":
        assert self.direction == FORWARD
        return EdgeType(self.table, self.column, REVERSE)


@dataclass
class HeteroGraph:
    """Immutable after build; edge arrays are per edge type with a fixed (src table, dst table)."""

    db: Database
    node_counts: list[int]
    # EdgeType -> (src table, dst table, src row array, dst row array)
    edges: dict[EdgeType, tuple[int, int, np.ndarray, np.ndarray]]

    @property
    def num_nodes(self) -> int:
        return sum(self.node_counts)

    def num_edges(self, directions: Iterable[str] = (FORWARD, REVERSE, SELF_LOOP)) -> int:
        wanted = set(directions)
        return sum(len(src) for et, (_, _, src, _) in self.edges.items() if et.direction in wanted)

    def edge_type_name(self, et: EdgeType) -> str:
        table = self.db.tables[et.table]
        if et.direction == SELF_LOOP:
            return f"{table.name}:self"
        return f"{table.name}.{table.columns[et.column].name}:{et.direction}"


def database_to_graph(db: Database) -> HeteroGraph:
    """One node per row; one forward edge per resolved non-null FK cell, referencing row -> referenced row."""
    node_counts = [t.nrows for t in db.tables]
    edges: dict[EdgeType, tuple[int, int, np.ndarray, np.ndarray]] = {}
    for (ti, ci), resolved in sorted(db.fk_rows.items()):
        ref_table, _ = db.tables[ti].columns[ci].kind.references
        dst_table = db.table_index(ref_table)
        mask = resolved >= 0
        src = np.nonzero(mask)[0].astype(np.int64)
        dst = resolved[mask]
        edges[EdgeType(ti, ci, FORWARD)] = (ti, dst_table, src, dst)
    return HeteroGraph(db, node_counts, edges)


def add_reverse_edges(graph: HeteroGraph) -> HeteroGraph:
    """Pair every forward type with a reverse type carrying the swapped endpoints; idempotent."""
    edges = dict(graph.edges)
    for et, (src_t, dst_t, src, dst) in graph.edges.items():
        if et.direction != FORWARD:
            continue
        rev = et.paired_reverse()
        if rev not in edges:
            edges[rev] = (dst_t, src_t, dst, src)
    return HeteroGraph(graph.db, graph.node_counts, edges)


@dataclass
class GraphStats:
    node_counts: dict[str, int]
    edge_counts: dict[str, int]
    in_degree_histogram: dict[int, int]  # over forward edges only

    def render(self) -> str:
        lines = [f"nodes: {sum(self.node_counts.values())}"]
        for name, count in self.node_counts.items():
            lines.append(f"  {name}: {count}")
        lines.append(f"edges: {sum(self.edge_counts.values())}")
        for name, count in self.edge_counts.items():
            lines.append(f"  {name}: {count}")
        lines.append("forward in-degree histogram:")
        for degree in sorted(self.in_degree_histogram):
            lines.append(f"  degree {degree}: {self.in_degree_histogram[degree]} nodes")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "node_counts": self.node_counts,
            "edge_counts": self.edge_counts,
            "in_degree_histogram": {str(k): v for k, v in sorted(self.in_degree_histogram.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def graph_stats(graph: HeteroGraph) -> GraphStats:
    node_counts = {t.name: n for t, n in zip(graph.db.tables, graph.node_counts)}
    edge_counts = {graph.edge_type_name(et): len(src) for et, (_, _, src, _) in sorted(graph.edges.items())}
    offsets = np.cumsum([0] + graph.node_counts)
    in_degree = np.zeros(graph.num_nodes, dtype=np.int64)
    for et, (_, dst_t, _, dst) in graph.edges.items():
        if et.direction == FORWARD:
            np.add.at(in_degree, offsets[dst_t] + dst, 1)
    degrees, counts = np.unique(in_degree, return_counts=True) if graph.num_nodes else ([], [])
    histogram = {int(d): int(c) for d, c in zip(degrees, counts)}
    return GraphStats(node_counts, edge_counts, histogram)
