"""Interpret a relational database as a typed directed multigraph, the one index that the sampler, DFS
and graph-stats read: rows become nodes, FK cells become edges."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rdb import Database

__all__ = [
    "EdgeType",
    "HeteroGraph",
    "edge_types",
    "referenced_table",
    "ranges",
    "runs",
    "database_to_graph",
    "graph_stats",
]

FORWARD = "forward"
REVERSE = "reverse"
SELF_LOOP = "self_loop"


class EdgeType(NamedTuple):
    table: int  # table owning the FK column; node type for self loops
    column: int  # FK column index; -1 for self loops
    direction: str

    def paired_reverse(self) -> "EdgeType":
        assert self.direction == FORWARD
        return EdgeType(self.table, self.column, REVERSE)


def edge_types(db: Database, reverse_edges: bool = True) -> list[EdgeType]:
    """Every edge type of the database's graph, sorted: a forward type per foreign-key column, with
    `reverse_edges` its reverse too, and one self loop per table."""
    directions = (FORWARD, REVERSE) if reverse_edges else (FORWARD,)
    fks = [(ti, ci) for ti, table in enumerate(db.tables) for ci, col in enumerate(table.columns)
           if col.kind.tag == "foreign_key"]
    return sorted([EdgeType(ti, ci, d) for ti, ci in fks for d in directions]
                  + [EdgeType(ti, -1, SELF_LOOP) for ti in range(len(db.tables))])


def referenced_table(db: Database, et: EdgeType) -> int:
    """The table that the foreign-key column of `et` references."""
    return db.table_index(db.tables[et.table].columns[et.column].kind.references[0])


def ranges(start: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions `start[i]` up to `start[i + 1]` of each id `i`, concatenated in id order, and each
    range's length: one gather step for any number of ranges."""
    lo = start[ids]
    counts = start[ids + 1] - lo
    first = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(lo - first, counts), counts


def runs(start: np.ndarray, budget: int):
    """Bounds `(lo, hi)` that cut the records `i`, each the positions `start[i]` up to `start[i + 1]`,
    into consecutive runs of at most `budget` positions, or of one record where it alone holds more."""
    lo = 0
    while lo < len(start) - 1:
        hi = max(lo + 1, int(np.searchsorted(start, start[lo] + budget, side="right")) - 1)
        yield lo, hi
        lo = hi


def _csr_lists(start: np.ndarray, order: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids of the nodes' CSR lists, concatenated in node order, and each list's length."""
    positions, counts = ranges(start, nodes)
    return order[positions], counts


class HeteroGraph:
    """Rows as nodes with global ids (table offset + row); the forward edges as one flat list, one block
    per type in `types` order and each block in row order, with CSR out- and in-lists over it.

    Immutable after `database_to_graph` builds it. Reverse edges are the in-lists and self loops one
    per node, so neither is stored."""

    def __init__(self, db: Database, offsets, types, src, dst, type_id, out_sorted, out_start, in_sorted, in_start):
        self.db = db
        self.offsets = offsets  # first global id of each table, then the node count
        self.types: list[EdgeType] = types  # forward edge types, sorted; `type_id` indexes this list
        self.src = src  # global id of each forward edge's referencing row
        self.dst = dst  # global id of each forward edge's referenced row
        self.type_id = type_id
        self.out_sorted = out_sorted  # edge ids ordered by src, stable
        self.out_start = out_start  # node -> first position of its out-list in `out_sorted`; one past the end last
        self.in_sorted = in_sorted  # edge ids ordered by dst, stable
        self.in_start = in_start

    @property
    def num_nodes(self) -> int:
        return int(self.offsets[-1])

    def out_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the edges leaving each node, node by node, and how many leave each."""
        return _csr_lists(self.out_start, self.out_sorted, nodes)

    def in_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the edges entering each node, node by node, and how many enter each; each node's
        are in the flat list's order, so per type in row order."""
        return _csr_lists(self.in_start, self.in_sorted, nodes)

    def edge_type_name(self, et: EdgeType) -> str:
        table = self.db.tables[et.table]
        if et.direction == SELF_LOOP:
            return f"{table.name}:self"
        return f"{table.name}.{table.columns[et.column].name}:{et.direction}"


def database_to_graph(db: Database) -> HeteroGraph:
    """One node per row; one forward edge per resolved non-null FK cell, referencing row -> referenced row."""
    offsets = np.cumsum([0] + [t.nrows for t in db.tables])
    types = [et for et in edge_types(db, reverse_edges=False) if et.direction == FORWARD]
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for et in types:
        resolved = db.fk_rows[(et.table, et.column)]
        rows = np.nonzero(resolved >= 0)[0]
        src.append(offsets[et.table] + rows)
        dst.append(offsets[referenced_table(db, et)] + resolved[rows])
    type_id = np.repeat(np.arange(len(types), dtype=np.int64), [len(rows) for rows in src[1:]])
    src, dst = np.concatenate(src), np.concatenate(dst)
    out_sorted, in_sorted = np.argsort(src, kind="stable"), np.argsort(dst, kind="stable")
    nodes = np.arange(offsets[-1] + 1)
    return HeteroGraph(db, offsets, types, src, dst, type_id, out_sorted,
                       np.searchsorted(src[out_sorted], nodes), in_sorted, np.searchsorted(dst[in_sorted], nodes))


def graph_stats(graph: HeteroGraph, reverse_edges: bool = False) -> dict:
    """Nodes per table, edges per type (with `reverse_edges` each forward type's reverse counts too)
    and the histogram of forward in-degrees, keyed by degree as text: the `graph-stats` report."""
    node_counts = {t.name: t.nrows for t in graph.db.tables}
    edge_counts = {}
    for et, count in zip(graph.types, np.bincount(graph.type_id, minlength=len(graph.types)).tolist()):
        edge_counts[graph.edge_type_name(et)] = count
        if reverse_edges:
            edge_counts[graph.edge_type_name(et.paired_reverse())] = count
    degrees, counts = np.unique(np.diff(graph.in_start), return_counts=True)
    histogram = {str(d): c for d, c in zip(degrees.tolist(), counts.tolist())}
    return {"node_counts": node_counts, "edge_counts": edge_counts, "in_degree_histogram": histogram}
