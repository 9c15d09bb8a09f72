"""Deliberately naive oracles: brute-force ones independent of the library's data structures, and a
mask-based reference sampler."""
from __future__ import annotations

import numpy as np

from relgnn.graph import SELF_LOOP, EdgeType
from relgnn.sampler import Datapoint, SizeCapError


def forward_edge_list(db):
    """All resolved forward FK edges as (fk column key, src (t,r), dst (t,r)), from raw tokens."""
    edges = []
    names = [t.name for t in db.tables]
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag != "foreign_key":
                continue
            ref_table, ref_column = col.kind.references
            rt = names.index(ref_table)
            ref_col = next(c for c in db.tables[rt].columns if c.name == ref_column)
            keymap = {tok: ri for ri, tok in enumerate(ref_col.values) if tok is not None}
            for ri, token in enumerate(col.values):
                if token is not None and token in keymap:
                    edges.append(((ti, ci), (ti, ri), (rt, keymap[token])))
    return edges


def closure_oracle(db, target):
    """Set-expansion to fixpoint: ancestors first, then descendants; returns (V_S, induced forward edges)."""
    edges = forward_edge_list(db)
    vs = {target}
    while True:
        add = {s for (_, s, d) in edges if d in vs and s not in vs}
        if not add:
            break
        vs |= add
    while True:
        add = {d for (_, s, d) in edges if s in vs and d not in vs}
        if not add:
            break
        vs |= add
    induced = [(k, s, d) for (k, s, d) in edges if s in vs and d in vs]
    return vs, induced


def edge_type_once_oracle(db, target):
    """Round-based expansion where an edge type that contributes is spent for the rest of the run."""
    edges = forward_edge_list(db)
    types = sorted({k for (k, _, _) in edges})
    vs = {target}
    used = set()
    for phase in ("ancestors", "descendants"):
        while True:
            new_nodes = set()
            contributed = set()
            for k in types:
                if k in used:
                    continue
                if phase == "ancestors":
                    crossing = {s for (kk, s, d) in edges if kk == k and d in vs and s not in vs}
                else:
                    crossing = {d for (kk, s, d) in edges if kk == k and s in vs and d not in vs}
                if crossing:
                    contributed.add(k)
                    new_nodes |= crossing
            if not new_nodes:
                break
            used |= contributed
            vs |= new_nodes
    return vs


def reference_datapoint(index, target, *, edge_type_once=False, cap=10**9, reverse_edges=True, label=None):
    """The datapoint of `target` from full-size node masks and a scan of every edge of the graph.

    O(database) per target, with the edge order the library's sampler must reproduce: per forward
    type, the edges in the graph's order. `index` is a `relgnn.sampler._ForwardIndex`; only its
    flat edge arrays and neighbor lists are read.
    """
    start = int(index.offsets[target[0]] + target[1])
    closure = _reference_closure_edge_type_once if edge_type_once else _reference_closure
    selected = closure(index, start, cap)

    global_ids = np.nonzero(selected)[0]  # ascending global id = canonical (table, row) order
    local_of = np.full(index.graph.num_nodes, -1, dtype=np.int64)
    local_of[global_ids] = np.arange(len(global_ids))
    node_types = np.searchsorted(index.offsets, global_ids, side="right") - 1
    nodes = [(int(t), int(g - index.offsets[t])) for t, g in zip(node_types, global_ids)]
    edges = {}
    keep = selected[index.src] & selected[index.dst]
    for k, et in enumerate(index.types):
        mask = keep & (index.type_id == k)
        src = local_of[index.src[mask]]
        dst = local_of[index.dst[mask]]
        edges[et] = (src, dst)
        if reverse_edges:
            edges[et.paired_reverse()] = (dst, src)
    for ti in sorted(set(int(t) for t in node_types)):
        rows = np.nonzero(node_types == ti)[0].astype(np.int64)
        edges[EdgeType(ti, -1, SELF_LOOP)] = (rows, rows)
    return Datapoint(nodes, node_types.astype(np.int64), edges, int(local_of[start]), label, target)


def _reference_bfs(start, selected, neighbors, cap):
    frontier = list(start)
    count = int(selected.sum())
    while frontier:
        next_frontier = []
        for node in frontier:
            for nb in neighbors(int(node)):
                if not selected[nb]:
                    selected[nb] = True
                    count += 1
                    next_frontier.append(int(nb))
        if count > cap:
            raise SizeCapError(count, cap)
        frontier = next_frontier


def _reference_closure(index, start, cap):
    selected = np.zeros(index.graph.num_nodes, dtype=bool)
    selected[start] = True
    _reference_bfs([start], selected, index.in_neighbors, cap)
    _reference_bfs(list(np.nonzero(selected)[0]), selected, index.out_neighbors, cap)
    return selected


def _reference_closure_edge_type_once(index, start, cap):
    selected = np.zeros(index.graph.num_nodes, dtype=bool)
    selected[start] = True
    count = 1
    used = np.zeros(len(index.types), dtype=bool)
    for adds_from, adds_to in ((index.dst, index.src), (index.src, index.dst)):
        while True:
            if count > cap:
                raise SizeCapError(count, cap)
            crossing = selected[adds_from] & ~selected[adds_to] & ~used[index.type_id]
            if not crossing.any():
                break
            used[np.unique(index.type_id[crossing])] = True
            added = np.unique(adds_to[crossing])
            selected[added] = True
            count += len(added)
    return selected


def auroc_pairwise(scores, labels):
    """O(P*N) comparison of every positive/negative score pair, ties worth half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def groupby_oracle(db, child_table, fk_column, value_column):
    """Depth-1 SUM/COUNT per parent row via plain dict group-by over raw cells."""
    names = [t.name for t in db.tables]
    table = db.tables[names.index(child_table)]
    fk_col = next(c for c in table.columns if c.name == fk_column)
    val_col = next(c for c in table.columns if c.name == value_column)
    ref_table, ref_column = fk_col.kind.references
    rt = names.index(ref_table)
    ref_col = next(c for c in db.tables[rt].columns if c.name == ref_column)
    keymap = {tok: ri for ri, tok in enumerate(ref_col.values) if tok is not None}
    counts: dict[int, int] = {}
    sums: dict[int, float] = {}
    for token, value in zip(fk_col.values, val_col.values):
        if token is None or token not in keymap:
            continue
        parent = keymap[token]
        counts[parent] = counts.get(parent, 0) + 1
        if value is not None:
            sums[parent] = sums.get(parent, 0.0) + value
    return counts, sums
