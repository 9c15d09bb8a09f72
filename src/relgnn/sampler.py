"""Extract per-target subgraphs: ancestor closure, then descendant closure, for chunks of targets in
lockstep, then the induced subgraphs of all targets in one pass, held in one `DatapointStore`."""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .graph import FORWARD, SELF_LOOP, EdgeType, HeteroGraph, edge_types, ranges
from .rdb import target_labels

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
    (`models.build_batch`, `write_datapoints_jsonl`). `store[i]` is target i's one-target store, a `take`."""

    node_types: np.ndarray  # table index per node, int64; each target's nodes in (table, row) order
    rows: np.ndarray  # row within its table per node, int64
    node_start: np.ndarray  # (targets + 1,)
    src: np.ndarray  # local id of each forward edge's referencing row; each target's in ascending graph edge id
    dst: np.ndarray  # local id of each forward edge's referenced row
    edge_type: np.ndarray  # index of each forward edge's type in `types`
    edge_start: np.ndarray  # (targets + 1,)
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
                   joined("edge_type"), offsets("edge_start"), joined("labels"), joined("targets"), stores[0].types)

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> "DatapointStore":
        return self.take([range(len(self))[i]])

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
            self.labels[ids], self.targets[ids], self.types)


_CHUNK = 4096  # targets whose closures run in lockstep; it bounds the round arrays and so the peak memory
_NARROW = 32  # a frontier of fewer keys expands in plain Python: an array round costs tens of µs, however narrow


class _Lockstep:
    """The closures of a chunk of targets, ancestors to fixpoint and then descendants, run together over
    the keys `i * n + node` of the chunk's i-th target.

    A round expands every target's frontier, the keys the last round added, through the graph's CSR lists.
    A reached key is new when `held` has no flag for its node: the flags mark the nodes that some target
    of the chunk holds, so only shared nodes are searched, in `blocks`. Those are sorted key arrays, each
    more than twice the size of the next, merged like a binary counter, so a round searches a logarithmic
    number of them. A frontier narrower than `_NARROW` expands key by key in plain Python, and its keys
    wait in `pending` until an array round or the phase's end sorts them into a block. So a chain, one
    key per round, costs no array round per level.

    With `edge_type_once`, a target's round skips the edge types its earlier rounds spent, then spends
    each type that crossed into its set as the set stood before the round: a (target, type) matrix.

    The size cap is checked where the per-target closure checks it, at the start of each round with a
    frontier: after every round that adds a node. The first target over the cap is `live`; its keys and
    every later target's leave the frontier, so the chunk finishes only the targets before it."""

    def __init__(self, graph: HeteroGraph, starts: np.ndarray, cap: int, edge_type_once: bool, held: np.ndarray):
        self.graph, self.n, self.cap, self.held = graph, graph.num_nodes, cap, held
        self.spent = np.zeros((len(starts), len(graph.types)), dtype=bool) if edge_type_once else None
        self.counts = np.ones(len(starts), dtype=np.int64)  # each target's selected nodes
        self.live = len(starts)
        self.blocks, self.pending = [], set()
        held[starts] = True
        self._push(np.arange(len(starts)) * self.n + starts)
        self._check()

    def run(self) -> np.ndarray:
        """The chunk's closures as sorted keys; those of targets from `live` on are partial."""
        g = self.graph
        frontier = self._live(self._selected())
        for starts, order, ends in ((g.in_start, g.in_sorted, g.src), (g.out_start, g.out_sorted, g.dst)):
            while len(frontier):
                if len(frontier) < _NARROW:
                    frontier = self._python_rounds(frontier.tolist(), starts, order, ends)
                else:
                    frontier = self._array_round(np.asarray(frontier, dtype=np.int64), starts, order, ends)
            frontier = self._live(self._selected())
        return self._selected()

    def _array_round(self, frontier, starts, order, ends) -> np.ndarray:
        self._flush()
        n = self.n
        owner = frontier // n
        positions, counts = ranges(starts, frontier - owner * n)
        edge_ids = order[positions]
        owner = np.repeat(owner, counts)
        if self.spent is not None:
            types = self.graph.type_id[edge_ids]
            keep = ~self.spent[owner, types]
            edge_ids, owner, types = edge_ids[keep], owner[keep], types[keep]
        keys = owner * n + ends[edge_ids]
        # deduplicated by sort and a neighbour mask: `np.unique` would import numpy.ma on first use
        by_key = np.argsort(keys) if self.spent is not None else None
        keys = np.sort(keys) if by_key is None else keys[by_key]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        new = ~self._seen(keys)
        if by_key is not None:  # an edge crossed if its key is new
            crossed = by_key[new[np.cumsum(first) - 1]]
            self.spent[owner[crossed], types[crossed]] = True
        added = keys[new]
        owner = added // n
        self.held[added - owner * n] = True
        self.counts += np.bincount(owner, minlength=len(self.counts))
        self._push(added)
        self._check()
        return self._live(added)

    def _python_rounds(self, frontier: list[int], starts, order, ends) -> list[int]:
        """Rounds a key at a time, as long as the frontier stays narrow."""
        n, cap, held, pending, spent, counts = self.n, self.cap, self.held, self.pending, self.spent, self.counts
        type_id = self.graph.type_id
        while frontier and len(frontier) < _NARROW:
            added, shared, followed = [], set(), []  # `shared`: reached keys whose node the chunk holds
            for key in frontier:
                i, node = divmod(key, n)
                base = key - node
                edge_ids = order[starts[node] : starts[node + 1]]
                reached = ends[edge_ids].tolist()
                if spent is not None:
                    pairs = [(nb, t) for nb, t in zip(reached, type_id[edge_ids].tolist()) if not spent[i, t]]
                    followed += [(base + nb, i, t) for nb, t in pairs]
                    reached = [nb for nb, _ in pairs]
                for nb in reached:
                    k = base + nb
                    if k in pending or k in shared:
                        continue
                    if held[nb]:
                        shared.add(k)
                    else:
                        held[nb] = True
                        pending.add(k)
                        added.append(k)
            if shared:
                keys = np.fromiter(shared, dtype=np.int64, count=len(shared))
                new = keys[~self._in_blocks(keys)].tolist()
                pending.update(new)
                added += new
            if spent is not None:
                fresh = set(added)
                for k, i, t in followed:
                    if k in fresh:
                        spent[i, t] = True
            live = self.live
            for k in added:
                i = k // n
                counts[i] += 1
                if i < self.live and counts[i] > cap:
                    self.live = i
            frontier = added if self.live == live else [k for k in added if k // n < self.live]
        return frontier

    def _seen(self, keys: np.ndarray) -> np.ndarray:
        """Whether each sorted key is selected already; pending keys are flushed."""
        seen = np.zeros(len(keys), dtype=bool)
        shared = np.flatnonzero(self.held[keys % self.n])
        if len(shared):
            seen[shared] = self._in_blocks(keys[shared])
        return seen

    def _in_blocks(self, keys: np.ndarray) -> np.ndarray:
        found = np.zeros(len(keys), dtype=bool)
        for block in self.blocks:
            at = np.searchsorted(block, keys)
            found |= block[np.minimum(at, len(block) - 1)] == keys
        return found

    def _push(self, block: np.ndarray) -> None:
        blocks = self.blocks
        if len(block):
            blocks.append(block)
        while len(blocks) > 1 and len(blocks[-2]) <= 2 * len(blocks[-1]):
            top = blocks.pop()
            blocks[-1] = np.sort(np.concatenate((blocks[-1], top)), kind="stable")  # merges the two runs

    def _flush(self) -> None:
        if self.pending:
            self._push(np.sort(np.fromiter(self.pending, dtype=np.int64, count=len(self.pending))))
            self.pending.clear()

    def _selected(self) -> np.ndarray:
        """Every selected key, sorted, in one block."""
        self._flush()
        if len(self.blocks) > 1:
            self.blocks = [np.sort(np.concatenate(self.blocks), kind="stable")]
        return self.blocks[0]

    def _live(self, keys: np.ndarray) -> np.ndarray:
        return keys[: np.searchsorted(keys, self.live * self.n)]

    def _check(self) -> None:
        over = np.flatnonzero(self.counts[: self.live] > self.cap)
        if len(over):
            self.live = int(over[0])


def _closures(graph: HeteroGraph, targets: np.ndarray, edge_type_once: bool, size_cap: int) -> np.ndarray:
    """Sorted keys `i * n + node` of the nodes of target i's closure, for each `(table, row)` row i of
    `targets`: `_CHUNK` targets at a time in lockstep. Raises for the first target, in order, whose
    closure exceeds `size_cap`, with the count the per-target closure stops at."""
    n = graph.num_nodes
    starts = graph.offsets[targets[:, 0]] + targets[:, 1]
    held = np.zeros(n, dtype=bool)  # serves every chunk: each clears the flags it set
    keys = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(targets), _CHUNK):
        chunk = _Lockstep(graph, starts[lo : lo + _CHUNK], size_cap, edge_type_once, held)
        selected = chunk.run()
        if chunk.live < len(chunk.counts):
            raise SizeCapError(int(chunk.counts[chunk.live]), size_cap, int(targets[lo + chunk.live, 1]))
        held[selected % n] = False
        keys.append(selected + lo * n)
    return np.concatenate(keys)


def _induce(graph: HeteroGraph, keys: np.ndarray, targets: np.ndarray, labels: np.ndarray) -> DatapointStore:
    """The store of subgraphs whose nodes are given by the sorted keys `i * n + node` of each target i,
    with every forward edge between two nodes of the same target, all targets in one array pass. Each
    temporary is dropped once spent; kept to the end, they raised the pass's peak memory by 40%."""
    n = graph.num_nodes
    owner = keys // n
    ids = keys - owner * n
    node_start = np.searchsorted(owner, np.arange(len(targets) + 1))
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
                          np.searchsorted(edge_owner, np.arange(len(targets) + 1)), labels, targets, graph.types)


def _sample(graph: HeteroGraph, targets: np.ndarray, edge_type_once: bool, size_cap: int) -> DatapointStore:
    """One subgraph per `(table, row)` row of `targets`, in that order: the closures of all targets, then
    one induce pass over all of them. Labels read -1 outside the target table and without one target column."""
    labels = np.full(len(targets), -1, dtype=np.int64)
    if len(graph.db.target_flags) == 1:
        inside = targets[:, 0] == graph.db.target[0]
        labels[inside] = target_labels(graph.db)[targets[inside, 1]]
    return _induce(graph, _closures(graph, targets, edge_type_once, size_cap), targets, labels)


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
