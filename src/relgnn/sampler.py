"""Extract per-target subgraphs: ancestor closure, then descendant closure, for chunks of targets in
lockstep, then the induced subgraphs of all targets in one pass, held in one `DatapointStore`."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import SELF_LOOP, EdgeType, HeteroGraph, edge_types, ranges, runs
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


class DatapointStore:
    """The subgraphs of one or more targets in flat arrays: the one type of sampled subgraph. Target i's
    nodes are `node_types`/`rows` from `node_start[i]` to `node_start[i + 1]`, its forward edges
    `src`/`dst`/`edge_type` from `edge_start[i]` to `edge_start[i + 1]`, with `src`/`dst` local ids
    within its nodes. Reverse edges and self loops are functions of these, derived where they are read
    (`models.build_batch`, `write_datapoints_jsonl`). `store[i]` is target i's one-target store, a `take`."""

    def __init__(self, node_types, rows, node_start, src, dst, edge_type, edge_start, labels, targets, types):
        self.node_types = node_types  # table index per node, int64; each target's nodes in (table, row) order
        self.rows = rows  # row within its table per node, int64
        self.node_start = node_start  # (targets + 1,)
        self.src = src  # local id of each forward edge's referencing row; each target's in ascending graph edge id
        self.dst = dst  # local id of each forward edge's referenced row
        self.edge_type = edge_type  # index of each forward edge's type in `types`
        self.edge_start = edge_start  # (targets + 1,)
        self.labels = labels  # (targets,) int64; -1 for a target outside the target table, which has no label
        self.targets = targets  # (targets, 2): each target's (table, row)
        self.types: list[EdgeType] = types  # the graph's forward edge types, one list shared by all its stores

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

    def table_rows(self, ids) -> dict[int, np.ndarray]:
        """The rows of each table that the subgraphs of the targets `ids` hold, ascending, keyed by table
        index in ascending order: what a fold's encoders are fit on."""
        nodes, _ = ranges(self.node_start, np.asarray(ids, dtype=np.int64))
        node_types, rows = self.node_types[nodes], self.rows[nodes]
        return {t: np.flatnonzero(np.bincount(rows[node_types == t])) for t in np.unique(node_types).tolist()}


_CHUNK = 4096  # targets whose closures run in lockstep; it bounds the round arrays and so the peak memory
_NARROW = 32  # a frontier of fewer keys expands in plain Python: an array round costs tens of µs, however narrow
_WRITE_NODES = 1024  # nodes per chunk of records the writer builds at once; it bounds the writer's peak memory


class _Lockstep:
    """The closures of a chunk of targets, ancestors to fixpoint and then descendants, run together over
    the keys `i * n + node` of the chunk's i-th target.

    A round expands every target's frontier, the keys the last round added, through the graph's CSR lists.
    A reached key is new when `held` has no flag for its node: the flags mark the nodes that some target
    of the chunk holds, so only shared nodes are searched, in `blocks`. Those are sorted key arrays, each
    more than twice the size of the next, merged like a binary counter, so a round searches a logarithmic
    number of them. In the plain closure, a frontier narrower than `_NARROW` expands key by key in plain
    Python, and the keys those rounds add go into `blocks` as one block when the frontier widens or
    empties. So a chain, one key per round, costs no array round per level.

    With `edge_type_once`, a target's round skips the edge types its earlier rounds spent, then spends
    each type that crossed into its set as the set stood before the round: a (target, type) matrix.
    A spent type is never followed again, in either phase, so a target has at most one round that adds
    nodes per forward edge type, however deep the data, and the chunk runs array rounds only.

    The size cap is checked where the per-target closure checks it, at the start of each round with a
    frontier: after every round that adds a node. The first target over the cap is `live`; its keys and
    every later target's leave the frontier, so the chunk finishes only the targets before it."""

    def __init__(self, graph: HeteroGraph, starts: np.ndarray, cap: int, edge_type_once: bool, held: np.ndarray):
        self.graph, self.n, self.cap, self.held = graph, graph.num_nodes, cap, held
        self.spent = np.zeros((len(starts), len(graph.types)), dtype=bool) if edge_type_once else None
        self.counts = np.ones(len(starts), dtype=np.int64)  # each target's selected nodes
        self.live = len(starts)
        self.blocks = []
        held[starts] = True
        self._push(np.arange(len(starts)) * self.n + starts)
        self._check()

    def run(self) -> np.ndarray:
        """The chunk's closures as sorted keys; those of targets from `live` on are partial."""
        g = self.graph
        frontier = self._live(self._selected())
        for starts, order, ends in ((g.in_start, g.in_sorted, g.src), (g.out_start, g.out_sorted, g.dst)):
            while len(frontier):
                if len(frontier) < _NARROW and self.spent is None:
                    frontier = self._python_rounds(frontier.tolist(), starts, order, ends)
                else:
                    frontier = self._array_round(np.asarray(frontier, dtype=np.int64), starts, order, ends)
            frontier = self._live(self._selected())
        return self._selected()

    def _array_round(self, frontier, starts, order, ends) -> np.ndarray:
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
        """Rounds of the plain closure a key at a time, as long as the frontier stays narrow; the keys
        they add go into `blocks` as one block when they return."""
        n, cap, held, counts = self.n, self.cap, self.held, self.counts
        taken = set()  # the keys these rounds add
        while frontier and len(frontier) < _NARROW:
            added, shared = [], set()  # `shared`: reached keys whose node the chunk holds
            for key in frontier:
                node = key % n
                base = key - node
                for nb in ends[order[starts[node] : starts[node + 1]]].tolist():
                    k = base + nb
                    if k in taken or k in shared:
                        continue
                    if held[nb]:
                        shared.add(k)
                    else:
                        held[nb] = True
                        taken.add(k)
                        added.append(k)
            if shared:
                keys = np.fromiter(shared, dtype=np.int64, count=len(shared))
                new = keys[~self._in_blocks(keys)].tolist()
                taken.update(new)
                added += new
            live = self.live
            for k in added:
                i = k // n
                counts[i] += 1
                if i < self.live and counts[i] > cap:
                    self.live = i
            frontier = added if self.live == live else [k for k in added if k // n < self.live]
        self._push(np.sort(np.fromiter(taken, dtype=np.int64, count=len(taken))))
        return frontier

    def _seen(self, keys: np.ndarray) -> np.ndarray:
        """Whether each sorted key is selected already."""
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

    def _selected(self) -> np.ndarray:
        """Every selected key, sorted, in one block."""
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
        labels[inside] = target_labels(graph.db, targets[inside, 1])
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
    """One JSON record per datapoint, its edges listed per type of `edge_types(db, reverse_edges)`: the
    text `json.dumps(record, sort_keys=True)` would write. Records go out a chunk at a time, a run of
    consecutive records of at most `_WRITE_NODES` nodes (at least one record). In a chunk each node's
    `[table, row]` text is built once, index arithmetic places every piece of every record in one object
    array, and its join is written, so the file is never held in memory."""
    kinds = edge_types(graph.db, reverse_edges)
    kind_tail = np.array([f', "type": {json.dumps(graph.edge_type_name(et))}}}' for et in kinds], dtype=object)
    node_tail = np.array([f', "type": {json.dumps(table.name)}}}' for table in graph.db.tables], dtype=object)
    # each forward type's position in `kinds`, its reverse's, and each table's self loop's
    position = {et: i for i, et in enumerate(kinds)}
    forward = np.array([position[et] for et in graph.types], dtype=np.int64)
    reverse = np.array([position.get(et.paired_reverse(), -1) for et in graph.types], dtype=np.int64)
    self_loop = np.array([position[EdgeType(t, -1, SELF_LOOP)] for t in range(len(graph.db.tables))], dtype=np.int64)
    node_start, edge_start = datapoints.node_start, datapoints.edge_start
    with open(path, "w", encoding="utf-8") as handle:
        for lo, hi in runs(node_start, _WRITE_NODES):
            n0, n1, e0, e1 = node_start[lo], node_start[hi], edge_start[lo], edge_start[hi]
            node_counts, edge_counts = np.diff(node_start[lo : hi + 1]), np.diff(edge_start[lo : hi + 1])
            first_node = node_start[lo:hi] - n0
            node_owner = np.repeat(np.arange(hi - lo), node_counts)
            edge_owner = np.repeat(np.arange(hi - lo), edge_counts)
            types = datapoints.node_types[n0:n1]
            ids = np.array([f"[{t}, {r}]" for t, r in zip(types.tolist(), datapoints.rows[n0:n1].tolist())],
                           dtype=object)
            # the chunk's edges as (record, kind, src, dst), src and dst indexing `ids`; a stable sort
            # by record and kind keeps each kind's edges in store order and its self loops in node order
            shift = first_node[edge_owner]
            src, dst = datapoints.src[e0:e1] + shift, datapoints.dst[e0:e1] + shift
            edge_type, nodes = datapoints.edge_type[e0:e1], np.arange(n1 - n0)
            parts = [(edge_owner, forward[edge_type], src, dst), (node_owner, self_loop[types], nodes, nodes)]
            if reverse_edges:
                parts.append((edge_owner, reverse[edge_type], dst, src))
            owner, kind, src, dst = (np.concatenate(column) for column in zip(*parts))
            order = np.argsort(owner * len(kinds) + kind, kind="stable")
            owner, kind, src, dst = owner[order], kind[order], src[order], dst[order]
            # a record's pieces: its head, 5 per listed edge, its label, 3 per node and its tail
            listed = edge_counts * (2 if reverse_edges else 1) + node_counts
            size = 3 + 5 * listed + 3 * node_counts
            head = np.cumsum(size) - size
            pieces = np.empty(int(size.sum()), dtype=object)
            pieces[head] = '{"edges": ['
            rank = np.arange(len(owner)) - (np.cumsum(listed) - listed)[owner]
            at = head[owner] + 1 + 5 * rank
            pieces[at] = ', {"dst": '
            pieces[at[rank == 0]] = '{"dst": '
            pieces[at + 1] = ids[dst]
            pieces[at + 2] = ', "src": '
            pieces[at + 3] = ids[src]
            pieces[at + 4] = kind_tail[kind]
            label = head + 1 + 5 * listed
            pieces[label] = [f'], "label": {"null" if y < 0 else y}, "nodes": ['
                             for y in datapoints.labels[lo:hi].tolist()]
            rank = nodes - first_node[node_owner]
            at = label[node_owner] + 1 + 3 * rank
            pieces[at] = ', {"id": '
            pieces[at[rank == 0]] = '{"id": '
            pieces[at + 1] = ids
            pieces[at + 2] = node_tail[types]
            pieces[head + size - 1] = [f'], "target": [{t}, {r}]}}\n' for t, r in datapoints.targets[lo:hi].tolist()]
            handle.write("".join(pieces.tolist()))
