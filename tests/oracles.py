"""Deliberately naive oracles: brute-force ones independent of the library's data structures, a
row-by-row reference CSV reader, a mask-based reference sampler, a per-target reference closure, a
`json.dumps` reference datapoint writer, a per-target reference DFS, a cell-by-cell reference encoder,
the autodiff's `np.add.at` scatter, two-branch sigmoid and copying backward, and the per-parameter
AdamW."""
from __future__ import annotations

import calendar
import csv
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np

from relgnn.dfs import COPY, AggSpec
from relgnn.graph import FORWARD, REVERSE, SELF_LOOP, EdgeType, HeteroGraph, edge_types
from relgnn.rdb import Database, RdbError
from relgnn.sampler import SizeCapError


# ---------------------------------------------------------------------------
# reference CSV reader: csv.reader row by row and one parse per cell, as the library read a table before it
# parsed a column at a time


def reference_parse_cell(text: str, kind):
    """Parse one CSV field; empty string is Null for every kind. A malformed field raises ValueError."""
    if text == "":
        return None
    tag = kind.tag
    if tag == "scalar":
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("non-finite scalar")
        return value
    if tag == "datetime":
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is not None or stamp.microsecond != 0:
            raise ValueError("expected naive timestamp at second precision")
        return stamp
    if tag == "latlong":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("expected 'lat,long'")
        lat, long = float(parts[0]), float(parts[1])
        if not (-90.0 <= lat <= 90.0 and -180.0 <= long <= 180.0):
            raise ValueError(f"out-of-range latlong ({lat}, {long})")
        return (lat, long)
    # categorical, text, primary_key, foreign_key stay as exact strings
    return text


def reference_read_csv(csv_path, table) -> list[list]:
    """The cells of each of the table's columns, in column order, read from its CSV file; every fault
    raises RdbError with the loader's message."""
    cells = [[] for _ in table.columns]
    try:
        with open(csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise RdbError(f"{csv_path} has no header row")
            repeated = [h for i, h in enumerate(header) if h in header[:i]]
            if repeated:
                raise RdbError(f"duplicate column {repeated[0]!r} in the header of {csv_path}")
            declared = {col.name for col in table.columns}
            undeclared = [h for h in header if h not in declared]
            if undeclared:
                raise RdbError(f"undeclared column {undeclared[0]!r} in {csv_path}")
            missing = declared - set(header)
            if missing:
                raise RdbError(f"column {sorted(missing)[0]!r} missing from {csv_path}")
            positions = [header.index(col.name) for col in table.columns]
            for ri, row in enumerate(reader):
                if len(row) != len(header):
                    raise RdbError(f"{csv_path} row {ri}: expected {len(header)} fields, got {len(row)}")
                for out, col, pos in zip(cells, table.columns, positions):
                    try:
                        out.append(reference_parse_cell(row[pos], col.kind))
                    except ValueError as exc:
                        raise RdbError(f"{csv_path}: unparseable cell at table {table.name} row {ri} "
                                       f"column {col.name}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise RdbError(f"{csv_path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise RdbError(f"{csv_path}: {exc}") from None
    return cells


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


@dataclass
class ReferenceDatapoint:
    """A target's subgraph with every edge stored: forward, reverse and self loops, keyed by type."""

    nodes: list[tuple[int, int]]
    node_types: np.ndarray
    edges: dict[EdgeType, tuple[np.ndarray, np.ndarray]]
    target_local: int
    label: int | None
    provenance: tuple[int, int]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def reference_datapoint(graph, target, *, edge_type_once=False, cap=10**9, reverse_edges=True, label=None):
    """The datapoint of `target` from full-size node masks and a scan of every edge of the graph.

    O(database) per target, with the edge order the library's sampler must reproduce: per forward
    type, the edges in the graph's order. `graph` is a `relgnn.graph.HeteroGraph`; only its flat
    edge arrays and neighbor lists are read.
    """
    start = int(graph.offsets[target[0]] + target[1])
    closure = _reference_closure_edge_type_once if edge_type_once else _reference_closure
    selected = closure(graph, start, cap)

    global_ids = np.nonzero(selected)[0]  # ascending global id = canonical (table, row) order
    local_of = np.full(graph.num_nodes, -1, dtype=np.int64)
    local_of[global_ids] = np.arange(len(global_ids))
    node_types = np.searchsorted(graph.offsets, global_ids, side="right") - 1
    nodes = [(int(t), int(g - graph.offsets[t])) for t, g in zip(node_types, global_ids)]
    edges = {}
    keep = selected[graph.src] & selected[graph.dst]
    for k, et in enumerate(graph.types):
        mask = keep & (graph.type_id == k)
        src = local_of[graph.src[mask]]
        dst = local_of[graph.dst[mask]]
        edges[et] = (src, dst)
        if reverse_edges:
            edges[et.paired_reverse()] = (dst, src)
    for ti in sorted(set(int(t) for t in node_types)):
        rows = np.nonzero(node_types == ti)[0].astype(np.int64)
        edges[EdgeType(ti, -1, SELF_LOOP)] = (rows, rows)
    return ReferenceDatapoint(nodes, node_types.astype(np.int64), edges, int(local_of[start]), label, target)


def reference_write_datapoints_jsonl(path, datapoints, graph, reverse_edges):
    """One `json.dumps(record, sort_keys=True)` line per one-target store of the list, its edges listed
    per type of `edge_types(db, reverse_edges)`: the writer that `write_datapoints_jsonl` must match
    byte for byte."""
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
            label = int(dp.labels[0])
            record = {"target": dp.targets[0].tolist(), "label": None if label < 0 else label, "edges": edges,
                      "nodes": [{"id": nid, "type": names[nid[0]]} for nid in ids]}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


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


def table_named(db, name: str):
    return db.tables[db.table_index(name)]


def table_cell(table, row: int, col: int):
    """The cell as a Python value, None for null."""
    return table.columns[col].cell(row)


def out_neighbors(graph, node: int) -> np.ndarray:
    return graph.dst[graph.out_sorted[graph.out_start[node] : graph.out_start[node + 1]]]


def in_neighbors(graph, node: int) -> np.ndarray:
    return graph.src[graph.in_sorted[graph.in_start[node] : graph.in_start[node + 1]]]


def _reference_closure(graph, start, cap):
    selected = np.zeros(graph.num_nodes, dtype=bool)
    selected[start] = True
    _reference_bfs([start], selected, lambda node: in_neighbors(graph, node), cap)
    _reference_bfs(list(np.nonzero(selected)[0]), selected, lambda node: out_neighbors(graph, node), cap)
    return selected


def _reference_closure_edge_type_once(graph, start, cap):
    selected = np.zeros(graph.num_nodes, dtype=bool)
    selected[start] = True
    count = 1
    used = np.zeros(len(graph.types), dtype=bool)
    for adds_from, adds_to in ((graph.dst, graph.src), (graph.src, graph.dst)):
        while True:
            if count > cap:
                raise SizeCapError(count, cap)
            crossing = selected[adds_from] & ~selected[adds_to] & ~used[graph.type_id]
            if not crossing.any():
                break
            used[np.unique(graph.type_id[crossing])] = True
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


# ---------------------------------------------------------------------------
# per-target reference DFS: a dict child index and one Python walk and aggregate per (target, spec), as
# the library computed features before it walked each path once for all targets


def reference_features(db: Database, specs: list[AggSpec], target_rows) -> list[list]:
    """Raw feature values (None for null), one row per requested target row, in request order."""
    target_table, _ = db.target
    nrows = db.tables[target_table].nrows
    ends = [reference_path_end(db, spec) for spec in specs]

    children: dict[tuple[int, int], dict[int, list[int]]] = {}

    def child_rows(ti: int, ci: int, parent: int) -> list[int]:
        if (ti, ci) not in children:
            index: dict[int, list[int]] = {}
            for row, p in enumerate(db.fk_rows[(ti, ci)]):
                if p >= 0:
                    index.setdefault(int(p), []).append(row)
            children[(ti, ci)] = index
        return children[(ti, ci)].get(parent, [])

    out = []
    for target in target_rows:
        target = int(target)
        if not 0 <= target < nrows:
            raise RdbError(f"target row {target} is out of range")
        row_values = []
        for spec, end in zip(specs, ends):
            frontier = [target]
            for ti, ci, direction in spec.path:
                if direction == REVERSE:
                    frontier = [r for p in frontier for r in child_rows(ti, ci, p)]
                else:
                    fk = db.fk_rows[(ti, ci)]
                    frontier = [int(fk[r]) for r in frontier if fk[r] >= 0]
            row_values.append(_evaluate(db, spec, end, frontier))
        out.append(row_values)
    return out


def reference_path_end(db: Database, spec: AggSpec) -> int:
    """The table `spec`'s path ends at, following it hop by hop from the target table, then its source
    column checked there; a fault raises the library's RdbError message."""
    table = db.target[0]
    for ti, ci, direction in spec.path:
        if not (0 <= ti < len(db.tables) and 0 <= ci < len(db.tables[ti].columns)):
            raise RdbError(f"path hop ({ti}, {ci}) is out of range")
        col = db.tables[ti].columns[ci]
        if col.kind.tag != "foreign_key":
            raise RdbError(f"path hop {db.tables[ti].name}.{col.name} is not a foreign key")
        ref = db.table_index(col.kind.references[0])
        if direction not in (REVERSE, FORWARD):
            raise RdbError(f"unknown hop direction {direction!r}")
        if direction == REVERSE and ref != table:
            raise RdbError(f"reverse hop {db.tables[ti].name}.{col.name} does not reference {db.tables[table].name}")
        if direction == FORWARD and ti != table:
            raise RdbError(f"forward hop {db.tables[ti].name}.{col.name} does not start at {db.tables[table].name}")
        table = ti if direction == REVERSE else ref
    if spec.source is None:
        return table
    if not 0 <= spec.source < len(db.tables[table].columns):
        raise RdbError(f"source column {spec.source} is out of range for table {db.tables[table].name}")
    col = db.tables[table].columns[spec.source]
    kinds = ("scalar", "categorical") if spec.aggregator == COPY else ("scalar",)
    if col.kind.tag not in kinds:
        verb = "copy" if spec.aggregator == COPY else f"{spec.aggregator} over"
        raise RdbError(f"cannot {verb} {col.kind.tag} column {db.tables[table].name}.{col.name}")
    return table


def _evaluate(db: Database, spec: AggSpec, end_table: int, rows: list[int]):
    if spec.aggregator == "count":
        return float(len(rows))
    cells = [table_cell(db.tables[end_table], r, spec.source) for r in rows]
    if spec.aggregator == COPY:
        return cells[0] if cells else None
    values = [v for v in cells if v is not None]
    if len(values) == 0:
        return None
    if spec.aggregator == "sum":
        return float(sum(values))
    if spec.aggregator == "mean":
        return float(sum(values)) / len(values)
    if spec.aggregator == "max":
        return float(max(values))
    return float(min(values))


# ---------------------------------------------------------------------------
# cell-by-cell reference encoder: one Python call per (row, column), as the library encoded before it
# encoded whole columns with numpy


def _reference_scaled(value, enc):
    return 0.0 if enc.all_null else (value - enc.median) / enc.iqr


def reference_encode_latlong(cell):
    if cell is None:
        return np.array([0.0] * 5 + [1.0])
    lat, long = cell
    la, lo = math.radians(lat), math.radians(long)
    return np.array([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la),
                     lat / 90.0, long / 180.0, 0.0])


def _one_hot(width, index):
    out = np.zeros(width)
    out[index] = 1.0
    return out


def _cyc(value, period):
    angle = 2.0 * math.pi * value / period
    return [math.cos(angle), math.sin(angle)]


def reference_encode_datetime(stamp, year_encoder):
    """Year, month/ISO-week/day/weekday one-hots, day-of-year fraction, six flags, four cos/sin pairs, null flag."""
    if stamp is None:
        return np.concatenate([np.zeros(125), [1.0]])
    date = stamp.date()
    days_in_month = calendar.monthrange(date.year, date.month)[1]
    days_in_year = 366 if calendar.isleap(date.year) else 365
    doy = date.timetuple().tm_yday
    weekday = date.isoweekday()
    flags = [
        date.day == days_in_month,
        date.day == 1,
        date.month in (3, 6, 9, 12) and date.day == days_in_month,
        date.month in (1, 4, 7, 10) and date.day == 1,
        date.month == 12 and date.day == 31,
        date.month == 1 and date.day == 1,
    ]
    parts = [
        np.array([_reference_scaled(float(date.year), year_encoder)]),
        _one_hot(12, date.month - 1),
        _one_hot(53, date.isocalendar().week - 1),
        _one_hot(31, date.day - 1),
        _one_hot(7, weekday - 1),
        np.array([doy / 366.0]),
    ]
    parts += [_one_hot(2, int(flag)) for flag in flags]
    cyclic = _cyc(weekday, 7) + _cyc(date.day, days_in_month) + _cyc(date.month, 12) + _cyc(doy, days_in_year)
    parts.append(np.array(cyclic))
    parts.append(np.array([0.0]))
    return np.concatenate(parts)


def reference_encode_text(value, word_encoder, char_encoder):
    if value is None:
        return np.array([0.0, 0.0, 1.0])
    words, chars = float(len(value.split())), float(len(value))
    return np.array([_reference_scaled(words, word_encoder), _reference_scaled(chars, char_encoder), 0.0])


def reference_encode_row(db, table, row, encoder):
    """(dense vector, categorical indices) of one row, built cell by cell."""
    columns = db.tables[table].columns
    parts = []
    for ci, tag in encoder.dense_columns:
        value = columns[ci].values[row]
        if tag == "scalar":
            enc = encoder.fitted[ci]
            null = value is None or enc.all_null
            parts.append(np.array([0.0, 1.0] if null else [_reference_scaled(value, enc), 0.0]))
        elif tag == "latlong":
            parts.append(reference_encode_latlong(value))
        elif tag == "datetime":
            parts.append(reference_encode_datetime(value, encoder.fitted[ci]))
        elif tag == "text":
            parts.append(reference_encode_text(value, *encoder.fitted[ci]))
    dense = np.concatenate(parts) if parts else np.zeros(0)
    cats = []
    for ci in encoder.cat_columns:
        cat = encoder.fitted[ci]
        token = columns[ci].values[row]
        cats.append(cat.null_index if token is None else cat.vocabulary.get(token, cat.null_index))
    return dense, np.array(cats, dtype=np.int64)


def reference_segment_add(seg, values, n):
    """Row i of `values` added into row seg[i] of n zero rows, one row at a time."""
    out = np.zeros((n,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, seg, values)
    return out


def reference_sigmoid(z):
    """The logistic function split by sign, so that exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ReferenceAdamW:
    """AdamW one parameter at a time, with moments per parameter name: the optimizer before its flat
    arena. Its arithmetic per element is the arena's, operation for operation."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.lr * self.weight_decay * p.data
            p.data -= update

    def zero_grad(self):
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)


def _reference_accum(grads, t, g):
    """The first gradient of t is copied, and later ones are added into that copy."""
    buf = grads.get(t)
    if buf is None:
        grads[t] = np.array(g, dtype=np.float64, copy=True)
    else:
        buf += g


def reference_backward(loss):
    """`tensor.backward` with a copying `_accum` and a leaf gradient that is replaced, never written in
    place: each gradient buffer has one owner."""
    from relgnn import tensor

    accum, tensor._accum = tensor._accum, _reference_accum
    try:
        topo, seen, stack = [], set(), [(loss, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
        grads = {loss: np.ones_like(loss.data)}
        for node in reversed(topo):
            g = grads.get(node)
            if g is not None and node._backward is not None:
                node._backward(g, grads)
        for node in topo:
            g = grads.get(node)
            if g is not None and node._backward is None:
                node.grad = node.grad + g if node.grad is not None else g.copy()
    finally:
        tensor._accum = accum
