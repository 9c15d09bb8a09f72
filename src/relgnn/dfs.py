"""Depth-limited feature synthesis: aggregate child rows and copy parent cells into flat columns."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import FORWARD, REVERSE, EdgeType, database_to_graph, edge_types, referenced_table
from .rdb import Column, ColumnKind, Database, RdbError, write_csv

__all__ = [
    "AGGREGATORS",
    "COPY",
    "AggSpec",
    "RawFeatures",
    "enumerate_aggs",
    "compute_features",
    "feature_names",
    "aggspecs_to_json",
    "aggspecs_from_json",
    "write_features_csv",
]

AGGREGATORS = ("count", "sum", "mean", "max", "min")

COPY = "copy"  # forward paths copy one parent cell instead of aggregating a child set


@dataclass(frozen=True)
class AggSpec:
    """One flat feature: follow a foreign-key path from the target table, then aggregate or copy."""

    # each hop is (table index, column index, direction) of a foreign-key column; a reverse hop
    # descends into the table owning the key (one-to-many), a forward hop climbs to the table it
    # references (many-to-one)
    path: tuple[tuple[int, int, str], ...]
    aggregator: str
    source: int | None  # column index in the table the path ends at; count has no source

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS + (COPY,):
            raise RdbError(f"unknown aggregator {self.aggregator!r}")
        if (self.source is None) != (self.aggregator == "count"):
            raise RdbError("count takes no source column, every other aggregator needs one")
        if len(self.path) == 0:
            raise RdbError("empty relationship path")


# the column kinds each aggregator may read; count reads no column
_SOURCE_KINDS = {COPY: ("scalar", "categorical"), "sum": ("scalar",), "mean": ("scalar",), "max": ("scalar",),
                 "min": ("scalar",)}


def enumerate_aggs(db: Database, max_depth: int) -> list[AggSpec]:
    """Pure reverse-key paths get COUNT plus one spec per scalar column and aggregator; pure forward paths
    copy parent cells. Every reverse path comes first, depth first, then every forward path."""
    if max_depth < 0:
        raise RdbError(f"max_depth must be non-negative, got {max_depth}")
    fks = [(et.table, et.column, referenced_table(db, et))
           for et in edge_types(db, reverse_edges=False) if et.direction == FORWARD]
    # each foreign key as a hop (table, column, from table, to table) in either direction
    hops = {REVERSE: [(ti, ci, ref, ti) for ti, ci, ref in fks], FORWARD: [(ti, ci, ti, ref) for ti, ci, ref in fks]}
    specs: list[AggSpec] = []
    # (path, the table it ends at, its direction), depth first from a stack, so that no recursion limit
    # bounds the depth; continuations are pushed last first, and the reverse paths above the forward ones
    stack = [((), db.target[0], FORWARD), ((), db.target[0], REVERSE)]
    while stack:
        path, table, direction = stack.pop()
        if path:
            aggregators = ("sum", "mean", "max", "min") if direction == REVERSE else (COPY,)
            if direction == REVERSE:
                specs.append(AggSpec(path, "count", None))
            specs.extend(AggSpec(path, agg, c) for c, col in enumerate(db.tables[table].columns)
                         if not col.target for agg in aggregators if col.kind.tag in _SOURCE_KINDS[agg])
        if len(path) < max_depth:
            stack.extend((path + ((ti, ci, direction),), end, direction)
                         for ti, ci, start, end in reversed(hops[direction]) if start == table)
    return specs


def _resolve(db: Database, ends: dict, spec: AggSpec) -> int:
    """The table `spec`'s path ends at, with its source column checked there. `ends` maps each path prefix
    resolved so far to its end table, from `{(): target table}`: the path's longest prefix in it is found
    first, then each later hop is checked against its parent's end and added, parents before children."""
    path, k = spec.path, len(spec.path)
    while (table := ends.get(path[:k])) is None:
        k -= 1
    for k, (ti, ci, direction) in enumerate(path[k:], k):
        if not (0 <= ti < len(db.tables) and 0 <= ci < len(db.tables[ti].columns)):
            raise RdbError(f"path hop ({ti}, {ci}) is out of range")
        col = db.tables[ti].columns[ci]
        if col.kind.tag != "foreign_key":
            raise RdbError(f"path hop {db.tables[ti].name}.{col.name} is not a foreign key")
        ref = db.table_index(col.kind.references[0])
        if direction not in (REVERSE, FORWARD):
            raise RdbError(f"unknown hop direction {direction!r}")
        start, end = (ref, ti) if direction == REVERSE else (ti, ref)
        if start != table:
            joins = "reference" if direction == REVERSE else "start at"
            raise RdbError(f"{direction} hop {db.tables[ti].name}.{col.name} does not {joins} {db.tables[table].name}")
        ends[path[:k + 1]] = table = end
    if spec.source is not None:
        if not 0 <= spec.source < len(db.tables[table].columns):
            raise RdbError(f"source column {spec.source} is out of range for table {db.tables[table].name}")
        col = db.tables[table].columns[spec.source]
        if col.kind.tag not in _SOURCE_KINDS[spec.aggregator]:
            verb = "copy" if spec.aggregator == COPY else f"{spec.aggregator} over"
            raise RdbError(f"cannot {verb} {col.kind.tag} column {db.tables[table].name}.{col.name}")
    return table


@dataclass
class RawFeatures:
    """Features before encoding: one Column per spec, each with one cell per requested target row. A
    copied categorical is a categorical column, codes into its source's vocabulary; every other spec is
    a scalar column. `raw[i]` reads row i as Python values, None for null."""

    columns: list[Column]
    nrows: int

    def __len__(self) -> int:
        return self.nrows

    def __getitem__(self, i: int) -> list:
        if not 0 <= i < self.nrows:
            raise IndexError(f"feature row {i} is out of range")
        return [col.cell(i) for col in self.columns]


def compute_features(db: Database, specs: list[AggSpec], target_rows) -> RawFeatures:
    """Raw feature columns, one cell per requested target row, in request order.

    Each distinct path prefix is walked once for all targets through the graph's index, from its parent's
    (target position, end row) pairs, in the order that following the rows one target at a time visits."""
    target_table, _ = db.target
    ends = {(): target_table}
    spec_ends = [_resolve(db, ends, spec) for spec in specs]
    targets = np.fromiter((int(t) for t in target_rows), dtype=np.int64)
    bad = (targets < 0) | (targets >= db.tables[target_table].nrows)
    if bad.any():
        raise RdbError(f"target row {targets[np.argmax(bad)]} is out of range")
    graph = database_to_graph(db)
    n = len(targets)
    walks = {(): (np.arange(n), targets)}
    for prefix in list(ends)[1:]:  # every parent comes before its children
        parent = prefix[:-1]
        seg, rows = walks[parent]
        ti, ci, direction = prefix[-1]
        if direction == REVERSE:  # the children in the hop's type from each row's in-list, in row order
            edge_ids, counts = graph.in_edges(graph.offsets[ends[parent]] + rows)
            keep = graph.type_id[edge_ids] == graph.types.index(EdgeType(ti, ci, FORWARD))
            walks[prefix] = np.repeat(seg, counts)[keep], graph.src[edge_ids[keep]] - graph.offsets[ti]
        else:
            parents = db.fk_rows[(ti, ci)][rows]
            walks[prefix] = seg[parents >= 0], parents[parents >= 0]
    columns = []
    for spec, end in zip(specs, spec_ends):
        seg, rows = walks[spec.path]
        if spec.aggregator == "count":
            counts = np.bincount(seg, minlength=n).astype(np.float64)
            columns.append(Column.from_arrays("count", ColumnKind("scalar"), counts, np.zeros(n, dtype=bool)))
            continue
        source = db.tables[end].columns[spec.source]
        if spec.aggregator == COPY:  # the first end row's cell
            positions, firsts = np.unique(seg, return_index=True)
            data = np.full(n, -1 if source.vocab is not None else 0.0, dtype=source.data.dtype)
            null = np.ones(n, dtype=bool)
            data[positions] = source.data[rows[firsts]]
            null[positions] = source.null[rows[firsts]]
            columns.append(Column.from_arrays(source.name, source.kind, data, null, source.vocab))
            continue
        keep = ~source.null[rows]
        values, null = _aggregate(spec.aggregator, seg[keep], source.data[rows[keep]], n)
        columns.append(Column.from_arrays(spec.aggregator, ColumnKind("scalar"), values, null))
    return RawFeatures(columns, n)


def _aggregate(aggregator: str, seg: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sum, mean, max or min of each target's non-null values, in walk order, and the null mask of the
    targets without one.

    Sums add in walk order from 0.0 and the extremes keep the first extreme value, so every result is
    the float that Python's `sum`, `max` and `min` give over the same values."""
    counts = np.bincount(seg, minlength=n)
    if aggregator in ("sum", "mean"):
        out = np.bincount(seg, weights=values, minlength=n)
        if aggregator == "mean":
            out = out / np.maximum(counts, 1)
    else:
        ufunc, init = (np.maximum, -np.inf) if aggregator == "max" else (np.minimum, np.inf)
        out = np.full(n, init)
        ufunc.at(out, seg, values)
        # 0.0 and -0.0 tie: keep each target's first extreme value, as Python's max and min do
        hits = np.flatnonzero(values == out[seg])
        firsts = hits[np.unique(seg[hits], return_index=True)[1]]
        out[seg[firsts]] = values[firsts]
    return out, counts == 0


def feature_names(db: Database, specs: list[AggSpec]) -> list[str]:
    """path__AGG__column labels; reverse hops end in '<', forward in '>', count uses '*'."""
    ends = {(): db.target[0]}
    names = []
    for spec in specs:
        end = _resolve(db, ends, spec)
        hops = ".".join(f"{db.tables[ti].name}.{db.tables[ti].columns[ci].name}{'<' if direction == REVERSE else '>'}"
                        for ti, ci, direction in spec.path)
        column = "*" if spec.source is None else db.tables[end].columns[spec.source].name
        names.append(f"{hops}__{spec.aggregator.upper()}__{column}")
    return names


def aggspecs_to_json(specs: list[AggSpec]) -> str:
    return json.dumps(
        [{"path": [list(hop) for hop in s.path], "aggregator": s.aggregator, "source": s.source} for s in specs]
    )


def aggspecs_from_json(text: str, db: Database | None = None) -> list[AggSpec]:
    """Specs as `aggspecs_to_json` writes them: table, column and source are JSON integers, not true or
    false, and a direction is a string. Given `db`, each spec is checked against it, each distinct path
    prefix once. A bad entry fails naming its position."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise RdbError("not a list of aggspecs")
    ends = None if db is None else {(): db.target[0]}
    specs = []
    for i, item in enumerate(payload):
        try:
            if not (isinstance(item, dict) and item.keys() >= {"path", "aggregator", "source"}):
                raise RdbError("not an object with path, aggregator and source")
            path, source = item["path"], item["source"]
            for hop in path if type(path) is list else [path]:  # a path that is no list is one bad hop
                if type(hop) is not list or list(map(type, hop)) != [int, int, str]:
                    raise RdbError(f"path hop {json.dumps(hop)} is not [table, column, direction] (integers, string)")
            if type(source) not in (int, type(None)):
                raise RdbError(f"source {json.dumps(source)} is not an integer or null")
            spec = AggSpec(tuple(map(tuple, path)), item["aggregator"], source)  # which checks the aggregator
            if ends is not None:
                _resolve(db, ends, spec)
        except RdbError as exc:
            raise RdbError(f"aggspecs[{i}]: {exc}") from None
        specs.append(spec)
    return specs


def write_features_csv(path, db: Database, specs: list[AggSpec], target_rows) -> list[str]:
    """Raw feature matrix as CSV keyed by the target table's primary key, or by a `row` column of row
    numbers when it has none; the empty cell is null. Returns the feature columns' names."""
    rows = np.fromiter((int(row) for row in target_rows), dtype=np.int64)
    raw = compute_features(db, specs, rows)  # fails on a row out of range
    pk = next((col for col in db.tables[db.target[0]].columns if col.kind.tag == "primary_key"), None)
    key = (Column("row", ColumnKind("text"), False, list(map(str, rows.tolist()))) if pk is None
           else Column.from_arrays(pk.name, pk.kind, pk.data[rows], pk.null[rows], pk.vocab))
    names = feature_names(db, specs)
    write_csv(path, [key.name] + names, [key] + raw.columns)
    return names
