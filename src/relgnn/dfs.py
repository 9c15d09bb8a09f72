"""Depth-limited feature synthesis: aggregate child rows and copy parent cells into flat columns."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encode import (
    COLUMN_DENSE_WIDTH,
    CategoricalEncoder,
    categorical_from_json,
    categorical_indices,
    encode_column,
    fit_column,
    scalar_from_json,
)
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
    "fit_feature_encoders",
    "apply_feature_encoders",
    "feature_encoders_to_json",
    "feature_encoders_from_json",
    "aggspecs_to_json",
    "aggspecs_from_json",
    "write_features_csv",
]

AGGREGATORS = ("count", "sum", "mean", "max", "min")

COPY = "copy"  # forward paths copy one parent cell instead of aggregating a child set

DFS_DEPTH = 2  # the longest foreign-key path of a feature when no depth is given


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


def enumerate_aggs(db: Database, max_depth: int = DFS_DEPTH) -> list[AggSpec]:
    """Pure reverse-key paths get COUNT plus one spec per scalar column and aggregator; pure forward paths
    copy parent cells. Every reverse path comes first, depth first, then every forward path."""
    if max_depth < 0:
        raise RdbError(f"max_depth must be non-negative, got {max_depth}")
    fks = [(et.table, et.column, referenced_table(db, et))
           for et in edge_types(db, reverse_edges=False) if et.direction == FORWARD]
    specs: list[AggSpec] = []

    def extend(table: int, path: tuple, direction: str) -> None:
        if len(path) == max_depth:
            return
        aggregators = ("sum", "mean", "max", "min") if direction == REVERSE else (COPY,)
        for ti, ci, ref in fks:
            start, end = (ref, ti) if direction == REVERSE else (ti, ref)
            if start != table:
                continue
            hop_path = path + ((ti, ci, direction),)
            if direction == REVERSE:
                specs.append(AggSpec(hop_path, "count", None))
            specs.extend(AggSpec(hop_path, agg, c) for c, col in enumerate(db.tables[end].columns)
                         if not col.target for agg in aggregators if col.kind.tag in _SOURCE_KINDS[agg])
            extend(end, hop_path, direction)

    extend(db.target[0], (), REVERSE)
    extend(db.target[0], (), FORWARD)
    return specs


def _path_end(db: Database, path: tuple) -> int:
    """Validate that the hops chain from the target table; returns the table the path ends at."""
    table, _ = db.target
    for ti, ci, direction in path:
        if not (0 <= ti < len(db.tables) and 0 <= ci < len(db.tables[ti].columns)):
            raise RdbError(f"path hop ({ti}, {ci}) is out of range")
        col = db.tables[ti].columns[ci]
        if col.kind.tag != "foreign_key":
            raise RdbError(f"path hop {db.tables[ti].name}.{col.name} is not a foreign key")
        ref = db.table_index(col.kind.references[0])
        if direction == REVERSE:
            if ref != table:
                raise RdbError(f"reverse hop {db.tables[ti].name}.{col.name} does not reference {db.tables[table].name}")
            table = ti
        elif direction == FORWARD:
            if ti != table:
                raise RdbError(f"forward hop {db.tables[ti].name}.{col.name} does not start at {db.tables[table].name}")
            table = ref
        else:
            raise RdbError(f"unknown hop direction {direction!r}")
    return table


def _checked_end(db: Database, spec: AggSpec) -> int:
    end = _path_end(db, spec.path)
    if spec.source is None:
        return end
    if not 0 <= spec.source < len(db.tables[end].columns):
        raise RdbError(f"source column {spec.source} is out of range for table {db.tables[end].name}")
    col = db.tables[end].columns[spec.source]
    if col.kind.tag not in _SOURCE_KINDS[spec.aggregator]:
        verb = "copy" if spec.aggregator == COPY else f"{spec.aggregator} over"
        raise RdbError(f"cannot {verb} {col.kind.tag} column {db.tables[end].name}.{col.name}")
    return end


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

    Each distinct path is walked once for all targets through the graph's index, into (target
    position, end row) pairs in the order that following the rows one target at a time visits them."""
    target_table, _ = db.target
    ends = [_checked_end(db, spec) for spec in specs]
    targets = np.fromiter((int(t) for t in target_rows), dtype=np.int64)
    bad = (targets < 0) | (targets >= db.tables[target_table].nrows)
    if bad.any():
        raise RdbError(f"target row {targets[np.argmax(bad)]} is out of range")
    graph = database_to_graph(db)
    n = len(targets)
    walks = {(): (np.arange(n), targets)}

    def walk(path: tuple) -> tuple[np.ndarray, np.ndarray]:
        if path not in walks:
            seg, rows = walk(path[:-1])
            ti, ci, direction = path[-1]
            if direction == REVERSE:  # the children in the hop's type from each row's in-list, in row order
                et = EdgeType(ti, ci, FORWARD)
                edge_ids, counts = graph.in_edges(graph.offsets[referenced_table(db, et)] + rows)
                keep = graph.type_id[edge_ids] == graph.types.index(et)
                walks[path] = np.repeat(seg, counts)[keep], graph.src[edge_ids[keep]] - graph.offsets[ti]
            else:
                parents = db.fk_rows[(ti, ci)][rows]
                walks[path] = seg[parents >= 0], parents[parents >= 0]
        return walks[path]

    columns = []
    for spec, end in zip(specs, ends):
        seg, rows = walk(spec.path)
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
    names = []
    for spec in specs:
        hops = []
        for ti, ci, direction in spec.path:
            mark = "<" if direction == REVERSE else ">"
            hops.append(f"{db.tables[ti].name}.{db.tables[ti].columns[ci].name}{mark}")
        end = _path_end(db, spec.path)
        column = "*" if spec.source is None else db.tables[end].columns[spec.source].name
        names.append(f"{'.'.join(hops)}__{spec.aggregator.upper()}__{column}")
    return names


def fit_feature_encoders(raw: RawFeatures, fit_rows) -> list:
    """One scalar or categorical encoder per spec column, fit on its fit_rows cells only."""
    rows = np.asarray(fit_rows, dtype=np.int64)
    return [fit_column(col, rows) for col in raw.columns]


def apply_feature_encoders(raw: RawFeatures, encoders: list) -> np.ndarray:
    """Numeric columns become (scaled, null flag) pairs, copied categoricals one-hot, side by side in one
    matrix."""
    n = len(raw)
    rows = np.arange(n)
    widths = [enc.slots if isinstance(enc, CategoricalEncoder) else COLUMN_DENSE_WIDTH["scalar"] for enc in encoders]
    out = np.zeros((n, sum(widths)))
    for col, enc, start, width in zip(raw.columns, encoders, np.cumsum([0] + widths).tolist(), widths):
        if isinstance(enc, CategoricalEncoder):
            out[rows, start + categorical_indices(col, rows, enc)] = 1.0
        else:
            encode_column(col, rows, enc, out[:, start:start + width])
    return out


def feature_encoders_to_json(encoders: list) -> str:
    out = []
    for enc in encoders:
        if isinstance(enc, CategoricalEncoder):
            out.append({"kind": "categorical", "vocabulary": enc.vocabulary})
        else:
            out.append({"kind": "scalar", "median": enc.median, "iqr": enc.iqr, "all_null": enc.all_null})
    return json.dumps(out, sort_keys=True)


def feature_encoders_from_json(text: str, raw: RawFeatures) -> list:
    """Encoders as `feature_encoders_to_json` writes them, checked against the raw features: one per spec
    column, of the kind that `fit_feature_encoders` fits on it. A fault raises ValueError naming the entry."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise RdbError("not a list of feature encoders")
    if len(payload) != len(raw.columns):
        raise RdbError(f"{len(payload)} feature encoders for {len(raw.columns)} aggspecs")
    out = []
    for j, (col, item) in enumerate(zip(raw.columns, payload)):
        kind = col.kind.tag
        try:
            if not isinstance(item, dict) or item.get("kind") != kind:
                raise ValueError(f"is not a {kind} encoder")
            if kind == "categorical":
                out.append(categorical_from_json(item.get("vocabulary")))
            else:
                out.append(scalar_from_json([item.get("median"), item.get("iqr"), item.get("all_null")]))
        except ValueError as exc:
            raise RdbError(f"entry {j} {exc}") from None
    return out


def aggspecs_to_json(specs: list[AggSpec]) -> str:
    return json.dumps(
        [{"path": [list(hop) for hop in s.path], "aggregator": s.aggregator, "source": s.source} for s in specs]
    )


def aggspecs_from_json(text: str, db: Database | None = None) -> list[AggSpec]:
    """Specs as `aggspecs_to_json` writes them; given `db`, each one is checked against it. A bad
    entry fails naming its position."""
    specs = []
    for i, item in enumerate(json.loads(text)):
        try:
            spec = AggSpec(tuple((int(t), int(c), d) for t, c, d in item["path"]), item["aggregator"], item["source"])
            if db is not None:
                _checked_end(db, spec)
        except RdbError as exc:
            raise RdbError(f"aggspecs[{i}]: {exc}") from None
        specs.append(spec)
    return specs


def write_features_csv(path, db: Database, specs: list[AggSpec], target_rows) -> None:
    """Raw feature matrix as CSV keyed by the target table's primary key, or by a `row` column of row
    numbers when it has none; the empty cell is null."""
    rows = np.fromiter((int(row) for row in target_rows), dtype=np.int64)
    raw = compute_features(db, specs, rows)  # fails on a row out of range
    pk = next((col for col in db.tables[db.target[0]].columns if col.kind.tag == "primary_key"), None)
    key = (Column("row", ColumnKind("text"), False, list(map(str, rows.tolist()))) if pk is None
           else Column.from_arrays(pk.name, pk.kind, pk.data[rows], pk.null[rows], pk.vocab))
    write_csv(path, [key.name] + feature_names(db, specs), [key] + raw.columns)
