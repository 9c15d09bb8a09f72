"""Depth-limited feature synthesis: aggregate child rows and copy parent cells into flat columns."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .encode import (
    CategoricalEncoder,
    ScalarEncoder,
    categorical_indices,
    encode_scalar_column,
    fit_categorical,
    fit_scalar,
)
from .graph import FORWARD, REVERSE
from .rdb import Database, RdbError

__all__ = [
    "AGGREGATORS",
    "COPY",
    "AggSpec",
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

    @property
    def depth(self) -> int:
        return len(self.path)


def _foreign_keys(db: Database) -> list[tuple[int, int, int]]:
    """(table, column, referenced table) for every foreign-key column, in schema order."""
    out = []
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag == "foreign_key":
                out.append((ti, ci, db.table_index(col.kind.references[0])))
    return out


def _scalar_columns(table) -> list[int]:
    return [ci for ci, col in enumerate(table.columns) if col.kind.tag == "scalar" and not col.target]


def _copy_columns(table) -> list[int]:
    return [
        ci
        for ci, col in enumerate(table.columns)
        if col.kind.tag in ("scalar", "categorical") and not col.target
    ]


def enumerate_aggs(db: Database, max_depth: int = 2) -> list[AggSpec]:
    """Pure reverse-key paths get COUNT plus one spec per aggregator and scalar column; pure forward paths copy parent cells."""
    if max_depth < 0:
        raise RdbError(f"max_depth must be non-negative, got {max_depth}")
    target_table, _ = db.target
    fks = _foreign_keys(db)
    specs: list[AggSpec] = []

    def descend(table: int, path: tuple) -> None:
        if len(path) == max_depth:
            return
        for ti, ci, ref in fks:
            if ref != table:
                continue
            hop_path = path + ((ti, ci, REVERSE),)
            specs.append(AggSpec(hop_path, "count", None))
            for sc in _scalar_columns(db.tables[ti]):
                for agg in ("sum", "mean", "max", "min"):
                    specs.append(AggSpec(hop_path, agg, sc))
            descend(ti, hop_path)

    def climb(table: int, path: tuple) -> None:
        if len(path) == max_depth:
            return
        for ti, ci, ref in fks:
            if ti != table:
                continue
            hop_path = path + ((ti, ci, FORWARD),)
            for cc in _copy_columns(db.tables[ref]):
                specs.append(AggSpec(hop_path, COPY, cc))
            climb(ref, hop_path)

    descend(target_table, ())
    climb(target_table, ())
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
    if spec.aggregator == COPY:
        if col.kind.tag not in ("scalar", "categorical"):
            raise RdbError(f"cannot copy {col.kind.tag} column {db.tables[end].name}.{col.name}")
    elif col.kind.tag != "scalar":
        raise RdbError(f"cannot {spec.aggregator} over {col.kind.tag} column {db.tables[end].name}.{col.name}")
    return end


def compute_features(db: Database, specs: list[AggSpec], target_rows) -> list[list]:
    """Raw feature values (None for null), one row per requested target row, in request order."""
    target_table, _ = db.target
    nrows = db.tables[target_table].nrows
    ends = [_checked_end(db, spec) for spec in specs]

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


def _evaluate(db: Database, spec: AggSpec, end_table: int, rows: list[int]):
    if spec.aggregator == "count":
        return float(len(rows))
    cells = [db.tables[end_table].cell(r, spec.source) for r in rows]
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


def fit_feature_encoders(db: Database, specs: list[AggSpec], raw: list[list], fit_rows) -> list:
    """One scalar or categorical encoder per spec column, fit on fit_rows of the raw matrix only."""
    encoders = []
    for j, spec in enumerate(specs):
        fit_cells = [raw[i][j] for i in fit_rows]
        end = _checked_end(db, spec)
        categorical = spec.aggregator == COPY and db.tables[end].columns[spec.source].kind.tag == "categorical"
        encoders.append(fit_categorical(fit_cells) if categorical else fit_scalar(fit_cells))
    return encoders


def apply_feature_encoders(specs: list[AggSpec], raw: list[list], encoders: list) -> np.ndarray:
    """Numeric columns become (scaled, null flag) pairs, copied categoricals one-hot."""
    n = len(raw)
    blocks = []
    for j, enc in enumerate(encoders):
        column = [raw[i][j] for i in range(n)]
        if isinstance(enc, CategoricalEncoder):
            block = np.zeros((n, enc.cardinality + 1))
            block[np.arange(n), categorical_indices(column, enc)] = 1.0
        else:
            block = np.zeros((n, 2))
            encode_scalar_column(column, enc, block)
        blocks.append(block)
    if len(blocks) == 0:
        return np.zeros((n, 0))
    return np.concatenate(blocks, axis=1)


def feature_encoders_to_json(encoders: list) -> str:
    out = []
    for enc in encoders:
        if isinstance(enc, CategoricalEncoder):
            out.append({"kind": "categorical", "vocabulary": enc.vocabulary})
        else:
            out.append({"kind": "scalar", "median": enc.median, "iqr": enc.iqr, "all_null": enc.all_null})
    return json.dumps(out, sort_keys=True)


def feature_encoders_from_json(text: str) -> list:
    out = []
    for item in json.loads(text):
        if item["kind"] == "categorical":
            out.append(CategoricalEncoder(dict(item["vocabulary"])))
        else:
            out.append(ScalarEncoder(item["median"], item["iqr"], item["all_null"]))
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


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_features_csv(path, db: Database, specs: list[AggSpec], target_rows) -> None:
    """Raw feature matrix as CSV keyed by the target table's primary key; the empty cell is null."""
    target_table, _ = db.target
    table = db.tables[target_table]
    pk = next((ci for ci, col in enumerate(table.columns) if col.kind.tag == "primary_key"), None)
    raw = compute_features(db, specs, target_rows)
    header = [table.columns[pk].name if pk is not None else "row"] + feature_names(db, specs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, values in zip(target_rows, raw):
            key = table.cell(int(row), pk) if pk is not None else int(row)
            writer.writerow([_render(key)] + [_render(v) for v in values])
