"""Load, validate, and access typed relational databases stored as schema.json + CSVs."""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path

import numpy as np

__all__ = [
    "RdbError",
    "ColumnKind",
    "Column",
    "Table",
    "Database",
    "ValidationReport",
    "load_database",
    "validate_schema",
    "remove_target_column",
    "target_labels",
    "write_dataset",
]

KIND_TAGS = ("scalar", "categorical", "datetime", "latlong", "text", "primary_key", "foreign_key")

FEATURE_TAGS = ("scalar", "categorical", "datetime", "latlong", "text")  # key columns carry no features


class RdbError(ValueError):
    """Schema or data problem detected while loading or validating a database."""


@dataclass(frozen=True)
class ColumnKind:
    tag: str
    references: tuple[str, str] | None = None  # (table, column), foreign_key only


@dataclass
class Column:
    name: str
    kind: ColumnKind
    target: bool
    values: list  # one entry per row; None is the null cell


@dataclass
class Table:
    name: str
    columns: list[Column]

    @property
    def nrows(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise RdbError(f"table {self.name} has no column {name!r}")

    def cell(self, row: int, col: int):
        return self.columns[col].values[row]


@dataclass
class Database:
    tables: list[Table]
    # row index each non-null FK cell resolves to, -1 for null or dangling;
    # keyed by (table index, column index) of the FK column
    fk_rows: dict[tuple[int, int], np.ndarray]
    dangling: list[tuple[str, int, str, str]]  # (table, row, column, token)
    target_flags: list[tuple[int, int]]
    masked: bool = False
    _raw_labels: list | None = None

    @property
    def target(self) -> tuple[int, int]:
        if len(self.target_flags) == 0:
            raise RdbError("no target column")
        if len(self.target_flags) > 1:
            raise RdbError(f"multiple target columns ({len(self.target_flags)})")
        return self.target_flags[0]

    def table_index(self, name: str) -> int:
        for i, table in enumerate(self.tables):
            if table.name == name:
                return i
        raise RdbError(f"no table named {name!r}")

    def table(self, name: str) -> Table:
        return self.tables[self.table_index(name)]


def _field(obj, key: str, kind: type, where: str, path: Path):
    """obj[key], which must exist and be of `kind`; fails naming the file and where in it."""
    if not isinstance(obj, dict):
        raise RdbError(f"{path}: {where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise RdbError(f"{path}: {where} lacks key {key!r}")
    if not isinstance(obj[key], kind):
        raise RdbError(f"{path}: {where}: {key!r} must be a {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


def _read_schema(path: Path) -> list[tuple[Table, str]]:
    """Each table of schema.json, its columns still empty, with its CSV file name. A malformed file
    fails naming itself and the table, column or key."""
    try:
        schema = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RdbError(f"{path}: invalid JSON: {exc}") from None
    specs = _field(schema, "tables", list, "the schema", path)
    names = [_field(spec, "name", str, f"tables[{ti}]", path) for ti, spec in enumerate(specs)]
    if len(set(names)) != len(names):
        raise RdbError(f"{path}: duplicate table names")
    out = []
    for name, spec in zip(names, specs):
        file = _field(spec, "file", str, f"table {name}", path)
        columns: list[Column] = []
        for ci, col in enumerate(_field(spec, "columns", list, f"table {name}", path)):
            col_name = _field(col, "name", str, f"table {name} columns[{ci}]", path)
            where = f"table {name} column {col_name}"
            if any(c.name == col_name for c in columns):
                raise RdbError(f"{path}: duplicate column {col_name!r} in table {name}")
            tag = _field(col, "kind", str, where, path)
            if tag not in KIND_TAGS:
                raise RdbError(f"{path}: {where}: unknown column kind {tag!r}")
            references = None
            if tag == "foreign_key":
                ref = _field(col, "references", dict, where, path)
                references = (_field(ref, "table", str, f"{where} references", path),
                              _field(ref, "column", str, f"{where} references", path))
                if references[0] not in names:
                    raise RdbError(f"{path}: {where} references unknown table {references[0]!r}")
            target = col.get("target", False)
            if not isinstance(target, bool):
                raise RdbError(f"{path}: {where}: 'target' must be true or false, got {target!r}")
            if target and tag != "categorical":
                raise RdbError(f"{path}: target column {name}.{col_name} must be categorical")
            columns.append(Column(col_name, ColumnKind(tag, references), target, []))
        out.append((Table(name, columns), file))
    column_names = {table.name: {col.name for col in table.columns} for table, _ in out}
    for table, _ in out:
        for col in table.columns:
            if col.kind.references is None:
                continue
            ref_table, ref_col = col.kind.references
            if ref_col not in column_names[ref_table]:
                raise RdbError(f"{path}: table {table.name} column {col.name} references unknown column "
                               f"{ref_col!r} of table {ref_table}")
    return out


def _parse_cell(text: str, kind: ColumnKind):
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


def load_database(root: str | Path, strict: bool = True) -> Database:
    """Read schema.json plus one CSV per table from `root`."""
    root = Path(root)
    schema_path = root / "schema.json"
    if not schema_path.is_file():
        raise RdbError(f"missing file: {schema_path}")
    tables: list[Table] = []
    path = schema_path  # the file being read
    try:
        for table, file in _read_schema(schema_path):
            tables.append(table)
            path = root / file
            if not path.is_file():
                raise RdbError(f"missing file: {path}")
            _read_csv(path, table)
    except UnicodeDecodeError as exc:
        raise RdbError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise RdbError(f"{path}: {exc}") from None
    target_flags = [(ti, ci) for ti, t in enumerate(tables) for ci, col in enumerate(t.columns) if col.target]
    db = Database(tables, {}, [], target_flags)
    _resolve_foreign_keys(db, strict)
    return db


def _read_csv(csv_path: Path, table: Table) -> None:
    """Append each row's parsed cells to the table's columns, matching the header to the column names."""
    columns = table.columns
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise RdbError(f"{csv_path} has no header row")
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise RdbError(f"duplicate column {repeated[0]!r} in the header of {csv_path}")
        declared = {col.name for col in columns}
        undeclared = [h for h in header if h not in declared]
        if undeclared:
            raise RdbError(f"undeclared column {undeclared[0]!r} in {csv_path}")
        missing = declared - set(header)
        if missing:
            raise RdbError(f"column {sorted(missing)[0]!r} missing from {csv_path}")
        positions = [header.index(col.name) for col in columns]
        for ri, row in enumerate(reader):
            if len(row) != len(header):
                raise RdbError(f"{csv_path} row {ri}: expected {len(header)} fields, got {len(row)}")
            for col, pos in zip(columns, positions):
                try:
                    col.values.append(_parse_cell(row[pos], col.kind))
                except ValueError as exc:
                    raise RdbError(f"{csv_path}: unparseable cell at table {table.name} row {ri} "
                                   f"column {col.name}: {exc}") from None


def _resolve_foreign_keys(db: Database, strict: bool) -> None:
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag != "foreign_key":
                continue
            ref_table_name, ref_col_name = col.kind.references
            ref_table = db.table(ref_table_name)
            ref_col = ref_table.columns[ref_table.column_index(ref_col_name)]
            index: dict[str, int] = {}
            for ri, token in enumerate(ref_col.values):
                if token is None:
                    continue
                if token in index:
                    raise RdbError(f"duplicate key {token!r} in {ref_table_name}.{ref_col_name}")
                index[token] = ri
            resolved = np.full(table.nrows, -1, dtype=np.int64)
            for ri, token in enumerate(col.values):
                if token is None:
                    continue
                row = index.get(token)
                if row is None:
                    if strict:
                        raise RdbError(
                            f"dangling reference at table {table.name} row {ri} column {col.name}: "
                            f"{token!r} not found in {ref_table_name}.{ref_col_name}"
                        )
                    db.dangling.append((table.name, ri, col.name, token))
                    col.values[ri] = None
                else:
                    resolved[ri] = row
            db.fk_rows[(ti, ci)] = resolved
    if db.dangling:
        warnings.warn(f"{len(db.dangling)} dangling foreign-key cell(s) kept as Null", stacklevel=3)


@dataclass
class ValidationReport:
    table_rows: dict[str, int]
    fk_resolution: dict[str, tuple[int, int]]  # column -> (resolved, non-null cells)
    null_rate: dict[str, float]
    categorical_cardinality: dict[str, int]
    target: str


def validate_schema(db: Database) -> ValidationReport:
    """Summarize FK resolution, null rates, and cardinalities; require one target column."""
    kt, kc = db.target  # raises on zero or multiple targets
    _target_tokens(db, nulls_allowed=True)

    table_rows = {t.name: t.nrows for t in db.tables}
    fk_resolution: dict[str, tuple[int, int]] = {}
    null_rate: dict[str, float] = {}
    cardinality: dict[str, int] = {}
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            key = f"{table.name}.{col.name}"
            n = table.nrows
            nulls = sum(1 for v in col.values if v is None)
            null_rate[key] = nulls / n if n else 0.0
            if col.kind.tag == "foreign_key":
                resolved = int((db.fk_rows[(ti, ci)] >= 0).sum())
                fk_resolution[key] = (resolved, n - nulls)
            if col.kind.tag == "categorical":
                cardinality[key] = len({v for v in col.values if v is not None})
    return ValidationReport(
        table_rows,
        fk_resolution,
        null_rate,
        cardinality,
        f"{db.tables[kt].name}.{db.tables[kt].columns[kc].name}",
    )


def remove_target_column(db: Database) -> Database:
    """Return a view whose target cells all read Null; labels stay reachable via target_labels only."""
    if db.masked:
        return db
    kt, kc = db.target
    raw = list(db.tables[kt].columns[kc].values)
    tables = list(db.tables)
    columns = list(tables[kt].columns)
    columns[kc] = replace(columns[kc], values=[None] * len(raw))
    tables[kt] = replace(tables[kt], columns=columns)
    return Database(tables, db.fk_rows, db.dangling, db.target_flags, masked=True, _raw_labels=raw)


def _target_tokens(db: Database, nulls_allowed: bool) -> tuple[list, list]:
    """The target column's cells and their distinct non-null tokens, sorted. A null (unless allowed), or
    a third distinct token, fails naming the table, the row and the column of the first."""
    kt, kc = db.target
    table = db.tables[kt]
    raw = db._raw_labels if db.masked else table.columns[kc].values
    tokens = set(raw)
    vocab = sorted(tokens - {None})

    def at(token) -> str:  # where the token first appears
        return f"at table {table.name} row {raw.index(token)} column {table.columns[kc].name}"

    if None in tokens and not nulls_allowed:
        raise RdbError(f"null label {at(None)}")
    if len(vocab) > 2:
        third = [token for token in dict.fromkeys(raw) if token is not None][2]
        raise RdbError(f"target column must be binary, found {len(vocab)} distinct tokens; the third, {third!r}, "
                       f"{at(third)}")
    return raw, vocab


def target_labels(db: Database) -> np.ndarray:
    """Binary labels of the target column as 0/1 ints, tokens mapped in sorted order; a null label fails."""
    raw, vocab = _target_tokens(db, nulls_allowed=False)
    mapping = {token: i for i, token in enumerate(vocab)}
    return np.array([mapping[v] for v in raw], dtype=np.int64)


def _format_cell(value, kind: ColumnKind) -> str:
    if value is None:
        return ""
    tag = kind.tag
    if tag == "scalar":
        return repr(value)
    if tag == "datetime":
        return value.isoformat()
    if tag == "latlong":
        return f"{value[0]!r},{value[1]!r}"
    return value


def write_dataset(db: Database, out_dir: str | Path) -> None:
    """Write schema.json + CSVs so load_database reads back an identical Database."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_specs = []
    for table in db.tables:
        col_specs = []
        for col in table.columns:
            spec: dict = {"name": col.name, "kind": col.kind.tag}
            if col.kind.references is not None:
                spec["references"] = {"table": col.kind.references[0], "column": col.kind.references[1]}
            if col.target:
                spec["target"] = True
            col_specs.append(spec)
        table_specs.append({"name": table.name, "file": f"{table.name}.csv", "columns": col_specs})
        with open(out_dir / f"{table.name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([col.name for col in table.columns])
            for ri in range(table.nrows):
                writer.writerow([_format_cell(col.values[ri], col.kind) for col in table.columns])
    (out_dir / "schema.json").write_text(json.dumps({"tables": table_specs}, indent=2, sort_keys=True), encoding="utf-8")
