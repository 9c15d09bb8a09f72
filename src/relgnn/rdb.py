"""Load, validate, and access typed relational databases stored as schema.json + CSVs."""
from __future__ import annotations

import csv
import io
import json
import operator
import warnings
from datetime import datetime
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "RdbError",
    "ColumnKind",
    "Column",
    "Table",
    "Database",
    "load_database",
    "validate_schema",
    "remove_target_column",
    "target_labels",
    "write_csv",
    "write_dataset",
]

KIND_TAGS = ("scalar", "categorical", "datetime", "latlong", "text", "primary_key", "foreign_key")

TOKEN_TAGS = ("categorical", "text", "primary_key", "foreign_key")  # held as codes into a vocabulary


class RdbError(ValueError):
    """Schema or data problem detected while loading or validating a database."""


class ColumnKind(NamedTuple):
    tag: str
    references: tuple[str, str] | None = None  # (table, column), foreign_key only


class Column:
    """One column's cells as arrays. `data` is float64 for a scalar column, datetime64[s] for a datetime
    one, (n, 2) float64 (lat, long) for a latlong one, and int64 codes into `vocab`, the distinct tokens
    in order of first appearance, for the token kinds (categorical, text and both keys); a resolved
    foreign key's `vocab` is that of the column it references. `null` marks the null cells; their
    `data` entries mean nothing, except that a null token's code is -1.

    `Column(name, kind, target, cells)` builds a column from Python cells (float, datetime, (lat, long)
    or str; None for null), and `values` reads them back."""

    def __init__(self, name: str, kind: ColumnKind, target: bool, values=()):
        self.name, self.kind, self.target = name, kind, target
        self.values = values

    @classmethod
    def from_arrays(cls, name: str, kind: ColumnKind, data: np.ndarray, null: np.ndarray, vocab=None) -> "Column":
        """A non-target column that holds the given arrays."""
        col = cls.__new__(cls)
        col.name, col.kind, col.target, col.data, col.null, col.vocab = name, kind, False, data, null, vocab
        return col

    def __len__(self) -> int:
        return len(self.null)

    @property
    def values(self) -> list:
        """The cells as Python values, one per row, None for null."""
        if self.vocab is not None:
            vocab = self.vocab + [None]  # code -1 reads None
            return [vocab[code] for code in self.data.tolist()]
        cells = self.data.tolist()
        if self.kind.tag == "latlong":
            cells = list(map(tuple, cells))
        return [None if null else cell for cell, null in zip(cells, self.null.tolist())]

    @values.setter
    def values(self, cells) -> None:
        cells = list(cells)
        if self.kind.tag in TOKEN_TAGS:
            index = {None: -1}
            self.data = _code(cells, index)
            self.null, self.vocab = self.data < 0, list(islice(index, 1, None))
            return
        dtype, fill, shape = _ARRAY_OF[self.kind.tag]
        self.null = np.array([cell is None for cell in cells], dtype=bool)
        present = [cell for cell in cells if cell is not None]
        self.data = np.full((len(cells),) + shape, fill, dtype=dtype)
        self.data[~self.null] = (_datetime64(present) if self.kind.tag == "datetime"
                                 else np.array(present, dtype=dtype).reshape((-1,) + shape))
        self.vocab = None

    def cell(self, row: int):
        if self.null[row]:
            return None
        if self.vocab is not None:
            return self.vocab[self.data[row]]
        value = self.data[row].tolist()
        return tuple(value) if self.kind.tag == "latlong" else value


# dtype, null fill and per-cell shape of the array each non-token kind is held in
_ARRAY_OF = {
    "scalar": (np.float64, 0.0, ()),
    "datetime": ("datetime64[s]", np.datetime64("NaT"), ()),
    "latlong": (np.float64, 0.0, (2,)),
}


def _code(tokens, index: dict) -> np.ndarray:
    """int64 codes of the tokens through `index`, which maps the null token to -1 and each other token
    seen so far to its code, numbered in order of first appearance; the new tokens join it."""
    return np.array([index.setdefault(token, len(index) - 1) for token in tokens], dtype=np.int64)


_EPOCH_SECONDS = datetime(1970, 1, 1).toordinal() * 86400  # datetime64 counts from 1970-01-01


def _datetime64(stamps: list[datetime]) -> np.ndarray:
    """The datetimes at second precision, from their fields: faster than numpy's conversion."""
    seconds = [t.toordinal() * 86400 + t.hour * 3600 + t.minute * 60 + t.second for t in stamps]
    return (np.array(seconds, dtype=np.int64) - _EPOCH_SECONDS).astype("datetime64[s]")


class Table:
    def __init__(self, name: str, columns: list[Column]):
        self.name, self.columns = name, columns

    @property
    def nrows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise RdbError(f"table {self.name} has no column {name!r}")


class Database:
    def __init__(self, tables: list[Table], fk_rows: dict[tuple[int, int], np.ndarray],
                 dangling: list[tuple[str, int, str, str]], target_flags: list[tuple[int, int]], _labels=None):
        self.tables = tables
        # row index each non-null FK cell resolves to, -1 for null or dangling;
        # keyed by (table index, column index) of the FK column
        self.fk_rows = fk_rows
        self.dangling = dangling  # (table, row, column, token)
        self.target_flags = target_flags
        self._labels: Column | None = _labels  # the target column a masked view hides; None unless masked

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
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise RdbError(f"{path}: duplicate table name {repeated[0]!r}")
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
    kinds = {table.name: {col.name: col.kind.tag for col in table.columns} for table, _ in out}
    for table, _ in out:
        for col in table.columns:
            if col.kind.references is None:
                continue
            ref_table, ref_col = col.kind.references
            refers = f"{path}: table {table.name} column {col.name} references"
            if ref_col not in kinds[ref_table]:
                raise RdbError(f"{refers} unknown column {ref_col!r} of table {ref_table}")
            if kinds[ref_table][ref_col] not in TOKEN_TAGS:
                raise RdbError(f"{refers} {ref_table}.{ref_col}, a {kinds[ref_table][ref_col]} column; only "
                               f"{', '.join(TOKEN_TAGS)} columns can be referenced")
    return out


def load_database(root: str | Path, strict: bool = True) -> Database:
    """Read schema.json plus one CSV per table from `root`, one table at a time."""
    root = Path(root)
    schema_path = root / "schema.json"
    if not schema_path.is_file():
        raise RdbError(f"missing file: {schema_path}")
    tables: list[Table] = []
    files: list[Path] = []
    path = schema_path  # the file being read
    try:
        for table, file in _read_schema(schema_path):
            tables.append(table)
            path = root / file
            files.append(path)
            if not path.is_file():
                raise RdbError(f"missing file: {path}")
            _read_csv(path, table)
    except UnicodeDecodeError as exc:
        raise RdbError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise RdbError(f"{path}: {exc}") from None
    target_flags = [(ti, ci) for ti, t in enumerate(tables) for ci, col in enumerate(t.columns) if col.target]
    db = Database(tables, {}, [], target_flags)
    _resolve_foreign_keys(db, strict, files)
    return db


def _read_csv(csv_path: Path, table: Table) -> None:
    """Fill the table's columns from its CSV file, matching the header to the column names, a block of
    rows and a column at a time. The first fault in row order fails, naming the row, and the column of a
    bad cell."""
    blocks = _csv_blocks(csv_path.read_bytes().decode("utf-8"), csv_path)
    header = next(blocks)
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
    # each token column's codes so far: the null field "" at -1, then its tokens in order of first appearance
    indexes = [{"": -1} if col.kind.tag in TOKEN_TAGS else None for col in table.columns]
    parts = [[_parse_column((), col.kind.tag, index)] for col, index in zip(table.columns, indexes)]
    start = 0  # the block's first row
    for nrows, fields in blocks:  # raises, after the rows before it, a row's error that no cell precedes
        bad = []  # (row, column index, message) of each column's first bad cell
        for ci, (col, pos, index) in enumerate(zip(table.columns, positions, indexes)):
            try:
                parts[ci].append(_parse_column(fields[pos], col.kind.tag, index))
            except ValueError:
                row, message = _first_bad(fields[pos], col.kind.tag)
                bad.append((start + row, ci, message))
        if bad:
            row, ci, message = min(bad)
            raise RdbError(f"{csv_path}: unparseable cell at table {table.name} row {row} "
                           f"column {table.columns[ci].name}: {message}")
        start += nrows
    for col, part, index in zip(table.columns, parts, indexes):
        col.data, col.null = (np.concatenate(arrays) for arrays in zip(*part))
        col.vocab = None if index is None else list(islice(index, 1, None))


# the CSV text split and parsed at a time, so that a table's fields are never all held at once
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 12


def _csv_blocks(text: str, path: Path):
    """The header's fields (None for an empty file), then the data rows' fields in blocks, each as
    (row count, one sequence of fields per header field), exactly as csv.reader reads `text`. The
    header's line end is the file's. The text after the header is cut once into `_slices`, each split
    on line ends and commas while `_split_block` takes it; csv.reader reads on from the first slice it
    does not, or from the start of the file when the header line holds a quote or a carriage return,
    or is longer than csv's field size limit. A row that lacks one field per header field, or that
    csv.reader rejects, ends the blocks: its error is raised after the block of the rows before it."""
    limit = csv.field_size_limit()
    nl = text.find("\n")
    eol = "\r\n" if nl > 0 and text[nl - 1] == "\r" else "\n"
    pos = len(text) if nl < 0 else nl + 1
    line = text[:pos].removesuffix(eol)
    if not text or '"' in line or "\r" in line or len(line) > limit:
        yield from _csv_reader_blocks(_slices(text, 0), None, 0, path)
        return
    header = line.split(",") if line else []  # a blank line has no fields
    yield header
    row, slices = 0, _slices(text, pos)
    for piece in slices:
        block = _split_block(piece, eol, len(header), limit)
        if block is None:
            yield from _csv_reader_blocks(chain([piece], slices), header, row, path)
            return
        del piece  # not held while the block is parsed
        yield block
        row += block[0]


def _slices(text: str, pos: int):
    """text[pos:] in slices of whole lines, each ending at the first line feed at least `_BLOCK_CHARS`
    past its start, or at the end of the text."""
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _split_block(piece: str, eol: str, width: int, limit: int):
    """(row count, one list of fields per column) of the whole lines of `piece`, each closed by `eol`
    but perhaps the last, split on line ends and commas; None unless that is how csv.reader reads
    them: no quote, no carriage return outside the line ends, no blank line, at most `limit`
    characters and `width` fields on every line."""
    if len(piece) > limit:
        return None
    if not piece.endswith(eol):
        piece += eol  # the last row, which no line end closes
    nlines = piece.count(eol)
    if ('"' in piece or piece.count("\r") != (nlines if eol == "\r\n" else 0) or piece.count("\n") != nlines
            or piece.startswith(eol) or eol + eol in piece):
        return None
    # every line end becomes a field of its own, which must follow every width-th field
    fields = piece.replace(eol, ",\n,").split(",")
    fields.pop()
    if len(fields) != nlines * (width + 1) or fields[width::width + 1].count("\n") != nlines:
        return None
    return nlines, [fields[j::width + 1] for j in range(width)]


def _csv_reader_blocks(slices, header: list[str] | None, row: int, path: Path):
    """The blocks of `_csv_blocks` that csv.reader reads from the slices of text, one stream of one
    slice at a time, rows numbered from `row`; first the header's fields when `header` is None."""
    reader = csv.reader(chain.from_iterable(io.StringIO(piece, newline="") for piece in slices))
    if header is None:
        header = next(reader, None)
        yield header
    while header is not None:
        rows, stop = [], None
        try:
            for fields in islice(reader, _BLOCK_ROWS):
                if len(fields) != len(header):
                    stop = RdbError(f"{path} row {row + len(rows)}: expected {len(header)} fields, got {len(fields)}")
                    break
                rows.append(fields)
        except csv.Error as exc:
            stop = exc
        yield len(rows), list(zip(*rows)) if rows else [() for _ in header]
        if stop is not None:
            raise stop
        if len(rows) < _BLOCK_ROWS:
            return
        row += len(rows)


def _parse_column(fields, tag: str, index: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(data, null mask) of one column's CSV fields; the empty field is null for every kind. A token
    kind's data are codes through `index` (see `_code`). Scalars are what `float` reads, finite;
    datetimes what `datetime.fromisoformat` reads, naive and at second precision; latlongs two such
    floats, "lat,long", within [-90, 90] x [-180, 180]. A malformed field raises ValueError."""
    if tag in TOKEN_TAGS:
        codes = _code(fields, {"": -1} if index is None else index)
        return codes, codes < 0
    null = np.fromiter(map(operator.not_, fields), bool, len(fields)) if "" in fields else None
    present = fields if null is None else list(filter(None, fields))
    if tag == "scalar":
        values = np.fromiter(map(float, present), np.float64, len(present))
        if not np.isfinite(values).all():
            raise ValueError("non-finite scalar")
    elif tag == "datetime":
        stamps = list(map(datetime.fromisoformat, present))
        if any(stamp.tzinfo is not None or stamp.microsecond != 0 for stamp in stamps):
            raise ValueError("expected naive timestamp at second precision")
        values = _datetime64(stamps)
    else:  # latlong
        pairs = [field.split(",") for field in present]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("expected 'lat,long'")
        values = np.fromiter(map(float, chain.from_iterable(pairs)), np.float64, 2 * len(pairs)).reshape(-1, 2)
        lat, long = values[:, 0], values[:, 1]
        inside = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= long) & (long <= 180.0)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValueError(f"out-of-range latlong ({lat[k].item()}, {long[k].item()})")
    if null is None:
        return values, np.zeros(len(fields), dtype=bool)
    dtype, fill, shape = _ARRAY_OF[tag]
    data = np.full((len(fields),) + shape, fill, dtype=dtype)
    data[~null] = values
    return data, null


def _first_bad(fields, tag: str) -> tuple[int, str]:
    """Row and message of the first field that `_parse_column` rejects on its own."""
    for row in range(len(fields)):
        try:
            _parse_column(fields[row:row + 1], tag)
        except ValueError as exc:
            return row, str(exc)
    raise AssertionError("a column that fails to parse has a field that fails alone")


def _key_rows(col: Column, table: str, where: str) -> np.ndarray:
    """The row of each token of a key column of `table`, as an array indexed by code with -1 for
    code -1 (its last entry) and for a token on no row. A token on two rows fails naming the second,
    after `where`."""
    codes, vocab = col.data, col.vocab
    present = np.flatnonzero(codes >= 0)
    if np.bincount(codes[present], minlength=len(vocab)).max(initial=0) > 1:
        seen = set()
        for row, code in zip(present.tolist(), codes[present].tolist()):
            if code in seen:
                raise RdbError(f"{where}duplicate key {vocab[code]!r} at table {table} row {row} column {col.name}")
            seen.add(code)
    rows = np.full(len(vocab) + 1, -1, dtype=np.int64)
    rows[codes[present]] = present
    return rows


def _resolve_foreign_keys(db: Database, strict: bool, files: list[Path] | None = None) -> None:
    """Check that no primary key holds a token twice, and recode each foreign key into the code space of
    the column it references: its `data` become codes into that column's `vocab`, which it then shares,
    and `db.fk_rows` holds the row each cell references. A dangling cell fails when strict, and otherwise
    becomes null and is listed in `db.dangling` with its token. A failure names the table's file from
    `files`, when given, and the table, row and column."""
    def where(ti: int) -> str:
        return f"{files[ti]}: " if files else ""

    rows_of = {}  # each key column's row map, by (table, column), from its first check

    def rows_of_key(ti: int, ci: int) -> np.ndarray:
        if (ti, ci) not in rows_of:
            rows_of[ti, ci] = _key_rows(db.tables[ti].columns[ci], db.tables[ti].name, where(ti))
        return rows_of[ti, ci]

    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag == "primary_key":  # unique whether or not a foreign key references it
                rows_of_key(ti, ci)
            if col.kind.tag != "foreign_key":
                continue
            ref_table_name, ref_col_name = col.kind.references
            try:
                rt = db.table_index(ref_table_name)
                rc = db.tables[rt].column_index(ref_col_name)
            except RdbError as exc:  # in memory only: `_read_schema` checks a loaded file's references
                raise RdbError(f"{where(ti)}table {table.name} column {col.name} references "
                               f"{ref_table_name}.{ref_col_name}: {exc}") from None
            key, key_rows = db.tables[rt].columns[rc], rows_of_key(rt, rc)
            key_code = dict(zip(key.vocab, range(len(key.vocab))))
            # each token's code in the key column, then -1 for code -1
            codes = np.array(list(map(key_code.get, col.vocab, repeat(-1))) + [-1], dtype=np.int64)
            dangling = np.flatnonzero((key_rows[codes] < 0)[col.data] & ~col.null)
            if dangling.size and strict:
                ri = int(dangling[0])
                raise RdbError(f"{where(ti)}dangling reference at table {table.name} row {ri} column {col.name}: "
                               f"{col.vocab[col.data[ri]]!r} not found in {ref_table_name}.{ref_col_name}")
            db.dangling.extend((table.name, ri, col.name, col.vocab[code])
                               for ri, code in zip(dangling.tolist(), col.data[dangling].tolist()))
            col.data, col.vocab = codes[col.data], key.vocab
            col.data[dangling], col.null[dangling] = -1, True
            rows_of.pop((ti, ci), None)  # a foreign key that another references reads its new codes from now on
            db.fk_rows[(ti, ci)] = key_rows[col.data]
    if db.dangling:
        warnings.warn(f"{len(db.dangling)} dangling foreign-key cell(s) kept as Null", stacklevel=3)


def validate_schema(db: Database) -> dict:
    """The `validate` report: table sizes, the target column, each foreign key's resolved and non-null
    cells, null rates, categorical cardinalities and the count of dangling cells. Requires one target
    column."""
    kt, kc = db.target  # raises on zero or multiple targets
    _target_tokens(db, nulls_allowed=True)

    fk_resolution: dict[str, dict[str, int]] = {}
    null_rate: dict[str, float] = {}
    cardinality: dict[str, int] = {}
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            key = f"{table.name}.{col.name}"
            n = table.nrows
            nulls = int(np.count_nonzero(col.null))
            null_rate[key] = nulls / n if n else 0.0
            if col.kind.tag == "foreign_key":
                resolved = int(np.count_nonzero(db.fk_rows[(ti, ci)] >= 0))
                fk_resolution[key] = {"resolved": resolved, "cells": n - nulls}
            if col.kind.tag == "categorical":
                cardinality[key] = int(np.count_nonzero(np.bincount(col.data[~col.null])))
    return {
        "n_tables": len(db.tables),
        "tables": {t.name: t.nrows for t in db.tables},
        "target": f"{db.tables[kt].name}.{db.tables[kt].columns[kc].name}",
        "fk_resolution": fk_resolution,
        "null_rate": null_rate,
        "categorical_cardinality": cardinality,
        "dangling_cells": len(db.dangling),
    }


def remove_target_column(db: Database) -> Database:
    """Return a view whose target cells all read Null; labels stay reachable via target_labels only."""
    if db._labels is not None:  # masked already
        return db
    kt, kc = db.target
    labels = db.tables[kt].columns[kc]
    tables = list(db.tables)
    columns = list(tables[kt].columns)
    columns[kc] = Column(labels.name, labels.kind, labels.target, [None] * len(labels))
    tables[kt] = Table(tables[kt].name, columns)
    return Database(tables, db.fk_rows, db.dangling, db.target_flags, _labels=labels)


def _target_tokens(db: Database, nulls_allowed: bool) -> tuple[Column, list]:
    """The target column and its distinct non-null tokens, sorted: its `vocab`, which holds exactly the
    tokens that occur, numbered by first appearance. A null (unless allowed), or a third distinct token,
    fails naming the table, the row and the column of the first."""
    kt, kc = db.target
    table = db.tables[kt]
    col = table.columns[kc] if db._labels is None else db._labels

    def at(row: int) -> str:
        return f"at table {table.name} row {row} column {col.name}"

    if not nulls_allowed and col.null.any():
        raise RdbError(f"null label {at(int(np.argmax(col.null)))}")
    if len(col.vocab) > 2:
        raise RdbError(f"target column must be binary, found {len(col.vocab)} distinct tokens; the third, "
                       f"{col.vocab[2]!r}, {at(int(np.argmax(col.data == 2)))}")
    return col, sorted(col.vocab)


def target_labels(db: Database, rows=None) -> np.ndarray:
    """Binary labels of the target column's `rows` (default: every row) as 0/1 ints, tokens mapped in
    sorted order; a null label anywhere in the column fails."""
    col, vocab = _target_tokens(db, nulls_allowed=False)
    codes = col.data if rows is None else col.data[rows]
    return np.array([vocab.index(token) for token in col.vocab], dtype=np.int64)[codes]


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


def write_csv(path: str | Path, header: list[str], columns: list[Column]) -> None:
    """One CSV file: the header, then a row per row of the columns, each cell as `_format_cell` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(map(_format_cell, col.values, repeat(col.kind)) for col in columns)))


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
        write_csv(out_dir / f"{table.name}.csv", [col.name for col in table.columns], table.columns)
    (out_dir / "schema.json").write_text(json.dumps({"tables": table_specs}, indent=2, sort_keys=True), encoding="utf-8")
