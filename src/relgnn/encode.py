"""Per-column feature vectorizers of tables and DFS features; stateful encoders are fit on training-fold cells only."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .rdb import Column, ColumnKind, Database, RdbError, Table

__all__ = [
    "IQR_FLOOR",
    "DATETIME_WIDTH",
    "ScalarEncoder",
    "CategoricalEncoder",
    "NodeTypeEncoder",
    "fit_scalar",
    "encode_latlong",
    "encode_datetime",
    "encode_column",
    "categorical_indices",
    "column_tokens",
    "encoded_columns",
    "fit_column",
    "fit_encoders",
    "encode_node",
    "encoders_to_json",
    "encoders_from_json",
    "fit_feature_encoders",
    "apply_feature_encoders",
    "feature_width",
    "feature_encoders_to_json",
    "feature_encoders_from_json",
]

IQR_FLOOR = 1e-9

# year 1 + month 12 + week 53 + day 31 + weekday 7 + day-of-year 1 + six flags one-hot(2) + four cos/sin pairs
DATETIME_WIDTH = 1 + 12 + 53 + 31 + 7 + 1 + 12 + 8

COLUMN_DENSE_WIDTH = {"scalar": 2, "latlong": 6, "datetime": 1 + DATETIME_WIDTH, "text": 3}


@dataclass(frozen=True)
class ScalarEncoder:
    median: float
    iqr: float
    all_null: bool = False


def fit_scalar(values) -> ScalarEncoder:
    """Median and interquartile range of the values; None, or NaN in an array, is null and left out."""
    values = np.array(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if len(values) == 0:
        return ScalarEncoder(0.0, 1.0, all_null=True)
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return ScalarEncoder(float(med), max(float(q3 - q1), IQR_FLOOR))


@dataclass(frozen=True)
class CategoricalEncoder:
    vocabulary: dict[str, int]  # token -> index in [0, C)

    @property
    def cardinality(self) -> int:
        return len(self.vocabulary)

    @property
    def null_index(self) -> int:
        return len(self.vocabulary)  # reserved for null and unseen tokens

    @property
    def slots(self) -> int:
        return self.cardinality + 1  # the tokens and the null/unseen slot: embedding rows, one-hot width

    @property
    def embedding_dim(self) -> int:
        return min(32, self.cardinality)


def fit_categorical(cells) -> CategoricalEncoder:
    vocab = sorted({v for v in cells if v is not None})
    return CategoricalEncoder({token: i for i, token in enumerate(vocab)})


def column_tokens(col: Column, rows) -> list[str]:
    """The distinct non-null tokens of a token column at the given rows."""
    codes = np.unique(col.data[rows])
    return [col.vocab[code] for code in codes[codes >= 0].tolist()]


def _scaled(values: np.ndarray, enc: ScalarEncoder) -> np.ndarray:
    return np.zeros_like(values) if enc.all_null else (values - enc.median) / enc.iqr


def _years(stamps: np.ndarray) -> np.ndarray:
    return (stamps.astype("datetime64[Y]").astype(np.int64) + 1970).astype(np.float64)


def text_counts(value: str) -> tuple[float, float]:
    return float(len(value.split())), float(len(value))


def _text_counts(col: Column, rows) -> np.ndarray:
    """(words, characters) of the text cells at the given non-null rows, counted once per token."""
    codes, inverse = np.unique(col.data[rows], return_inverse=True)
    counts = np.array([text_counts(col.vocab[code]) for code in codes.tolist()], dtype=np.float64)
    return counts.reshape(-1, 2)[inverse.reshape(-1)]


# offsets of the datetime block's groups
_MONTH, _WEEK, _DAY, _WEEKDAY, _DOY, _FLAGS, _CYCLIC = 1, 13, 66, 97, 104, 105, 117


def _days(months_or_years: np.ndarray) -> np.ndarray:
    return months_or_years.astype("datetime64[D]")


def encode_column(col: Column, fitted, out: np.ndarray) -> None:
    """The encoding of every cell of one dense column, written into a zeroed block, one row per cell.
    `fitted` is what the kind needs beyond the cells: a ScalarEncoder (scalar), the year encoder
    (datetime), the word and character encoders (text), or None (latlong)."""
    null = col.null
    present = np.flatnonzero(~null)  # the rows of the non-null cells
    tag = col.kind.tag
    if tag == "scalar":  # (scaled value, null flag); every cell is null to an all-null encoder
        out[:, 1] = 1.0 if fitted.all_null else null
        if not fitted.all_null:
            out[present, 0] = _scaled(col.data[present], fitted)
    elif tag == "latlong":  # [cos(lat)cos(long), cos(lat)sin(long), sin(lat), lat/90, long/180] + null flag
        out[null, 5] = 1.0
        lat, long = col.data[present, 0], col.data[present, 1]
        la, lo = np.radians(lat), np.radians(long)
        out[present, 0] = np.cos(la) * np.cos(lo)
        out[present, 1] = np.cos(la) * np.sin(lo)
        out[present, 2] = np.sin(la)
        out[present, 3] = lat / 90.0
        out[present, 4] = long / 180.0
    elif tag == "datetime":
        out[null, DATETIME_WIDTH] = 1.0
        _encode_dates(col.data[present].astype("datetime64[D]"), fitted, present, out)
    elif tag == "text":  # (scaled word count, scaled character count, null flag)
        out[null, 2] = 1.0
        counts = _text_counts(col, present)
        word_encoder, char_encoder = fitted
        out[present, 0] = _scaled(counts[:, 0], word_encoder)
        out[present, 1] = _scaled(counts[:, 1], char_encoder)


def _encode_dates(dates: np.ndarray, year_encoder: ScalarEncoder, rows: np.ndarray, out: np.ndarray) -> None:
    """Calendar fields of each date into its row of `out`, from numpy datetime64 arithmetic (proleptic
    Gregorian)."""
    year_of, month_of = dates.astype("datetime64[Y]"), dates.astype("datetime64[M]")
    year = year_of.astype(np.int64) + 1970
    month = (month_of - year_of).astype(np.int64) + 1
    day = (dates - _days(month_of)).astype(np.int64) + 1
    days_in_month = (_days(month_of + 1) - _days(month_of)).astype(np.int64)
    doy = (dates - _days(year_of)).astype(np.int64) + 1
    days_in_year = (_days(year_of + 1) - _days(year_of)).astype(np.int64)
    weekday = (dates.astype(np.int64) + 3) % 7 + 1  # Monday=1 .. Sunday=7; 1970-01-01 was a Thursday
    # ISO week: the week's Thursday fixes its year, and weeks count from that year's first Thursday
    thursday = dates + (4 - weekday).astype("timedelta64[D]")
    week = (thursday - _days(thursday.astype("datetime64[Y]"))).astype(np.int64) // 7 + 1
    month_end = day == days_in_month
    month_start = day == 1
    flags = [
        month_end,
        month_start,
        np.isin(month, (3, 6, 9, 12)) & month_end,  # quarter end
        np.isin(month, (1, 4, 7, 10)) & month_start,  # quarter start
        (month == 12) & (day == 31),  # year end
        (month == 1) & (day == 1),  # year start
    ]
    out[rows, 0] = _scaled(year.astype(np.float64), year_encoder)
    out[rows, _MONTH + month - 1] = 1.0
    out[rows, _WEEK + week - 1] = 1.0
    out[rows, _DAY + day - 1] = 1.0
    out[rows, _WEEKDAY + weekday - 1] = 1.0
    out[rows, _DOY] = doy / 366.0
    for k, flag in enumerate(flags):
        out[rows, _FLAGS + 2 * k + flag] = 1.0
    for k, (value, period) in enumerate(((weekday, 7), (day, days_in_month), (month, 12), (doy, days_in_year))):
        angle = 2.0 * math.pi * value / period
        out[rows, _CYCLIC + 2 * k] = np.cos(angle)
        out[rows, _CYCLIC + 2 * k + 1] = np.sin(angle)


def categorical_indices(col: Column, encoder: CategoricalEncoder) -> np.ndarray:
    """Vocabulary index of each token of the column; null and unseen tokens get the reserved index."""
    vocabulary, null_index = encoder.vocabulary, encoder.null_index
    index = np.array([vocabulary.get(token, null_index) for token in col.vocab] + [null_index], dtype=np.int64)
    return index[col.data]  # code -1, null, takes the last entry


# The one-cell forms are the column encoders applied to a one-row column.


def _one_cell(tag: str, cell, fitted) -> np.ndarray:
    out = np.zeros((1, COLUMN_DENSE_WIDTH[tag]))
    encode_column(Column("cell", ColumnKind(tag), False, [cell]), fitted, out)
    return out[0]


def encode_latlong(cell: tuple[float, float] | None) -> np.ndarray:
    return _one_cell("latlong", cell, None)


def encode_datetime(stamp: datetime | None, year_encoder: ScalarEncoder) -> np.ndarray:
    return _one_cell("datetime", stamp, year_encoder)


@dataclass
class NodeTypeEncoder:
    """Fitted per-table column encoders; key and target columns contribute nothing."""

    dense_columns: list[tuple[int, str]]  # (column index, kind tag)
    cat_columns: list[int]
    fitted: dict[int, object] = field(default_factory=dict)  # column index -> what `fit_column` fits for it

    @property
    def dense_width(self) -> int:
        return sum(COLUMN_DENSE_WIDTH[tag] for _, tag in self.dense_columns)

    @property
    def input_width(self) -> int:
        return self.dense_width + sum(self.fitted[ci].embedding_dim for ci in self.cat_columns)

    @property
    def tagged_columns(self) -> list[tuple[int, str]]:
        """(column index, kind tag) of every column the encoder covers, dense ones first."""
        return self.dense_columns + [(ci, "categorical") for ci in self.cat_columns]


def encoded_columns(table: Table) -> tuple[list[tuple[int, str]], list[int]]:
    """The columns a table's encoder covers, in column order: (column index, kind tag) of the dense ones
    and the indices of the categorical ones. Key and target columns contribute nothing."""
    dense = [(ci, col.kind.tag) for ci, col in enumerate(table.columns)
             if col.kind.tag in COLUMN_DENSE_WIDTH and not col.target]
    cats = [ci for ci, col in enumerate(table.columns) if col.kind.tag == "categorical" and not col.target]
    return dense, cats


def fit_column(col: Column, rows: np.ndarray):
    """What a feature column's kind fits on its cells at the given rows: a ScalarEncoder (scalar), the year
    encoder (datetime), the word and character encoders (text), a CategoricalEncoder (categorical), or
    None (latlong)."""
    tag = col.kind.tag
    if tag == "categorical":
        return fit_categorical(column_tokens(col, rows))
    present = rows[~col.null[rows]]
    if tag == "scalar":
        return fit_scalar(col.data[present])
    if tag == "datetime":
        return fit_scalar(_years(col.data[present]))
    if tag == "text":
        counts = _text_counts(col, present)
        return fit_scalar(counts[:, 0]), fit_scalar(counts[:, 1])
    return None


def fit_encoders(db: Database, train_rows: dict[int, np.ndarray]) -> list[NodeTypeEncoder]:
    """Fit one NodeTypeEncoder per table on the given training rows only."""
    encoders = []
    for ti, table in enumerate(db.tables):
        rows = np.asarray(train_rows.get(ti, []), dtype=np.int64)
        enc = NodeTypeEncoder(*encoded_columns(table))
        enc.fitted = {ci: fit_column(table.columns[ci], rows) for ci, _ in enc.tagged_columns}
        encoders.append(enc)
    return encoders


def encode_node(db: Database, table: int, encoder: NodeTypeEncoder,
                dense: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every row of one table as (dense (n, dense width), categorical indices (n, #categorical columns)).

    Each column is encoded whole, straight into its block of the dense matrix. `dense`, when given, is
    that matrix: zero-filled, possibly a view into a wider one.
    """
    columns, n = db.tables[table].columns, db.tables[table].nrows
    if dense is None:
        dense = np.zeros((n, encoder.dense_width))
    offset = 0
    for ci, tag in encoder.dense_columns:
        width = COLUMN_DENSE_WIDTH[tag]
        encode_column(columns[ci], encoder.fitted[ci], dense[:, offset:offset + width])
        offset += width
    cats = np.empty((n, len(encoder.cat_columns)), dtype=np.int64)
    for j, ci in enumerate(encoder.cat_columns):
        cats[:, j] = categorical_indices(columns[ci], encoder.fitted[ci])
    return dense, cats


# the encoders.json field that holds each kind's fitted parameters; latlong fits nothing
_FITTED_FIELD = {"scalar": "scalar", "datetime": "year", "text": "text", "categorical": "categorical"}


def _fitted_to_json(fitted):
    if isinstance(fitted, CategoricalEncoder):
        return fitted.vocabulary
    if isinstance(fitted, tuple):  # text: the word and character encoders
        return [_fitted_to_json(part) for part in fitted]
    return [fitted.median, fitted.iqr, fitted.all_null]


def encoders_to_json(encoders: list[NodeTypeEncoder]) -> str:
    payload = []
    for ti, enc in enumerate(encoders):
        item = {"table": ti, "dense_columns": [[ci, tag] for ci, tag in enc.dense_columns],
                "cat_columns": enc.cat_columns, **{field: {} for field in _FITTED_FIELD.values()}}
        for ci, tag in enc.tagged_columns:
            if tag in _FITTED_FIELD:
                item[_FITTED_FIELD[tag]][str(ci)] = _fitted_to_json(enc.fitted[ci])
        payload.append(item)
    return json.dumps(payload, sort_keys=True)


def scalar_from_json(fields) -> ScalarEncoder:
    """A ScalarEncoder from its JSON form [median, iqr, all_null]; ValueError unless the median is a
    finite float, the iqr a finite positive float and all_null a bool, as `fit_scalar` makes them."""
    if not (isinstance(fields, list) and len(fields) == 3
            and all(type(v) is float and math.isfinite(v) for v in fields[:2]) and fields[1] > 0
            and type(fields[2]) is bool):
        raise ValueError("does not hold a finite median, a finite positive iqr and an all_null flag")
    return ScalarEncoder(*fields)


def categorical_from_json(vocabulary) -> CategoricalEncoder:
    """A CategoricalEncoder from its JSON vocabulary; ValueError unless it numbers its tokens 0 to n - 1."""
    if not (isinstance(vocabulary, dict) and all(type(i) is int for i in vocabulary.values())
            and set(vocabulary.values()) == set(range(len(vocabulary)))):
        raise ValueError("is not a vocabulary that numbers its tokens 0 to n - 1")
    return CategoricalEncoder(vocabulary)


def encoders_from_json(text: str, db: Database) -> list[NodeTypeEncoder]:
    """Encoders as `encoders_to_json` writes them, checked against `db`: one per table, in table order,
    each covering the columns that `fit_encoders` covers with well-formed fitted parameters. A fault
    raises ValueError naming the table and the column or field."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise RdbError("not a list of table encoders")
    if len(payload) != len(db.tables):
        raise RdbError(f"{len(payload)} table encoders for the {len(db.tables)} tables of the database")
    return [_table_encoder_from_json(item, ti, db.tables[ti]) for ti, item in enumerate(payload)]


def _table_encoder_from_json(item, ti: int, table: Table) -> NodeTypeEncoder:
    where = f"table {table.name}"
    if not isinstance(item, dict):
        raise RdbError(f"{where}: encoder {ti} is not an object")
    for key in ("table", "dense_columns", "cat_columns") + tuple(_FITTED_FIELD.values()):
        if key not in item:
            raise RdbError(f"{where}: missing key {key!r}")
    if type(item["table"]) is not int or item["table"] != ti:
        raise RdbError(f"{where}: encoder {ti} is for table {json.dumps(item['table'])}")
    for field in _FITTED_FIELD.values():
        if not isinstance(item[field], dict):
            raise RdbError(f"{where}: {field} is not an object")
    enc = NodeTypeEncoder(*encoded_columns(table))
    _check_listed(table, "dense_columns", item["dense_columns"], [[ci, tag] for ci, tag in enc.dense_columns])
    _check_listed(table, "cat_columns", item["cat_columns"], enc.cat_columns)
    for ci, tag in enc.tagged_columns:
        if tag not in _FITTED_FIELD:
            enc.fitted[ci] = None  # latlong: nothing fitted
            continue
        field = _FITTED_FIELD[tag]
        entry = item[field].get(str(ci))
        try:
            if tag == "text":
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ValueError("is not a pair of [median, iqr, all_null]")
                enc.fitted[ci] = (scalar_from_json(entry[0]), scalar_from_json(entry[1]))
            elif tag == "categorical":
                enc.fitted[ci] = categorical_from_json(entry)
            else:
                enc.fitted[ci] = scalar_from_json(entry)
        except ValueError as exc:
            raise RdbError(f"{where} column {table.columns[ci].name}: {field} entry {exc}") from None
    return enc


def _check_listed(table: Table, field: str, listed, expected: list) -> None:
    """A column list of encoders.json must be the table's encoded columns in order; the first
    difference fails naming its entry and the column expected there. Values compare as JSON text, so
    that 1.0 or true never stands for the column index 1."""
    if json.dumps(listed) == json.dumps(expected):
        return
    where = f"table {table.name}"
    if not isinstance(listed, list):
        raise RdbError(f"{where}: {field} is {json.dumps(listed)}, not a list")
    k = next((k for k, (a, b) in enumerate(zip(listed, expected)) if json.dumps(a) != json.dumps(b)),
             min(len(listed), len(expected)))
    found = json.dumps(listed[k]) if k < len(listed) else "missing"
    if k == len(expected):
        raise RdbError(f"{where}: {field}[{k}] is {found}, but the table has no further encoded column")
    ci = expected[k][0] if field == "dense_columns" else expected[k]
    raise RdbError(f"{where}: {field}[{k}] is {found}, not {json.dumps(expected[k])} (column {table.columns[ci].name})")


# The DFS feature encoders: one per column of the raw features that `dfs.compute_features` returns.


def fit_feature_encoders(raw, fit_rows) -> list:
    """One scalar or categorical encoder per spec column of `raw`, a `dfs.RawFeatures`, fit on its fit_rows
    cells only."""
    rows = np.asarray(fit_rows, dtype=np.int64)
    return [fit_column(col, rows) for col in raw.columns]


def _widths(encoders: list) -> list[int]:
    return [enc.slots if isinstance(enc, CategoricalEncoder) else COLUMN_DENSE_WIDTH["scalar"] for enc in encoders]


def feature_width(encoders: list) -> int:
    """The width of the matrix that `apply_feature_encoders` fills with these encoders."""
    return sum(_widths(encoders))


def apply_feature_encoders(raw, encoders: list, out: np.ndarray | None = None) -> np.ndarray:
    """Numeric columns become (scaled, null flag) pairs, copied categoricals one-hot, side by side in one
    matrix. `out`, when given, is that matrix: zero-filled, possibly a view into a wider one."""
    n = len(raw)
    widths = _widths(encoders)
    if out is None:
        out = np.zeros((n, sum(widths)))
    for col, enc, start, width in zip(raw.columns, encoders, np.cumsum([0] + widths).tolist(), widths):
        if isinstance(enc, CategoricalEncoder):
            out[np.arange(n), start + categorical_indices(col, enc)] = 1.0
        else:
            encode_column(col, enc, out[:, start:start + width])
    return out


def feature_encoders_to_json(encoders: list) -> str:
    out = []
    for enc in encoders:
        if isinstance(enc, CategoricalEncoder):
            out.append({"kind": "categorical", "vocabulary": enc.vocabulary})
        else:
            out.append({"kind": "scalar", "median": enc.median, "iqr": enc.iqr, "all_null": enc.all_null})
    return json.dumps(out, sort_keys=True)


def feature_encoders_from_json(text: str, raw) -> list:
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
