"""Per-column feature vectorizers; stateful encoders are fit on training-fold cells only."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime

import numpy as np

from .rdb import Database

__all__ = [
    "IQR_FLOOR",
    "DATETIME_WIDTH",
    "ScalarEncoder",
    "CategoricalEncoder",
    "NodeTypeEncoder",
    "fit_scalar",
    "encode_latlong",
    "encode_datetime",
    "encode_text",
    "encode_categorical",
    "encode_scalar_column",
    "categorical_indices",
    "fit_encoders",
    "encode_node",
    "encoders_to_json",
    "encoders_from_json",
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

    def encode(self, value: float | None) -> tuple[float, float]:
        """Returns (scaled value, null flag)."""
        scaled, null = _one_cell("scalar", encode_scalar_column, value, self)
        return float(scaled), float(null)


def fit_scalar(cells) -> ScalarEncoder:
    values = np.asarray([v for v in cells if v is not None], dtype=np.float64)
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
    def embedding_dim(self) -> int:
        return min(32, self.cardinality)


def fit_categorical(cells) -> CategoricalEncoder:
    vocab = sorted({v for v in cells if v is not None})
    return CategoricalEncoder({token: i for i, token in enumerate(vocab)})


def _nulls(cells: list) -> np.ndarray:
    return np.array([cell is None for cell in cells], dtype=bool)


def _scaled(values, enc: ScalarEncoder) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.zeros_like(values) if enc.all_null else (values - enc.median) / enc.iqr


# Column encoders: each writes the encoding of a list of cells, one row per cell, into a zeroed block.


def encode_scalar_column(cells: list, enc: ScalarEncoder, out: np.ndarray) -> None:
    """(scaled value, null flag) per cell; every cell is null to an all-null encoder."""
    null = _nulls(cells)
    out[:, 1] = 1.0 if enc.all_null else null
    if not enc.all_null:
        out[~null, 0] = _scaled([cell for cell in cells if cell is not None], enc)


def _encode_latlong_column(cells: list, out: np.ndarray) -> None:
    null = _nulls(cells)
    out[null, 5] = 1.0
    lat = np.array([cell[0] for cell in cells if cell is not None], dtype=np.float64)
    long = np.array([cell[1] for cell in cells if cell is not None], dtype=np.float64)
    la, lo = np.radians(lat), np.radians(long)
    present = ~null
    out[present, 0] = np.cos(la) * np.cos(lo)
    out[present, 1] = np.cos(la) * np.sin(lo)
    out[present, 2] = np.sin(la)
    out[present, 3] = lat / 90.0
    out[present, 4] = long / 180.0


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # datetime64 counts days from 1970-01-01

# offsets of the datetime block's groups
_MONTH, _WEEK, _DAY, _WEEKDAY, _DOY, _FLAGS, _CYCLIC = 1, 13, 66, 97, 104, 105, 117


def _days(months_or_years: np.ndarray) -> np.ndarray:
    return months_or_years.astype("datetime64[D]")


def _encode_datetime_column(cells: list, year_encoder: ScalarEncoder, out: np.ndarray) -> None:
    """Calendar fields of each cell's date from numpy datetime64 arithmetic (proleptic Gregorian)."""
    null = _nulls(cells)
    out[null, DATETIME_WIDTH] = 1.0
    rows = np.flatnonzero(~null)
    ordinals = [cell.toordinal() for cell in cells if cell is not None]
    dates = (np.array(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
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
    out[rows, 0] = _scaled(year, year_encoder)
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


def text_counts(value: str) -> tuple[float, float]:
    return float(len(value.split())), float(len(value))


def _encode_text_column(cells: list, word_encoder: ScalarEncoder, char_encoder: ScalarEncoder,
                        out: np.ndarray) -> None:
    """(scaled word count, scaled character count, null flag) per cell."""
    null = _nulls(cells)
    out[null, 2] = 1.0
    counts = np.array([text_counts(cell) for cell in cells if cell is not None], dtype=np.float64).reshape(-1, 2)
    out[~null, 0] = _scaled(counts[:, 0], word_encoder)
    out[~null, 1] = _scaled(counts[:, 1], char_encoder)


def categorical_indices(cells: list, encoder: CategoricalEncoder) -> np.ndarray:
    """Vocabulary index per token; null and unseen tokens get the reserved index."""
    vocabulary, null_index = encoder.vocabulary, encoder.null_index
    return np.array([vocabulary.get(cell, null_index) for cell in cells], dtype=np.int64)


# The one-cell forms are the column encoders applied to a single cell.


def _one_cell(tag: str, column_encoder, cell, *encoders) -> np.ndarray:
    out = np.zeros((1, COLUMN_DENSE_WIDTH[tag]))
    column_encoder([cell], *encoders, out)
    return out[0]


def encode_categorical(token: str | None, encoder: CategoricalEncoder) -> int:
    return int(categorical_indices([token], encoder)[0])


def encode_latlong(cell: tuple[float, float] | None) -> np.ndarray:
    """[cos(lat)cos(long), cos(lat)sin(long), sin(lat), lat/90, long/180] + null flag."""
    return _one_cell("latlong", _encode_latlong_column, cell)


def encode_datetime(stamp: datetime | None, year_encoder: ScalarEncoder) -> np.ndarray:
    return _one_cell("datetime", _encode_datetime_column, stamp, year_encoder)


def encode_text(value: str | None, word_encoder: ScalarEncoder, char_encoder: ScalarEncoder) -> np.ndarray:
    return _one_cell("text", _encode_text_column, value, word_encoder, char_encoder)


@dataclass
class NodeTypeEncoder:
    """Fitted per-table column encoders; key and target columns contribute nothing."""

    table: int
    dense_columns: list[tuple[int, str]]  # (column index, kind tag)
    cat_columns: list[int]
    scalar: dict[int, ScalarEncoder] = field(default_factory=dict)
    year: dict[int, ScalarEncoder] = field(default_factory=dict)
    text: dict[int, tuple[ScalarEncoder, ScalarEncoder]] = field(default_factory=dict)
    categorical: dict[int, CategoricalEncoder] = field(default_factory=dict)

    @property
    def dense_width(self) -> int:
        return sum(COLUMN_DENSE_WIDTH[tag] for _, tag in self.dense_columns)

    @property
    def embedding_dims(self) -> list[int]:
        return [self.categorical[ci].embedding_dim for ci in self.cat_columns]

    @property
    def input_width(self) -> int:
        return self.dense_width + sum(self.embedding_dims)


def fit_encoders(db: Database, train_rows: dict[int, list[int]]) -> list[NodeTypeEncoder]:
    """Fit one NodeTypeEncoder per table on the given training rows only."""
    encoders = []
    for ti, table in enumerate(db.tables):
        rows = train_rows.get(ti, [])
        dense_columns: list[tuple[int, str]] = []
        cat_columns: list[int] = []
        enc = NodeTypeEncoder(ti, dense_columns, cat_columns)
        for ci, col in enumerate(table.columns):
            tag = col.kind.tag
            if tag in ("primary_key", "foreign_key") or col.target:
                continue
            cells = [col.values[r] for r in rows]
            if tag == "scalar":
                dense_columns.append((ci, tag))
                enc.scalar[ci] = fit_scalar(cells)
            elif tag == "latlong":
                dense_columns.append((ci, tag))
            elif tag == "datetime":
                dense_columns.append((ci, tag))
                enc.year[ci] = fit_scalar([float(v.year) for v in cells if v is not None])
            elif tag == "text":
                dense_columns.append((ci, tag))
                counts = [text_counts(v) for v in cells if v is not None]
                enc.text[ci] = (
                    fit_scalar([w for w, _ in counts]),
                    fit_scalar([c for _, c in counts]),
                )
            elif tag == "categorical":
                cat_columns.append(ci)
                enc.categorical[ci] = fit_categorical(cells)
        encoders.append(enc)
    return encoders


def encode_node(db: Database, table: int, rows, encoder: NodeTypeEncoder,
                dense: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of one table as (dense (n, dense width), categorical indices (n, #categorical columns)).

    Each column is encoded whole, straight into its block of the dense matrix. `dense`, when given, is
    that matrix: zero-filled, possibly a view into a wider one.
    """
    rows = np.asarray(rows, dtype=np.int64).tolist()
    columns = db.tables[table].columns
    if dense is None:
        dense = np.zeros((len(rows), encoder.dense_width))
    offset = 0
    for ci, tag in encoder.dense_columns:
        values = columns[ci].values
        cells = [values[r] for r in rows]
        block = dense[:, offset:offset + COLUMN_DENSE_WIDTH[tag]]
        if tag == "scalar":
            encode_scalar_column(cells, encoder.scalar[ci], block)
        elif tag == "latlong":
            _encode_latlong_column(cells, block)
        elif tag == "datetime":
            _encode_datetime_column(cells, encoder.year[ci], block)
        elif tag == "text":
            _encode_text_column(cells, *encoder.text[ci], block)
        offset += block.shape[1]
    cats = np.empty((len(rows), len(encoder.cat_columns)), dtype=np.int64)
    for j, ci in enumerate(encoder.cat_columns):
        values = columns[ci].values
        cats[:, j] = categorical_indices([values[r] for r in rows], encoder.categorical[ci])
    return dense, cats


def encoders_to_json(encoders: list[NodeTypeEncoder]) -> str:
    payload = []
    for enc in encoders:
        payload.append({
            "table": enc.table,
            "dense_columns": [[ci, tag] for ci, tag in enc.dense_columns],
            "cat_columns": enc.cat_columns,
            "scalar": {str(k): [v.median, v.iqr, v.all_null] for k, v in enc.scalar.items()},
            "year": {str(k): [v.median, v.iqr, v.all_null] for k, v in enc.year.items()},
            "text": {
                str(k): [[w.median, w.iqr, w.all_null], [c.median, c.iqr, c.all_null]]
                for k, (w, c) in enc.text.items()
            },
            "categorical": {str(k): v.vocabulary for k, v in enc.categorical.items()},
        })
    return json.dumps(payload, sort_keys=True)


def encoders_from_json(text: str) -> list[NodeTypeEncoder]:
    out = []
    for item in json.loads(text):
        enc = NodeTypeEncoder(
            item["table"],
            [(ci, tag) for ci, tag in item["dense_columns"]],
            list(item["cat_columns"]),
        )
        enc.scalar = {int(k): ScalarEncoder(*v) for k, v in item["scalar"].items()}
        enc.year = {int(k): ScalarEncoder(*v) for k, v in item["year"].items()}
        enc.text = {int(k): (ScalarEncoder(*w), ScalarEncoder(*c)) for k, (w, c) in item["text"].items()}
        enc.categorical = {int(k): CategoricalEncoder(dict(v)) for k, v in item["categorical"].items()}
        out.append(enc)
    return out
