import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from relgnn.encode import (
    DATETIME_WIDTH,
    CategoricalEncoder,
    ScalarEncoder,
    encode_categorical,
    encode_datetime,
    encode_latlong,
    encode_node,
    encode_text,
    encoders_from_json,
    encoders_to_json,
    fit_categorical,
    fit_encoders,
    fit_scalar,
    text_counts,
)
from relgnn.rdb import Column, ColumnKind, Database, Table, _resolve_foreign_keys, load_database, remove_target_column

from oracles import reference_encode_datetime, reference_encode_row


def test_fit_scalar_quantiles():
    enc = fit_scalar([1.0, 2.0, 3.0, 100.0])
    assert enc.median == pytest.approx(2.5)
    assert enc.iqr == pytest.approx(27.25 - 1.75)
    value, flag = enc.encode(3.0)
    assert value == pytest.approx(0.5 / 25.5)
    assert value == pytest.approx(0.01961, abs=5e-6)
    assert flag == 0.0
    assert enc.encode(enc.median) == (0.0, 0.0)


def test_fit_scalar_constant_column_hits_floor():
    enc = fit_scalar([5.0, 5.0, 5.0])
    assert enc.iqr == 1e-9
    assert enc.encode(5.0) == (0.0, 0.0)


def test_fit_scalar_null_conventions():
    enc = fit_scalar([1.0, None, 3.0])
    assert enc.encode(None) == (0.0, 1.0)
    all_null = fit_scalar([None, None])
    assert all_null.all_null
    assert all_null.encode(7.0) == (0.0, 1.0)


def test_latlong_goldens():
    assert np.allclose(encode_latlong((0.0, 0.0)), [1, 0, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(encode_latlong((90.0, 0.0)), [0, 0, 1, 1, 0, 0], atol=1e-12)
    out = encode_latlong((45.0, 90.0))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(0.70711, abs=5e-6)
    assert out[2] == pytest.approx(0.70711, abs=5e-6)
    assert out[3] == 0.5 and out[4] == 0.5 and out[5] == 0.0
    assert np.array_equal(encode_latlong(None), [0, 0, 0, 0, 0, 1])


def test_latlong_first_three_components_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lat = float(rng.uniform(-90, 90))
        long = float(rng.uniform(-180, 180))
        out = encode_latlong((lat, long))
        assert abs(np.linalg.norm(out[:3]) - 1.0) <= 1e-12


IDENTITY_YEAR = ScalarEncoder(0.0, 1.0)

# vector layout offsets
MONTH_OFF = 1
WEEK_OFF = MONTH_OFF + 12
DAY_OFF = WEEK_OFF + 53
DOW_OFF = DAY_OFF + 31
DOY_OFF = DOW_OFF + 7
FLAGS_OFF = DOY_OFF + 1
CYC_OFF = FLAGS_OFF + 12


def test_datetime_width_and_null():
    assert DATETIME_WIDTH == 125
    out = encode_datetime(datetime(2020, 3, 4), IDENTITY_YEAR)
    assert out.shape == (126,)
    assert out[-1] == 0.0
    null = encode_datetime(None, IDENTITY_YEAR)
    assert null.shape == (126,)
    assert null[-1] == 1.0 and np.all(null[:-1] == 0.0)


def test_datetime_wednesday_cosine():
    # 2020-01-01 is a Wednesday, the third day of seven
    out = encode_datetime(datetime(2020, 1, 1), IDENTITY_YEAR)
    assert out[CYC_OFF] == pytest.approx(math.cos(2 * math.pi * 3 / 7), abs=1e-12)
    assert out[CYC_OFF] == pytest.approx(-0.90097, abs=5e-6)
    assert out[CYC_OFF + 1] == pytest.approx(math.sin(2 * math.pi * 3 / 7), abs=1e-12)


def test_datetime_new_years_day_2020():
    out = encode_datetime(datetime(2020, 1, 1), IDENTITY_YEAR)
    assert out[MONTH_OFF + 0] == 1.0  # January slot
    assert out[DAY_OFF + 0] == 1.0
    assert out[DOY_OFF] == pytest.approx(1 / 366)
    flags = out[FLAGS_OFF : FLAGS_OFF + 12].reshape(6, 2)
    # order: month end, month start, quarter end, quarter start, year end, year start
    assert list(flags[:, 1]) == [0, 1, 0, 1, 0, 1]
    assert out[0] == 2020.0  # identity-scaled year


def test_datetime_year_end_flags():
    out = encode_datetime(datetime(2019, 12, 31), IDENTITY_YEAR)
    flags = out[FLAGS_OFF : FLAGS_OFF + 12].reshape(6, 2)
    assert list(flags[:, 1]) == [1, 0, 1, 0, 1, 0]
    # day-of-year cyclic closes the circle on Dec 31 of a non-leap year
    assert out[CYC_OFF + 6] == pytest.approx(math.cos(2 * math.pi * 365 / 365), abs=1e-12)


def test_datetime_one_hot_groups_sum_to_one():
    groups = [(MONTH_OFF, 12), (WEEK_OFF, 53), (DAY_OFF, 31), (DOW_OFF, 7)]
    for stamp in (datetime(2020, 1, 1), datetime(1999, 7, 16, 23, 59, 59), datetime(2024, 2, 29)):
        out = encode_datetime(stamp, IDENTITY_YEAR)
        for off, width in groups:
            assert out[off : off + width].sum() == 1.0
        flags = out[FLAGS_OFF : FLAGS_OFF + 12].reshape(6, 2)
        assert np.all(flags.sum(axis=1) == 1.0)
    null = encode_datetime(None, IDENTITY_YEAR)
    for off, width in groups:
        assert null[off : off + width].sum() == 0.0


def test_datetime_cyclic_pairs_on_unit_circle():
    for stamp in (datetime(2020, 1, 1), datetime(2021, 6, 15), datetime(2000, 2, 29)):
        out = encode_datetime(stamp, IDENTITY_YEAR)
        pairs = out[CYC_OFF : CYC_OFF + 8].reshape(4, 2)
        for cos_v, sin_v in pairs:
            assert abs(cos_v**2 + sin_v**2 - 1.0) <= 1e-12


def test_text_counts_and_encoding():
    assert text_counts("hello world") == (2.0, 11.0)
    assert text_counts("") == (0.0, 0.0)
    word_enc = ScalarEncoder(0.0, 1.0)
    char_enc = ScalarEncoder(0.0, 1.0)
    assert np.array_equal(encode_text("hello world", word_enc, char_enc), [2.0, 11.0, 0.0])
    assert np.array_equal(encode_text("", word_enc, char_enc), [0.0, 0.0, 0.0])
    assert np.array_equal(encode_text(None, word_enc, char_enc), [0.0, 0.0, 1.0])


def test_categorical_vocabulary_and_reserved_index():
    enc = fit_categorical(["b", "a", "c", "a", "e", "d"])
    assert enc.cardinality == 5
    assert enc.embedding_dim == 5
    index = encode_categorical("c", enc)
    assert 0 <= index < 5
    assert encode_categorical("zzz", enc) == enc.null_index == 5
    assert encode_categorical(None, enc) == 5


def test_embedding_dim_is_min_32_or_cardinality():
    for cardinality, expected in ((5, 5), (32, 32), (1000, 32)):
        enc = CategoricalEncoder({f"tok{i}": i for i in range(cardinality)})
        assert enc.embedding_dim == expected


def _patients(fixtures_dir):
    return remove_target_column(load_database(fixtures_dir / "patients_small"))


def test_fit_encoders_and_node_widths(fixtures_dir):
    db = _patients(fixtures_dir)
    encoders = fit_encoders(db, {0: [0, 1], 1: [0, 1, 2]})
    patient, visit = encoders
    assert patient.dense_width == 4  # age + weight, value+flag each
    assert visit.dense_width == 2 + 126  # scalar cost + datetime
    assert visit.cat_columns == []
    dense, cats = encode_node(db, 1, np.array([0]), visit)
    assert dense.shape == (1, 128)
    assert cats.shape == (1, 0)
    # identical rows encode identically
    again, _ = encode_node(db, 1, np.array([0, 0]), visit)
    assert np.array_equal(dense[0], again[0]) and np.array_equal(dense[0], again[1])


def test_target_column_contributes_no_features(fixtures_dir):
    db = _patients(fixtures_dir)
    encoders = fit_encoders(db, {0: [0, 1]})
    patient = encoders[0]
    target_ci = db.tables[0].column_index("label")
    assert target_ci not in [ci for ci, _ in patient.dense_columns]
    assert target_ci not in patient.cat_columns


def test_fk_only_table_has_zero_width(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "A", "file": "A.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "label", "kind": "categorical", "target": true}]},'
        '{"name": "B", "file": "B.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "a_id", "kind": "foreign_key", "references": {"table": "A", "column": "id"}}]}]}'
    )
    (tmp_path / "A.csv").write_text("id,label\na1,1\na2,0\n")
    (tmp_path / "B.csv").write_text("id,a_id\nb1,a1\n")
    db = remove_target_column(load_database(tmp_path))
    encoders = fit_encoders(db, {0: [0, 1], 1: [0]})
    assert encoders[1].dense_width == 0
    dense, cats = encode_node(db, 1, np.array([0]), encoders[1])
    assert dense.shape == (1, 0) and cats.shape == (1, 0)


def test_no_leakage_from_test_rows(fixtures_dir):
    db = _patients(fixtures_dir)
    train = {0: [0], 1: [0, 1]}
    before = encoders_to_json(fit_encoders(db, train))
    # perturb cells of rows outside the training rows
    for ti, ci, row, value in ((0, 1, 1, 999.0),  # patient p2 age
                               (1, 2, 2, -123.0),  # visit v3 cost
                               (1, 3, 2, datetime(1970, 5, 5))):
        col = db.tables[ti].columns[ci]
        cells = col.values
        cells[row] = value
        col.values = cells
        assert db.tables[ti].cell(row, ci) == value
    after = encoders_to_json(fit_encoders(db, train))
    assert before == after


def test_fit_is_bit_stable(fixtures_dir):
    db = _patients(fixtures_dir)
    rows = {0: [0, 1], 1: [0, 1, 2]}
    assert encoders_to_json(fit_encoders(db, rows)) == encoders_to_json(fit_encoders(db, rows))


def test_encoder_json_roundtrip(fixtures_dir, tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "x", "kind": "scalar"},'
        '{"name": "pos", "kind": "latlong"},'
        '{"name": "when", "kind": "datetime"},'
        '{"name": "note", "kind": "text"},'
        '{"name": "color", "kind": "categorical"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (tmp_path / "T.csv").write_text(
        'id,x,pos,when,note,color,label\n'
        'r1,1.5,"10.0,20.0",2020-01-01,hello world,red,1\n'
        'r2,2.5,,2021-06-15T12:00:00,,blue,0\n'
    )
    db = remove_target_column(load_database(tmp_path))
    encoders = fit_encoders(db, {0: [0, 1]})
    text = encoders_to_json(encoders)
    restored = encoders_from_json(text, db)
    assert encoders_to_json(restored) == text
    a_dense, a_cats = encode_node(db, 0, np.array([0, 1]), encoders[0])
    b_dense, b_cats = encode_node(db, 0, np.array([0, 1]), restored[0])
    assert np.array_equal(a_dense, b_dense)
    assert np.array_equal(a_cats, b_cats)
    assert encoders[0].input_width == encoders[0].dense_width + 2  # color embeds at min(32, 2)


# ---------------------------------------------------------------------------
# whole-column encoding against the cell-by-cell reference


def _random_feature_table(rng, nrows: int, name: str = "T") -> Table:
    """Every feature kind with nulls, plus all-null scalar, text and datetime columns."""
    def nulled(cells, rate):
        return [None if rng.random() < rate else cell for cell in cells]

    def stamp():
        if rng.random() < 0.5:  # the days around New Year, where ISO weeks cross into the other year
            day = date(int(rng.integers(1600, 2401)), 12, 28) + timedelta(days=int(rng.integers(0, 8)))
        else:
            day = date(1600, 1, 1) + timedelta(days=int(rng.integers(0, 292_000)))
        return datetime(day.year, day.month, day.day, int(rng.integers(0, 24)), int(rng.integers(0, 60)))

    words = ["a", "bb", "ccc", "dddd"]
    text = [" ".join(rng.choice(words, size=int(rng.integers(0, 5)))) for _ in range(nrows)]
    columns = [
        Column("id", ColumnKind("primary_key"), False, [f"{name}{r}" for r in range(nrows)]),
        Column("x", ColumnKind("scalar"), False, nulled([float(v) for v in rng.normal(0, 50, nrows)], 0.2)),
        Column("pos", ColumnKind("latlong"), False,
               nulled([(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(nrows)], 0.2)),
        Column("when", ColumnKind("datetime"), False, nulled([stamp() for _ in range(nrows)], 0.2)),
        Column("note", ColumnKind("text"), False, nulled(text, 0.2)),
        Column("color", ColumnKind("categorical"), False,
               nulled([f"c{int(v)}" for v in rng.integers(0, 12, nrows)], 0.2)),
        Column("none_x", ColumnKind("scalar"), False, [None] * nrows),
        Column("none_note", ColumnKind("text"), False, [None] * nrows),
        Column("none_when", ColumnKind("datetime"), False, [None] * nrows),
    ]
    return Table(name, columns)


def _assert_matches_reference(db, table, rows, encoder):
    dense, cats = encode_node(db, table, rows, encoder)
    assert dense.shape == (len(rows), encoder.dense_width) and dense.dtype == np.float64
    assert cats.shape == (len(rows), len(encoder.cat_columns)) and cats.dtype == np.int64
    for i, row in enumerate(rows):
        want_dense, want_cats = reference_encode_row(db, table, int(row), encoder)
        assert dense[i].tobytes() == want_dense.tobytes(), (table, row)
        assert cats[i].tobytes() == want_cats.tobytes(), (table, row)


def test_encode_node_matches_cell_by_cell_reference():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        features = _random_feature_table(rng, int(rng.integers(1, 60)))
        keys_only = Table("K", [
            Column("id", ColumnKind("primary_key"), False, ["k0", "k1"]),
            Column("t", ColumnKind("foreign_key", ("T", "id")), False, ["T0", None]),
        ])
        db = Database([features, keys_only], {}, [], [])
        _resolve_foreign_keys(db, strict=True)
        n = features.nrows
        # the encoders see a fold's rows only, so other rows hold unseen tokens and out-of-range values
        fit_rows = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        encoders = fit_encoders(db, {0: fit_rows, 1: [0]})
        assert encoders[1].dense_width == 0 and encoders[1].cat_columns == []
        for rows in (np.arange(n), rng.integers(0, n, size=17), np.array([], dtype=np.int64)):
            _assert_matches_reference(db, 0, rows, encoders[0])
        _assert_matches_reference(db, 1, np.array([1, 0, 1]), encoders[1])


@pytest.mark.parametrize("year", [ScalarEncoder(2014.0, 7.5), IDENTITY_YEAR, ScalarEncoder(0.0, 1.0, all_null=True)])
def test_datetime_column_matches_reference_on_every_day(year):
    days = [date(1999, 1, 1) + timedelta(days=k) for k in range((date(2031, 1, 1) - date(1999, 1, 1)).days)]
    for y in range(1600, 2401, 7):
        days += [date(y, 1, 1), date(y, 3, 1) - timedelta(days=1), date(y, 12, 31)]
    cells = [datetime(d.year, d.month, d.day, 13, 5) for d in days] + [None]
    db = Database([Table("D", [Column("when", ColumnKind("datetime"), False, cells)])], {}, [], [])
    encoder = fit_encoders(db, {0: []})[0]
    encoder.year[0] = year
    dense, _ = encode_node(db, 0, np.arange(len(cells)), encoder)
    want = np.stack([reference_encode_datetime(cell, year) for cell in cells])
    assert dense.tobytes() == want.tobytes()
    iso_weeks = [d.isocalendar().week for d in days]
    assert np.array_equal(np.argmax(dense[:-1, WEEK_OFF:WEEK_OFF + 53], axis=1) + 1, iso_weeks)
