import csv
import json
import re
import shutil
from datetime import datetime

import numpy as np
import pytest

from relgnn import rdb
from relgnn.cli import main
from relgnn.rdb import (
    Column,
    ColumnKind,
    Database,
    RdbError,
    Table,
    _resolve_foreign_keys,
    load_database,
    remove_target_column,
    target_labels,
    validate_schema,
    write_dataset,
)

from oracles import table_cell, table_named


def test_load_patients_fixture(fixtures_dir):
    db = load_database(fixtures_dir / "patients_small")
    assert len(db.tables) == 2
    assert [t.nrows for t in db.tables] == [2, 3]
    patient = table_named(db, "Patient")
    assert table_cell(patient, 0, patient.column_index("age")) == 34.0
    assert table_cell(patient, 1, patient.column_index("weight")) is None
    visit = table_named(db, "Visit")
    assert table_cell(visit, 0, visit.column_index("visit_date")) == datetime(2020, 1, 1)
    assert table_cell(visit, 1, visit.column_index("visit_date")) == datetime(2020, 2, 14, 9, 30)


def test_load_empty_table(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,label\n")
    db = load_database(tmp_path)
    assert db.tables[0].nrows == 0


def test_missing_csv_errors(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    with pytest.raises(RdbError, match="missing file"):
        load_database(tmp_path)


def test_undeclared_column_errors(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,extra\nr1,1\n")
    with pytest.raises(RdbError, match="undeclared column 'extra'"):
        load_database(tmp_path)


def test_duplicated_header_column_errors(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"}, {"name": "x", "kind": "scalar"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,x,x\nr1,1,2\n")
    with pytest.raises(RdbError, match=r"duplicate column 'x' in the header of .*T\.csv"):
        load_database(tmp_path)


def test_unparseable_cell_names_location(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"}, {"name": "x", "kind": "scalar"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,x\nr1,banana\n")
    with pytest.raises(RdbError) as exc:
        load_database(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path / 'T.csv'}: unparseable cell at table T row 0 column x: ")


def test_out_of_range_latlong_rejected(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"}, {"name": "pos", "kind": "latlong"}]}]}'
    )
    (tmp_path / "T.csv").write_text('id,pos\nr1,"91.0,10.0"\n')
    with pytest.raises(RdbError, match="out-of-range"):
        load_database(tmp_path)


def test_dangling_fk_strict_names_cell(fixtures_dir):
    with pytest.raises(RdbError, match="Visit row 1 column patient_id"):
        load_database(fixtures_dir / "dangling", strict=True)


def test_dangling_fk_nonstrict_keeps_null_edge(fixtures_dir):
    with pytest.warns(UserWarning, match="dangling"):
        db = load_database(fixtures_dir / "dangling", strict=False)
    assert db.dangling == [("Visit", 1, "patient_id", "p9")]
    visit = table_named(db, "Visit")
    assert table_cell(visit, 1, visit.column_index("patient_id")) is None
    assert list(db.fk_rows[(1, 1)]) == [0, -1]


def test_literal_null_string_is_data(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"}, {"name": "c", "kind": "categorical"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,c\nr1,null\nr2,\n")
    db = load_database(tmp_path)
    col = db.tables[0].columns[1]
    assert col.values == ["null", None]


def test_validate_patients_fixture(fixtures_dir):
    report = validate_schema(load_database(fixtures_dir / "patients_small"))
    assert report["target"] == "Patient.label"
    assert report["fk_resolution"]["Visit.patient_id"] == {"resolved": 3, "cells": 3}
    assert report["null_rate"]["Patient.weight"] == 0.5
    assert report["null_rate"]["Visit.cost"] == 0.0
    assert report["categorical_cardinality"]["Patient.label"] == 2
    assert report["tables"] == {"Patient": 2, "Visit": 3}


def test_validate_requires_target(fixtures_dir):
    db = load_database(fixtures_dir / "patients_small")
    db.target_flags.clear()
    with pytest.raises(RdbError, match="no target column"):
        validate_schema(db)


def test_validate_rejects_multiple_targets(fixtures_dir):
    db = load_database(fixtures_dir / "patients_small")
    db.target_flags.append((1, 2))
    with pytest.raises(RdbError, match="multiple target columns"):
        validate_schema(db)


def test_mask_and_label_accessor(fixtures_dir):
    db = load_database(fixtures_dir / "patients_small")
    masked = remove_target_column(db)
    patient = table_named(masked, "Patient")
    label_col = patient.column_index("label")
    assert [table_cell(patient, r, label_col) for r in range(2)] == [None, None]
    assert list(target_labels(masked)) == [1, 0]
    # non-target columns untouched, and the original is not mutated
    assert table_named(masked, "Patient").columns[1].values == table_named(db, "Patient").columns[1].values
    assert table_named(db, "Patient").columns[label_col].values == ["1", "0"]


def test_mask_is_idempotent(fixtures_dir):
    db = load_database(fixtures_dir / "patients_small")
    once = remove_target_column(db)
    twice = remove_target_column(once)
    assert twice is once
    assert list(target_labels(twice)) == [1, 0]


@pytest.mark.parametrize("seed", range(6))
def test_target_labels_of_rows_are_those_rows_of_the_whole_column(random_database, seed):
    db = random_database(seed)
    rows = np.random.default_rng(seed).integers(0, db.tables[0].nrows, size=9)
    for view in (db, remove_target_column(db)):
        whole = target_labels(view)
        assert np.array_equal(target_labels(view, rows), whole[rows])
        assert np.array_equal(target_labels(view, rows[:1]), whole[rows[:1]])
        assert target_labels(view, rows[:0]).shape == (0,)


def test_masked_view_hides_target_from_all_accessors(fixtures_dir):
    masked = remove_target_column(load_database(fixtures_dir / "patients_small"))
    kt, kc = masked.target
    table = masked.tables[kt]
    assert all(v is None for v in table.columns[kc].values)
    assert all(table_cell(table, r, kc) is None for r in range(table.nrows))


def test_roundtrip_identical(fixtures_dir, tmp_path):
    for name in ("patients_small", "clinic", "employees"):
        db = load_database(fixtures_dir / name)
        write_dataset(db, tmp_path / name)
        again = load_database(tmp_path / name)
        assert [t.name for t in again.tables] == [t.name for t in db.tables]
        for ta, tb in zip(db.tables, again.tables):
            for ca, cb in zip(ta.columns, tb.columns):
                assert ca.kind == cb.kind and ca.target == cb.target
                assert ca.values == cb.values


def test_roundtrip_latlong_and_text(tmp_path):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "pos", "kind": "latlong"},'
        '{"name": "note", "kind": "text"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (tmp_path / "in" / "T.csv").write_text(
        'id,pos,note,label\nr1,"45.5,-120.25","two words, comma",1\nr2,,,0\n'
    )
    db = load_database(tmp_path / "in")
    assert db.tables[0].columns[1].values == [(45.5, -120.25), None]
    write_dataset(db, tmp_path / "out")
    again = load_database(tmp_path / "out")
    for ca, cb in zip(db.tables[0].columns, again.tables[0].columns):
        assert ca.values == cb.values


def test_fk_counts_match_validate(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    report = validate_schema(db)
    assert report["fk_resolution"]["Visit.patient_id"] == {"resolved": 3, "cells": 3}
    assert report["fk_resolution"]["Visit.doctor_id"] == {"resolved": 2, "cells": 2}
    assert list(db.fk_rows[(1, 2)]) == [0, -1, 0]


def _assert_one_code_space(db):
    """Every foreign key's vocab is its key column's own list, and its codes index it."""
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag == "foreign_key":
                ref_table, ref_col = col.kind.references
                key = table_named(db, ref_table).columns[table_named(db, ref_table).column_index(ref_col)]
                assert col.vocab is key.vocab, (table.name, col.name)
                assert col.data.max(initial=-1) < len(key.vocab) and (col.null == (col.data < 0)).all()
                tokens = key.values
                assert [None if r < 0 else tokens[r] for r in db.fk_rows[(ti, ci)].tolist()] == col.values


def test_loaded_foreign_keys_hold_their_keys_codes(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    _assert_one_code_space(db)
    visit = table_named(db, "Visit")
    with open(fixtures_dir / "clinic" / "Visit.csv", newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    for name in ("patient_id", "doctor_id"):
        tokens = [row[header.index(name)] or None for row in rows]  # the empty field is null
        assert visit.columns[visit.column_index(name)].values == tokens


@pytest.mark.parametrize("strict", [True, False])
def test_resolved_in_memory_foreign_key_holds_its_keys_codes(strict):
    """Tokens in another order than the key's, a null and a dangling token: the foreign key codes into
    the key's vocab; without strictness the dangling cell becomes null, code -1, listed with its token."""
    key = Column("id", ColumnKind("primary_key"), False, ["a0", "a1", "a2"])
    fk = Column("a", ColumnKind("foreign_key", ("A", "id")), False, ["a2", None, "a0", "a9", "a2"])
    db = Database([Table("A", [key]), Table("B", [fk])], {}, [], [])
    if strict:
        with pytest.raises(RdbError, match="dangling reference at table B row 3 column a: 'a9' not found in A.id"):
            _resolve_foreign_keys(db, strict=True)
        return
    with pytest.warns(UserWarning, match="1 dangling"):
        _resolve_foreign_keys(db, strict=False)
    _assert_one_code_space(db)
    assert fk.data.tolist() == [2, -1, 0, -1, 2] and fk.null.tolist() == [False, True, False, True, False]
    assert fk.values == ["a2", None, "a0", None, "a2"]
    assert db.dangling == [("B", 3, "a", "a9")]
    assert db.fk_rows[(1, 0)].tolist() == [2, -1, 0, -1, 2]


def test_token_of_a_referenced_foreign_key_on_no_row_dangles():
    """B.a, resolved first, shares A.id's vocab, which holds a1 although no row of B.a does: C.b's a1
    still dangles."""
    a = Table("A", [Column("id", ColumnKind("primary_key"), False, ["a0", "a1"])])
    b = Table("B", [Column("a", ColumnKind("foreign_key", ("A", "id")), False, ["a0"])])
    c = Table("C", [Column("b", ColumnKind("foreign_key", ("B", "a")), False, ["a0", "a1"])])
    db = Database([a, b, c], {}, [], [])
    with pytest.warns(UserWarning, match="1 dangling"):
        _resolve_foreign_keys(db, strict=False)
    _assert_one_code_space(db)
    assert db.dangling == [("C", 1, "b", "a1")] and c.columns[0].values == ["a0", None]


def test_each_key_columns_row_map_is_built_once(monkeypatch, fixtures_dir):
    # clinic: three primary keys, two of them referenced by Visit's foreign keys, Doctor's from before its table
    built = []
    key_rows = rdb._key_rows

    def recording(col, table, where):
        built.append((table, col.name))
        return key_rows(col, table, where)

    monkeypatch.setattr(rdb, "_key_rows", recording)
    load_database(fixtures_dir / "clinic")
    assert built == [("Patient", "patient_id"), ("Visit", "visit_id"), ("Doctor", "doctor_id")]


def test_foreign_key_referenced_before_and_after_its_recoding():
    """C.b reads B.a's row map while B.a holds its own tokens' codes, D.b after B.a was recoded into
    A.id's; both find the row of a0."""
    c = Table("C", [Column("b", ColumnKind("foreign_key", ("B", "a")), False, ["a0"])])
    b = Table("B", [Column("a", ColumnKind("foreign_key", ("A", "id")), False, ["a1", "a0"])])
    d = Table("D", [Column("b", ColumnKind("foreign_key", ("B", "a")), False, ["a0"])])
    a = Table("A", [Column("id", ColumnKind("primary_key"), False, ["a0", "a1"])])
    db = Database([c, b, d, a], {}, [], [])
    _resolve_foreign_keys(db, strict=True)
    assert {key: rows.tolist() for key, rows in db.fk_rows.items()} == {(0, 0): [1], (1, 0): [1, 0], (2, 0): [1]}


def test_duplicate_primary_key_rejected(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "A", "file": "A.csv", "columns": [{"name": "id", "kind": "primary_key"}]},'
        '{"name": "B", "file": "B.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "a_id", "kind": "foreign_key", "references": {"table": "A", "column": "id"}}]}]}'
    )
    # a key that a foreign key references (A's), and one that none does (B's)
    for a_rows, b_rows, message in (
            ("x\nx\n", "b1,x\n", "A.csv: duplicate key 'x' at table A row 1 column id"),
            ("x\n", "b1,x\nb2,x\nb1,x\n", "B.csv: duplicate key 'b1' at table B row 2 column id")):
        (tmp_path / "A.csv").write_text("id\n" + a_rows)
        (tmp_path / "B.csv").write_text("id,a_id\n" + b_rows)
        for strict in (True, False):
            with pytest.raises(RdbError, match=message):
                load_database(tmp_path, strict=strict)


@pytest.mark.parametrize("references, message", [
    (("Q", "id"), "table C column p references Q.id: no table named 'Q'"),
    (("P", "nope"), "table C column p references P.nope: table P has no column 'nope'"),
], ids=["unknown-table", "unknown-column"])
def test_in_memory_foreign_key_to_nothing_names_the_key(references, message):
    # a loaded database fails earlier, in `_read_schema`; one built from Python cells fails here
    parent = Table("P", [Column("id", ColumnKind("primary_key"), False, ["p0"])])
    child = Table("C", [Column("p", ColumnKind("foreign_key", references), False, ["p0"])])
    with pytest.raises(RdbError, match=f"^{re.escape(message)}$"):
        _resolve_foreign_keys(Database([parent, child], {}, [], []), strict=True)


def test_duplicate_primary_key_rejected_in_memory():
    # a table that no foreign key references, resolved without files
    table = Table("T", [Column("id", ColumnKind("primary_key"), False, ["t0", "t1", "t0"])])
    with pytest.raises(RdbError, match="^duplicate key 't0' at table T row 2 column id$"):
        _resolve_foreign_keys(Database([table], {}, [], []), strict=True)


def test_fk_reference_must_exist_in_schema(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "B", "file": "B.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "a_id", "kind": "foreign_key", "references": {"table": "Nope", "column": "id"}}]}]}'
    )
    (tmp_path / "B.csv").write_text("id,a_id\n")
    with pytest.raises(RdbError, match="references unknown table"):
        load_database(tmp_path)


def test_labels_never_in_masked_reads_property(fixtures_dir):
    # every read path over every table/column/row never yields a raw label token
    masked = remove_target_column(load_database(fixtures_dir / "clinic"))
    tokens = {"0", "1"}
    kt, kc = masked.target
    for ti, table in enumerate(masked.tables):
        for ci, col in enumerate(table.columns):
            if (ti, ci) == (kt, kc):
                seen = {table_cell(table, r, ci) for r in range(table.nrows)}
                assert seen <= {None} and not (seen & tokens)
    assert set(target_labels(masked)) == {0, 1}


def _validate_error(capsys, dataset):
    """stderr of `relgnn validate` on the dataset, which must fail with exit 1 and no traceback."""
    capsys.readouterr()
    assert main(["validate", "--dataset", str(dataset)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("text, where", [
    ('{"tables": 5}', "'tables' must be a list, got int"),
    ('{"tables": [{"file": "T.csv", "columns": []}]}', "tables[0] lacks key 'name'"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": 3}]}]}',
     "table T column id: 'kind' must be a str"),
    ('{"tables": [', "invalid JSON"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"},'
     '{"name": "up", "kind": "foreign_key", "references": {"table": "T", "column": "nope"}}]}]}',
     "table T column up references unknown column 'nope' of table T"),
    ('{"tables": [{"name": "P", "file": "T.csv", "columns": [{"name": "x", "kind": "scalar"}]},'
     '{"name": "C", "file": "T.csv", "columns": [{"name": "p", "kind": "foreign_key",'
     '"references": {"table": "P", "column": "x"}}]}]}',
     "table C column p references P.x, a scalar column"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": []}, {"name": "U", "file": "T.csv", "columns": []},'
     '{"name": "T", "file": "T.csv", "columns": []}]}', "duplicate table name 'T'"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"},'
     '{"name": "id", "kind": "scalar"}]}]}', "duplicate column 'id' in table T"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "blob"}]}]}',
     "table T column id: unknown column kind 'blob'"),
    ('{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"},'
     '{"name": "y", "kind": "scalar", "target": true}]}]}', "target column T.y must be categorical"),
], ids=["tables-not-a-list", "table-without-name", "kind-not-a-string", "invalid-json", "unknown-referenced-column",
        "scalar-referenced-column", "duplicate-table", "duplicate-column", "unknown-kind", "scalar-target"])
def test_malformed_schema_names_file_and_place(capsys, tmp_path, text, where):
    (tmp_path / "schema.json").write_text(text)
    (tmp_path / "T.csv").write_text("id\nr1\n")
    err = _validate_error(capsys, tmp_path)
    assert str(tmp_path / "schema.json") in err and where in err


def test_csv_not_utf8_names_file(capsys, fixtures_dir, tmp_path):
    shutil.copytree(fixtures_dir / "clinic", tmp_path / "clinic")
    (tmp_path / "clinic" / "Visit.csv").write_bytes(b"visit_id,patient_id,doctor_id,cost\nv1,p1,d1,1\xff\n")
    err = _validate_error(capsys, tmp_path / "clinic")
    assert str(tmp_path / "clinic" / "Visit.csv") in err and "not UTF-8" in err


def _schema_slots(schema):
    """(container, key, expected type, locator) of every value that loading requires, where the
    locator is the text an error about that value must contain."""
    slots = [(schema, "tables", list, "'tables'")]
    for ti, table in enumerate(schema["tables"]):
        slots.append((schema["tables"], ti, dict, f"tables[{ti}]"))
        slots += [(table, key, kind, repr(key)) for key, kind in (("name", str), ("file", str), ("columns", list))]
        for ci, col in enumerate(table["columns"]):
            slots.append((table["columns"], ci, dict, f"columns[{ci}]"))
            slots += [(col, "name", str, "'name'"), (col, "kind", str, "'kind'")]
            if "target" in col:
                slots.append((col, "target", bool, "'target'"))
            if "references" in col:
                slots.append((col, "references", dict, "'references'"))
                slots += [(col["references"], key, str, repr(key)) for key in ("table", "column")]
    return slots


def test_schema_fuzz_fails_located(capsys, fixtures_dir, tmp_path):
    """Seeded wrong types, missing keys and truncations of a valid schema.json: each fails with
    exit 1, no traceback and a message naming the file and the bad value's place."""
    shutil.copytree(fixtures_dir / "clinic", tmp_path / "db")
    path = tmp_path / "db" / "schema.json"
    valid = path.read_text()
    wrong = (5, 2.5, None, True, [], {}, "x")
    for seed in range(200):
        rng = np.random.default_rng(seed)
        schema = json.loads(valid)
        mutation = ("type", "missing", "truncate")[seed % 3]
        if mutation == "truncate":
            text, where = valid[: int(rng.integers(0, len(valid) - 1))], "invalid JSON"
        else:
            slots = _schema_slots(schema)
            if mutation == "missing":
                slots = [s for s in slots if isinstance(s[1], str) and s[1] != "target"]
            container, key, kind, where = slots[int(rng.integers(0, len(slots)))]
            if mutation == "missing":
                del container[key]
                where = f"lacks key {key!r}"
            else:
                choices = [v for v in wrong if not isinstance(v, kind)]
                container[key] = choices[int(rng.integers(0, len(choices)))]
            text = json.dumps(schema)
        path.write_text(text)
        err = _validate_error(capsys, tmp_path / "db")
        assert str(path) in err and where in err, (seed, mutation, err)
