"""Aggregate-path enumeration and flat relational feature computation."""
from __future__ import annotations

import csv
import json
import math
import weakref

import numpy as np
import pytest

from oracles import groupby_oracle, reference_features
from relgnn import cli
from relgnn.dfs import (
    COPY,
    AggSpec,
    aggspecs_from_json,
    aggspecs_to_json,
    apply_feature_encoders,
    compute_features,
    enumerate_aggs,
    feature_encoders_from_json,
    feature_encoders_to_json,
    feature_names,
    fit_feature_encoders,
    write_features_csv,
)
from relgnn.graph import FORWARD, REVERSE, database_to_graph
from relgnn.encode import fit_encoders
from relgnn.rdb import (
    Column,
    ColumnKind,
    Database,
    RdbError,
    Table,
    _resolve_foreign_keys,
    load_database,
    remove_target_column,
)
from relgnn.training import single_table_features
from test_training import gc_disabled


def _three_level(childless: bool = False) -> Database:
    """A <- B <- C chain; with childless=True row a1 has no B children at all."""
    a = Table("A", [
        Column("id", ColumnKind("primary_key"), False, ["a0", "a1"]),
        Column("label", ColumnKind("categorical"), True, ["1", "0"]),
    ])
    b = Table("B", [
        Column("id", ColumnKind("primary_key"), False, ["b0", "b1"]),
        Column("a", ColumnKind("foreign_key", ("A", "id")), False, ["a0", "a0" if childless else "a1"]),
    ])
    c = Table("C", [
        Column("id", ColumnKind("primary_key"), False, ["c0", "c1", "c2"]),
        Column("b", ColumnKind("foreign_key", ("B", "id")), False, ["b0", "b0", "b1"]),
        Column("v", ColumnKind("scalar"), False, [2.0, None, 5.0]),
    ])
    db = Database([a, b, c], {}, [], [(0, 1)])
    _resolve_foreign_keys(db, strict=True)
    return db


def _lineage(null_parent: bool = False) -> Database:
    """Child -> Parent -> Grand forward chain with the target at the bottom."""
    grand = Table("Grand", [
        Column("id", ColumnKind("primary_key"), False, ["g0", "g1"]),
        Column("region", ColumnKind("categorical"), False, ["north", "south"]),
    ])
    parent = Table("Parent", [
        Column("id", ColumnKind("primary_key"), False, ["p0", "p1"]),
        Column("grand", ColumnKind("foreign_key", ("Grand", "id")), False, ["g0", "g1"]),
        Column("income", ColumnKind("scalar"), False, [100.0, None]),
        Column("city", ColumnKind("categorical"), False, ["oslo", "bergen"]),
    ])
    child = Table("Child", [
        Column("id", ColumnKind("primary_key"), False, ["c0", "c1"]),
        Column("parent", ColumnKind("foreign_key", ("Parent", "id")), False, ["p0", None if null_parent else "p1"]),
        Column("label", ColumnKind("categorical"), True, ["1", "0"]),
    ])
    db = Database([grand, parent, child], {}, [], [(2, 2)])
    _resolve_foreign_keys(db, strict=True)
    return db


def test_aggspec_count_rejects_source():
    with pytest.raises(RdbError):
        AggSpec(((1, 1, REVERSE),), "count", 2)


def test_aggspec_sum_requires_source():
    with pytest.raises(RdbError):
        AggSpec(((1, 1, REVERSE),), "sum", None)


def test_aggspec_unknown_aggregator():
    with pytest.raises(RdbError):
        AggSpec(((1, 1, REVERSE),), "median", 2)


def test_aggspec_empty_path():
    with pytest.raises(RdbError):
        AggSpec((), "count", None)


def test_aggspec_hashable():
    spec = AggSpec(((1, 1, REVERSE),), "sum", 3)
    assert len(spec.path) == 1
    assert {spec: "ok"}[AggSpec(((1, 1, REVERSE),), "sum", 3)] == "ok"


def test_enumerate_clinic_depth1(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    specs = enumerate_aggs(db, 1)
    assert [s.aggregator for s in specs] == ["count", "sum", "mean", "max", "min"]
    visit = db.table_index("Visit")
    fk = db.tables[visit].column_index("patient_id")
    cost = db.tables[visit].column_index("cost")
    assert all(s.path == ((visit, fk, REVERSE),) for s in specs)
    assert [s.source for s in specs] == [None, cost, cost, cost, cost]
    # nothing references Visit and Patient has no foreign keys, so depth 2 adds nothing
    assert enumerate_aggs(db, 2) == specs


def test_enumerate_depth_zero_and_negative(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    assert enumerate_aggs(db, 0) == []
    with pytest.raises(RdbError):
        enumerate_aggs(db, -1)


def test_enumerate_grandchild_specs():
    db = _three_level()
    shallow = enumerate_aggs(db, 1)
    assert [s.aggregator for s in shallow] == ["count"]
    specs = enumerate_aggs(db, 2)
    deep_path = ((1, 1, REVERSE), (2, 1, REVERSE))
    assert [(s.path, s.aggregator) for s in specs] == [
        (((1, 1, REVERSE),), "count"),
        (deep_path, "count"),
        (deep_path, "sum"),
        (deep_path, "mean"),
        (deep_path, "max"),
        (deep_path, "min"),
    ]
    v = db.tables[2].column_index("v")
    assert all(s.source == v for s in specs if s.aggregator != "count")


def test_enumerate_forward_copies():
    db = _lineage()
    shallow = enumerate_aggs(db, 1)
    income = db.tables[1].column_index("income")
    city = db.tables[1].column_index("city")
    assert [(s.aggregator, s.source) for s in shallow] == [(COPY, income), (COPY, city)]
    assert all(s.path == ((2, 1, FORWARD),) for s in shallow)
    specs = enumerate_aggs(db, 2)
    assert specs[:2] == shallow
    assert specs[2].path == ((2, 1, FORWARD), (1, 1, FORWARD))
    assert specs[2].aggregator == COPY
    assert specs[2].source == db.tables[0].column_index("region")
    assert len(specs) == 3


def test_enumerate_self_reference(fixtures_dir):
    db = load_database(fixtures_dir / "employees")
    specs = enumerate_aggs(db, 2)
    # the only feature column is the target label, so only counts survive
    assert [(s.path, s.aggregator) for s in specs] == [
        (((0, 1, REVERSE),), "count"),
        (((0, 1, REVERSE), (0, 1, REVERSE)), "count"),
    ]
    raw = compute_features(db, specs, [0, 1, 2])
    assert list(raw) == [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]


def test_enumerate_self_reference_deeper_than_the_recursion_limit(fixtures_dir):
    # one count per depth down the manager chain; a walk that recursed once per hop stopped at Python's limit
    specs = enumerate_aggs(load_database(fixtures_dir / "employees"), 1500)
    assert [(s.path, s.aggregator) for s in specs] == [(((0, 1, REVERSE),) * k, "count") for k in range(1, 1501)]


def test_feature_names(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    assert feature_names(db, enumerate_aggs(db, 1)) == [
        "Visit.patient_id<__COUNT__*",
        "Visit.patient_id<__SUM__cost",
        "Visit.patient_id<__MEAN__cost",
        "Visit.patient_id<__MAX__cost",
        "Visit.patient_id<__MIN__cost",
    ]
    deep = _three_level()
    assert feature_names(deep, enumerate_aggs(deep, 2))[2] == "B.a<.C.b<__SUM__v"
    fwd = _lineage()
    assert feature_names(fwd, enumerate_aggs(fwd, 2)) == [
        "Child.parent>__COPY__income",
        "Child.parent>__COPY__city",
        "Child.parent>.Parent.grand>__COPY__region",
    ]


def test_clinic_golden_values(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    raw = compute_features(db, enumerate_aggs(db, 1), [0, 1])
    assert raw[0] == [2.0, 40.0, 20.0, 30.0, 10.0]
    assert raw[1] == [1.0, 7.5, 7.5, 7.5, 7.5]


def test_grandchild_values_and_null_mean():
    db = _three_level()
    raw = compute_features(db, enumerate_aggs(db, 2), [0, 1])
    # a0 reaches c0 (v=2.0) and c1 (v null): count keeps the null row, the others drop it
    assert raw[0] == [1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert raw[1] == [1.0, 1.0, 5.0, 5.0, 5.0, 5.0]


def test_empty_child_set_convention():
    db = _three_level(childless=True)
    raw = compute_features(db, enumerate_aggs(db, 2), [0, 1])
    # mean divides by the non-null value count, not the row count
    assert raw[0] == [2.0, 3.0, 7.0, 3.5, 5.0, 2.0]
    assert raw[1] == [0.0, 0.0, None, None, None, None]


def test_forward_copy_values():
    raw = compute_features(_lineage(), enumerate_aggs(_lineage(), 2), [0, 1])
    assert raw[0] == [100.0, "oslo", "north"]
    assert raw[1] == [None, "bergen", "south"]


def test_forward_copy_null_key():
    db = _lineage(null_parent=True)
    raw = compute_features(db, enumerate_aggs(db, 2), [0, 1])
    assert raw[0] == [100.0, "oslo", "north"]
    assert raw[1] == [None, None, None]


def test_row_order_matches_request(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    specs = enumerate_aggs(db, 1)
    base = compute_features(db, specs, [0, 1])
    assert list(compute_features(db, specs, [1, 0, 1])) == [base[1], base[0], base[1]]


def test_determinism():
    db = _three_level()
    specs = enumerate_aggs(db, 2)
    assert enumerate_aggs(db, 2) == specs
    assert list(compute_features(db, specs, [0, 1])) == list(compute_features(db, specs, [0, 1]))


# with no cyclic collection, a database is freed once its caller drops it: neither call leaves a cycle
# (a closure that calls itself) that holds it
def test_enumerate_aggs_leaves_nothing_that_holds_its_database():
    with gc_disabled():
        db = _three_level()
        ref = weakref.ref(db)
        assert len(enumerate_aggs(db, 2)) == 6
        del db
        assert ref() is None


def test_compute_features_leaves_nothing_that_holds_its_database():
    specs = enumerate_aggs(_three_level(), 2)
    with gc_disabled():
        db = _three_level()
        ref = weakref.ref(db)
        assert len(compute_features(db, specs, [0, 1])) == 2
        del db
        assert ref() is None


def test_unrelated_table_is_inert():
    db = _three_level()
    specs = enumerate_aggs(db, 2)
    base = compute_features(db, specs, [0, 1])
    spare = Table("Spare", [
        Column("id", ColumnKind("primary_key"), False, ["s0"]),
        Column("junk", ColumnKind("scalar"), False, [9.9]),
    ])
    bigger = _three_level()
    bigger.tables.append(spare)
    assert enumerate_aggs(bigger, 2) == specs
    assert list(compute_features(bigger, specs, [0, 1])) == list(base)


def test_target_row_out_of_range(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    with pytest.raises(RdbError):
        compute_features(db, enumerate_aggs(db, 1), [2])


def test_type_mismatch_errors(fixtures_dir):
    clinic = load_database(fixtures_dir / "clinic")
    visit = clinic.table_index("Visit")
    fk = clinic.tables[visit].column_index("patient_id")
    pk = clinic.tables[visit].column_index("visit_id")
    with pytest.raises(RdbError):
        compute_features(clinic, [AggSpec(((visit, fk, REVERSE),), "sum", pk)], [0])
    employees = load_database(fixtures_dir / "employees")
    label = employees.tables[0].column_index("label")
    with pytest.raises(RdbError):
        compute_features(employees, [AggSpec(((0, 1, REVERSE),), "max", label)], [0])
    lineage = _lineage()
    with pytest.raises(RdbError):
        compute_features(lineage, [AggSpec(((2, 1, FORWARD),), COPY, 0)], [0])  # pk copy


def test_source_kind_errors_name_the_column():
    # T references a parent P with a text column and has children C with a categorical column
    parent = Table("P", [
        Column("id", ColumnKind("primary_key"), False, ["p0"]),
        Column("note", ColumnKind("text"), False, ["a note"]),
    ])
    target = Table("T", [
        Column("id", ColumnKind("primary_key"), False, ["t0"]),
        Column("p", ColumnKind("foreign_key", ("P", "id")), False, ["p0"]),
        Column("label", ColumnKind("categorical"), True, ["1"]),
    ])
    child = Table("C", [
        Column("id", ColumnKind("primary_key"), False, ["c0"]),
        Column("t", ColumnKind("foreign_key", ("T", "id")), False, ["t0"]),
        Column("kind", ColumnKind("categorical"), False, ["x"]),
    ])
    db = Database([parent, target, child], {}, [], [(1, 2)])
    _resolve_foreign_keys(db, strict=True)
    for spec, message in ((AggSpec(((1, 1, FORWARD),), COPY, 1), "cannot copy text column P.note"),
                          (AggSpec(((2, 1, REVERSE),), "sum", 2), "cannot sum over categorical column C.kind")):
        with pytest.raises(RdbError) as exc:
            compute_features(db, [spec], [0])
        assert str(exc.value) == message
        with pytest.raises(RdbError) as exc:
            aggspecs_from_json(aggspecs_to_json([spec]), db)
        assert str(exc.value) == f"aggspecs[0]: {message}"


def test_broken_path_errors(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    visit = db.table_index("Visit")
    doctor_fk = db.tables[visit].column_index("doctor_id")
    cost = db.tables[visit].column_index("cost")
    with pytest.raises(RdbError):  # Visit.doctor_id does not reference Patient
        compute_features(db, [AggSpec(((visit, doctor_fk, REVERSE),), "count", None)], [0])
    with pytest.raises(RdbError):  # forward hop must start at the target table
        compute_features(db, [AggSpec(((visit, doctor_fk, FORWARD),), "count", None)], [0])
    with pytest.raises(RdbError):  # not a foreign key column
        compute_features(db, [AggSpec(((visit, cost, REVERSE),), "count", None)], [0])
    with pytest.raises(RdbError):  # unknown direction
        compute_features(db, [AggSpec(((visit, doctor_fk, "sideways"),), "count", None)], [0])
    with pytest.raises(RdbError):  # source column out of range
        compute_features(db, [AggSpec(((visit, db.tables[visit].column_index("patient_id"), REVERSE),), "sum", 99)], [0])


def test_depth1_sum_count_match_groupby_oracle(random_database):
    checked = 0
    for seed in range(40):
        db = random_database(seed)
        specs = enumerate_aggs(db, 1)
        picked = [(j, s) for j, s in enumerate(specs) if s.aggregator in ("count", "sum")]
        if len(picked) == 0:
            continue
        n = db.tables[0].nrows
        raw = compute_features(db, specs, range(n))
        for j, spec in picked:
            (ti, ci, _), = spec.path
            table = db.tables[ti]
            counts, sums = groupby_oracle(db, table.name, table.columns[ci].name, "amount")
            for r in range(n):
                if spec.aggregator == "count":
                    assert raw[r][j] == float(counts.get(r, 0))
                else:
                    assert raw[r][j] == sums.get(r)
            checked += 1
    assert checked >= 20


def test_depth1_mean_max_min_brute_force(random_database):
    db = next(d for d in (random_database(s) for s in range(20))
              if any(sp.aggregator == "mean" for sp in enumerate_aggs(d, 1)))
    specs = enumerate_aggs(db, 1)
    n = db.tables[0].nrows
    raw = compute_features(db, specs, range(n))
    for j, spec in enumerate(specs):
        if spec.aggregator not in ("mean", "max", "min"):
            continue
        (ti, ci, _), = spec.path
        fk = db.fk_rows[(ti, ci)]
        cells = db.tables[ti].columns[spec.source].values
        for r in range(n):
            vals = [cells[row] for row in range(len(fk)) if fk[row] == r and cells[row] is not None]
            if len(vals) == 0:
                assert raw[r][j] is None
            elif spec.aggregator == "max":
                assert raw[r][j] == max(vals)
            elif spec.aggregator == "min":
                assert raw[r][j] == min(vals)
            else:
                assert math.isclose(raw[r][j], float(np.mean(vals)), rel_tol=1e-12, abs_tol=0.0)


# awkward scalars: signed zeros, magnitudes 24 orders apart (sums depend on the order of addition) and nulls
_AWKWARD = (-0.0, 0.0, 1e12, -1e12, 1e-12, -1e-12, 3.5, -7.25, None)


def _awkward_database(random_database, seed):
    """A random database whose scalar cells come from _AWKWARD; some columns are all null."""
    db = random_database(seed, max_tables=4, max_rows=60)
    rng = np.random.default_rng(seed)
    for table in db.tables:
        for col in table.columns:
            if col.kind.tag == "scalar":
                picks = rng.integers(0, len(_AWKWARD), size=table.nrows)
                col.values = [None if rng.random() < 0.2 else _AWKWARD[k] for k in picks.tolist()]
                if rng.random() < 0.15:
                    col.values = [None] * table.nrows
    return db


def _random_specs(db, rng, count):
    """Specs on random mixed paths of 1-3 hops from the target table, with any aggregator."""
    hops = []  # (hop, table it starts at, table it ends at)
    for ti, table in enumerate(db.tables):
        for ci, col in enumerate(table.columns):
            if col.kind.tag == "foreign_key":
                ref = db.table_index(col.kind.references[0])
                hops += [((ti, ci, REVERSE), ref, ti), ((ti, ci, FORWARD), ti, ref)]
    specs = []
    for _ in range(count):
        table, path = db.target[0], ()
        for _ in range(int(rng.integers(1, 4))):
            choices = [(hop, end) for hop, begin, end in hops if begin == table]
            if not choices:
                break
            hop, table = choices[int(rng.integers(0, len(choices)))]
            path += (hop,)
        if path:
            aggregator = ("count", "sum", "mean", "max", "min", COPY)[int(rng.integers(0, 6))]
            source = None if aggregator == "count" else db.tables[table].column_index("amount")
            specs.append(AggSpec(path, aggregator, source))
    return specs


def test_compute_features_equals_per_target_reference(random_database):
    """Values and their reprs equal the per-target reference's, for every target order."""
    awkward_sums = 0
    for seed in range(240):
        db = _awkward_database(random_database, seed + 300)
        rng = np.random.default_rng(seed)
        specs = enumerate_aggs(db, 1 + seed % 3) + _random_specs(db, rng, 6)
        n = db.tables[0].nrows
        rows = rng.permutation(n).tolist() + rng.integers(0, n, size=3).tolist()
        got, want = compute_features(db, specs, rows), reference_features(db, specs, rows)
        assert repr(list(got)) == repr(want), seed
        backwards = compute_features(db, specs[::-1], rows)  # every spec order resolves the same
        assert repr(list(backwards)) == repr([row[::-1] for row in want]), seed
        awkward_sums += sum(1 for row in want for spec, v in zip(specs, row)
                            if spec.aggregator == "sum" and v is not None and v in (0.0, 1e12, -1e12))
    assert awkward_sums > 100  # the signed-zero and large-magnitude cases did occur


def test_encode_clinic_matrix(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    specs = enumerate_aggs(db, 1)
    raw = compute_features(db, specs, [0, 1])
    encoded = apply_feature_encoders(raw, fit_feature_encoders(raw, [0, 1]))
    # every column holds two distinct values, so robust scaling lands both on +/-1
    expected = np.tile([[1.0, 0.0], [-1.0, 0.0]], (1, 5))
    assert encoded.shape == (2, 10)
    assert np.allclose(encoded, expected, rtol=0, atol=1e-12)


def test_encode_flags_nulls():
    db = _three_level(childless=True)
    specs = enumerate_aggs(db, 2)
    raw = compute_features(db, specs, [0, 1])
    encoded = apply_feature_encoders(raw, fit_feature_encoders(raw, [0, 1]))
    assert encoded.shape == (2, 12)
    assert np.array_equal(encoded[1, 5::2], np.ones(4))  # sum/mean/max/min flagged null
    assert np.array_equal(encoded[0, 5::2], np.zeros(4))


def test_encode_one_hot_copies():
    db = _lineage(null_parent=True)
    specs = enumerate_aggs(db, 2)
    raw = compute_features(db, specs, [0, 1])
    encoded = apply_feature_encoders(raw, fit_feature_encoders(raw, [0, 1]))
    # income (scaled, flag) then one-hot city {oslo}+null then one-hot region {north}+null
    assert np.array_equal(encoded, np.array([
        [0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    ]))


def test_encode_fit_rows_scope(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    specs = enumerate_aggs(db, 1)
    raw = compute_features(db, specs, [0, 1])
    encoded = apply_feature_encoders(raw, fit_feature_encoders(raw, [0]))
    # fitting on p1 alone pins the median there, so its scaled values are all zero
    assert np.allclose(encoded[0], np.zeros(10), rtol=0, atol=1e-12)


def test_encode_no_specs(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    raw = compute_features(db, [], [0, 1])
    assert apply_feature_encoders(raw, fit_feature_encoders(raw, [0])).shape == (2, 0)


def test_dfs_block_filled_in_place_is_bitwise_the_concatenated_matrix(random_database, fixtures_dir):
    """dfs-logreg's matrix, the DFS block filled into the last columns of the table block's matrix, equals
    the two blocks concatenated: one-hot copies after an empty table block, the clinic fixture, and random
    databases with awkward scalars at depths 2, 1 and 0, the last without any DFS feature."""
    dbs = [_lineage(null_parent=True), load_database(fixtures_dir / "clinic")]
    dbs += [_awkward_database(random_database, seed + 900) for seed in range(40)]
    widths = set()
    for i, db in enumerate(dbs):
        masked = remove_target_column(db)
        n = masked.tables[masked.target[0]].nrows
        fit = list(range(0, n, 2))
        raw = compute_features(masked, enumerate_aggs(masked, 2 - i % 3), range(n))
        encoders = fit_encoders(masked, {masked.target[0]: fit})
        dfs_encoders = fit_feature_encoders(raw, fit)
        desc = {"model": "dfs-logreg", "dropout": 0.3}
        _, data = cli._build(desc, masked, np.zeros(n, dtype=np.int64), raw, encoders, dfs_encoders)
        want = np.concatenate([single_table_features(masked, encoders), apply_feature_encoders(raw, dfs_encoders)],
                              axis=1)
        assert data.features.shape == want.shape and data.features.tobytes() == want.tobytes(), i
        widths.add((single_table_features(masked, encoders).shape[1], want.shape[1]))
    assert {(table > 0, table < total) for table, total in widths} == {(False, True), (True, True), (True, False)}


def test_feature_encoder_json_roundtrip():
    db = _lineage(null_parent=True)
    specs = enumerate_aggs(db, 2)
    raw = compute_features(db, specs, [0, 1])
    encoders = fit_feature_encoders(raw, [0, 1])
    reloaded = feature_encoders_from_json(feature_encoders_to_json(encoders), raw)
    assert np.array_equal(apply_feature_encoders(raw, reloaded), apply_feature_encoders(raw, encoders))


def test_aggspec_json_roundtrip():
    db = _three_level()
    specs = enumerate_aggs(db, 2)
    assert aggspecs_from_json(aggspecs_to_json(specs)) == specs


def test_aggspecs_from_json_requires_json_integers_and_strings(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    count, total = json.loads(aggspecs_to_json(enumerate_aggs(db, 1)))[:2]  # Visit.patient_id< COUNT and SUM
    (table, column, direction), = count["path"]
    hop_error = "is not [table, column, direction] (integers, string)"
    bad_hops = [[table + 0.5, column, direction], [str(table), column, direction], [True, column, direction],
                [table, float(column), direction], [table, column, 1], [table, column], table, "Visit"]
    cases = [({**count, "path": [hop]}, f"path hop {json.dumps(hop)} {hop_error}") for hop in bad_hops] + [
        ({**count, "path": "Visit"}, f'path hop "Visit" {hop_error}'),  # a path that is no list
        ({**count, "path": [table, column, direction]}, f"path hop {table} {hop_error}"),
        ({**total, "source": float(total["source"])}, f"source {float(total['source'])} is not an integer or null"),
        ({**total, "source": True}, "source true is not an integer or null"),
        ({**count, "aggregator": 5}, "unknown aggregator 5"),
        ({"path": count["path"], "aggregator": "count"}, "not an object with path, aggregator and source"),
        ([count["path"], "count", None], "not an object with path, aggregator and source"),
    ]
    for entry, message in cases:
        for checked in (None, db):
            with pytest.raises(RdbError) as exc:
                aggspecs_from_json(json.dumps([count, entry]), checked)
            assert str(exc.value) == f"aggspecs[1]: {message}"
    with pytest.raises(RdbError, match="^not a list of aggspecs$"):
        aggspecs_from_json(json.dumps(count), db)
    assert aggspecs_from_json(json.dumps([count, total]), db) == enumerate_aggs(db, 1)[:2]


def test_each_distinct_path_prefix_is_checked_once(fixtures_dir, monkeypatch):
    """Each hop check looks its foreign key's table up once; a map of the prefixes checked so far makes
    that once per distinct prefix in each call, not once per hop of every spec."""
    db = load_database(fixtures_dir / "employees")
    specs = enumerate_aggs(db, 200)
    prefixes = {spec.path[:k] for spec in specs for k in range(1, len(spec.path) + 1)}
    lookups = []
    table_index = Database.table_index
    monkeypatch.setattr(Database, "table_index", lambda self, name: lookups.append(name) or table_index(self, name))

    def count(call) -> int:
        lookups.clear()
        call()
        return len(lookups)

    graph_lookups = count(lambda: database_to_graph(db))
    assert count(lambda: compute_features(db, specs, [0, 1, 2])) == len(prefixes) + graph_lookups
    assert count(lambda: feature_names(db, specs)) == len(prefixes)
    assert count(lambda: aggspecs_from_json(aggspecs_to_json(specs), db)) == len(prefixes)


def test_write_features_csv(tmp_path, fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    out = tmp_path / "features.csv"
    write_features_csv(out, db, enumerate_aggs(db, 1), [0, 1])
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["patient_id"] + feature_names(db, enumerate_aggs(db, 1))
    assert rows[1] == ["p1", "2.0", "40.0", "20.0", "30.0", "10.0"]
    assert rows[2] == ["p2", "1.0", "7.5", "7.5", "7.5", "7.5"]


def test_write_features_csv_nulls(tmp_path):
    db = _three_level(childless=True)
    out = tmp_path / "features.csv"
    write_features_csv(out, db, enumerate_aggs(db, 2), [1])
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[1] == ["a1", "0.0", "0.0", "", "", "", ""]
