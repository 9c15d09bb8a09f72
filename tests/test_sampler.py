import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _select_closure,
    closure_oracle,
    edge_type_once_oracle,
    reference_datapoint,
    reference_write_datapoints_jsonl,
)
from relgnn import sampler
from relgnn.graph import FORWARD, REVERSE, SELF_LOOP, EdgeType, database_to_graph
from relgnn.models import build_batch
from relgnn.rdb import Column, ColumnKind, Database, Table, load_database, target_labels, _resolve_foreign_keys
from relgnn.sampler import (
    DatapointStore,
    SizeCapError,
    _closures,
    batch_sample,
    rdb_to_graph,
    write_datapoints_jsonl,
)
from relgnn.synth import SynthSpec, generate


def _nodes(dp):
    """The store's nodes as original (table, row) ids."""
    return list(zip(dp.node_types.tolist(), dp.rows.tolist()))


def _node_set(dp):
    return set(_nodes(dp))


def _forward_multiset(dp):
    nodes = _nodes(dp)
    return sorted(((dp.types[k].table, dp.types[k].column), nodes[s], nodes[d])
                  for k, s, d in zip(dp.edge_type.tolist(), dp.src.tolist(), dp.dst.tolist()))


def _forward_edges(dp, et):
    """Local src and dst of the datapoint's forward edges of type `et`, in the datapoint's order."""
    of_type = dp.edge_type == dp.types.index(et)
    return dp.src[of_type], dp.dst[of_type]


_STORE_ARRAYS = ("node_types", "rows", "node_start", "src", "dst", "edge_type", "edge_start", "labels", "targets")


def _assert_same_store(got, want):
    """Every array of the two stores equal, dtypes and shapes included, and one `types` list."""
    assert got.types is want.types
    for field in _STORE_ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), field


def _batch_of(datapoints, db):
    """`build_batch` of the datapoints with featureless node blocks: its edges and node layout only."""
    tables = [(np.zeros((t.nrows, 0)), np.zeros((t.nrows, 0), dtype=np.int64)) for t in db.tables]
    return build_batch(datapoints, db, [], tables)


def test_single_table_target_is_alone(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": ['
        '{"name": "id", "kind": "primary_key"},'
        '{"name": "label", "kind": "categorical", "target": true}]}]}'
    )
    (tmp_path / "T.csv").write_text("id,label\na,1\nb,0\n")
    graph = database_to_graph(load_database(tmp_path))
    dp = rdb_to_graph(graph, (0, 0))
    assert _nodes(dp) == [(0, 0)]
    assert dp.targets.tolist() == [[0, 0]]
    assert dp.types == [] and len(dp.src) == len(dp.dst) == len(dp.edge_type) == 0
    assert list(_batch_of([dp], graph.db).edges) == [EdgeType(0, -1, SELF_LOOP)]


def test_clinic_target_p1_closure(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    dp = rdb_to_graph(graph, (0, 0))
    assert _nodes(dp) == [(0, 0), (1, 0), (1, 1), (2, 0)]  # p1, v1, v2, d1
    assert dp.labels.tolist() == [1]
    src, dst = _forward_edges(dp, EdgeType(1, 1, FORWARD))
    assert list(src) == [1, 2] and list(dst) == [0, 0]
    src, dst = _forward_edges(dp, EdgeType(1, 2, FORWARD))
    assert list(src) == [1] and list(dst) == [3]


def test_clinic_target_p2_closure(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    dp = rdb_to_graph(graph, (0, 1))
    assert _nodes(dp) == [(0, 1), (1, 2), (2, 0)]  # p2, v3, d1
    assert dp.labels.tolist() == [0]


def test_reverse_and_self_edges_rederived(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    dp = rdb_to_graph(graph, (0, 0))
    assert all(et.direction == FORWARD for et in dp.types)  # the datapoint holds forward edges only
    edges = _batch_of([dp], graph.db).edges
    fwd_src, fwd_dst = edges[EdgeType(1, 1, FORWARD)]
    rev_src, rev_dst = edges[EdgeType(1, 1, REVERSE)]
    assert np.array_equal(rev_src, fwd_dst) and np.array_equal(rev_dst, fwd_src)
    loops = [edges[et] for et in edges if et.direction == SELF_LOOP]
    assert sum(len(src) for src, _ in loops) == dp.num_nodes


def test_employee_chain_selects_everything(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "employees"))
    dp = rdb_to_graph(graph, (0, 0))
    assert _node_set(dp) == {(0, 0), (0, 1), (0, 2)}


def test_employee_chain_edge_type_once_stops_after_one_hop(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "employees"))
    dp = rdb_to_graph(graph, (0, 0), edge_type_once=True)
    assert _node_set(dp) == {(0, 0), (0, 1)}  # e2 joins, e3 does not


def test_clinic_edge_type_once_matches_unrestricted(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    full = rdb_to_graph(graph, (0, 0))
    once = rdb_to_graph(graph, (0, 0), edge_type_once=True)
    assert _node_set(once) == _node_set(full)
    assert _forward_multiset(once) == _forward_multiset(full)


def test_batch_sample_sizes_and_order(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    dps = batch_sample(graph, [0, 1])
    assert [dp.num_nodes for dp in dps] == [4, 3]
    assert dps.targets.tolist() == [[0, 0], [0, 1]]
    assert dps.labels.tolist() == [1, 0]


def test_batch_sample_empty_and_duplicates(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    assert len(batch_sample(graph, [])) == 0 and list(batch_sample(graph, [])) == []
    a, b = batch_sample(graph, [1, 1])
    assert _nodes(a) == _nodes(b) and a.types is b.types
    _assert_same_store(a, b)


@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_one_target_stores_are_slices_of_the_store(random_database, edge_type_once):
    for seed in range(100):
        db = random_database(seed + 17000, max_tables=5, max_rows=40)
        graph = database_to_graph(db)
        rows = list(range(db.tables[0].nrows))
        store = batch_sample(graph, rows + rows[:2], edge_type_once=edge_type_once)
        _assert_same_store(DatapointStore.concat(list(store)), store)
        for i in range(len(store)):
            _assert_same_store(store[i], store.take([i]))
            assert store[i].num_nodes == store.node_start[i + 1] - store.node_start[i]
        _assert_same_store(store[-1], store.take([len(store) - 1]))
        for out_of_range in (len(store), -len(store) - 1):
            with pytest.raises(IndexError):
                store[out_of_range]
        for row in rows:
            _assert_same_store(rdb_to_graph(graph, (0, row), edge_type_once=edge_type_once),
                               batch_sample(graph, [row], edge_type_once=edge_type_once)[0])


def test_each_target_reads_its_own_label(random_database):
    db = random_database(22, max_tables=4, max_rows=40)
    graph = database_to_graph(db)
    labels = target_labels(db)
    assert len(db.tables) == 4
    for ti, table in enumerate(db.tables):
        for row in range(table.nrows):
            dp = rdb_to_graph(graph, (ti, row))
            assert dp.labels.tolist() == [int(labels[row]) if ti == 0 else -1]
    assert batch_sample(graph, list(range(db.tables[0].nrows))).labels.tolist() == labels.tolist()
    # a database without a target column: every label is -1
    keys = [f"e{i}" for i in range(5)]
    table = Table("E", [
        Column("id", ColumnKind("primary_key"), False, keys),
        Column("boss", ColumnKind("foreign_key", ("E", "id")), False, [None] + keys[:-1]),
    ])
    db = Database([table], {}, [], [])
    _resolve_foreign_keys(db, strict=True)
    graph = database_to_graph(db)
    for row in range(5):
        assert rdb_to_graph(graph, (0, row)).labels.tolist() == [-1]


def _chain_db(n):
    keys = [f"e{i}" for i in range(n)]
    manager = [None] + keys[:-1]  # e_i reports to e_{i-1}
    labels = ["1"] * n
    table = Table("E", [
        Column("id", ColumnKind("primary_key"), False, keys),
        Column("boss", ColumnKind("foreign_key", ("E", "id")), False, manager),
        Column("label", ColumnKind("categorical"), True, labels),
    ])
    db = Database([table], {}, [], [(0, 2)])
    _resolve_foreign_keys(db, strict=True)
    return db


def test_size_cap_aborts(fixtures_dir):
    graph = database_to_graph(_chain_db(10))
    with pytest.raises(SizeCapError, match="target row 0"):
        rdb_to_graph(graph, (0, 0), size_cap=4)
    with pytest.raises(SizeCapError, match="target row 0"):
        batch_sample(graph, [0], size_cap=4)


def test_size_cap_aborts_edge_type_once(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    sizes = [dp.num_nodes for dp in batch_sample(graph, [0, 1], edge_type_once=True)]
    assert sizes == [4, 3]
    with pytest.raises(SizeCapError, match="4 > 3 \\(target row 0\\)"):
        batch_sample(graph, [0, 1], edge_type_once=True, size_cap=3)
    with pytest.raises(SizeCapError, match="target row 1"):
        batch_sample(graph, [1], edge_type_once=True, size_cap=2)
    assert [dp.num_nodes for dp in batch_sample(graph, [0, 1], edge_type_once=True, size_cap=4)] == sizes


def test_monotonicity_unreachable_table_is_inert(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")
    base = rdb_to_graph(database_to_graph(db), (0, 0))
    spare = Table("Spare", [Column("id", ColumnKind("primary_key"), False, ["s1", "s2"])])
    bigger = Database(db.tables + [spare], db.fk_rows, db.dangling, db.target_flags)
    grown = rdb_to_graph(database_to_graph(bigger), (0, 0))
    assert _nodes(grown) == _nodes(base)
    assert _forward_multiset(grown) == _forward_multiset(base)


def test_closure_matches_bruteforce_oracle(random_database):
    for seed in range(200):
        db = random_database(seed, max_tables=5, max_rows=40)
        graph = database_to_graph(db)
        rng = np.random.default_rng(seed)
        ti = int(rng.integers(0, len(db.tables)))
        ri = int(rng.integers(0, db.tables[ti].nrows))
        dp = rdb_to_graph(graph, (ti, ri))
        vs, induced = closure_oracle(db, (ti, ri))
        assert _node_set(dp) == vs
        assert _forward_multiset(dp) == sorted(induced)


def test_edge_type_once_matches_oracle_and_is_subset(random_database):
    for seed in range(200):
        db = random_database(seed + 5000, max_tables=5, max_rows=40)
        graph = database_to_graph(db)
        rng = np.random.default_rng(seed)
        ti = int(rng.integers(0, len(db.tables)))
        ri = int(rng.integers(0, db.tables[ti].nrows))
        restricted = rdb_to_graph(graph, (ti, ri), edge_type_once=True)
        assert _node_set(restricted) == edge_type_once_oracle(db, (ti, ri))
        full = rdb_to_graph(graph, (ti, ri))
        assert _node_set(restricted) <= _node_set(full)


def _assert_same_batch(got, want):
    """Every array of the two batches equal, dtypes and dict key order included."""
    assert (got.num_nodes, got.num_graphs) == (want.num_nodes, want.num_graphs)
    pairs = [(got.node_type, want.node_type), (got.graph_id, want.graph_id), (got.scatter, want.scatter),
             (got.labels, want.labels)]
    for name in ("type_rows", "dense", "cats", "edges"):
        got_d, want_d = getattr(got, name), getattr(want, name)
        assert list(got_d) == list(want_d), name
        for key in want_d:
            pairs += zip(got_d[key], want_d[key]) if name == "edges" else [(got_d[key], want_d[key])]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_same_datapoint(dp, ref, db, reverse_edges=True):
    """The datapoint's forward edges equal the reference's directly; its reverse edges and self loops,
    which the reference stores, equal those that `build_batch` derives for a batch of it alone."""
    nodes = _nodes(dp)
    assert nodes == ref.nodes
    assert dp.node_types.dtype == ref.node_types.dtype and np.array_equal(dp.node_types, ref.node_types)
    for field in _STORE_ARRAYS:
        assert getattr(dp, field).dtype == np.int64, field
    assert dp.types == [et for et in ref.edges if et.direction == FORWARD]
    assert np.all(np.diff(dp.edge_type) >= 0)  # one block per type, in `types` order
    for et in dp.types:
        for got, want in zip(_forward_edges(dp, et), ref.edges[et]):
            assert got.dtype == want.dtype and np.array_equal(got, want), et
    derived = _batch_of([dp], db).edges
    assert [et for et in derived if reverse_edges or et.direction != REVERSE] == sorted(ref.edges)
    for et, pair in ref.edges.items():
        for got, want in zip(derived[et], pair):
            assert got.dtype == want.dtype and np.array_equal(got, want), et
    label = -1 if ref.label is None else ref.label
    assert nodes[ref.target_local] == ref.provenance
    assert (dp.labels.tolist(), dp.targets.tolist()) == ([label], [list(ref.provenance)])


@pytest.mark.parametrize("reverse_edges", [True, False], ids=["reverse", "forward-only"])
@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_datapoints_equal_mask_based_reference(random_database, edge_type_once, reverse_edges):
    # the closure oracles compare sets; this pins every field, edge order included
    for seed in range(200):
        db = random_database(seed + 9000, max_tables=5, max_rows=40)
        graph = database_to_graph(db)
        labels = target_labels(db)
        rng, extra = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        rows = list(range(db.tables[0].nrows))
        rows += extra.choice(rows, size=3).tolist()  # duplicates
        store = batch_sample(graph, rows, edge_type_once=edge_type_once)
        assert len(store) == len(rows)
        refs = [reference_datapoint(graph, (0, row), edge_type_once=edge_type_once, reverse_edges=reverse_edges,
                                    label=int(labels[row])) for row in rows]
        for i, ref in enumerate(refs):
            _assert_same_datapoint(store[i], ref, db, reverse_edges)
        assert len(batch_sample(graph, [], edge_type_once=edge_type_once)) == 0
        # a batch gathered from the store equals the batch of its one-target stores, concatenated
        ids = extra.choice(len(store), size=min(len(store), 6)).tolist()
        _assert_same_batch(_batch_of(store.take(ids), db), _batch_of([store[i] for i in ids], db))
        # the first row whose closure exceeds the cap is named, with the count the reference stops at
        cap = max(ref.num_nodes for ref in refs) - 1
        if cap:
            row = next(row for row, ref in zip(rows, refs) if ref.num_nodes > cap)
            with pytest.raises(SizeCapError) as want:
                reference_datapoint(graph, (0, row), edge_type_once=edge_type_once, cap=cap)
            with pytest.raises(SizeCapError) as got:
                batch_sample(graph, rows, edge_type_once=edge_type_once, size_cap=cap)
            assert (got.value.target_row, got.value.selected, got.value.cap) == (row, want.value.selected, cap)
        ti = int(rng.integers(0, len(db.tables)))
        ri = int(rng.integers(0, db.tables[ti].nrows))
        ref = reference_datapoint(graph, (ti, ri), edge_type_once=edge_type_once, reverse_edges=reverse_edges,
                                  label=int(labels[ri]) if ti == 0 else None)
        _assert_same_datapoint(rdb_to_graph(graph, (ti, ri), edge_type_once=edge_type_once), ref, db, reverse_edges)
        if ref.num_nodes > 1:
            # one node short of the closure: both stop with the same count
            cap = ref.num_nodes - 1
            with pytest.raises(SizeCapError) as want:
                reference_datapoint(graph, (ti, ri), edge_type_once=edge_type_once, cap=cap)
            with pytest.raises(SizeCapError) as got:
                rdb_to_graph(graph, (ti, ri), size_cap=cap, edge_type_once=edge_type_once)
            assert (got.value.target_row, got.value.selected) == (ri, want.value.selected)


@pytest.mark.parametrize("narrow", [0, 10**9], ids=["array-rounds", "python-rounds"])
@pytest.mark.parametrize("chunk", [1, 3, sampler._CHUNK], ids=["chunk-1", "chunk-3", "chunk-default"])
@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_batched_closure_equals_per_target_reference(monkeypatch, random_database, edge_type_once, chunk, narrow):
    # a narrow width of 0 runs every round as array passes, a huge one every round key by key
    monkeypatch.setattr(sampler, "_CHUNK", chunk)
    monkeypatch.setattr(sampler, "_NARROW", narrow)
    for seed in range(100):
        db = random_database(seed + 17000, max_tables=5, max_rows=60)
        graph = database_to_graph(db)
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, n, size=25)  # any table's rows, duplicates included
        tables = np.searchsorted(graph.offsets, starts, side="right") - 1
        targets = np.stack([tables, starts - graph.offsets[tables]], axis=1)
        selected = np.zeros(n, dtype=bool)
        want = [_select_closure(graph, selected, start, 10**9, edge_type_once) for start in starts.tolist()]
        keys = _closures(graph, targets, edge_type_once, 10**9)
        owner = keys // n
        assert np.array_equal(owner, np.repeat(np.arange(len(starts)), [len(ids) for ids in want])), seed
        assert np.array_equal(keys - owner * n, np.concatenate(want)), seed
        # the first target over the cap is named, with the count its per-target closure stops at
        sizes = [len(ids) for ids in want]
        for cap in sorted({0, 1, min(sizes), max(sizes) - 1, int(rng.integers(1, max(sizes) + 1))}):
            expected = None
            for start, row in zip(starts.tolist(), targets[:, 1].tolist()):
                try:
                    _select_closure(graph, selected, start, cap, edge_type_once)
                except SizeCapError as exc:
                    expected = (row, exc.selected)
                    break
            if expected is None:
                assert np.array_equal(_closures(graph, targets, edge_type_once, cap), keys)
                continue
            with pytest.raises(SizeCapError) as got:
                _closures(graph, targets, edge_type_once, cap)
            assert (got.value.target_row, got.value.selected, got.value.cap) == (*expected, cap), (seed, cap)


@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_size_cap_leaves_the_scratch_arrays_clean(monkeypatch, fixtures_dir, edge_type_once):
    flags = []

    class Recorded(sampler._Lockstep):
        def __init__(self, graph, starts, cap, edge_type_once, held):
            assert not held.any()  # each chunk finds the node flags clear
            flags.append(held)
            super().__init__(graph, starts, cap, edge_type_once, held)

    monkeypatch.setattr(sampler, "_Lockstep", Recorded)
    monkeypatch.setattr(sampler, "_CHUNK", 1)  # a chunk per target, all of them on one flag array
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    # p1's ancestors (p1, v1, v2) fit, its descendant d1 does not
    with pytest.raises(SizeCapError, match="4 > 3"):
        batch_sample(graph, [0], edge_type_once=edge_type_once, size_cap=3)
    flags.clear()
    rows = [1, 0, 1, 0]
    store = batch_sample(graph, rows, edge_type_once=edge_type_once)
    assert len(flags) == len(rows) and all(held is flags[0] for held in flags) and not flags[0].any()
    for dp, row in zip(store, rows):
        assert _nodes(dp) == reference_datapoint(graph, (0, row), edge_type_once=edge_type_once).nodes


def _targets_with_unrelated_rows(n_targets, n_unrelated):
    """Targets with three children each, and a self-referencing table that no target reaches."""
    keys = [f"t{i}" for i in range(n_targets)]
    targets = Table("T", [
        Column("id", ColumnKind("primary_key"), False, keys),
        Column("label", ColumnKind("categorical"), True, ["1", "0"] * (n_targets // 2) + ["1"] * (n_targets % 2)),
    ])
    children = Table("C", [
        Column("id", ColumnKind("primary_key"), False, [f"c{i}" for i in range(3 * n_targets)]),
        Column("t", ColumnKind("foreign_key", ("T", "id")), False, [keys[i // 3] for i in range(3 * n_targets)]),
    ])
    other_keys = [f"o{i}" for i in range(n_unrelated)]
    other = Table("O", [
        Column("id", ColumnKind("primary_key"), False, other_keys),
        Column("prev", ColumnKind("foreign_key", ("O", "id")), False, [None] + other_keys[:-1]),
    ])
    db = Database([targets, children, other], {}, [], [(0, 1)])
    _resolve_foreign_keys(db, strict=True)
    return db


@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_sampling_cost_is_independent_of_graph_size(edge_type_once):
    rows = list(range(50))
    small = 50 * 4  # rows of the database without the unrelated table
    graphs = [database_to_graph(_targets_with_unrelated_rows(50, n)) for n in (1, 500 * small)]
    # best of 7 rounds; every round times both graphs in turn
    times = [float("inf")] * len(graphs)
    for _ in range(7):
        for i, graph in enumerate(graphs):
            times[i] = min(times[i], _timed(lambda: batch_sample(graph, rows, edge_type_once=edge_type_once)))
    assert times[1] <= 3.0 * times[0], times


def test_jsonl_output_format(fixtures_dir, tmp_path):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    dps = batch_sample(graph, [0])
    path = tmp_path / "dp.jsonl"
    write_datapoints_jsonl(path, dps, graph, True)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["target"] == [0, 0]
    assert record["label"] == 1
    assert record["nodes"] == [
        {"id": [0, 0], "type": "Patient"},
        {"id": [1, 0], "type": "Visit"},
        {"id": [1, 1], "type": "Visit"},
        {"id": [2, 0], "type": "Doctor"},
    ]
    forward = [e for e in record["edges"] if e["type"] == "Visit.patient_id:forward"]
    assert {tuple(e["src"]) for e in forward} == {(1, 0), (1, 1)}
    assert all(e["dst"] == [0, 0] for e in forward)
    assert any(e["type"] == "Patient:self" for e in record["edges"])
    reverse = [e for e in record["edges"] if e["type"] == "Visit.patient_id:reverse"]
    assert [(e["src"], e["dst"]) for e in reverse] == [(e["dst"], e["src"]) for e in forward]
    write_datapoints_jsonl(path, dps, graph, False)
    (bare,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert bare["edges"] == [e for e in record["edges"] if not e["type"].endswith(":reverse")]


# names that JSON must escape: a quote, a backslash, non-ASCII, a control character, and format syntax
_AWKWARD = 'q"b\\é\x01%s{}'


@pytest.mark.parametrize("reverse_edges", [True, False], ids=["reverse", "forward-only"])
@pytest.mark.parametrize("edge_type_once", [False, True], ids=["closure", "edge-type-once"])
def test_writer_matches_json_dumps_reference(random_database, tmp_path, edge_type_once, reverse_edges):
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    for seed in range(200):
        db = random_database(seed + 13000, max_tables=5, max_rows=40)
        graph = database_to_graph(db)
        store = batch_sample(graph, list(range(db.tables[0].nrows)), edge_type_once=edge_type_once)
        if seed % 2:  # names are read only where they are written, so the graph built above stays valid
            for ti, table in enumerate(db.tables):
                table.name = f"{_AWKWARD}{ti}"
                for column in table.columns:
                    column.name = f"{column.name}{_AWKWARD}"
        write_datapoints_jsonl(got, store, graph, reverse_edges)
        reference_write_datapoints_jsonl(want, list(store), graph, reverse_edges)
        assert got.read_bytes() == want.read_bytes(), seed
        # a datapoint of a row outside the target table has no label
        ti = len(db.tables) - 1
        dp = rdb_to_graph(graph, (ti, db.tables[ti].nrows - 1), edge_type_once=edge_type_once)
        assert (dp.labels[0] < 0) == (ti != 0)
        write_datapoints_jsonl(got, DatapointStore.concat([dp, store[0]]), graph, reverse_edges)
        reference_write_datapoints_jsonl(want, [dp, store[0]], graph, reverse_edges)
        assert got.read_bytes() == want.read_bytes(), seed


def test_closure_time_scales_linearly():
    sizes = [1000, 10000, 100000]
    graphs = [database_to_graph(_chain_db(n)) for n in sizes]
    target = np.zeros((1, 2), dtype=np.int64)  # the chain's head: its ancestors are every row, one level a round
    # best of 7 rounds; every round times each size once, so that load from
    # other processes on the host falls on all sizes alike
    times = [float("inf")] * len(sizes)
    for _ in range(7):
        for i, graph in enumerate(graphs):
            times[i] = min(times[i], _timed(lambda: _closures(graph, target, False, 10**9)))
    # fit time = c * n through the origin, in log space so each size weighs alike; c > 0, so every
    # prediction is positive and a per-node cost that grows with n pushes the sizes apart
    per_node = np.asarray(times) / np.asarray(sizes, dtype=float)
    c = float(np.exp(np.mean(np.log(per_node))))
    for n, t in zip(sizes, times):
        predicted = c * n
        assert max(predicted / t, t / predicted) <= 2.0, (sizes, times)


_COLD_SAMPLE = """
import sys
from relgnn.graph import database_to_graph
from relgnn.rdb import load_database, remove_target_column
from relgnn.sampler import batch_sample, write_datapoints_jsonl
graph = database_to_graph(remove_target_column(load_database(sys.argv[1])))
store = batch_sample(graph, list(range(graph.db.tables[graph.db.target[0]].nrows)))
write_datapoints_jsonl(sys.argv[2], store, graph, True)
print("numpy.ma" in sys.modules)
"""


def test_cold_sample_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a cold process about 15 ms to import; np.unique's first call imports it. 300 targets
    # run array rounds, and the narrow rounds of their last levels in plain Python.
    generate(SynthSpec(0, 300, template="three_level", signal="grandchild_aggregate", children=(1, 4)), tmp_path / "db")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(sampler.__file__).parents[1]),
                                                                     os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-1]

    if run("-c", "import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("a bare `import numpy` loads numpy.ma here")
    assert run("-c", _COLD_SAMPLE, str(tmp_path / "db"), str(tmp_path / "dp.jsonl")) == "False"
    assert (tmp_path / "dp.jsonl").read_text(encoding="utf-8").count("\n") == 300


def _timed(fn):
    """CPU seconds of one call, with the garbage collector off as in `timeit`."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        fn()
        return time.process_time() - start
    finally:
        if gc_was_enabled:
            gc.enable()
