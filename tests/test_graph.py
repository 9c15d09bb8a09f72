import numpy as np

from relgnn.graph import (
    FORWARD,
    REVERSE,
    SELF_LOOP,
    EdgeType,
    database_to_graph,
    edge_types,
    graph_stats,
    referenced_table,
)
from relgnn.rdb import load_database

from oracles import in_neighbors


def _edge_rows(graph, et):
    """(source table, destination table, source rows, destination rows) of one forward type's edges."""
    mask = graph.type_id == graph.types.index(et)
    dst_t = referenced_table(graph.db, et)
    return et.table, dst_t, graph.src[mask] - graph.offsets[et.table], graph.dst[mask] - graph.offsets[dst_t]


def test_patients_graph_counts(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "patients_small"))
    assert graph.num_nodes == 5
    assert len(graph.src) == 3
    et = EdgeType(1, 1, FORWARD)
    src_t, dst_t, src, dst = _edge_rows(graph, et)
    assert (src_t, dst_t) == (1, 0)
    assert list(src) == [0, 1, 2]
    assert list(dst) == [0, 0, 1]


def test_edge_types_are_canonical(fixtures_dir):
    db = load_database(fixtures_dir / "clinic")  # Patient, Visit (patient_id, doctor_id), Doctor
    forward = [EdgeType(1, 1, FORWARD), EdgeType(1, 2, FORWARD)]
    loops = [EdgeType(t, -1, SELF_LOOP) for t in range(3)]
    assert edge_types(db, reverse_edges=False) == sorted(forward + loops)
    assert edge_types(db) == sorted(forward + [et.paired_reverse() for et in forward] + loops)
    assert database_to_graph(db).types == forward
    assert [et.direction for et in edge_types(db)[2:6]] == [FORWARD, REVERSE, FORWARD, REVERSE]


def test_single_table_no_fk(fixtures_dir, tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id\na\nb\nc\n")
    graph = database_to_graph(load_database(tmp_path))
    assert graph.num_nodes == 3
    assert len(graph.src) == 0


def test_null_fk_drops_edge(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    # doctor_id is null on one visit of three
    _, _, src, dst = _edge_rows(graph, EdgeType(1, 2, FORWARD))
    assert len(src) == 2
    assert list(src) == [0, 2] and list(dst) == [0, 0]


def test_reverse_edges_are_the_in_lists(fixtures_dir):
    # reverse edges are not stored: each is a forward edge read from its destination's in-list
    graph = database_to_graph(load_database(fixtures_dir / "patients_small"))
    patients = graph.offsets[0] + np.arange(2)
    edge_ids, counts = graph.in_edges(patients)
    assert counts.tolist() == [2, 1]
    assert (graph.dst[edge_ids] - graph.offsets[0]).tolist() == [0, 0, 1]  # reverse sources: Patient rows
    assert (graph.src[edge_ids] - graph.offsets[1]).tolist() == [0, 1, 2]  # reverse destinations: Visit rows
    assert [(in_neighbors(graph, p) - graph.offsets[1]).tolist() for p in patients] == [[0, 1], [2]]
    stats = graph_stats(graph, reverse_edges=True)
    assert stats["edge_counts"] == {"Visit.patient_id:forward": 3, "Visit.patient_id:reverse": 3}
    assert stats["in_degree_histogram"] == graph_stats(graph)["in_degree_histogram"]  # forward edges only


def test_empty_graph_stats(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id\n")
    stats = graph_stats(database_to_graph(load_database(tmp_path)))
    assert stats["node_counts"] == {"T": 0}
    assert sum(stats["edge_counts"].values()) == 0
    assert stats["in_degree_histogram"] == {}


def test_patients_stats_counts(fixtures_dir):
    stats = graph_stats(database_to_graph(load_database(fixtures_dir / "patients_small")))
    assert stats["node_counts"] == {"Patient": 2, "Visit": 3}
    assert stats["edge_counts"] == {"Visit.patient_id:forward": 3}


def test_employee_chain_in_degree_histogram(fixtures_dir):
    # chain e3 -> e2 -> e1: forward in-degrees are [1, 1, 0]
    stats = graph_stats(database_to_graph(load_database(fixtures_dir / "employees")))
    assert stats["in_degree_histogram"] == {"0": 1, "1": 2}


def test_row_node_bijection_random_dbs(random_database):
    for seed in range(20):
        db = random_database(seed)
        graph = database_to_graph(db)
        assert np.diff(graph.offsets).tolist() == [t.nrows for t in db.tables]
        expected = sum(int((rows >= 0).sum()) for rows in db.fk_rows.values())
        assert len(graph.src) == expected
        for et in graph.types:
            src_t, dst_t, src, dst = _edge_rows(graph, et)
            ref_table, _ = db.tables[et.table].columns[et.column].kind.references
            assert src_t == et.table
            assert db.tables[dst_t].name == ref_table
            assert np.all((0 <= src) & (src < db.tables[src_t].nrows))
            assert np.all((0 <= dst) & (dst < db.tables[dst_t].nrows))
