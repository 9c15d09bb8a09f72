import numpy as np

from relgnn.graph import (
    FORWARD,
    REVERSE,
    EdgeType,
    add_reverse_edges,
    database_to_graph,
    graph_stats,
)
from relgnn.rdb import load_database


def test_patients_graph_counts(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "patients_small"))
    assert graph.num_nodes == 5
    assert graph.num_edges([FORWARD]) == 3
    et = EdgeType(1, 1, FORWARD)
    src_t, dst_t, src, dst = graph.edges[et]
    assert (src_t, dst_t) == (1, 0)
    assert list(src) == [0, 1, 2]
    assert list(dst) == [0, 0, 1]


def test_single_table_no_fk(fixtures_dir, tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id\na\nb\nc\n")
    graph = database_to_graph(load_database(tmp_path))
    assert graph.num_nodes == 3
    assert graph.num_edges() == 0


def test_null_fk_drops_edge(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "clinic"))
    # doctor_id is null on one visit of three
    _, _, src, dst = graph.edges[EdgeType(1, 2, FORWARD)]
    assert len(src) == 2
    assert list(src) == [0, 2] and list(dst) == [0, 0]


def test_reverse_edges_double_and_idempotent(fixtures_dir):
    graph = database_to_graph(load_database(fixtures_dir / "patients_small"))
    with_rev = add_reverse_edges(graph)
    assert with_rev.num_edges([FORWARD]) == 3
    assert with_rev.num_edges([REVERSE]) == 3
    rev = EdgeType(1, 1, REVERSE)
    src_t, dst_t, src, dst = with_rev.edges[rev]
    assert (src_t, dst_t) == (0, 1)
    assert list(src) == [0, 0, 1] and list(dst) == [0, 1, 2]
    again = add_reverse_edges(with_rev)
    assert again.num_edges() == with_rev.num_edges()


def test_empty_graph_stats(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"tables": [{"name": "T", "file": "T.csv", "columns": [{"name": "id", "kind": "primary_key"}]}]}'
    )
    (tmp_path / "T.csv").write_text("id\n")
    stats = graph_stats(database_to_graph(load_database(tmp_path)))
    assert stats.node_counts == {"T": 0}
    assert sum(stats.edge_counts.values()) == 0
    assert stats.in_degree_histogram == {}


def test_patients_stats_counts(fixtures_dir):
    stats = graph_stats(database_to_graph(load_database(fixtures_dir / "patients_small")))
    assert stats.node_counts == {"Patient": 2, "Visit": 3}
    assert stats.edge_counts == {"Visit.patient_id:forward": 3}
    assert "Patient: 2" in stats.render()
    assert '"Visit": 3' in stats.to_json()


def test_employee_chain_in_degree_histogram(fixtures_dir):
    # chain e3 -> e2 -> e1: forward in-degrees are [1, 1, 0]
    stats = graph_stats(database_to_graph(load_database(fixtures_dir / "employees")))
    assert stats.in_degree_histogram == {0: 1, 1: 2}


def test_row_node_bijection_random_dbs(random_database):
    for seed in range(20):
        db = random_database(seed)
        graph = database_to_graph(db)
        assert graph.node_counts == [t.nrows for t in db.tables]
        expected = sum(int((rows >= 0).sum()) for rows in db.fk_rows.values())
        assert graph.num_edges([FORWARD]) == expected
        for et, (src_t, dst_t, src, dst) in graph.edges.items():
            ref_table, _ = db.tables[et.table].columns[et.column].kind.references
            assert src_t == et.table
            assert db.tables[dst_t].name == ref_table
            assert np.all(src < db.tables[src_t].nrows)
            assert np.all(dst < db.tables[dst_t].nrows)
