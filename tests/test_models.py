from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import reference_encode_row
from relgnn.encode import fit_encoders
from relgnn.graph import FORWARD, REVERSE, SELF_LOOP, EdgeType, database_to_graph
from relgnn.models import (
    VARIANTS,
    GraphBatch,
    GraphSchema,
    Model,
    ModelConfig,
    _et_key,
    build_batch,
    encode_tables,
)
from relgnn.optim import AdamW
from relgnn.rdb import load_database, remove_target_column
from relgnn.sampler import DatapointStore, batch_sample
from relgnn.tensor import Tensor, gradcheck

FIXTURES = Path(__file__).parent / "fixtures"


def _all_rows(db):
    return {t: list(range(db.tables[t].nrows)) for t in range(len(db.tables))}


def _setup(db, target_rows):
    graph = database_to_graph(db)
    dps = batch_sample(graph, target_rows)
    encoders = fit_encoders(db, _all_rows(db))
    schema = GraphSchema.from_database(db, encoders)
    batch = build_batch(dps, db, encoders)
    return SimpleNamespace(db=db, dps=dps, encoders=encoders, schema=schema, batch=batch)


@pytest.fixture(scope="module")
def clinic():
    return _setup(remove_target_column(load_database(FIXTURES / "clinic")), [0, 1])


def _toy_batch(num_nodes, edges, node_type=None, num_graphs=1, graph_id=None):
    nt = np.zeros(num_nodes, dtype=np.int64) if node_type is None else np.asarray(node_type, dtype=np.int64)
    types = sorted(set(int(t) for t in nt))
    type_rows = {t: np.nonzero(nt == t)[0].astype(np.int64) for t in types}
    scatter = np.empty(num_nodes, dtype=np.int64)
    cursor = 0
    for t in types:
        scatter[type_rows[t]] = np.arange(cursor, cursor + len(type_rows[t]))
        cursor += len(type_rows[t])
    gid = np.zeros(num_nodes, dtype=np.int64) if graph_id is None else np.asarray(graph_id, dtype=np.int64)
    return GraphBatch(
        num_nodes, num_graphs, nt, gid, type_rows,
        {t: np.zeros((len(type_rows[t]), 0)) for t in types},
        {t: np.zeros((len(type_rows[t]), 0), dtype=np.int64) for t in types},
        scatter, edges, np.zeros(num_graphs, dtype=np.int64),
    )


def _toy_schema(width=2, edge_types=None):
    ets = edge_types or [EdgeType(0, 0, FORWARD), EdgeType(0, -1, SELF_LOOP)]
    return GraphSchema([width], [[]], sorted(ets))


def _shuffled(dp, rng):
    """The one-target store `dp` with its nodes in a random order."""
    perm = rng.permutation(dp.num_nodes)
    inv = np.empty(dp.num_nodes, dtype=np.int64)
    inv[perm] = np.arange(dp.num_nodes)
    return DatapointStore(dp.node_types[perm], dp.rows[perm], dp.node_start, inv[dp.src], inv[dp.dst], dp.edge_type,
                          dp.edge_start, dp.labels, dp.targets, dp.types)


def _tie_er_params(er, homo):
    n_types = len(er.schema.input_widths)
    for i in range(homo.config.rounds):
        variant = homo.config.variant
        if variant == "gcn":
            for et in er.schema.edge_types:
                er.params[f"layer{i}/{_et_key(et)}/W"].data = homo.params[f"layer{i}/W"].data.copy()
            er.params[f"layer{i}/bias_table"].data = np.tile(homo.params[f"layer{i}/b"].data, (n_types, 1))
        elif variant == "gin":
            er.params[f"layer{i}/eps_table"].data = np.full((n_types, 1), float(homo.params[f"layer{i}/eps"].data))
            for t in range(n_types):
                for nm in ("W1", "b1", "W2", "b2"):
                    er.params[f"layer{i}/nt{t}/{nm}"].data = homo.params[f"layer{i}/{nm}"].data.copy()
        elif variant == "gat":
            for head in range(homo.config.heads):
                for et in er.schema.edge_types:
                    for nm in ("W", "a1", "a2"):
                        er.params[f"layer{i}/h{head}/{_et_key(et)}/{nm}"].data = (
                            homo.params[f"layer{i}/h{head}/{nm}"].data.copy())
            er.params[f"layer{i}/bias_table"].data = np.tile(homo.params[f"layer{i}/b"].data, (n_types, 1))


# ---------------------------------------------------------------------------
# config and schema


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig("resnet")
    with pytest.raises(ValueError):
        ModelConfig("gcn", hidden=0)
    with pytest.raises(ValueError):
        ModelConfig("gat", hidden=5, heads=2)
    with pytest.raises(ValueError, match="message-passing variants need rounds >= 1"):
        ModelConfig("gcn", rounds=0)


def test_default_rounds():
    assert ModelConfig("gcn").rounds == 1
    assert ModelConfig("ergcn").rounds == 1
    for v in ("gin", "gat", "ergin", "ergat"):
        assert ModelConfig(v).rounds == 2
    assert ModelConfig("poolmlp").rounds == 0
    assert ModelConfig("gin", rounds=3).rounds == 3


def test_schema_from_clinic(clinic):
    assert clinic.schema.input_widths == [2, 2, 1]
    assert clinic.schema.cat_specs[0] == [] and clinic.schema.cat_specs[1] == []
    assert clinic.schema.cat_specs[2] == [(1, 2, 1)]  # specialty: 1 token + null slot, dim 1
    assert len(clinic.schema.edge_types) == 7  # 2 FK columns forward+reverse, 3 self loops
    no_rev = GraphSchema.from_database(clinic.db, clinic.encoders, reverse_edges=False)
    assert len(no_rev.edge_types) == 5


# Parameter names seed their initial values and key the checkpoint, so they are pinned.
_PINNED_SHARED = [
    ("emb/t2c1", (2, 1)), ("init/t0/W1", (2, 8)), ("init/t0/W2", (8, 8)), ("init/t0/b1", (8,)),
    ("init/t0/b2", (8,)), ("init/t1/W1", (2, 8)), ("init/t1/W2", (8, 8)), ("init/t1/b1", (8,)),
    ("init/t1/b2", (8,)), ("init/t2/W1", (1, 4)), ("init/t2/W2", (4, 8)), ("init/t2/b1", (4,)),
    ("init/t2/b2", (8,)), ("readout/gate_W", (8, 8)), ("readout/gate_b", (8,)), ("readout/out_W", (8, 2)),
    ("readout/out_b", (2,)), ("readout/proj_W", (8, 8)), ("readout/proj_b", (8,)),
]
_PINNED_LAYERS = {
    "gcn": [
        ("layer0/W", (8, 8)), ("layer0/b", (8,)),
    ],
    "gin": [
        ("layer0/W1", (8, 8)), ("layer0/W2", (8, 8)), ("layer0/b1", (8,)), ("layer0/b2", (8,)),
        ("layer0/eps", ()), ("layer1/W1", (8, 8)), ("layer1/W2", (8, 8)), ("layer1/b1", (8,)),
        ("layer1/b2", (8,)), ("layer1/eps", ()),
    ],
    "gat": [
        ("layer0/b", (8,)), ("layer0/h0/W", (8, 8)), ("layer0/h0/a1", (8, 1)), ("layer0/h0/a2", (8, 1)),
        ("layer1/b", (8,)), ("layer1/h0/W", (8, 8)), ("layer1/h0/a1", (8, 1)), ("layer1/h0/a2", (8, 1)),
    ],
    "ergcn": [
        ("layer0/bias_table", (3, 8)), ("layer0/et0_-1_self_loop/W", (8, 8)),
        ("layer0/et1_-1_self_loop/W", (8, 8)), ("layer0/et1_1_forward/W", (8, 8)),
        ("layer0/et1_1_reverse/W", (8, 8)), ("layer0/et1_2_forward/W", (8, 8)),
        ("layer0/et1_2_reverse/W", (8, 8)), ("layer0/et2_-1_self_loop/W", (8, 8)),
    ],
    "ergin": [
        ("layer0/eps_table", (3, 1)), ("layer0/nt0/W1", (8, 8)), ("layer0/nt0/W2", (8, 8)),
        ("layer0/nt0/b1", (8,)), ("layer0/nt0/b2", (8,)), ("layer0/nt1/W1", (8, 8)), ("layer0/nt1/W2", (8, 8)),
        ("layer0/nt1/b1", (8,)), ("layer0/nt1/b2", (8,)), ("layer0/nt2/W1", (8, 8)), ("layer0/nt2/W2", (8, 8)),
        ("layer0/nt2/b1", (8,)), ("layer0/nt2/b2", (8,)), ("layer1/eps_table", (3, 1)),
        ("layer1/nt0/W1", (8, 8)), ("layer1/nt0/W2", (8, 8)), ("layer1/nt0/b1", (8,)), ("layer1/nt0/b2", (8,)),
        ("layer1/nt1/W1", (8, 8)), ("layer1/nt1/W2", (8, 8)), ("layer1/nt1/b1", (8,)), ("layer1/nt1/b2", (8,)),
        ("layer1/nt2/W1", (8, 8)), ("layer1/nt2/W2", (8, 8)), ("layer1/nt2/b1", (8,)), ("layer1/nt2/b2", (8,)),
    ],
    "ergat": [
        ("layer0/bias_table", (3, 8)), ("layer0/h0/et0_-1_self_loop/W", (8, 8)),
        ("layer0/h0/et0_-1_self_loop/a1", (8, 1)), ("layer0/h0/et0_-1_self_loop/a2", (8, 1)),
        ("layer0/h0/et1_-1_self_loop/W", (8, 8)), ("layer0/h0/et1_-1_self_loop/a1", (8, 1)),
        ("layer0/h0/et1_-1_self_loop/a2", (8, 1)), ("layer0/h0/et1_1_forward/W", (8, 8)),
        ("layer0/h0/et1_1_forward/a1", (8, 1)), ("layer0/h0/et1_1_forward/a2", (8, 1)),
        ("layer0/h0/et1_1_reverse/W", (8, 8)), ("layer0/h0/et1_1_reverse/a1", (8, 1)),
        ("layer0/h0/et1_1_reverse/a2", (8, 1)), ("layer0/h0/et1_2_forward/W", (8, 8)),
        ("layer0/h0/et1_2_forward/a1", (8, 1)), ("layer0/h0/et1_2_forward/a2", (8, 1)),
        ("layer0/h0/et1_2_reverse/W", (8, 8)), ("layer0/h0/et1_2_reverse/a1", (8, 1)),
        ("layer0/h0/et1_2_reverse/a2", (8, 1)), ("layer0/h0/et2_-1_self_loop/W", (8, 8)),
        ("layer0/h0/et2_-1_self_loop/a1", (8, 1)), ("layer0/h0/et2_-1_self_loop/a2", (8, 1)),
        ("layer1/bias_table", (3, 8)), ("layer1/h0/et0_-1_self_loop/W", (8, 8)),
        ("layer1/h0/et0_-1_self_loop/a1", (8, 1)), ("layer1/h0/et0_-1_self_loop/a2", (8, 1)),
        ("layer1/h0/et1_-1_self_loop/W", (8, 8)), ("layer1/h0/et1_-1_self_loop/a1", (8, 1)),
        ("layer1/h0/et1_-1_self_loop/a2", (8, 1)), ("layer1/h0/et1_1_forward/W", (8, 8)),
        ("layer1/h0/et1_1_forward/a1", (8, 1)), ("layer1/h0/et1_1_forward/a2", (8, 1)),
        ("layer1/h0/et1_1_reverse/W", (8, 8)), ("layer1/h0/et1_1_reverse/a1", (8, 1)),
        ("layer1/h0/et1_1_reverse/a2", (8, 1)), ("layer1/h0/et1_2_forward/W", (8, 8)),
        ("layer1/h0/et1_2_forward/a1", (8, 1)), ("layer1/h0/et1_2_forward/a2", (8, 1)),
        ("layer1/h0/et1_2_reverse/W", (8, 8)), ("layer1/h0/et1_2_reverse/a1", (8, 1)),
        ("layer1/h0/et1_2_reverse/a2", (8, 1)), ("layer1/h0/et2_-1_self_loop/W", (8, 8)),
        ("layer1/h0/et2_-1_self_loop/a1", (8, 1)), ("layer1/h0/et2_-1_self_loop/a2", (8, 1)),
    ],
}
_PINNED_POOLMLP = [
    ("emb/t2c1", (2, 1)), ("init/t0/W1", (2, 8)), ("init/t0/W2", (8, 8)), ("init/t0/b1", (8,)),
    ("init/t0/b2", (8,)), ("init/t1/W1", (2, 8)), ("init/t1/W2", (8, 8)), ("init/t1/b1", (8,)),
    ("init/t1/b2", (8,)), ("init/t2/W1", (1, 4)), ("init/t2/W2", (4, 8)), ("init/t2/b1", (4,)),
    ("init/t2/b2", (8,)), ("pool/W1", (8, 8)), ("pool/W2", (8, 2)), ("pool/b1", (8,)), ("pool/b2", (2,)),
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_names_and_shapes_are_pinned(clinic, variant):
    model = Model(ModelConfig(variant, hidden=8), clinic.schema)
    expected = _PINNED_POOLMLP if variant == "poolmlp" else sorted(_PINNED_SHARED + _PINNED_LAYERS[variant])
    assert sorted((name, tuple(t.shape)) for name, t in model.params.items()) == expected


# ---------------------------------------------------------------------------
# batch assembly


def test_build_batch_structure(clinic):
    b = clinic.batch
    assert b.num_nodes == 7 and b.num_graphs == 2
    assert list(b.node_type) == [0, 1, 1, 2, 0, 1, 2]
    assert list(b.graph_id) == [0, 0, 0, 0, 1, 1, 1]
    assert list(b.labels) == [1, 0]
    assert list(b.type_rows[0]) == [0, 4]
    assert list(b.type_rows[1]) == [1, 2, 5]
    assert list(b.type_rows[2]) == [3, 6]
    order = np.concatenate(list(b.type_rows.values()))
    assert list(b.scatter[order]) == list(range(7))
    src, dst = b.edges[EdgeType(1, 1, FORWARD)]
    assert list(src) == [1, 2, 5] and list(dst) == [0, 0, 4]
    src, dst = b.edges[EdgeType(1, 2, FORWARD)]
    assert list(src) == [1, 5] and list(dst) == [3, 6]
    src, dst = b.edges[EdgeType(0, -1, SELF_LOOP)]
    assert list(src) == [0, 4] and list(dst) == [0, 4]
    assert b.dense[0].shape == (2, 2) and b.dense[1].shape == (3, 2)
    assert b.dense[2].shape[0] == 2 and b.cats[2].shape == (2, 1)


def test_build_batch_rows_match_the_cell_by_cell_reference(clinic, random_database):
    # each node's features are its table row's, encoded cell by cell, whether or not the tables are given
    cases = [(clinic.db, clinic.dps, clinic.encoders)]
    for seed in range(20):
        db = remove_target_column(random_database(700 + seed, max_tables=4, max_rows=40))
        graph = database_to_graph(db)
        dps = batch_sample(graph, list(range(db.tables[db.target[0]].nrows)))
        cases.append((db, dps, fit_encoders(db, {t: list(range(0, tb.nrows, 2)) for t, tb in enumerate(db.tables)})))
    for db, dps, encoders in cases:
        tables = encode_tables(db, encoders)
        assert [d.shape[0] for d, _ in tables] == [t.nrows for t in db.tables]
        for lo in range(0, len(dps), 3):
            store = dps.take(range(len(dps))[lo:lo + 3])
            for batch in (build_batch(store, db, encoders, tables), build_batch(store, db, encoders)):
                assert sorted(batch.type_rows) == sorted(set(store.node_types.tolist()))
                for t, positions in batch.type_rows.items():
                    assert batch.dense[t].dtype == np.float64 and batch.cats[t].dtype == np.int64
                    assert len(batch.dense[t]) == len(batch.cats[t]) == len(positions)
                    for k, row in enumerate(store.rows[positions].tolist()):
                        want_dense, want_cats = reference_encode_row(db, t, row, encoders[t])
                        assert batch.dense[t][k].tobytes() == want_dense.tobytes(), (t, row)
                        assert batch.cats[t][k].tobytes() == want_cats.tobytes(), (t, row)


def test_build_batch_empty():
    with pytest.raises(ValueError):
        build_batch([], None, [])


# ---------------------------------------------------------------------------
# initial hidden state


def test_init_hidden_shapes_and_shared_rows(clinic):
    model = Model(ModelConfig("gcn", hidden=8), clinic.schema, seed=3)
    h = model._init_hidden(clinic.batch)
    assert h.shape == (7, 8)
    # the same doctor row appears in both datapoints: identical input, identical state
    assert np.array_equal(h.data[3], h.data[6])
    assert not np.array_equal(h.data[0], h.data[4])


def test_init_mlp_hidden_is_four_times_input():
    schema = GraphSchema([130], [[]], [EdgeType(0, -1, SELF_LOOP)])
    model = Model(ModelConfig("gcn", hidden=32), schema)
    assert model.params["init/t0/W1"].shape == (130, 520)
    assert model.params["init/t0/W2"].shape == (520, 32)


def test_init_featureless_type_uses_learned_constant():
    schema = GraphSchema([0], [[]], [EdgeType(0, -1, SELF_LOOP)])
    model = Model(ModelConfig("gcn", hidden=4), schema, seed=1)
    model.params["init/t0/const"].data = np.array([[1.0, -2.0, 0.5, 3.0]])
    batch = _toy_batch(3, {EdgeType(0, -1, SELF_LOOP): (np.arange(3), np.arange(3))})
    h = model._init_hidden(batch)
    assert np.array_equal(h.data, np.tile([[1.0, -2.0, 0.5, 3.0]], (3, 1)))


# ---------------------------------------------------------------------------
# layer goldens


def test_gcn_mutual_pair_golden():
    schema = _toy_schema()
    model = Model(ModelConfig("gcn", hidden=2), schema)
    model.params["layer0/W"].data = np.eye(2)
    batch = _toy_batch(2, {
        EdgeType(0, 0, FORWARD): (np.array([0, 1]), np.array([1, 0])),
        EdgeType(0, -1, SELF_LOOP): (np.array([0, 1]), np.array([0, 1])),
    })
    out = model._gcn_layer(0, Tensor(np.eye(2)), batch, model._plan(batch))
    # both degrees are 2, every coefficient is 1/2
    assert np.allclose(out.data, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12, rtol=0)


def test_gcn_isolated_node_keeps_relu_of_self():
    schema = _toy_schema()
    model = Model(ModelConfig("gcn", hidden=2), schema)
    model.params["layer0/W"].data = np.eye(2)
    batch = _toy_batch(1, {EdgeType(0, -1, SELF_LOOP): (np.array([0]), np.array([0]))})
    out = model._gcn_layer(0, Tensor(np.array([[-1.0, 2.0]])), batch, model._plan(batch))
    assert np.array_equal(out.data, np.array([[0.0, 2.0]]))


def _identity_gin_mlp(model, layer=0):
    model.params[f"layer{layer}/W1"].data = np.eye(2)
    model.params[f"layer{layer}/W2"].data = np.eye(2)


def test_gin_neighbor_sum_golden():
    model = Model(ModelConfig("gin", hidden=2, rounds=1), _toy_schema())
    _identity_gin_mlp(model)
    batch = _toy_batch(3, {
        EdgeType(0, 0, FORWARD): (np.array([1, 2]), np.array([0, 0])),
        EdgeType(0, -1, SELF_LOOP): (np.arange(3), np.arange(3)),
    })
    h = Tensor(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    out = model._gin_layer(0, h, batch, model._plan(batch))
    # self loops are excluded from the neighbor sum; eps=0 keeps the own state once
    assert np.array_equal(out.data, np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))


def test_gin_eps_minus_one_cancels_self():
    model = Model(ModelConfig("gin", hidden=2, rounds=1, gin_eps=-1.0), _toy_schema())
    _identity_gin_mlp(model)
    batch = _toy_batch(3, {
        EdgeType(0, 0, FORWARD): (np.array([1, 2]), np.array([0, 0])),
        EdgeType(0, -1, SELF_LOOP): (np.arange(3), np.arange(3)),
    })
    h = Tensor(np.array([[2.0, -3.0], [1.0, 0.0], [0.0, 1.0]]))
    out = model._gin_layer(0, h, batch, model._plan(batch))
    assert np.array_equal(out.data[0], np.array([1.0, 1.0]))  # own state dropped exactly
    assert np.array_equal(out.data[1], np.array([0.0, 0.0]))  # no in-neighbors, nothing left


def test_gat_self_loop_only_attention_is_one():
    model = Model(ModelConfig("gat", hidden=2, rounds=1), _toy_schema())
    batch = _toy_batch(1, {EdgeType(0, -1, SELF_LOOP): (np.array([0]), np.array([0]))})
    h = np.array([[0.3, -0.7]])
    W = model.params["layer0/h0/W"].data
    expected = 1.0 / (1.0 + np.exp(-(h @ W)))
    out = model._gat_layer(0, Tensor(h), batch, model._plan(batch))
    assert np.allclose(out.data, expected, atol=1e-15)
    # with a single in-edge the softmax weight is exactly 1, whatever the scores are
    model.params["layer0/h0/a1"].data[:] = 7.0
    model.params["layer0/h0/a2"].data[:] = -3.0
    out2 = model._gat_layer(0, Tensor(h), batch, model._plan(batch))
    assert np.array_equal(out2.data, out.data)


def test_gat_equal_logits_split_attention_evenly():
    model = Model(ModelConfig("gat", hidden=2, rounds=1), _toy_schema())
    batch = _toy_batch(2, {
        EdgeType(0, 0, FORWARD): (np.array([0, 1]), np.array([1, 0])),
        EdgeType(0, -1, SELF_LOOP): (np.array([0, 1]), np.array([0, 1])),
    })
    h = np.array([[0.5, -1.0], [0.5, -1.0]])  # identical states force equal logits
    W = model.params["layer0/h0/W"].data
    expected = 1.0 / (1.0 + np.exp(-(h @ W)))  # 0.5*y + 0.5*y = y
    out = model._gat_layer(0, Tensor(h), batch, model._plan(batch))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_gat_multi_head_output_width(clinic):
    model = Model(ModelConfig("gat", hidden=4, heads=2), clinic.schema, seed=4)
    out = model.forward(clinic.batch)
    assert out.shape == (2, 2)


def test_readout_zero_hidden_gives_output_bias(clinic):
    model = Model(ModelConfig("gcn", hidden=4), clinic.schema)
    model.params["readout/out_b"].data = np.array([0.7, -0.2])
    logits = model._readout(Tensor(np.zeros((7, 4))), clinic.batch)
    assert np.array_equal(logits.data, np.tile([[0.7, -0.2]], (2, 1)))


# ---------------------------------------------------------------------------
# pooling baseline


def test_poolmlp_single_node_mean_is_state(clinic):
    dp = clinic.dps[0]
    none = np.zeros(0, dtype=np.int64)
    single = DatapointStore(dp.node_types[:1], dp.rows[:1], np.array([0, 1]), none, none, none, np.array([0, 0]),
                            dp.labels, dp.targets, dp.types)
    model = Model(ModelConfig("poolmlp", hidden=8, dropout=0.0), clinic.schema, seed=6)
    batch = build_batch([single], clinic.db, clinic.encoders)
    h = model._init_hidden(batch)
    from relgnn.tensor import segment_mean
    mean = segment_mean(h, batch.graph_id, batch.num_graphs)
    assert np.array_equal(mean.data[0], h.data[0])


def test_poolmlp_duplicated_nodes_leave_mean_unchanged(clinic):
    dp = clinic.dps[0]
    doubled = DatapointStore(np.concatenate([dp.node_types, dp.node_types]), np.concatenate([dp.rows, dp.rows]),
                             dp.node_start * 2, dp.src, dp.dst, dp.edge_type, dp.edge_start, dp.labels,
                             dp.targets, dp.types)
    model = Model(ModelConfig("poolmlp", hidden=8, dropout=0.0), clinic.schema, seed=6)
    a = model.forward(build_batch([dp], clinic.db, clinic.encoders))
    b = model.forward(build_batch([doubled], clinic.db, clinic.encoders))
    assert np.max(np.abs(a.data - b.data)) <= 1e-12


# ---------------------------------------------------------------------------
# per-edge-type variants reduce to the homogeneous ones when tied


ER_PAIRS = [("gcn", "ergcn"), ("gin", "ergin"), ("gat", "ergat")]


def test_er_single_edge_type_equals_homogeneous():
    schema = GraphSchema([2], [[]], [EdgeType(0, -1, SELF_LOOP)])
    batch = _toy_batch(3, {EdgeType(0, -1, SELF_LOOP): (np.arange(3), np.arange(3))})
    h = Tensor(np.array([[0.2, -0.4], [1.5, 0.1], [-0.3, 0.9]]))
    for homo_v, er_v in ER_PAIRS:
        rounds = 1
        homo = Model(ModelConfig(homo_v, hidden=2, rounds=rounds), schema, seed=9)
        er = Model(ModelConfig(er_v, hidden=2, rounds=rounds), schema, seed=9)
        _tie_er_params(er, homo)
        layer = f"_{homo_v}_layer"  # one layer function serves both variants of a family
        layer_h = getattr(homo, layer)(0, h, batch, homo._plan(batch))
        layer_e = getattr(er, layer)(0, h, batch, er._plan(batch))
        assert np.max(np.abs(layer_h.data - layer_e.data)) <= 1e-12, homo_v


@pytest.mark.parametrize("homo_v,er_v", ER_PAIRS)
def test_er_tied_reduction_clinic(clinic, homo_v, er_v):
    homo = Model(ModelConfig(homo_v, hidden=8, dropout=0.0), clinic.schema, seed=11)
    er = Model(ModelConfig(er_v, hidden=8, dropout=0.0), clinic.schema, seed=11)
    _tie_er_params(er, homo)
    a = homo.forward(clinic.batch)
    b = er.forward(clinic.batch)
    assert np.max(np.abs(a.data - b.data)) <= 1e-12


@pytest.mark.parametrize("homo_v,er_v", ER_PAIRS)
def test_er_tied_reduction_random_databases(random_database, homo_v, er_v):
    for seed in range(6):
        db = remove_target_column(random_database(seed))
        setup = _setup(db, list(range(min(3, db.tables[db.target[0]].nrows))))
        homo = Model(ModelConfig(homo_v, hidden=8, dropout=0.0), setup.schema, seed=seed)
        er = Model(ModelConfig(er_v, hidden=8, dropout=0.0), setup.schema, seed=seed)
        _tie_er_params(er, homo)
        a = homo.forward(setup.batch)
        b = er.forward(setup.batch)
        assert np.max(np.abs(a.data - b.data)) <= 1e-12, (homo_v, seed)


# ---------------------------------------------------------------------------
# invariances


def test_permutation_invariance_all_variants(clinic):
    rng = np.random.default_rng(0)
    for variant in VARIANTS:
        model = Model(ModelConfig(variant, hidden=8, dropout=0.0), clinic.schema, seed=5)
        reference = model.forward(build_batch([clinic.dps[0]], clinic.db, clinic.encoders))
        for _ in range(5):
            shuffled = _shuffled(clinic.dps[0], rng)
            out = model.forward(build_batch([shuffled], clinic.db, clinic.encoders))
            assert np.max(np.abs(out.data - reference.data)) <= 1e-9, variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_reads_only_its_schemas_edge_types(clinic, variant):
    # batches always carry reverse edges; a model built without them must not read them
    no_rev = GraphSchema.from_database(clinic.db, clinic.encoders, reverse_edges=False)
    model = Model(ModelConfig(variant, hidden=8, dropout=0.0), no_rev, seed=3)
    b = clinic.batch
    assert any(et.direction == REVERSE for et in b.edges)
    forward_only = {et: pair for et, pair in b.edges.items() if et.direction != REVERSE}
    stripped = GraphBatch(b.num_nodes, b.num_graphs, b.node_type, b.graph_id,
                          b.type_rows, b.dense, b.cats, b.scatter, forward_only, b.labels)
    assert np.array_equal(model.forward(b).data, model.forward(stripped).data)


def test_edge_order_invariance(clinic):
    rng = np.random.default_rng(1)
    b = clinic.batch
    shuffled_edges = {}
    for et, (src, dst) in b.edges.items():
        perm = rng.permutation(len(src))
        shuffled_edges[et] = (src[perm], dst[perm])
    shuffled = GraphBatch(b.num_nodes, b.num_graphs, b.node_type, b.graph_id,
                          b.type_rows, b.dense, b.cats, b.scatter, shuffled_edges, b.labels)
    for variant in VARIANTS:
        model = Model(ModelConfig(variant, hidden=8, dropout=0.0), clinic.schema, seed=7)
        a = model.forward(b)
        c = model.forward(shuffled)
        assert np.max(np.abs(a.data - c.data)) <= 1e-12, variant


def test_batch_of_two_matches_stacked_singles(clinic):
    for variant in VARIANTS:
        model = Model(ModelConfig(variant, hidden=8, dropout=0.0), clinic.schema, seed=8)
        together = model.forward(clinic.batch).data
        apart = np.vstack([
            model.forward(build_batch([dp], clinic.db, clinic.encoders)).data for dp in clinic.dps
        ])
        assert np.max(np.abs(together - apart)) <= 1e-12, variant


# ---------------------------------------------------------------------------
# determinism and dropout wiring


def test_eval_forward_is_deterministic(clinic):
    model = Model(ModelConfig("gin", hidden=8), clinic.schema, seed=12)
    a = model.forward(clinic.batch)
    b = model.forward(clinic.batch)
    assert np.array_equal(a.data, b.data)


def test_train_forward_needs_rng_and_uses_it(clinic):
    model = Model(ModelConfig("gcn", hidden=8, dropout=0.5), clinic.schema, seed=12)
    with pytest.raises(ValueError):
        model.forward(clinic.batch, train=True)
    a = model.forward(clinic.batch, train=True, rng=np.random.default_rng(3))
    b = model.forward(clinic.batch, train=True, rng=np.random.default_rng(3))
    c = model.forward(clinic.batch, train=True, rng=np.random.default_rng(4))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_zero_dropout_training_matches_eval(clinic):
    model = Model(ModelConfig("gcn", hidden=8, dropout=0.0), clinic.schema, seed=12)
    a = model.forward(clinic.batch, train=True)
    b = model.forward(clinic.batch)
    assert np.array_equal(a.data, b.data)


def test_gin_eps_trainability_flag(clinic):
    frozen = Model(ModelConfig("gin", hidden=4), clinic.schema)
    assert not frozen.params["layer0/eps"].requires_grad
    trainable = Model(ModelConfig("gin", hidden=4, gin_train_eps=True), clinic.schema)
    assert trainable.params["layer0/eps"].requires_grad
    er = Model(ModelConfig("ergin", hidden=4), clinic.schema)
    assert not er.params["layer0/eps_table"].requires_grad


# ---------------------------------------------------------------------------
# gradients and optimization


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_gradcheck(clinic, variant):
    config = ModelConfig(variant, hidden=4, dropout=0.0,
                         gin_train_eps=variant in ("gin", "ergin"))
    model = Model(config, clinic.schema, seed=2)
    # move the zero-initialized biases off the relu kinks before differencing
    nudge = np.random.default_rng(0)
    for t in model.params.values():
        if t.requires_grad and not t.data.any():
            t.data = nudge.normal(0.0, 0.1, size=t.shape)
    params = [t for t in model.params.values() if t.requires_grad]
    err = gradcheck(lambda _: model.loss(clinic.batch), params)
    assert err <= 1e-4, (variant, err)


def test_adamw_training_decreases_loss(clinic):
    model = Model(ModelConfig("gcn", hidden=8, dropout=0.0), clinic.schema, seed=13)
    trainable = {k: t for k, t in model.params.items() if t.requires_grad}
    opt = AdamW(trainable, lr=1e-2)
    losses = []
    from relgnn.tensor import backward
    for _ in range(6):
        opt.zero_grad()
        loss = model.loss(clinic.batch, train=True)
        losses.append(float(loss.data))
        backward(loss)
        opt.step()
    assert all(b < a for a, b in zip(losses, losses[1:])), losses
