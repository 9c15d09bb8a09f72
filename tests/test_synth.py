"""Synthetic dataset generation: determinism, planted signal, decoy independence."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from relgnn.rdb import RdbError, load_database, target_labels
from relgnn.synth import SIGNALS, TEMPLATES, SynthSpec, generate

from oracles import table_cell


def _mutual_information(xs: np.ndarray, ys: np.ndarray) -> float:
    """MI in nats between two small-integer arrays, from the empirical joint."""
    n = len(xs)
    joint: dict[tuple[int, int], int] = {}
    for pair in zip(xs.tolist(), ys.tolist()):
        joint[pair] = joint.get(pair, 0) + 1
    px: dict[int, float] = {}
    py: dict[int, float] = {}
    for (a, b), c in joint.items():
        px[a] = px.get(a, 0.0) + c / n
        py[b] = py.get(b, 0.0) + c / n
    return sum((c / n) * np.log((c / n) / (px[a] * py[b])) for (a, b), c in joint.items())


def _permutation_p(xs: np.ndarray, ys: np.ndarray, trials: int = 200, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    base = _mutual_information(xs, ys)
    hits = sum(_mutual_information(rng.permutation(xs), ys) >= base for _ in range(trials))
    return (hits + 1) / (trials + 1)


def _quantile_bins(values, bins: int = 8) -> np.ndarray:
    """Discretize scalars into quantile bins; None cells get their own bin."""
    present = np.asarray([v for v in values if v is not None], dtype=np.float64)
    edges = np.quantile(present, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.asarray([bins if v is None else int(np.searchsorted(edges, v)) for v in values])


def test_spec_validation():
    with pytest.raises(RdbError):
        SynthSpec(0, 10, template="star")
    with pytest.raises(RdbError):
        SynthSpec(0, 10, signal="magic")
    with pytest.raises(RdbError):
        SynthSpec(0, 10, template="flat", signal="child_aggregate")
    with pytest.raises(RdbError):
        SynthSpec(0, 10, template="parent_child", signal="grandchild_aggregate")
    with pytest.raises(RdbError):
        SynthSpec(0, 10, noise=1.0)
    with pytest.raises(RdbError):
        SynthSpec(0, 10, noise=-0.1)
    with pytest.raises(RdbError):
        SynthSpec(0, 1)
    with pytest.raises(RdbError):
        SynthSpec(0, 10, children=(4, 2))
    with pytest.raises(RdbError):
        SynthSpec(0, 10, children=(-1, 2))
    SynthSpec(0, 10, template="three_level", signal="grandchild_aggregate")  # fits


def test_template_table_counts():
    assert [t.name for t in generate(SynthSpec(0, 8, template="flat", signal="single_table")).tables] == ["Target"]
    assert [t.name for t in generate(SynthSpec(0, 8)).tables] == ["Target", "Child"]
    assert [t.name for t in generate(SynthSpec(0, 8, template="three_level")).tables] == ["Target", "Child", "Grand"]


def test_same_seed_byte_identical(tmp_path):
    spec = SynthSpec(seed=5, n_targets=60, template="three_level", signal="grandchild_aggregate", noise=0.1)
    a, b = tmp_path / "a", tmp_path / "b"
    generate(spec, a)
    generate(spec, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_differs(tmp_path):
    generate(SynthSpec(seed=1, n_targets=40), tmp_path / "a")
    generate(SynthSpec(seed=2, n_targets=40), tmp_path / "b")
    assert (tmp_path / "a" / "Target.csv").read_bytes() != (tmp_path / "b" / "Target.csv").read_bytes()


def test_written_dataset_loads_back(tmp_path):
    spec = SynthSpec(seed=3, n_targets=50, template="three_level", signal="child_aggregate")
    built = generate(spec, tmp_path)
    loaded = load_database(tmp_path)
    assert [t.name for t in loaded.tables] == ["Target", "Child", "Grand"]
    assert loaded.tables[0].nrows == 50
    assert loaded.target == (0, 5)
    assert np.array_equal(target_labels(loaded), target_labels(built))
    assert loaded.dangling == []


def test_noise_zero_child_aggregate_matches_groupby_oracle(tmp_path):
    from oracles import groupby_oracle

    generate(SynthSpec(seed=11, n_targets=200), tmp_path)
    db = load_database(tmp_path)
    counts, sums = groupby_oracle(db, "Child", "target_id", "amount")
    score = np.array([sums.get(r, 0.0) for r in range(200)])
    expected = (score > np.median(score)).astype(np.int64)
    assert np.array_equal(target_labels(db), expected)


def test_noise_zero_grandchild_rule(tmp_path):
    generate(SynthSpec(seed=13, n_targets=120, template="three_level", signal="grandchild_aggregate"), tmp_path)
    db = load_database(tmp_path)
    child_fk = db.fk_rows[(1, 1)]  # Child.target_id
    grand_fk = db.fk_rows[(2, 1)]  # Grand.child_id
    amount = db.tables[2].column_index("amount")
    score = [0.0] * 120
    for g in range(db.tables[2].nrows):
        score[int(child_fk[int(grand_fk[g])])] += table_cell(db.tables[2], g, amount)
    score = np.array(score)
    expected = (score > np.median(score)).astype(np.int64)
    assert np.array_equal(target_labels(db), expected)


def test_label_balance_at_zero_noise():
    cases = [
        SynthSpec(seed=0, n_targets=500),
        SynthSpec(seed=1, n_targets=501, template="flat", signal="single_table"),
        SynthSpec(seed=2, n_targets=300, template="three_level", signal="grandchild_aggregate"),
        SynthSpec(seed=3, n_targets=400, children=(0, 3)),
    ]
    for spec in cases:
        positive = 100.0 * target_labels(generate(spec)).mean()
        assert 45.0 <= positive <= 55.0, f"{spec} gave {positive:.1f}% positive"


def test_single_table_signal_is_the_trait_threshold():
    db = generate(SynthSpec(seed=4, n_targets=400, template="flat", signal="single_table"))
    trait = np.asarray(db.tables[0].columns[db.tables[0].column_index("trait")].values, dtype=np.float64)
    expected = (trait > np.median(trait)).astype(np.int64)
    assert np.array_equal(target_labels(db), expected)


def test_noise_flips_only_labels(tmp_path):
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    generate(SynthSpec(seed=6, n_targets=400), clean)
    generate(SynthSpec(seed=6, n_targets=400, noise=0.3), noisy)
    assert (clean / "Child.csv").read_bytes() == (noisy / "Child.csv").read_bytes()
    flipped = (target_labels(load_database(clean)) != target_labels(load_database(noisy))).mean()
    assert 0.22 <= flipped <= 0.38


def test_children_range_respected():
    db = generate(SynthSpec(seed=7, n_targets=80, children=(2, 4)))
    fk = db.fk_rows[(1, 1)]
    counts = np.bincount(fk, minlength=80)
    assert counts.min() >= 2 and counts.max() <= 4


def test_child_aggregate_decoys_carry_no_signal():
    db = generate(SynthSpec(seed=9, n_targets=500))
    labels = target_labels(db)
    table = db.tables[0]
    columns = {
        "trait": _quantile_bins(table.columns[table.column_index("trait")].values),
        "clutter": _quantile_bins(table.columns[table.column_index("clutter")].values),
        "color": np.asarray([sorted({"amber", "blue", "green", "red", "teal"}).index(v)
                             for v in table.columns[table.column_index("color")].values]),
        "joined": _quantile_bins([v.timestamp() for v in table.columns[table.column_index("joined")].values]),
    }
    for name, bins in columns.items():
        p = _permutation_p(bins, labels, trials=200, seed=42)
        assert p > 0.01, f"column {name} looks label-dependent (p={p:.4f})"


# sha256 of every file that `generate` writes, per template (seed 7, 40 targets, 0 to 3 children per
# parent); perfbench's goldens rest on these bytes, so a change to the CSV writer must keep them
_SYNTH_SHA256 = {
    ("flat", "single_table"): {
        "Target.csv": "afe28c3f2f2756a056a987b7dcc97f075a244ae3d051cdc4d62fed001f6f1b95",
        "schema.json": "4c96b93612c2822b02defd4cd68ea3b0ee1b3fcbfa37d9b0d30da8d24a67ac7e",
    },
    ("parent_child", "child_aggregate"): {
        "Child.csv": "52fe36e894d5c8306e185b028e112a99e9df17b751bb35e651655fa26971bcb8",
        "Target.csv": "39e1fd17ffa0e8be857eab187c1a2a1e0e9a551af5e56e3a9bb78662184a9bf7",
        "schema.json": "e0ed89db0252d70c9ec50005f5bfaf22cd07b0b3e54596c285304971c70a147b",
    },
    ("three_level", "grandchild_aggregate"): {
        "Child.csv": "52fe36e894d5c8306e185b028e112a99e9df17b751bb35e651655fa26971bcb8",
        "Grand.csv": "1545a48faa5dfbc48c4d1b4f782f88417f4548c4405e82fe4240c824cd8ff9e8",
        "Target.csv": "3b1a88189b731c4a4bfb1e14f323826390ccf98ce7e5d1e6f504d44b8f352901",
        "schema.json": "6cccaecdde969b3c674e7c9a53a0ab4b9fe2f73f63e983e0afc6dda9c6cbf4b7",
    },
}


@pytest.mark.parametrize("template, signal", sorted(_SYNTH_SHA256))
def test_written_bytes_are_pinned(tmp_path, template, signal):
    assert {template for template, _ in _SYNTH_SHA256} == set(TEMPLATES)
    generate(SynthSpec(7, 40, template=template, signal=signal, children=(0, 3)), tmp_path)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == _SYNTH_SHA256[template, signal]
