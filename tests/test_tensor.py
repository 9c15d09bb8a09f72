import re
import struct

import numpy as np
import pytest
from oracles import reference_segment_add, reference_sigmoid

from relgnn import tensor
from relgnn.optim import AdamW
from relgnn.tensor import (
    RngStream,
    Tensor,
    add,
    backward,
    concat,
    cross_entropy,
    dropout,
    embedding_lookup,
    gradcheck,
    leaky_relu,
    load_checkpoint,
    log_softmax,
    matmul,
    multiply,
    relu,
    save_checkpoint,
    segment_mean,
    segment_softmax,
    segment_sum,
    sigmoid,
    tanh,
    tensor_sum,
)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    loss = multiply(x, x)
    backward(loss)
    assert x.grad == pytest.approx(6.0, abs=1e-15)


def test_segment_sum_basic():
    out = segment_sum(Tensor([1.0, 2.0, 3.0]), np.array([0, 0, 1]), 2)
    assert np.array_equal(out.data, [3.0, 3.0])


def test_segment_sum_empty_segment_is_zero():
    out = segment_sum(Tensor([1.0]), np.array([2]), 3)
    assert np.array_equal(out.data, [0.0, 0.0, 1.0])


def test_segment_mean_empty_segment_errors():
    with pytest.raises(ValueError, match="empty segment"):
        segment_mean(Tensor([1.0]), np.array([0]), 2)


def test_segment_softmax_symmetry():
    out = segment_softmax(Tensor([1.0, 1.0]), np.array([0, 0]), 1)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_segment_softmax_empty_segment_errors():
    with pytest.raises(ValueError, match="empty segment"):
        segment_softmax(Tensor([1.0]), np.array([1]), 2)


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-15)


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(7, 5)) * 10)
    out = log_softmax(x)
    sums = np.exp(out.data).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(tensor_sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_unreached_parameter_grad_stays_zero():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    backward(tensor_sum(w))
    assert np.array_equal(unused.grad, np.zeros(3))


def test_relu_composite_gradient():
    for x0, expected in [(1.0, 2.0), (-1.0, 0.0)]:
        x = Tensor(x0, requires_grad=True)
        loss = relu(multiply(Tensor(2.0), x))
        backward(tensor_sum(loss))
        assert x.grad == pytest.approx(expected, abs=0.0)


def test_backward_accumulates_without_reset():
    x = Tensor(3.0, requires_grad=True)
    for _ in range(2):
        backward(multiply(x, x))
    assert x.grad == pytest.approx(12.0)


def test_backward_grads_only_the_leaves_that_need_them(monkeypatch):
    # no gradient is computed for a constant operand, and op outputs keep no gradient
    received = []
    accum = tensor._accum

    def recording_accum(grads, t, g):
        received.append(t)
        accum(grads, t, g)

    monkeypatch.setattr(tensor, "_accum", recording_accum)
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    x, coeff = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 1)))
    extra, one = Tensor(np.ones((4, 1))), Tensor(1.0)
    hidden = add(matmul(x, w), b)
    scaled = multiply(hidden, coeff)
    joined = concat([scaled, extra], axis=1)
    shifted = add(one, joined)
    loss = tensor_sum(shifted)
    backward(loss)
    assert received and all(t.requires_grad for t in received)
    assert all(t.grad is None for t in (x, coeff, extra, one, hidden, scaled, joined, shifted, loss))
    assert np.array_equal(w.grad, x.data.T @ np.broadcast_to(coeff.data, (4, 2)))
    assert np.array_equal(b.grad, coeff.data.sum(axis=0).repeat(2))


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="single element"):
        backward(add(x, x))


def test_dropout_eval_is_bitexact_identity():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
    out = dropout(x, 0.5, train=False)
    assert out.data is x.data


def test_dropout_masks_reproducible_and_inverted():
    x = Tensor(np.ones((100, 10)), requires_grad=True)
    a = dropout(x, 0.3, train=True, rng=RngStream(9).gen)
    b = dropout(x, 0.3, train=True, rng=RngStream(9).gen)
    assert np.array_equal(a.data, b.data)
    kept = a.data != 0
    assert np.allclose(a.data[kept], 1.0 / 0.7)


@pytest.mark.parametrize("p", [-0.5, 1.0, 1.5, float("nan")])
@pytest.mark.parametrize("train", [True, False])
def test_dropout_rejects_p_outside_the_unit_interval(p, train):
    with pytest.raises(ValueError, match=re.escape(f"dropout: p must be in [0, 1), got {p}")):
        dropout(Tensor(np.ones((2, 2))), p, train, RngStream(0).gen)


def test_segment_add_is_bitwise_the_add_at_reference():
    """1-D, 2-D (widths 0-39) and 3-D values over five decades either side of 1, with 5% -0.0, repeated
    and unsorted ids, empty inputs and more segments than the largest id needs."""
    rng = np.random.default_rng(31)
    for case in range(360):
        trailing = ((), (case % 40,), (case % 5, case % 7))[case % 3]
        rows = 0 if case % 12 == 0 else int(rng.integers(1, 80))
        ids = int(rng.integers(1, 20))
        seg = rng.integers(0, ids, size=rows)
        n = ids + int(rng.integers(0, 4))
        shape = (rows,) + trailing
        values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-5, 4, size=shape)
        values[rng.random(shape) < 0.05] = -0.0
        got = tensor._segment_add(seg, values, n)
        want = reference_segment_add(seg, values, n)
        assert got.shape == want.shape and got.dtype == want.dtype, case
        assert got.tobytes() == want.tobytes(), case


def test_sigmoid_is_bitwise_the_two_branch_reference():
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    rng = np.random.default_rng(32)
    z = np.concatenate([edges, rng.normal(size=10**5) * 10.0 ** rng.uniform(-3, 3, size=10**5)])
    assert tensor._sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    assert tensor._sigmoid(z.reshape(-1, 4)).tobytes() == reference_sigmoid(z).tobytes()
    assert np.isnan(tensor._sigmoid(np.array([np.nan, -np.nan]))).all()


def test_embedding_lookup_forward_and_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = embedding_lookup(table, np.array([1, 1, 3]))
    assert np.array_equal(out.data, table.data[[1, 1, 3]])
    backward(tensor_sum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


# ---------------------------------------------------------------------------
# gradcheck sweeps (finite differences are the oracle)


def test_gradcheck_linear_is_near_exact():
    w = Tensor(np.random.default_rng(3).normal(size=(4, 4)))
    err = gradcheck(lambda ts: tensor_sum(matmul(ts[0], ts[1])), [w, Tensor(np.eye(4))])
    assert err <= 1e-10


def test_gradcheck_matmul_cross_entropy_composite():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    labels = np.array([0, 1, 2, 3])
    err = gradcheck(lambda ts: cross_entropy(matmul(ts[0], ts[1]), labels), [x, w])
    assert err <= 1e-4


def test_gradcheck_relu_away_from_kink():
    rng = np.random.default_rng(7)
    x = Tensor(np.sign(rng.normal(size=(5, 3))) * (0.5 + rng.random((5, 3))))
    err = gradcheck(lambda ts: tensor_sum(relu(ts[0])), [x])
    assert err <= 1e-4


def _kink_free(rng, shape):
    return np.sign(rng.normal(size=shape)) * (0.2 + rng.random(shape))


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_all_ops(seed):
    rng = np.random.default_rng(seed)
    n, m, k = (int(v) for v in rng.integers(2, 5, size=3))
    seg = np.sort(rng.integers(0, 3, size=n))
    seg_dense = np.unique(seg, return_inverse=True)[1]  # no empty segments
    mix = Tensor(rng.normal(size=(n, m)))
    vec_mix = Tensor(rng.normal(size=n))
    emb_idx = rng.integers(0, n, size=4)
    labels = rng.integers(0, m, size=n)
    cases = [
        (lambda ts: tensor_sum(matmul(ts[0], ts[1])), [Tensor(rng.normal(size=(n, m))), Tensor(rng.normal(size=(m, k)))]),
        (lambda ts: tensor_sum(add(ts[0], ts[1])), [Tensor(rng.normal(size=(n, m))), Tensor(rng.normal(size=(m,)))]),
        (lambda ts: tensor_sum(multiply(ts[0], ts[1])), [Tensor(rng.normal(size=(n, m))), Tensor(rng.normal(size=(n, 1)))]),
        (lambda ts: tensor_sum(concat([ts[0], ts[1]], axis=1)), [Tensor(rng.normal(size=(n, m))), Tensor(rng.normal(size=(n, 2)))]),
        (lambda ts: tensor_sum(relu(ts[0])), [Tensor(_kink_free(rng, (n, m)))]),
        (lambda ts: tensor_sum(leaky_relu(ts[0], 0.2)), [Tensor(_kink_free(rng, (n, m)))]),
        (lambda ts: tensor_sum(sigmoid(ts[0])), [Tensor(rng.normal(size=(n, m)))]),
        (lambda ts: tensor_sum(tanh(ts[0])), [Tensor(rng.normal(size=(n, m)))]),
        (lambda ts: tensor_sum(multiply(log_softmax(ts[0]), mix)), [Tensor(rng.normal(size=(n, m)))]),
        (lambda ts: tensor_sum(embedding_lookup(ts[0], emb_idx)), [Tensor(rng.normal(size=(n, m)))]),
        (lambda ts: tensor_sum(segment_sum(ts[0], seg, 3)), [Tensor(rng.normal(size=(n, m)))]),
        (lambda ts: tensor_sum(multiply(segment_softmax(ts[0], seg_dense, int(seg_dense.max()) + 1), vec_mix)), [Tensor(rng.normal(size=n))]),
        (lambda ts: cross_entropy(ts[0], labels), [Tensor(rng.normal(size=(n, m)))]),
    ]
    full = np.sort(np.arange(n) % max(1, n - 1))
    cases.append((lambda ts: tensor_sum(segment_mean(ts[0], full, int(full.max()) + 1)), [Tensor(rng.normal(size=(n, m)))]))
    for fn, inputs in cases:
        assert gradcheck(fn, inputs) <= 1e-4


def test_gradcheck_dropout_frozen_mask():
    # Same rng state per call would resample; freeze by evaluating in eval mode.
    x = Tensor(np.random.default_rng(11).normal(size=(3, 3)))
    err = gradcheck(lambda ts: tensor_sum(dropout(ts[0], 0.5, train=False)), [x])
    assert err <= 1e-10


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_single_step_matches_formula():
    p = Tensor(1.0, requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
    p.grad = np.asarray(1.0)
    opt.step()
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8)) - 0.001
    assert p.data == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.89900, abs=1e-5)


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor(2.5, requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.asarray(0.0)
    opt.step()
    assert p.data == pytest.approx(2.5, abs=0.0)


def test_adamw_decay_is_decoupled():
    p = Tensor(2.0, requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
    p.grad = np.asarray(0.0)
    opt.step()
    assert p.data == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, abs=1e-15)


def _adam_oracle(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain Adam, written independently of the optimizer module."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def test_adamw_without_decay_matches_adam_oracle():
    rng = np.random.default_rng(17)
    theta0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(25)]
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)
    for g in grads:
        p.grad = g
        opt.step()
    assert np.max(np.abs(p.data - _adam_oracle(theta0, grads, 0.05))) <= 1e-12


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    params = {
        "layer0/W": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "layer0/b": Tensor(np.zeros(4), requires_grad=True),
        "eps": Tensor(0.25, requires_grad=True),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name].data)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a relgnn checkpoint"):
        load_checkpoint(path)


def _two_param_checkpoint(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"w": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.ones(3))})
    return path


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _two_param_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_block(tmp_path):
    path = _two_param_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated checkpoint, parameter 'b'"):
        load_checkpoint(path)


def _with_manifest(tmp_path, manifest: bytes, data: bytes = b"") -> str:
    header = _two_param_checkpoint(tmp_path).read_bytes()[:12]  # magic and version
    path = tmp_path / "edited.bin"
    path.write_bytes(header + struct.pack("<Q", len(manifest)) + manifest + data)
    return path


@pytest.mark.parametrize("manifest, data, fault", [
    (b"[1]", b"", "entry 0 is 1,"),
    (b'[["w", [2, "a"]]]', b"", 'entry 0 is ["w", [2, "a"]],'),
    (b'[["w", [1]], ["b", [-1]]]', bytes(8), 'entry 1 is ["b", [-1]],'),
    (b'[["w", [true]]]', bytes(8), 'entry 0 is ["w", [true]],'),
    (b'[[7, [1]]]', bytes(8), "entry 0 is [7, [1]],"),
    (b'[["w", [1]], ["w", [1]]]', bytes(16), "entry 1 repeats parameter 'w'"),
    (b'{"w": [1]}', bytes(8), "manifest is not a list"),
    (b'[["w", [1]]', bytes(8), "manifest is not JSON text"),
    (b'[["\xff", [1]]]', bytes(8), "manifest is not JSON text"),  # not UTF-8
])
def test_checkpoint_rejects_malformed_manifest(tmp_path, manifest, data, fault):
    path = _with_manifest(tmp_path, manifest, data)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ") and fault in str(exc.value)


def test_checkpoint_rejects_a_manifest_longer_than_the_file(tmp_path):
    path = _two_param_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<Q", 2**60)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated checkpoint manifest"):
        load_checkpoint(path)


def test_checkpoint_fuzz_truncated_flipped_and_extended(tmp_path):
    """Every truncation and every appended suffix of a real checkpoint fails naming the file. A flipped
    byte either fails naming the file or leaves a well-formed checkpoint of other names or values, which
    must then be read exactly: saving what was loaded gives back the flipped bytes."""
    original = _two_param_checkpoint(tmp_path).read_bytes()
    path = tmp_path / "fuzzed.bin"
    rng = np.random.default_rng(20)

    def outcome(raw: bytes):
        path.write_bytes(raw)
        try:
            return load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return None

    cases = [original[:n] for n in range(len(original))]
    cases += [original + rng.bytes(int(rng.integers(1, 17))) for _ in range(50)]
    assert all(outcome(raw) is None for raw in cases)
    loaded = 0
    flips = [(i, 1 << bit) for i in range(len(original)) for bit in range(8)]
    flips += [(int(rng.integers(0, len(original))), int(rng.integers(1, 256))) for _ in range(500)]
    for i, mask in flips:
        raw = bytearray(original)
        raw[i] ^= mask
        params = outcome(bytes(raw))
        if params is not None:
            loaded += 1
            save_checkpoint(tmp_path / "again.bin", {k: Tensor(v) for k, v in params.items()})
            assert (tmp_path / "again.bin").read_bytes() == bytes(raw), (i, mask)
    assert 0 < loaded < len(flips)
    assert {k: v.tolist() for k, v in outcome(original).items()} == {"w": [[0, 1, 2], [3, 4, 5]], "b": [1, 1, 1]}


def test_rng_streams_are_stable_and_split():
    a = RngStream(42).child("dropout").gen.random(5)
    b = RngStream(42).child("dropout").gen.random(5)
    c = RngStream(42).child("init").gen.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
