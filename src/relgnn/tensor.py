"""Dense float64 tensors with reverse-mode autodiff on a dynamic tape.

Every op records a backward closure on the output tensor; ``backward()``
replays the tape in reverse topological order. All arithmetic is 64-bit
and deterministic, which the training pipeline relies on for bit-stable
reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "RngStream",
    "matmul",
    "add",
    "multiply",
    "concat",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "log_softmax",
    "dropout",
    "embedding_lookup",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "tensor_sum",
    "cross_entropy",
    "backward",
    "gradcheck",
    "init_weight",
    "init_embedding",
    "save_checkpoint",
    "load_checkpoint",
]


class Tensor:
    """A dense float64 array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: _Backward | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_Grads = dict[Tensor, np.ndarray]  # gradient buffers of one backward pass
_Backward = Callable[[np.ndarray, _Grads], None]  # accumulates an output's gradient into its inputs


def _make(data: np.ndarray, parents: Sequence[Tensor], bwd: _Backward | None) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = bwd
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast dimensions so grad matches the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _shape_error(op: str, *shapes: tuple[int, ...]) -> ValueError:
    return ValueError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    out_data = a.data @ b.data

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        if a.requires_grad:
            _accum(grads, a, g @ b.data.T)
        if b.requires_grad:
            _accum(grads, b, a.data.T @ g)

    return _make(out_data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.shape, b.shape) from None

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        if a.requires_grad:
            _accum(grads, a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(grads, b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise _shape_error("multiply", a.shape, b.shape) from None

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        if a.requires_grad:
            _accum(grads, a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(grads, b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat: empty input list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(grads, t, g[tuple(sl)])

    return _make(out_data, tuple(tensors), bwd)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * (x.data > 0.0))

    return _make(out_data, (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    out_data = np.where(x.data > 0.0, x.data, slope * x.data)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * np.where(x.data > 0.0, 1.0, slope))

    return _make(out_data, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * out_data * (1.0 - out_data))

    return _make(out_data, (x,), bwd)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * (1.0 - out_data * out_data))

    return _make(out_data, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a 2-D tensor."""
    if x.data.ndim != 2:
        raise _shape_error("log_softmax", x.shape)
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g - np.exp(out_data) * g.sum(axis=1, keepdims=True))

    return _make(out_data, (x,), bwd)


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity (sharing the input buffer) when not training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not train or p == 0.0:

        def bwd_id(g: np.ndarray, grads: _Grads) -> None:
            _accum(grads, x, g)

        return _make(x.data, (x,), bwd_id)
    if rng is None:
        raise ValueError("dropout: rng required in training mode")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out_data = x.data * keep

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * keep)

    return _make(out_data, (x,), bwd)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"embedding_lookup: index out of range for table {table.shape}")
    out_data = table.data[idx]

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        rows = g.reshape((idx.size,) + table.shape[1:])
        _accum(grads, table, _segment_add(idx.ravel(), rows, table.shape[0]))

    return _make(out_data, (table,), bwd)


def _check_segments(seg: np.ndarray, num_segments: int, op: str) -> np.ndarray:
    seg = np.asarray(seg, dtype=np.int64)
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ValueError(f"{op}: segment id out of range [0, {num_segments})")
    return seg


def _segment_add(seg: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Row i of `values` added into row seg[i] of n zero rows: one flat bincount over the output cells,
    which adds each cell's rows in row order from 0.0, bit for bit as adding them one by one does."""
    w = math.prod(values.shape[1:])
    cells = (seg[:, None] * w + np.arange(w)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=n * w)
    return out.astype(np.float64, copy=False).reshape((n,) + values.shape[1:])  # bincount of no cells is int64


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    seg = _check_segments(segment_ids, num_segments, "segment_sum")
    out_data = _segment_add(seg, values.data, num_segments)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, values, g[seg])

    return _make(out_data, (values,), bwd)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    seg = _check_segments(segment_ids, num_segments, "segment_mean")
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    if (counts == 0).any():
        raise ValueError("segment_mean: empty segment")
    denom = counts.reshape((num_segments,) + (1,) * (values.data.ndim - 1))
    out_data = _segment_add(seg, values.data, num_segments) / denom

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, values, (g / denom)[seg])

    return _make(out_data, (values,), bwd)


def segment_softmax(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over the entries of each segment (axis 0), per trailing column."""
    seg = _check_segments(segment_ids, num_segments, "segment_softmax")
    counts = np.bincount(seg, minlength=num_segments)
    if (counts == 0).any():
        raise ValueError("segment_softmax: empty segment")
    seg_max = np.full((num_segments,) + values.shape[1:], -np.inf)
    np.maximum.at(seg_max, seg, values.data)
    ex = np.exp(values.data - seg_max[seg])
    out_data = ex / _segment_add(seg, ex, num_segments)[seg]

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, values, out_data * (g - _segment_add(seg, g * out_data, num_segments)[seg]))

    return _make(out_data, (values,), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out_data = np.asarray(x.data.sum())

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, np.broadcast_to(g, x.shape))

    return _make(out_data, (x,), bwd)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row-wise softmax."""
    if logits.data.ndim != 2:
        raise _shape_error("cross_entropy", logits.shape)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (logits.shape[0],):
        raise _shape_error("cross_entropy", logits.shape, y.shape)
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = -logp[np.arange(n), y].mean()

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        soft = np.exp(logp)
        soft[np.arange(n), y] -= 1.0
        _accum(grads, logits, g * soft / n)

    return _make(np.asarray(out_data), (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _accum(grads: _Grads, t: Tensor, g: np.ndarray) -> None:
    buf = grads.get(t)
    if buf is None:
        grads[t] = np.array(g, dtype=np.float64, copy=True)
    else:
        buf += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor (one that no op produced) that requires a gradient and
    is reachable from ``loss``. Op outputs keep ``grad`` None, and no gradient is computed for an
    operand that requires none.

    Repeated calls without ``zero_grad`` accumulate.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a single element, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    # gradient buffers of this pass only, keyed by the tensor itself
    grads: _Grads = {loss: np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.get(node)
        if g is None or node._backward is None:
            continue
        node._backward(g, grads)
    for node in topo:
        g = grads.get(node)
        if g is not None and node._backward is None:
            node.grad = node.grad + g if node.grad is not None else g.copy()


def gradcheck(fn: Callable[[Sequence[Tensor]], Tensor], inputs: Sequence[Tensor], h: float = 1e-5) -> float:
    """Compare backward gradients against central finite differences.

    ``fn`` must be scalar-valued and deterministic (freeze dropout masks).
    Returns the max over components of ``|a - n| / max(1, |a|, |n|)``.
    """
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    loss = fn(inputs)
    backward(loss)
    worst = 0.0
    for t in inputs:
        analytic = t.grad.copy()
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn(inputs).data)
            flat[i] = orig - h
            fm = float(fn(inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# seeded, splittable randomness


class RngStream:
    """Counter-based (Philox) RNG that splits into named, independent children.

    Child keys are derived by hashing the parent key with the child name, so
    the stream drawn for a given (seed, path) is stable regardless of the
    order in which siblings are created or consumed.
    """

    def __init__(self, seed: int | None = None, _key: bytes | None = None):
        if _key is None:
            _key = hashlib.sha256(f"relgnn-root-{seed}".encode()).digest()[:16]
        self._key = _key
        self.gen = np.random.Generator(np.random.Philox(key=int.from_bytes(_key, "little")))

    def child(self, name: str) -> "RngStream":
        key = hashlib.sha256(self._key + b"/" + name.encode()).digest()[:16]
        return RngStream(_key=key)


def init_weight(rng: RngStream, fan_in: int, fan_out: int) -> Tensor:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    t = Tensor(rng.gen.uniform(-a, a, size=(fan_in, fan_out)), requires_grad=True)
    return t


def init_embedding(rng: RngStream, rows: int, dim: int) -> Tensor:
    """Normal(0, 1/sqrt(dim)) embedding table."""
    t = Tensor(rng.gen.normal(0.0, 1.0 / np.sqrt(dim), size=(rows, dim)), requires_grad=True)
    return t


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"RGNNCKPT"
_VERSION = 1


def save_checkpoint(path, params: dict[str, Tensor]) -> None:
    """Write parameters as magic + version + JSON manifest + raw <f8 blocks."""
    manifest = [[name, list(params[name].shape)] for name in params]
    manifest_bytes = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(manifest_bytes)))
        f.write(manifest_bytes)
        for name in params:
            f.write(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())


def _manifest_entry(path, k: int, entry) -> tuple[str, tuple[int, ...]]:
    """One [name, shape] entry of a checkpoint manifest."""
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1])):
        raise ValueError(f"{path}: checkpoint manifest entry {k} is {json.dumps(entry)}, "
                         "not [name, [non-negative integer dims]]")
    return entry[0], tuple(entry[1])


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The parameters `save_checkpoint` wrote; a malformed file raises ValueError naming it and the fault."""
    with open(path, "rb") as f:
        data = f.read()
    start = len(_MAGIC) + 12
    if data[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a relgnn checkpoint")
    if len(data) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, mlen = struct.unpack_from("<IQ", data, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if mlen > len(data) - start:
        raise ValueError(f"{path}: truncated checkpoint manifest, {len(data) - start} of {mlen} bytes")
    text = data[start:start + mlen]
    try:
        manifest = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: checkpoint manifest is not JSON text ({exc})") from None
    if not isinstance(manifest, list):
        raise ValueError(f"{path}: checkpoint manifest is not a list of [name, shape] entries")
    if json.dumps(manifest).encode("utf-8") != text:
        raise ValueError(f"{path}: checkpoint manifest is not as save_checkpoint writes it")
    offset = start + mlen
    out: dict[str, np.ndarray] = {}
    for k, entry in enumerate(manifest):
        name, shape = _manifest_entry(path, k, entry)
        if name in out:
            raise ValueError(f"{path}: checkpoint manifest entry {k} repeats parameter {name!r}")
        size = 8 * math.prod(shape)
        block = data[offset:offset + size]
        if len(block) != size:
            raise ValueError(f"{path}: truncated checkpoint, parameter {name!r} has {len(block)} of {size} bytes")
        out[name] = np.frombuffer(block, dtype="<f8").reshape(shape).astype(np.float64)
        offset += size
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes after the last parameter")
    return out
