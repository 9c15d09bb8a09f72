"""Dense float64 tensors with reverse-mode autodiff on a dynamic tape.

Every op records a backward closure on the output tensor; ``backward()``
replays the tape in reverse topological order. Inside ``no_tape()`` ops record
nothing, so a forward pass whose output is never differentiated holds no tape.
All arithmetic is 64-bit and deterministic, which the training pipeline relies
on for bit-stable reruns.

No gradient buffer is ever written in place during a backward pass: an op may
hand its output's gradient (or a view of it) to an input unchanged, so one
buffer can stand for several tensors' gradients, and a second contribution is
added into a new array. The only in-place write is the final ``grad += g`` of
each leaf, into the leaf's own ``grad`` array, which may be a view of an
optimizer's flat arena (see ``optim.AdamW``).
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from typing import Callable, Iterator, Sequence

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
    "dropout_in_range",
    "embedding_lookup",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "tensor_sum",
    "cross_entropy",
    "backward",
    "no_tape",
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
        """Zero the gradient in place, so a view into an optimizer's arena stays one."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)


_Grads = dict[Tensor, np.ndarray]  # gradient buffers of one backward pass
_Backward = Callable[[np.ndarray, _Grads], None]  # accumulates an output's gradient into its inputs


_taping = True  # False inside no_tape()


@contextlib.contextmanager
def no_tape() -> Iterator[None]:
    """Ops inside the block compute the same values but record no parents and no backward closure, so
    their outputs require no gradient and hold no input alive. The previous state comes back on exit."""
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd: _Backward) -> Tensor:
    """An op's output: records its parents and backward closure when taping and a parent requires a
    gradient. Built without `Tensor.__init__`, since an op's float64 result needs no conversion, only the
    numpy scalar that an op on 0-d inputs returns."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    if _taping:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = bwd
                return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1, keepdims=True)`` of a 2-D array, the shift of a row-wise softmax, folded column by
    column with np.maximum: on two-class logits that costs under half the reduction. Max is exact; only
    where +0.0 ties -0.0 may the two pick another sign, and that reaches no softmax output: the shifted
    zeros exponentiate to 1 and lose their sign to a log-sum of at least log 2."""
    if x.shape[1] == 0:
        return x.max(axis=1, keepdims=True)  # numpy's error for rows without columns
    m = x[:, :1]
    for j in range(1, x.shape[1]):
        m = np.maximum(m, x[:, j:j + 1])
    return m


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast dimensions so grad matches the original shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
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
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g * (1.0 - out_data * out_data))

    return _make(out_data, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a 2-D tensor."""
    if x.data.ndim != 2:
        raise _shape_error("log_softmax", x.shape)
    shifted = x.data - _row_max(x.data)
    out_data = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        _accum(grads, x, g - np.exp(out_data) * np.add.reduce(g, axis=1, keepdims=True))

    return _make(out_data, (x,), bwd)


def dropout_in_range(p: float) -> bool:
    """Whether p is a dropout probability: the chance of dropping a unit, in [0, 1)."""
    return 0.0 <= p < 1.0


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity (sharing the input buffer) when not training."""
    if not dropout_in_range(p):
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
    rows = np.arange(n)
    shifted = logits.data - _row_max(logits.data)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    out_data = -(np.add.reduce(logp[rows, y]) / n)  # np.mean's own sum and division, without its overhead

    def bwd(g: np.ndarray, grads: _Grads) -> None:
        soft = np.exp(logp)
        soft[rows, y] -= 1.0
        _accum(grads, logits, g * soft / n)

    return _make(np.asarray(out_data), (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _accum(grads: _Grads, t: Tensor, g: np.ndarray) -> None:
    """Add g to t's gradient of this pass: the first one is kept as is, even a view or a buffer another
    tensor holds too, so a later one goes into a new array."""
    buf = grads.get(t)
    grads[t] = g if buf is None else buf + g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor (one that no op produced) that requires a gradient and
    is reachable from ``loss``. Op outputs keep ``grad`` None, and no gradient is computed for an
    operand that requires none. An op output's gradient is dropped as soon as its backward step has
    run, so the pass holds only the gradients that later steps still read; the tape itself is kept.

    Repeated calls without ``zero_grad`` accumulate: a leaf's gradient is added into its existing
    ``grad`` array in place (a leaf that requires a gradient holds one from construction or
    ``zero_grad``). A loss that requires no gradient leaves every tensor as it was.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a single element, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # op outputs in post-order of one depth-first walk, each input's subtree before its consumer and the
    # last input's first: the order fixes the order in which contributions reach a shared tensor, and so
    # its bits. A leaf has no inputs, so leaving it off the walk moves no op.
    topo: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss._backward is not None else []
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None:
                    stack.append((p, False))

    # gradient buffers of this pass only, keyed by the tensor itself
    grads: _Grads = {loss: np.ones(loss.data.shape)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is not None:
            node._backward(g, grads)
    for leaf, g in grads.items():  # every op's gradient is popped, so what is left is the leaves'
        leaf.grad += g


def gradcheck(fn: Callable[[Sequence[Tensor]], Tensor], inputs: Sequence[Tensor]) -> float:
    """Compare backward gradients against central finite differences.

    ``fn`` must be scalar-valued and deterministic (freeze dropout masks).
    Returns the max over components of ``|a - n| / max(1, |a|, |n|)``.
    """
    h = 1e-5  # the central-difference step
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
            _key = _derive_key(f"relgnn-root-{seed}".encode())
        self._key = _key
        self.gen = np.random.Generator(np.random.Philox(key=int.from_bytes(_key, "little")))

    def child(self, name: str) -> "RngStream":
        return RngStream(_key=_derive_key(self._key + b"/" + name.encode()))


def _derive_key(data: bytes) -> bytes:
    """A 16-byte Philox key: the head of `data`'s SHA-256."""
    import hashlib  # maps OpenSSL's libcrypto (3.6 MiB), so only a command that seeds a generator loads it
    return hashlib.sha256(data).digest()[:16]


def init_weight(rng: RngStream, fan_in: int, fan_out: int) -> Tensor:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    t = Tensor(rng.gen.uniform(-a, a, size=(fan_in, fan_out)), requires_grad=True)
    return t


def init_embedding(rng: RngStream, rows: int, dim: int) -> Tensor:
    """Normal(0, 1/sqrt(dim)) embedding table; one of width 0 holds nothing to scale."""
    scale = 1.0 / np.sqrt(dim) if dim else 1.0
    t = Tensor(rng.gen.normal(0.0, scale, size=(rows, dim)), requires_grad=True)
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
