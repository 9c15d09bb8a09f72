"""AdamW with decoupled weight decay, over one flat parameter arena."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["AdamW"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moment decay rates and the denominator floor


class AdamW:
    """Adam moment updates plus a weight-decay term applied directly to the
    parameters, not folded into the gradient.

    The optimizer owns the parameters' memory: it copies them, in the order of
    the params dict, into one flat float64 buffer and rebinds each ``p.data``
    and ``p.grad`` to a view of it and of a second flat gradient buffer. A step
    is then a fixed number of whole-buffer passes, and each element gets the
    same arithmetic as the per-parameter formula. Code that rebinds ``p.data``
    or ``p.grad`` afterwards detaches the parameter; write into the views
    instead (``p.data[...] = arr``).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, weight_decay: float = 0.0):
        owner: dict[int, str] = {}
        for name, p in params.items():
            first = owner.setdefault(id(p), name)
            if first != name:
                raise ValueError(f"AdamW: parameters {first!r} and {name!r} are the same tensor")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        total = sum(p.size for p in params.values())
        self.flat_data = np.empty(total)
        self.flat_grad = np.zeros(total)
        lo = 0
        for p in params.values():
            shape, hi = p.shape, lo + p.size
            self.flat_data[lo:hi] = p.data.ravel()
            if p.grad is not None:
                self.flat_grad[lo:hi] = p.grad.ravel()
            p.data = self.flat_data[lo:hi].reshape(shape)
            p.grad = self.flat_grad[lo:hi].reshape(shape)
            lo = hi
        self.m = np.zeros(total)
        self.v = np.zeros(total)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        g, m, v = self.flat_grad, self.m, self.v
        m *= BETA1
        s1 = np.multiply(1.0 - BETA1, g)  # the step's two temporaries; no buffer outlives it
        m += s1
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=s1)
        s1 *= g
        v += s1
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=s1)
        np.multiply(self.lr, s1, out=s1)
        s2 = np.divide(v, bc2)
        np.sqrt(s2, out=s2)
        s2 += EPS
        s1 /= s2
        if self.weight_decay:
            np.multiply(self.lr * self.weight_decay, self.flat_data, out=s2)
            s1 += s2
        self.flat_data -= s1

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)
