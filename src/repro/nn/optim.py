"""Optimisers: SGD and Adam.

Adam follows Kingma & Ba (2014) exactly, the optimiser the paper uses
(Section V-D, learning rate 0.001).  Both optimisers operate on any
iterable of parameters, so a federated client can optimise just its local
model's parameter subset.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter

#: SGD's momentum and L2 weight decay (0: plain SGD, the reference
#: trainer's local step).
MOMENTUM = 0.0
WEIGHT_DECAY = 0.0

#: Adam's moment decay rates and denominator guard (Kingma & Ba's values).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Optimizer:
    """Common bookkeeping: parameter list, ``zero_grad`` and ``step``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent, with ``MOMENTUM`` / ``WEIGHT_DECAY``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        super().__init__(parameters, lr)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if WEIGHT_DECAY:
                grad = grad + WEIGHT_DECAY * param.data
            if MOMENTUM:
                velocity = self._velocity.setdefault(id(param), np.zeros_like(param.data))
                velocity *= MOMENTUM
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2014).

    A step walks each parameter in blocks of :attr:`BLOCK` elements of
    its flat view, running the whole update on one block before the
    next: the block's slices of the parameter, gradient and moments stay
    in cache while the update reads them, and the temporaries live in one
    block-sized scratch pair per dtype instead of two parameter-sized
    arrays per parameter.  The update is elementwise and every element
    sees the same operations in the same order as an unblocked step, so
    the result is bitwise the same.
    """

    #: Elements per block (2^15: a float64 block is 256 KiB).
    BLOCK = 1 << 15

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001) -> None:
        super().__init__(parameters, lr)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}
        #: One block-sized scratch pair per dtype: a step allocates nothing.
        self._scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}

    def _scratch_for(self, dtype: np.dtype, size: int) -> Tuple[np.ndarray, np.ndarray]:
        size = min(size, self.BLOCK)
        pair = self._scratch.get(dtype)
        if pair is None or pair[0].size < size:
            pair = self._scratch[dtype] = (np.empty(size, dtype), np.empty(size, dtype))
        return pair

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            data = param.data
            key = id(param)
            if key not in self._m:
                # C order, so ``reshape(-1)`` below is a view.
                self._m[key] = np.zeros(data.shape, data.dtype)
                self._v[key] = np.zeros(data.shape, data.dtype)
            t = self._t.get(key, 0) + 1
            self._t[key] = t
            flat = data.reshape(-1)  # a copy only if ``data`` is not C-contiguous
            grads = param.grad.reshape(-1)
            ms, vs = self._m[key].reshape(-1), self._v[key].reshape(-1)
            works, steps = self._scratch_for(data.dtype, flat.size)
            bias1, bias2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for lo in range(0, flat.size, self.BLOCK):
                hi = min(lo + self.BLOCK, flat.size)
                theta, m, v = flat[lo:hi], ms[lo:hi], vs[lo:hi]
                work, step = works[: hi - lo], steps[: hi - lo]
                grad = grads[lo:hi]
                # In place, with the per-element operation order of the
                # textbook update: m ← β1·m + (1−β1)·g, v ← β2·v + (1−β2)·g²,
                # θ ← θ − lr · (m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε).
                m *= BETA1
                np.multiply(grad, 1.0 - BETA1, out=work)
                m += work
                v *= BETA2
                np.multiply(grad, grad, out=work)
                work *= 1.0 - BETA2
                v += work
                np.divide(v, bias2, out=work)
                np.sqrt(work, out=work)
                work += EPS
                np.divide(m, bias1, out=step)
                step /= work
                step *= self.lr
                theta -= step
            if not np.may_share_memory(flat, data):
                data[...] = flat.reshape(data.shape)
