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
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.setdefault(id(param), np.zeros_like(param.data))
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2014)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}
        #: Two per-parameter scratch arrays: a step allocates nothing.
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            key = id(param)
            if key not in self._m:
                self._m[key] = np.zeros_like(param.data)
                self._v[key] = np.zeros_like(param.data)
                self._scratch[key] = (np.empty_like(param.data), np.empty_like(param.data))
            m, v = self._m[key], self._v[key]
            work, step = self._scratch[key]
            t = self._t.get(key, 0) + 1
            self._t[key] = t
            # In place, with the per-element operation order of the
            # textbook update: m ← β1·m + (1−β1)·g, v ← β2·v + (1−β2)·g²,
            # θ ← θ − lr · (m / (1−β1ᵗ)) / (√(v / (1−β2ᵗ)) + ε).
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=work)
            m += work
            v *= self.beta2
            np.multiply(grad, grad, out=work)
            work *= 1.0 - self.beta2
            v += work
            np.divide(v, 1.0 - self.beta2**t, out=work)
            np.sqrt(work, out=work)
            work += self.eps
            np.divide(m, 1.0 - self.beta1**t, out=step)
            step /= work
            step *= self.lr
            param.data -= step

    def reset_state(self) -> None:
        """Forget moment estimates (used when a client re-joins a round)."""
        self._m.clear()
        self._v.clear()
        self._t.clear()
        self._scratch.clear()
