"""Server-side optimisers: FedAvgM, FedAdam, FedYogi (Reddi et al., 2021).

The paper applies aggregated deltas directly (its Eq. 4/9/15 with the
shared learning rate folded into local training).  The adaptive federated
optimisation line of work treats the aggregated delta as a
*pseudo-gradient* and feeds it through a server optimiser instead; this
module implements the three standard choices as drop-in alternatives so
their effect on HeteFedRec can be measured (see the server-optimiser
ablation bench).

State is keyed by parameter name, so a single :class:`ServerOptimizer`
instance serves every group's item table and every Θ head at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class ServerOptimizerConfig:
    """Server-update rule and its hyper-parameters.

    ``kind``:
        'sgd' (plain scaling — identical to the paper's rule at
        ``lr=1``), 'fedavgm' (server momentum), 'fedadam' or 'fedyogi'
        (adaptive, with the moment constants ``BETA1`` / ``BETA2`` /
        ``EPS`` below).
    """

    kind: str = "fedavgm"
    lr: float = 1.0
    momentum: float = 0.9

    _KINDS = ("sgd", "fedavgm", "fedadam", "fedyogi")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


#: FedAdam / FedYogi moment decay rates.
BETA1 = 0.9
BETA2 = 0.99
#: Adaptive-step denominator floor: the large default of the FedOpt paper,
#: not Adam's 1e-8, because pseudo-gradients are large.
EPS = 1e-3


class ServerOptimizer:
    """Transforms aggregated deltas into parameter steps, with state."""

    def __init__(self, config: ServerOptimizerConfig) -> None:
        self.config = config
        self._momentum: Dict[str, np.ndarray] = {}
        self._second: Dict[str, np.ndarray] = {}

    def step(self, key: str, delta: np.ndarray) -> np.ndarray:
        """The step to *add* to the parameter named ``key``.

        ``delta`` is the aggregated client movement for this round (the
        pseudo-gradient, already pointing downhill).
        """
        cfg = self.config
        if cfg.kind == "sgd":
            return cfg.lr * delta

        if cfg.kind == "fedavgm":
            buffer = self._momentum.get(key)
            if buffer is None or buffer.shape != delta.shape:
                buffer = np.zeros_like(delta)
            buffer = cfg.momentum * buffer + delta
            self._momentum[key] = buffer
            return cfg.lr * buffer

        # FedAdam / FedYogi share the first moment and differ in the second.
        m = self._momentum.get(key)
        if m is None or m.shape != delta.shape:
            m = np.zeros_like(delta)
        v = self._second.get(key)
        if v is None or v.shape != delta.shape:
            v = np.zeros_like(delta)

        m = BETA1 * m + (1.0 - BETA1) * delta
        squared = delta**2
        if cfg.kind == "fedadam":
            v = BETA2 * v + (1.0 - BETA2) * squared
        else:  # fedyogi — additive, sign-controlled second-moment update
            v = v - (1.0 - BETA2) * squared * np.sign(v - squared)
        self._momentum[key] = m
        self._second[key] = v
        return cfg.lr * m / (np.sqrt(v) + EPS)

    def reset(self) -> None:
        self._momentum.clear()
        self._second.clear()

    # ------------------------------------------------------------------
    # Checkpointing: the moments ARE the optimiser, so a resumed run must
    # carry them — restarting them at zero silently changes every
    # subsequent adaptive step.
    # ------------------------------------------------------------------
    def export_moments(self) -> "tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]":
        """Copies of the per-parameter first/second moment buffers."""
        return (
            {key: buf.copy() for key, buf in self._momentum.items()},
            {key: buf.copy() for key, buf in self._second.items()},
        )

    def load_moments(
        self,
        momentum: Dict[str, np.ndarray],
        second: Dict[str, np.ndarray],
    ) -> None:
        """Replace all moment state with checkpointed buffers."""
        self._momentum = {key: np.array(buf) for key, buf in momentum.items()}
        self._second = {key: np.array(buf) for key, buf in second.items()}

    def state_norms(self) -> Dict[str, float]:
        """L2 norm of each momentum buffer (diagnostics / tests)."""
        return {key: float(np.linalg.norm(buf)) for key, buf in self._momentum.items()}
