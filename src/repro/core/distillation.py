"""Relation-based ensemble self-knowledge distillation (paper Eq. 16–17).

Server-side and reference-data-free: after aggregation the server samples
a subset of items, computes their pairwise cosine-similarity matrix under
each of the three item tables, averages those matrices into an *ensemble
relation* (Eq. 16), and nudges every table so its own relation matrix
moves toward the ensemble (Eq. 17).  Knowledge flows across width classes
through shared spatial structure rather than through shared parameters —
the piece padding aggregation alone cannot provide.

The relation step is closed-form numpy: the forward, its hand-derived
backward and an SGD update of the subset rows, which are the only rows
with a non-zero gradient.  Every expression replays the arithmetic order
and the dtypes of the tape form it replaced (``tests/engine_oracle.py``
keeps that form as the oracle), so a table takes bitwise the same step,
in float32 as in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

#: Added to each row's squared norm.  A float64 scalar, so a float32
#: table's relation is float64 from the norms on, as RESKD always had it.
_NORM_EPS = np.float64(1e-12)


@dataclass
class DistillationConfig:
    """RESKD hyper-parameters.

    ``num_items``: size of the sampled distillation subset ``V_kd`` (the
    paper subsamples "to avoid heavy computation costs").
    """

    num_items: int = 32

    def __post_init__(self) -> None:
        if self.num_items < 2:
            raise ValueError("distillation needs at least 2 items for a relation")


#: How many SGD steps each table takes toward the ensemble relation per
#: federation round, and their learning rate.
STEPS = 1
LR = 0.002


def _unit_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(squared norms + eps, unit rows)`` of a (n, d) row block."""
    norm_sq = (rows * rows).sum(axis=-1, keepdims=True) + _NORM_EPS
    return norm_sq, rows / norm_sq**0.5


def ensemble_relation(
    tables: Mapping[str, np.ndarray], subset: np.ndarray
) -> np.ndarray:
    """Eq. 16: mean pairwise-cosine matrix of ``subset`` across tables."""
    matrices = []
    for table in tables.values():
        unit = _unit_rows(table[subset])[1]
        matrices.append(unit @ unit.T)
    return np.mean(matrices, axis=0)


def _relation_loss_and_grad(
    rows: np.ndarray, target_relation: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Eq. 17 on a row block: ``(‖cos(rows) − target‖², ∂loss/∂rows)``.

    With ``u = x / ‖x‖`` row-wise, ``R = u uᵀ`` and ``D = R − T``, the
    loss is ``Σ D²``; ``∂/∂R = 2D``, ``∂/∂u = 2D u + (uᵀ 2D)ᵀ``, and the
    normalisation's backward folds the norm's gradient back into ``x``.
    The gradient is in the rows' dtype: the two terms that land on ``x``
    and on its squared norms are rounded to it, as a gradient buffer of
    that dtype holds them.
    """
    norm_sq, unit = _unit_rows(rows)
    norm = norm_sq**0.5
    diff = unit @ unit.T - target_relation
    d_relation = diff + diff
    d_unit = d_relation @ unit
    d_unit += (unit.T @ d_relation).T
    d_norm = (-d_unit * rows / norm**2).sum(axis=1, keepdims=True)
    d_sq = (d_norm * 0.5 * norm_sq**-0.5).astype(rows.dtype)
    d_rows = (d_unit / norm).astype(rows.dtype)
    d_rows += d_sq * rows
    d_rows += d_sq * rows
    return float((diff * diff).sum()), d_rows


def relation_distillation_step(
    tables: Mapping[str, np.ndarray],
    config: DistillationConfig,
    rng: np.random.Generator,
) -> Dict[str, float]:
    """One full RESKD pass over all tables, in place; per-table final losses.

    The ensemble target is computed once from the pre-step tables (a fixed
    target, as in the paper — each table distils *toward* the ensemble, it
    does not chase the other tables mid-step), then each table descends
    the relation loss for ``STEPS`` SGD steps.  ``subset`` is drawn
    without replacement, so each step updates exactly its rows; a table
    keeps its dtype.
    """
    catalogue = next(iter(tables.values())).shape[0]
    size = min(config.num_items, catalogue)
    subset = rng.choice(catalogue, size=size, replace=False)
    target = ensemble_relation(tables, subset)

    losses: Dict[str, float] = {}
    for name, table in tables.items():
        final = 0.0
        for _ in range(STEPS):
            final, grad = _relation_loss_and_grad(table[subset], target)
            table[subset] -= LR * grad
        losses[name] = final
    return losses
