"""Seeded weight initialisers.

Determinism matters in this reproduction for a structural reason beyond
test reproducibility: HeteFedRec's padding aggregation (paper Eq. 10)
requires that the *prefix slices* of the small/medium/large item-embedding
tables start from the same values, so every experiment builds its tables
through :func:`nested_embedding_tables`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

#: Fallback stream for callers that pass no Generator.  Seeded so that an
#: omitted ``rng`` degrades to a *reproducible* default rather than OS
#: entropy; it is a single shared stream, so order of calls matters —
#: anything on a bitwise-tested path should keep injecting its own.
_DEFAULT_SEED = 0
_default_rng = np.random.default_rng(_DEFAULT_SEED)

#: Std of every embedding initialisation: item tables, user embeddings.
EMBEDDING_STD = 0.01


def normal(shape, std: float = 0.01, rng: np.random.Generator | None = None) -> np.ndarray:
    """Gaussian initialisation, the standard choice for embedding tables."""
    rng = rng or _default_rng
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape, rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for feed-forward weights."""
    rng = rng or _default_rng
    fan_in, fan_out = shape[0], shape[1] if len(shape) > 1 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def nested_embedding_tables(
    num_items: int,
    dims: Sequence[int],
    rng: np.random.Generator | None = None,
) -> Dict[int, np.ndarray]:
    """Initialise one embedding table per dimension with shared prefixes.

    Draws a single ``num_items × max(dims)`` matrix and returns, for each
    requested dimension ``d``, its first ``d`` columns.  This realises the
    paper's initialisation requirement that
    ``V_s = V_m[:, :Ns] = V_l[:, :Ns]`` and ``V_m = V_l[:, :Nm]`` at t=0,
    the precondition for relationship Eq. 10 to hold throughout training.
    """
    if not dims:
        raise ValueError("dims must be non-empty")
    rng = rng or _default_rng
    master = rng.normal(0.0, EMBEDDING_STD, size=(num_items, max(dims)))
    return {d: master[:, :d].copy() for d in dims}
