"""Tape functional helpers: losses and similarity utilities.

Thin, documented re-exports of the composite ops plus the generic pieces
of the regularisers HeteFedRec defines on raw matrices (the decorrelation
penalty built from them lives in ``engine_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor

bce_with_logits = ops.bce_with_logits
cosine_similarity_matrix = ops.cosine_similarity_matrix
l2_normalize = ops.l2_normalize
log_sigmoid = ops.log_sigmoid
concat = ops.concat
frobenius_norm = ops.frobenius_norm


def mse(prediction: Tensor, target) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=np.float64)
    diff = prediction - Tensor(target)
    return (diff * diff).mean()


def standardize_columns(matrix: Tensor, eps: float = 1e-8) -> Tensor:
    """Column-wise standardisation ``(X - mean) / sqrt(var + eps)``.

    This is the inner term of the paper's Eq. 13; keeping it here lets the
    decorrelation module and the tests share one definition.
    """
    centred = matrix - matrix.mean(axis=0, keepdims=True)
    variance = (centred * centred).mean(axis=0, keepdims=True)
    return centred / ((variance + eps) ** 0.5)
