"""Dimensional decorrelation regularisation (paper Eq. 12–14, Table V).

Optimising every prefix of a large table (Eq. 11) invites *dimensional
collapse*: all useful signal migrates into the shared low-dimensional
prefix and the trailing columns go dead, degrading HeteFedRec to All
Small.  The paper's fix penalises correlation between embedding
dimensions — following [70, 71], a Frobenius penalty on the correlation
matrix of the column-standardised table has the same effect as directly
penalising the variance of the covariance spectrum (Eq. 12) at a fraction
of the cost.

The penalty used in training (Eq. 13) is differentiated in closed form
by the round engine (:mod:`repro.federated.round_engine`); this module
holds the collapse diagnostics: the singular-value variance reported in
Table V and the effective rank.
"""

from __future__ import annotations

import numpy as np

#: Guard of :func:`effective_rank` against an all-zero spectrum and log(0).
EPS = 1e-12


def singular_value_variance(embedding: np.ndarray) -> float:
    """Table V diagnostic: spread of the covariance spectrum of ``V``.

    Computes the singular values of the covariance matrix of the item
    embedding, normalises them to mean 1 (so the statistic is scale-free,
    comparable across embedding magnitudes), and returns their variance —
    Eq. 12 evaluated at its minimiser's scale.  Higher = more collapsed.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] < 2:
        return 0.0
    centred = embedding - embedding.mean(axis=0, keepdims=True)
    covariance = centred.T @ centred / max(embedding.shape[0] - 1, 1)
    singular_values = np.linalg.svd(covariance, compute_uv=False)
    mean = singular_values.mean()
    if mean <= 0:
        return 0.0
    normalised = singular_values / mean
    return float(normalised.var())


def effective_rank(embedding: np.ndarray) -> float:
    """Shannon effective rank of the covariance spectrum.

    A complementary collapse diagnostic used in the extended analysis:
    exp(entropy of the normalised spectrum).  Ranges from 1 (fully
    collapsed) to N (isotropic).
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] < 1:
        return 0.0
    centred = embedding - embedding.mean(axis=0, keepdims=True)
    covariance = centred.T @ centred / max(embedding.shape[0] - 1, 1)
    spectrum = np.linalg.svd(covariance, compute_uv=False)
    total = spectrum.sum()
    if total <= EPS:
        return 0.0
    p = spectrum / total
    entropy = -np.sum(p * np.log(p + EPS))
    return float(np.exp(entropy))
