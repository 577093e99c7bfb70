"""Ranking metrics: Recall@K and NDCG@K (paper Section V-B).

Evaluation follows the standard full-ranking protocol used by the paper's
metric references (LightGCN, etc.): for each user, score every item, mask
out the items seen during training/validation, rank the rest, and measure
how many of the held-out test items appear in the top K.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def rank_items(
    scores: np.ndarray,
    exclude: Optional[np.ndarray] = None,
    k: Optional[int] = None,
) -> np.ndarray:
    """Item ids sorted by descending score, with ``exclude`` masked out.

    With ``k`` set, only the top-k slice is materialised via
    :func:`partial_top_k` — an O(n) ``np.argpartition`` pass plus an
    O(k log k) sort of the slice — instead of a full O(n log n) argsort.
    Both paths order ties identically (descending score, ascending id).
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    if exclude is not None and len(exclude):
        scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
    if k is None or k >= scores.size:
        return np.argsort(-scores, kind="stable")
    return partial_top_k(scores, k)


def partial_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ties broken by ascending index.

    Exactly equivalent to ``np.argsort(-scores, kind="stable")[:k]``.  A
    plain ``argpartition`` alone is not, because ties *at the k-boundary*
    may be resolved against the wrong (higher) indices; the boundary value
    is therefore handled explicitly: every index scoring strictly above the
    k-th value is in, and the remaining slots are filled with the lowest
    indices among those scoring exactly the k-th value.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= scores.size or np.isnan(scores).any():
        # NaNs break the boundary-value comparisons below (everything
        # compares False against a NaN k-th value); the stable argsort
        # ranks them last, preserving the historical behaviour.
        return np.argsort(-scores, kind="stable")[:k]
    kth_value = scores[np.argpartition(scores, scores.size - k)[scores.size - k]]
    above = np.flatnonzero(scores > kth_value)
    boundary = np.flatnonzero(scores == kth_value)[: k - above.size]
    top = np.concatenate([above, boundary])
    # Stable sort of the slice: ``flatnonzero`` yields ascending indices,
    # so equal scores keep ascending-id order, matching the full argsort.
    return top[np.argsort(-scores[top], kind="stable")]


def blocked_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`partial_top_k` over a (B, I) score block.

    One batched ``np.argpartition`` plus a batched sort of the (B, k)
    slice covers the common no-tie case; rows where ties could reorder the
    result (duplicate values inside the top-k, or the k-th value recurring
    beyond the boundary) are recomputed exactly, so every row equals
    ``np.argsort(-row, kind="stable")[:k]``; a ``k`` below 1 yields (B, 0).
    A floating block is ranked in its own dtype, anything else as float64
    (negating an unsigned block would wrap); widening float32 to float64 is
    exact and order-preserving, so every comparison, tie and NaN is float64's.
    """
    scores = np.asarray(scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected a (B, I) block, got shape {scores.shape}")
    num_rows, num_cols = scores.shape
    if k <= 0:
        return np.empty((num_rows, 0), dtype=np.int64)
    if k >= num_cols:
        return np.argsort(-scores, axis=1, kind="stable")
    candidates = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    values = np.take_along_axis(scores, candidates, axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    top = np.take_along_axis(candidates, order, axis=1)
    top_values = np.take_along_axis(values, order, axis=1)

    kth = top_values[:, -1]
    tie_inside = (
        (top_values[:, :-1] == top_values[:, 1:]).any(axis=1)
        if k > 1
        else np.zeros(num_rows, dtype=bool)
    )
    boundary_tie = (scores == kth[:, None]).sum(axis=1) > (
        top_values == kth[:, None]
    ).sum(axis=1)
    # NaN rows defeat both tie tests (all comparisons False), so route
    # them through the exact path as well.
    nan_rows = np.isnan(scores).any(axis=1)
    for row in np.flatnonzero(tie_inside | boundary_tie | nan_rows):
        top[row] = partial_top_k(scores[row], k)
    return top


def mask_scored_items(
    scores: np.ndarray, exclude: Sequence[Optional[np.ndarray]]
) -> np.ndarray:
    """Mask per-row item exclusions out of a (B, I) score block, in place.

    ``exclude`` aligns with the rows: one id array (or ``None``) per row.
    The single definition of exclusion masking shared by the evaluator's
    full-ranking protocol and the serving layer's top-k path — masked
    items score ``-inf`` and therefore never rank.  Returns ``scores``.
    """
    if scores.ndim != 2 or len(exclude) != scores.shape[0]:
        raise ValueError(
            f"expected one exclusion list per row of a (B, I) block, got "
            f"{len(exclude)} lists for shape {scores.shape}"
        )
    lengths = np.array(
        [0 if items is None else np.asarray(items).size for items in exclude]
    )
    if lengths.sum() > 0:
        rows = np.repeat(np.arange(scores.shape[0]), lengths)
        cols = np.concatenate(
            [
                np.asarray(items, dtype=np.int64)
                for items in exclude
                if items is not None and np.asarray(items).size
            ]
        )
        scores[rows, cols] = -np.inf
    return scores


def recall_at_k(ranked: Sequence[int], relevant: Sequence[int], k: int = 20) -> float:
    """|top-K ∩ relevant| / |relevant|; NaN-free (empty relevant → 0)."""
    relevant_set = set(int(i) for i in relevant)
    if not relevant_set:
        return 0.0
    top = list(ranked)[:k]
    hits = sum(1 for item in top if int(item) in relevant_set)
    return hits / len(relevant_set)


def ndcg_at_k(ranked: Sequence[int], relevant: Sequence[int], k: int = 20) -> float:
    """Normalised discounted cumulative gain with binary relevance.

    DCG = Σ_{positions p of hits} 1/log2(p+2); IDCG places all (up to K)
    relevant items at the top.
    """
    relevant_set = set(int(i) for i in relevant)
    if not relevant_set:
        return 0.0
    top = list(ranked)[:k]
    dcg = sum(
        1.0 / np.log2(position + 2.0)
        for position, item in enumerate(top)
        if int(item) in relevant_set
    )
    ideal_hits = min(len(relevant_set), k)
    idcg = sum(1.0 / np.log2(position + 2.0) for position in range(ideal_hits))
    return float(dcg / idcg) if idcg > 0 else 0.0
