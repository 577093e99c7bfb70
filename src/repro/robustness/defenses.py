"""Robust aggregation: server-side defences over heterogeneous uploads.

Classical robust aggregators assume dense homogeneous gradients.  FedRec
uploads are neither: they are row-sparse (a client only moves the items
it trained on) and, under HeteFedRec, column-heterogeneous.  The
implementations here adapt the classical rules to that structure:

* **Server-side norm clipping** (:func:`server_clip_updates`) bounds
  every upload's embedding-delta Frobenius norm at the median norm of
  the round ("median-of-norms" clipping) times a head-room factor —
  scale-amplification attacks lose their lever.
* **Per-row trimmed mean / median** (:func:`robust_embedding_aggregate`)
  computes the robust statistic per item row over the clients that
  actually *touched* that row (a global median would be ~0 because most
  clients never touch most rows), then rescales by the contributor count
  to preserve the sum semantics of Eq. 8.
* **Multi-Krum** (:func:`krum_select`) scores each upload by its
  distance to its closest peers (over zero-padded flattened deltas) and
  keeps the most central ones; the rest of the pipeline then aggregates
  only the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.federated.aggregation import pad_columns
from repro.federated.payload import ClientUpdate

_KINDS = ("none", "clip", "median", "trimmed_mean", "krum")


@dataclass
class RobustAggregationConfig:
    """Which defence the server applies, and its parameters.

    ``clip_headroom``:
        Multiplier over the round's median upload norm for 'clip'.

    'trimmed_mean' trims ``TRIM_FRACTION`` from each tail and multi-Krum
    keeps ``KRUM_KEEP`` of the uploads.
    """

    kind: str = "clip"
    clip_headroom: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.clip_headroom <= 0:
            raise ValueError(f"clip_headroom must be positive, got {self.clip_headroom}")


#: The defences that replace the padded sum with a per-row robust statistic.
ROW_KINDS = ("median", "trimmed_mean")
#: Fraction trimmed from each tail by 'trimmed_mean'.
TRIM_FRACTION = 0.2
#: Fraction of uploads multi-Krum keeps.
KRUM_KEEP = 0.7


def server_clip_updates(
    updates: Sequence[ClientUpdate], headroom: float = 3.0
) -> List[ClientUpdate]:
    """Clip every upload to ``headroom ×`` the round's median delta norm.

    Scale-invariant: the bound adapts to whatever magnitude honest
    updates have this round, so no absolute threshold needs tuning.
    """
    if not updates:
        return []
    # Frobenius norm of each delta, in O(touched rows).
    norms = np.array(
        [np.linalg.norm(u.embedding_delta.values) for u in updates],
        dtype=np.float64,
    )
    bound = float(np.median(norms)) * headroom
    if bound <= 0:
        return list(updates)
    clipped: List[ClientUpdate] = []
    for update, norm in zip(updates, norms):
        if norm > bound:
            clipped.append(update.scaled(bound / norm))
        else:
            clipped.append(update)
    return clipped


def _padded_deltas(
    updates: Sequence[ClientUpdate], widest: int
) -> np.ndarray:
    """(n_clients, rows, widest) stack of zero-padded embedding deltas.

    This is the one defence path that genuinely needs dense alignment:
    per-row medians/trimmed means and Krum distances compare clients
    coordinate-wise, so sparse uploads are densified here (and only
    here) via the payload escape hatch.
    """
    return np.stack(
        [pad_columns(u.embedding_delta.dense(), widest) for u in updates],
        axis=0,
    )


def _row_support(stacked: np.ndarray) -> np.ndarray:
    """(n_clients, rows) bool mask: did client c touch row r?"""
    return np.abs(stacked).sum(axis=2) > 0


def robust_embedding_aggregate(
    updates: Sequence[ClientUpdate],
    dims: Mapping[str, int],
    kind: str = "median",
) -> Dict[str, np.ndarray]:
    """Per-row robust combination, rescaled to sum semantics.

    For every item row, the robust statistic (coordinate-wise median or
    trimmed mean) is taken over the clients that touched the row, then
    multiplied by the touch count so the output is comparable to the
    plain sum of Eq. 8 — honest-only inputs reproduce (approximately)
    the plain aggregation, while a minority of poisoned rows is voted
    down instead of added in.
    """
    if not updates:
        return {}
    if kind not in ROW_KINDS:
        raise ValueError(f"kind must be one of {ROW_KINDS}, got {kind!r}")
    widest = max(dims.values())
    stacked = _padded_deltas(updates, widest)
    support = _row_support(stacked)
    n_clients, rows, _ = stacked.shape

    total = np.zeros((rows, widest), dtype=np.float64)
    counts = support.sum(axis=0)
    for row in np.flatnonzero(counts):
        contributors = stacked[support[:, row], row, :]
        if kind == "median":
            statistic = np.median(contributors, axis=0)
        else:
            k = int(np.floor(contributors.shape[0] * TRIM_FRACTION))
            if 2 * k >= contributors.shape[0]:
                statistic = np.median(contributors, axis=0)
            else:
                ordered = np.sort(contributors, axis=0)
                trimmed = ordered[k : contributors.shape[0] - k]
                statistic = trimmed.mean(axis=0)
        total[row] = statistic * counts[row]

    return {group: total[:, :width].copy() for group, width in dims.items()}


def krum_select(
    updates: Sequence[ClientUpdate],
    dims: Mapping[str, int],
) -> List[ClientUpdate]:
    """Multi-Krum: keep the uploads closest to their nearest peers.

    Each upload is scored by the sum of squared distances to its
    ``n - f - 1`` nearest neighbours (f = number dropped); the
    ``KRUM_KEEP`` lowest-scoring uploads survive.  Distances are over
    zero-padded flat embedding deltas, normalised per upload so that
    group width does not dominate the geometry.
    """
    n = len(updates)
    if n <= 2:
        return list(updates)
    keep = max(int(round(n * KRUM_KEEP)), 1)
    if keep >= n:
        return list(updates)

    widest = max(dims.values())
    flats = _padded_deltas(updates, widest).reshape(n, -1)
    norms = np.linalg.norm(flats, axis=1, keepdims=True)
    flats = flats / np.maximum(norms, 1e-12)

    squared = np.sum(flats**2, axis=1)
    distances = squared[:, None] + squared[None, :] - 2.0 * (flats @ flats.T)
    np.fill_diagonal(distances, np.inf)

    closest = max(n - (n - keep) - 1, 1)
    scores = np.sort(distances, axis=1)[:, :closest].sum(axis=1)
    survivors = np.argsort(scores)[:keep]
    return [updates[i] for i in sorted(survivors)]
