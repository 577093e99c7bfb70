"""Server-side aggregation: padding-based heterogeneous aggregation.

Implements the paper's Eq. 7–9 (item embeddings) and Eq. 15 (predictor
heads).  The padding trick: zero-pad every uploaded item-embedding delta
to the widest dimension, sum, and let each width class read back its
column prefix.  With shared-prefix initialisation this preserves the
nesting invariant ``V_s = V_m[:, :Ns] = V_l[:, :Ns]`` (Eq. 10).

A deliberate deviation from the paper: head (Θ) updates default to
*averaging* rather than Eq. 15's summation because a dense sum over
hundreds of clients diverges at small scale; both modes are selectable,
and ``benchmarks/test_ablation_design.py`` regenerates the evidence
(``results/ablation_theta_mode.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.federated.payload import ClientUpdate


@dataclass
class AggregationConfig:
    """How client deltas combine into global parameter movements.

    Item-embedding deltas always sum (paper Eq. 8), and the server
    applies the aggregate unscaled.  The sum is not small: at the bench
    profile every client joins every round, and an ml item row is summed
    over about 93 contributing clients per round, so after a 20-epoch
    fit the mean item-row L2 norm reads 33–47 (ROADMAP measurement E).
    Bounding that step is ROADMAP item 23.

    ``theta_mode``:
        'mean' (default, stable) or 'sum' (paper Eq. 15 verbatim).
    """

    theta_mode: str = "mean"

    def __post_init__(self) -> None:
        if self.theta_mode not in ("sum", "mean"):
            raise ValueError(f"theta_mode must be 'sum' or 'mean', got {self.theta_mode!r}")


def pad_columns(delta: np.ndarray, target_width: int) -> np.ndarray:
    """Zero-pad a (rows × w) delta to (rows × target_width) — Eq. 7."""
    rows, width = delta.shape
    if width > target_width:
        raise ValueError(f"cannot pad width {width} down to {target_width}")
    if width == target_width:
        return delta
    padded = np.zeros((rows, target_width), dtype=delta.dtype)
    padded[:, :width] = delta
    return padded


def padded_embedding_aggregate(
    updates: Sequence[ClientUpdate],
    dims: Mapping[str, int],
) -> Dict[str, np.ndarray]:
    """Aggregate heterogeneous item-embedding deltas (Eq. 8).

    Pads every delta to the widest dimension, sums, and slices the
    per-group prefixes back out.  Returns ``{group: delta}`` for each group
    in ``dims``.

    Each upload scatter-adds its touched rows into the accumulator —
    O(rows touched) instead of O(catalogue) — which is numerically
    identical to the padded dense sum (untouched rows contribute exact
    zeros either way).
    """
    if not updates:
        return {}
    widest = max(dims.values())
    rows = updates[0].embedding_delta.shape[0]
    total = np.zeros((rows, widest), dtype=np.float64)
    for update in updates:
        delta = update.embedding_delta
        total[delta.rows, : delta.width] += delta.values
    return {group: total[:, :width].copy() for group, width in dims.items()}


def aggregate_head_updates(
    updates: Sequence[ClientUpdate],
    mode: str = "mean",
) -> Dict[str, Dict[str, np.ndarray]]:
    """Aggregate predictor-head deltas per head group (Eq. 15).

    Each client upload may carry deltas for several heads (a large client
    trains Θ_s, Θ_m and Θ_l under dual-task learning); every head key is
    combined over all clients that sent it.
    """
    sums: Dict[str, Dict[str, np.ndarray]] = {}
    for update in updates:
        for head_group, delta in update.head_deltas.items():
            bucket = sums.setdefault(head_group, {})
            for name, array in delta.items():
                if name in bucket:
                    bucket[name] = bucket[name] + array
                else:
                    bucket[name] = array.copy()

    if mode == "mean":
        mean_over_head_contributors(updates, sums)
    return sums


def mean_over_head_contributors(
    updates: Sequence[ClientUpdate], summed: Dict[str, Dict[str, np.ndarray]]
) -> None:
    """Eq. 15 'mean' mode, in place: each head's sums over the number
    of ``updates`` that sent it."""
    counts: Dict[str, int] = {}
    for update in updates:
        for head_group in update.head_deltas:
            counts[head_group] = counts.get(head_group, 0) + 1
    for head_group, state in summed.items():
        divisor = float(counts.get(head_group, 1))
        for name in state:
            state[name] = state[name] / divisor
