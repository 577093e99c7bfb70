"""Per-group metric breakdown (the data behind Fig. 6).

Given an :class:`~repro.eval.evaluator.EvaluationResult` and the client
group assignment, splits the per-user metric arrays by group and averages
within each — producing the ``U_s`` / ``U_m`` / ``U_l`` bars of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.eval.evaluator import EvaluationResult


@dataclass(frozen=True)
class GroupMetrics:
    """Mean Recall@K / NDCG@K inside one client group."""

    group: str
    recall: float
    ndcg: float
    num_users: int


def per_group_metrics(
    result: EvaluationResult,
    group_of_user: Mapping[int, str],
) -> Dict[str, GroupMetrics]:
    """Split a result's per-user metrics by the ``s`` / ``m`` / ``l`` groups.

    ``group_of_user`` maps user id → group label; users missing from the
    mapping are ignored (they were not part of the experiment).
    """
    out: Dict[str, GroupMetrics] = {}
    labels = np.array(
        [group_of_user.get(int(user), "?") for user in result.evaluated_users]
    )
    for group in ("s", "m", "l"):
        mask = labels == group
        if not mask.any():
            out[group] = GroupMetrics(group=group, recall=0.0, ndcg=0.0, num_users=0)
            continue
        out[group] = GroupMetrics(
            group=group,
            recall=float(result.per_user_recall[mask].mean()),
            ndcg=float(result.per_user_ndcg[mask].mean()),
            num_users=int(mask.sum()),
        )
    return out
