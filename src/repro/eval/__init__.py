"""Evaluation: Recall@K, NDCG@K, per-user ranking, per-group breakdowns."""

from repro.eval.metrics import (
    blocked_top_k,
    mask_scored_items,
    ndcg_at_k,
    partial_top_k,
    rank_items,
    recall_at_k,
)
from repro.eval.evaluator import EvaluationResult, Evaluator
from repro.eval.groups import GroupMetrics, per_group_metrics
from repro.eval.significance import (
    BootstrapResult,
    paired_bootstrap,
    sign_test_pvalue,
)

__all__ = [
    "recall_at_k",
    "ndcg_at_k",
    "rank_items",
    "blocked_top_k",
    "partial_top_k",
    "mask_scored_items",
    "Evaluator",
    "EvaluationResult",
    "GroupMetrics",
    "per_group_metrics",
    "BootstrapResult",
    "paired_bootstrap",
    "sign_test_pvalue",
]
