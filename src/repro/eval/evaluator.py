"""The evaluator: turns a block scoring function into Table II-style numbers.

The federated trainers expose ``score_item_matrix(clients) -> (B, I)``;
the evaluator runs the full-ranking protocol over every client's test
(or validation) items and averages Recall@20 / NDCG@20, overall and (via
:mod:`repro.eval.groups`) per client group for Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ClientData
from repro.eval.metrics import blocked_top_k, mask_scored_items

#: Batched scoring hook: a block of clients → a (B, num_items) score matrix.
ScoreBlockFn = Callable[[Sequence[ClientData]], np.ndarray]


@dataclass
class EvaluationResult:
    """Aggregated metrics plus the per-user values they were averaged from."""

    recall: float
    ndcg: float
    k: int
    per_user_recall: np.ndarray
    per_user_ndcg: np.ndarray
    evaluated_users: np.ndarray

    def __str__(self) -> str:
        return f"Recall@{self.k}={self.recall:.5f} NDCG@{self.k}={self.ndcg:.5f}"


#: Users scored per block of :meth:`Evaluator.evaluate`.
BLOCK_SIZE = 256


class Evaluator:
    """Full-ranking evaluation over a fixed client split.

    Parameters
    ----------
    clients:
        Per-user splits; users with an empty held-out set are skipped
        (their metrics are undefined), matching common practice.
    k:
        Cut-off for Recall@K / NDCG@K (paper: 20).
    split:
        Which held-out set is ranked.  ``"test"`` ranks ``test_items``
        with every known (train + validation) item masked; ``"valid"``
        ranks ``valid_items`` with only ``train_items`` masked, so the
        test items stay unseen, exactly as at training time.
    """

    SPLITS = ("test", "valid")

    def __init__(
        self, clients: Sequence[ClientData], k: int = 20, split: str = "test"
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if split not in self.SPLITS:
            raise ValueError(f"split must be one of {self.SPLITS}, got {split!r}")
        self.clients = list(clients)
        self.k = k
        self.split = split

    def _held_out(self, client: ClientData) -> np.ndarray:
        return client.test_items if self.split == "test" else client.valid_items

    def _masked(self, client: ClientData) -> np.ndarray:
        return client.known_items() if self.split == "test" else client.train_items

    def evaluate(
        self,
        score_block_fn: ScoreBlockFn,
        user_subset: Optional[Sequence[int]] = None,
    ) -> EvaluationResult:
        """Full-ranking evaluation over blocks of users at once.

        ``score_block_fn`` maps a list of clients to one (B, num_items)
        score matrix (e.g. :meth:`FederatedTrainer.score_item_matrix`),
        ``BLOCK_SIZE`` clients a block;
        exclusion masking, top-k extraction and both metrics then run as
        block-level array operations.  Per user this equals ranking with
        :func:`~repro.eval.metrics.rank_items` and scoring with
        :func:`~repro.eval.metrics.recall_at_k` /
        :func:`~repro.eval.metrics.ndcg_at_k`, up to floating-point
        summation order.
        """
        subset = (
            set(int(u) for u in user_subset) if user_subset is not None else None
        )
        eligible = [
            client
            for client in self.clients
            if (subset is None or client.user_id in subset)
            and self._held_out(client).size > 0
        ]
        if not eligible:
            empty = np.empty(0)
            return EvaluationResult(0.0, 0.0, self.k, empty, empty, np.empty(0, dtype=int))

        discounts = 1.0 / np.log2(np.arange(self.k) + 2.0)
        ideal_cum = np.cumsum(discounts)
        recalls: List[np.ndarray] = []
        ndcgs: List[np.ndarray] = []
        for start in range(0, len(eligible), BLOCK_SIZE):
            block = eligible[start : start + BLOCK_SIZE]
            scores = np.array(score_block_fn(block), dtype=np.float64, copy=True)
            if scores.shape[0] != len(block):
                raise ValueError(
                    f"score block has {scores.shape[0]} rows for {len(block)} clients"
                )
            block_recall, block_ndcg = self._block_metrics(
                block, scores, discounts, ideal_cum
            )
            recalls.append(block_recall)
            ndcgs.append(block_ndcg)

        per_user_recall = np.concatenate(recalls)
        per_user_ndcg = np.concatenate(ndcgs)
        return EvaluationResult(
            recall=float(np.mean(per_user_recall)),
            ndcg=float(np.mean(per_user_ndcg)),
            k=self.k,
            per_user_recall=per_user_recall,
            per_user_ndcg=per_user_ndcg,
            evaluated_users=np.asarray([c.user_id for c in eligible], dtype=int),
        )

    def _block_metrics(
        self,
        block: Sequence[ClientData],
        scores: np.ndarray,
        discounts: np.ndarray,
        ideal_cum: np.ndarray,
    ) -> tuple:
        """Recall@k / NDCG@k for one scored block, fully vectorized."""
        # Vectorized exclusion masking: one fancy assignment for the block.
        mask_scored_items(scores, [self._masked(c) for c in block])

        top = blocked_top_k(scores, self.k)

        # Membership is only ever probed at the (B, k) top indices, so an
        # isin per row beats scattering a dense (B, num_items) indicator.
        held_out = [self._held_out(c) for c in block]
        lengths = np.array([np.unique(items).size for items in held_out])
        hits = np.zeros(top.shape, dtype=bool)
        for row, items in enumerate(held_out):
            hits[row] = np.isin(top[row], items)

        recall = hits.sum(axis=1) / lengths
        dcg = (hits * discounts[: top.shape[1]]).sum(axis=1)
        idcg = ideal_cum[np.minimum(lengths, self.k) - 1]
        return recall, dcg / idcg
