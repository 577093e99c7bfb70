"""Automatic client-division and model-size search (paper future work).

The paper's conclusion names two open problems: HeteFedRec's performance
is sensitive to (a) the client-division ratio and (b) the per-group model
sizes, and leaves finding them to future work.  This module provides the
straightforward but effective solution space search: short *pilot runs*
over a candidate grid, scored by validation-set ranking quality, with the
winner used for the full-length training run.

Pilot runs are evaluated on each client's *validation* items (the 10%
the paper holds out of local training data) so the search never touches
the test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.eval.metrics import ndcg_at_k, rank_items

#: The paper's Table VI grid plus the homogeneous extremes.
DEFAULT_RATIO_CANDIDATES: Tuple[Tuple[float, float, float], ...] = (
    (5, 3, 2),
    (1, 1, 1),
    (2, 3, 5),
    (7, 2, 1),
)

#: The paper's Table VII grid.
DEFAULT_SIZE_CANDIDATES: Tuple[Dict[str, int], ...] = (
    {"s": 2, "m": 4, "l": 8},
    {"s": 8, "m": 16, "l": 32},
    {"s": 32, "m": 64, "l": 128},
)


@dataclass
class SearchResult:
    """Outcome of one pilot-search: the winner and the full score board."""

    best: object
    scores: List[Tuple[object, float]] = field(default_factory=list)

    def score_of(self, candidate) -> float:
        for cand, score in self.scores:
            if cand == candidate:
                return score
        raise KeyError(f"candidate {candidate!r} was not searched")


def validation_ndcg(
    trainer: HeteFedRec, clients: Sequence[ClientData], k: int = 20
) -> float:
    """Mean NDCG@k over *validation* items, masking train items only.

    Users without validation items are skipped; test items stay unseen
    (they are neither scored against nor masked, exactly as at training
    time).
    """
    values = []
    for client in clients:
        if client.valid_items.size == 0:
            continue
        scores = trainer.score_all_items(client)
        ranked = rank_items(scores, exclude=client.train_items, k=k)
        values.append(ndcg_at_k(ranked, client.valid_items, k=k))
    return float(np.mean(values)) if values else 0.0


def _pilot_config(config: HeteFedRecConfig, pilot_epochs: int) -> HeteFedRecConfig:
    return config.copy_with(epochs=pilot_epochs, eval_every=max(pilot_epochs, 1))


def search_division_ratio(
    num_items: int,
    clients: Sequence[ClientData],
    config: HeteFedRecConfig,
    candidates: Sequence[Tuple[float, float, float]] = DEFAULT_RATIO_CANDIDATES,
    pilot_epochs: int = 4,
    k: int = 20,
) -> SearchResult:
    """Pick the client-division ratio by validation pilot runs."""
    scores: List[Tuple[object, float]] = []
    for ratios in candidates:
        pilot = _pilot_config(config.copy_with(ratios=tuple(ratios)), pilot_epochs)
        trainer = HeteFedRec(num_items, clients, pilot)
        trainer.fit()
        scores.append((tuple(ratios), validation_ndcg(trainer, clients, k=k)))
    best = max(scores, key=lambda pair: pair[1])[0]
    return SearchResult(best=best, scores=scores)


def search_model_sizes(
    num_items: int,
    clients: Sequence[ClientData],
    config: HeteFedRecConfig,
    candidates: Sequence[Dict[str, int]] = DEFAULT_SIZE_CANDIDATES,
    pilot_epochs: int = 4,
    k: int = 20,
) -> SearchResult:
    """Pick the {N_s, N_m, N_l} setting by validation pilot runs."""
    scores: List[Tuple[object, float]] = []
    for dims in candidates:
        pilot = _pilot_config(config.copy_with(dims=dict(dims)), pilot_epochs)
        trainer = HeteFedRec(num_items, clients, pilot)
        trainer.fit()
        scores.append((tuple(sorted(dims.items())), validation_ndcg(trainer, clients, k=k)))
    best_key = max(scores, key=lambda pair: pair[1])[0]
    return SearchResult(best=dict(best_key), scores=scores)
