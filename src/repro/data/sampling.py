"""Negative sampling and local-batch construction.

The paper binarises ratings and samples negatives at a 1:4
positive-to-negative ratio (Section V-A).  Negatives are drawn uniformly
from the items the user has *not* interacted with — each client samples
against its own interaction set only, so no cross-client information is
needed (privacy constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


class NegativeSampler:
    """Uniform negative sampler over a user's non-interacted items.

    Rejection sampling against a membership table is O(ratio · positives)
    in the common sparse case; when a user has interacted with most of
    the catalogue we fall back to exact sampling from the complement.
    A client's positive set never changes, so its :meth:`exclusion` (the
    sorted ids plus the membership table) is computed once and handed to
    :meth:`sample_excluding` on every draw.
    """

    def __init__(self, num_items: int, seed: int = 0) -> None:
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        self.num_items = num_items
        self._rng = np.random.default_rng(seed)

    def exclusion(self, positive_items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted unique positives, boolean membership table)``."""
        positives = np.unique(np.asarray(positive_items, dtype=np.int64))
        membership = np.zeros(self.num_items, dtype=bool)
        membership[positives] = True
        return positives, membership

    def sample(self, positive_items: np.ndarray, count: int) -> np.ndarray:
        """Draw ``count`` item ids not present in ``positive_items``."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        return self.sample_excluding(self.exclusion(positive_items), count)

    def sample_excluding(
        self, exclusion: Tuple[np.ndarray, np.ndarray], count: int
    ) -> np.ndarray:
        """Draw ``count`` item ids outside a precomputed :meth:`exclusion`."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        positives, membership = exclusion
        if self.num_items - positives.size <= 0:
            raise ValueError("user has interacted with every item; no negatives exist")

        # Dense fallback: the complement is small enough to materialise.
        if positives.size > 0.5 * self.num_items:
            return self._rng.choice(np.flatnonzero(~membership), size=count, replace=True)

        # Batched rejection: draw 2× the outstanding need, mask out the
        # positives via the membership table, and keep accepted draws in
        # order.  Draw sizes and acceptance order match the historical
        # per-item rejection loop, so seeded runs are unchanged.
        samples = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            batch = self._rng.integers(
                0, self.num_items, size=(count - filled) * 2, dtype=np.int64
            )
            accepted = batch[~membership[batch]]
            take = min(accepted.size, count - filled)
            samples[filled : filled + take] = accepted[:take]
            filled += take
        return samples


@dataclass
class TrainingBatch:
    """A client-local training batch of (item, label) pairs for one user."""

    items: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.items.shape != self.labels.shape:
            raise ValueError("items and labels must align")

    def __len__(self) -> int:
        return int(self.items.size)


def assemble_batch(
    positives: np.ndarray,
    negatives: np.ndarray,
    shuffle_rng: np.random.Generator | None = None,
) -> TrainingBatch:
    """Labelled ``positives`` then ``negatives``, optionally shuffled."""
    items = np.concatenate([positives, negatives])
    if shuffle_rng is None:
        labels = np.concatenate(
            [np.ones(positives.size, dtype=np.float64), np.zeros(negatives.size, dtype=np.float64)]
        )
        return TrainingBatch(items=items, labels=labels)
    order = shuffle_rng.permutation(items.size)
    # Positives fill the first slots: a shuffled label is 1 iff its source was one.
    return TrainingBatch(items=items[order], labels=(order < positives.size).astype(np.float64))
