"""Parser for the real MovieLens-1M ``ratings.dat`` format.

The paper uses MovieLens-1M directly.  This module loads a real dump when
one is available on disk (``UserID::MovieID::Rating::Timestamp``), applies
the paper's preprocessing — binarise all ratings to ``r=1`` (implicit
feedback, Section V-A) — and re-indexes users/items densely so the result
drops into the same pipeline as the synthetic analogues.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.data.dataset import InteractionDataset

#: The field separator of ``ratings.dat``.
SEPARATOR = "::"


def parse_ratings_line(line: str) -> Optional[Tuple[int, int]]:
    """Parse one ``ratings.dat`` line into a (user, item) pair.

    Returns ``None`` for blank/malformed lines rather than raising, since
    real dumps occasionally contain stray content.
    """
    line = line.strip()
    if not line:
        return None
    parts = line.split(SEPARATOR)
    if len(parts) < 3:
        return None
    try:
        user, item = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    return user, item


def load_movielens(path: str, min_interactions: int = 1) -> InteractionDataset:
    """Load a MovieLens-format ratings file into an :class:`InteractionDataset`.

    Users and items are densely re-indexed in order of first appearance;
    every rating becomes an implicit positive (the paper binarises all
    ratings).  Users with fewer than ``min_interactions`` are dropped.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"ratings file not found: {path}")

    user_index = {}
    item_index = {}
    pairs = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            parsed = parse_ratings_line(line)
            if parsed is None:
                continue
            raw_user, raw_item = parsed
            user = user_index.setdefault(raw_user, len(user_index))
            item = item_index.setdefault(raw_item, len(item_index))
            pairs.append((user, item))

    dataset = InteractionDataset.from_pairs(
        pairs, num_users=len(user_index), num_items=len(item_index), name="ml-1m"
    )
    if min_interactions > 1:
        dataset = dataset.filter_min_interactions(min_interactions)
    return dataset


def save_ratings(dataset: InteractionDataset, path: str) -> None:
    """Write a dataset back out in ``ratings.dat`` format (rating=1, ts=0).

    Useful for round-trip tests and for exporting synthetic datasets to
    tools that expect the MovieLens layout.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for user, items in enumerate(dataset.user_items):
            for item in items:
                handle.write(f"{user}{SEPARATOR}{item}{SEPARATOR}1{SEPARATOR}0\n")
