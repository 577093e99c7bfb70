"""Per-user train / validation / test splitting.

Follows the paper's protocol (Section V-A): per user, 80% of interactions
train and 20% test; when a client is selected for training, 10% of its
training data acts as a local validation set.  Splitting is per-user
because each client owns exactly one user's data.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.dataset import ClientData, InteractionDataset

#: The paper's split: 80% of a user's interactions train, 20% test, and
#: 10% of the training portion is the local validation set.
TRAIN_FRACTION = 0.8
VALID_FRACTION = 0.1


def train_test_split_per_user(dataset: InteractionDataset, seed: int = 0) -> List[ClientData]:
    """Split every user's interactions into train/valid/test.

    ``VALID_FRACTION`` is taken *from the training portion* (paper: "10% of
    its training data will be used as the validation set").  Every user is
    guaranteed at least one training item; users with a single interaction
    get it as training data and empty valid/test sets.
    """
    rng = np.random.default_rng(seed)
    clients: List[ClientData] = []
    for user_id, items in enumerate(dataset.user_items):
        permuted = rng.permutation(items)
        n = permuted.size
        n_train_total = max(int(round(n * TRAIN_FRACTION)), 1) if n else 0
        train_and_valid = permuted[:n_train_total]
        test = permuted[n_train_total:]

        n_valid = int(round(train_and_valid.size * VALID_FRACTION))
        # Keep at least one training item.
        n_valid = min(n_valid, max(train_and_valid.size - 1, 0))
        valid = train_and_valid[:n_valid]
        train = train_and_valid[n_valid:]

        clients.append(
            ClientData(
                user_id=user_id,
                train_items=np.sort(train),
                valid_items=np.sort(valid),
                test_items=np.sort(test),
            )
        )
    return clients
