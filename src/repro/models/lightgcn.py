"""Privacy-preserving LightGCN (He et al., 2020) on the client-local graph.

The paper (Section III-B) applies one layer of LightGCN propagation, and
"to ensure privacy, the propagation is only used in user's local graph" —
i.e. the only edges visible to a client are its own user→item edges.  On
that star-shaped local graph a single propagation step gives:

* user:   ``e_u' = (e_u + mean_{j ∈ N(u)} e_j) / 2`` — the user node
  absorbs the average of its interacted items (its entire neighbourhood);
* item:   ``e_j' = (e_j + e_u) / 2`` for items the user interacted with
  (their only local neighbour is the user), ``e_j' = e_j`` otherwise.

The propagated embeddings are then scored with the same FFN head as NCF
(Eq. 5).  Both steps are coordinatewise in the embedding, so
:meth:`LightGCN.score_matrix` batches them over a block of users, and the
round engine differentiates them in closed form: gradients flow back
through the neighbourhood average into the item table.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.base import BaseRecommender


class LightGCN(BaseRecommender):
    """One-layer local-graph LightGCN propagation + FFN scoring head."""

    arch = "lightgcn"

    def score_matrix(
        self,
        user_mat: np.ndarray,
        train_items: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Blocked full-catalogue scoring through the star-graph propagation.

        The same decomposition that batches training: the user rows
        absorb their neighbourhood means (one scatter-add over the
        concatenated edge list), after which the *non-interacted* items
        score exactly like NCF — one all-pairs ``logits_matrix`` block —
        while each user's interacted items mix with its un-propagated
        user row, a sparse set of aligned (user, item) pairs corrected
        in place via :meth:`ScoringHead.logits_pairs`.  ``train_items``
        omitted (or empty per user) degenerates to the un-propagated
        limit: an empty neighbourhood leaves the embeddings as they are.
        """
        user_mat, item_mat = self._block(user_mat)
        head = self.head
        num_users = user_mat.shape[0]
        if train_items is None:
            train_items = [None] * num_users
        if len(train_items) != num_users:
            raise ValueError(
                f"train_items has {len(train_items)} entries for {num_users} users"
            )

        lengths = np.array(
            [0 if items is None else len(items) for items in train_items],
            dtype=np.int64,
        )
        if lengths.sum() == 0:
            return head.logits_matrix(user_mat, item_mat)

        edge_users = np.repeat(np.arange(num_users), lengths)
        edge_items = np.concatenate(
            [
                np.asarray(items, dtype=np.int64)
                for items in train_items
                if items is not None and len(items)
            ]
        )

        # User propagation: e_u' = (e_u + mean_{j ∈ N(u)} e_j) / 2.
        neighbour_sums = np.zeros_like(user_mat)
        np.add.at(neighbour_sums, edge_users, item_mat[edge_items])
        connected = lengths > 0
        user_prop = user_mat.copy()
        user_prop[connected] = (
            user_mat[connected]
            + neighbour_sums[connected] / lengths[connected, np.newaxis]
        ) * 0.5

        scores = head.logits_matrix(user_prop, item_mat)
        # Interacted-item correction: e_j' = (e_j + e_u) / 2 on the edges.
        pair_items = (item_mat[edge_items] + user_mat[edge_users]) * 0.5
        scores[edge_users, edge_items] = head.logits_pairs(
            user_prop[edge_users], pair_items
        )
        return scores
