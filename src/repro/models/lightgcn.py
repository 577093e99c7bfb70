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
(Eq. 5).  Propagation happens inside the autodiff graph, so gradients flow
back through the neighbourhood average into the item table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.models.base import BaseRecommender, ScoringHead, tile_user


@dataclass(frozen=True)
class LocalGraphPropagation:
    """Batchable description of the star-graph propagation in ``_score``.

    The client-local graph is star-shaped (the user node joined to its
    ``train_item_ids``), so each of the ``layers`` propagation steps is
    fully described by the normalized adjacency of that star:

    * the user row is the degree-normalized neighbourhood average — a
      sparse row vector ``1/|N(u)|`` over the neighbour item rows, which
      the engine stacks across clients into one padded CSR layout and
      applies as one padded sparse–dense product per epoch;
    * interacted item rows mix with the user row elementwise.

    Both steps are coordinatewise in the embedding, so running them at
    the full group width and letting the zero-padded heads annihilate
    the ``≥ w`` coordinates reproduces every dual-task width's
    propagation exactly (same argument as the padded-head logits).
    """


class LightGCN(BaseRecommender):
    """One-layer local-graph LightGCN propagation + FFN scoring head."""

    arch = "lightgcn"

    def fused_propagation(self) -> LocalGraphPropagation:
        """The engine-executable form of this model's local propagation."""
        return LocalGraphPropagation()

    def score_matrix(
        self,
        user_mat: np.ndarray,
        width: Optional[int] = None,
        head: Optional[ScoringHead] = None,
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
        limit, matching :meth:`_score`.
        """
        user_mat, item_mat, head = self._prefix_block(user_mat, width, head)
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

    def _score(
        self,
        user_vec: Tensor,
        item_vecs: Tensor,
        item_ids: np.ndarray,
        train_item_ids: Optional[np.ndarray],
        head: ScoringHead,
        width: int,
    ) -> Tensor:
        batch = item_vecs.shape[0]

        if train_item_ids is None or len(train_item_ids) == 0:
            # No local graph available (e.g. cold evaluation): degenerate to
            # the un-propagated embeddings, which is the correct limit of
            # the propagation when the neighbourhood is empty.
            user_prop = user_vec
            item_prop = item_vecs
        else:
            train_item_ids = np.asarray(train_item_ids, dtype=np.int64)
            neighbour_vecs = self.item_vectors(train_item_ids, width=width)
            user_prop = (user_vec + neighbour_vecs.mean(axis=0)) * 0.5

            interacted = np.isin(item_ids, train_item_ids).reshape(batch, 1)
            user_row = user_vec.reshape(1, -1)
            propagated = (item_vecs + user_row) * 0.5
            item_prop = ops.where(interacted, propagated, item_vecs)

        user_mat = tile_user(user_prop, batch)
        return head(user_mat, item_prop)
