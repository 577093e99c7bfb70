"""Neural collaborative filtering (He et al., 2017), Eq. 5 of the paper.

``r̂_ij = σ(FFN([u_i, v_j]))`` — the user and item embeddings are
concatenated and pushed through the feed-forward head.  The sigmoid lives
in the loss (``bce_with_logits``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseRecommender


class NCF(BaseRecommender):
    """NCF scoring: head over the plain embedding concatenation."""

    arch = "ncf"

    def score_matrix(
        self,
        user_mat: np.ndarray,
        train_items=None,  # NCF scoring has no propagation stage
    ) -> np.ndarray:
        user_mat, item_mat = self._block(user_mat)
        return self.head.logits_matrix(user_mat, item_mat)
