"""Generalized matrix factorization (GMF) — the pure dot-product family.

The paper's framework is base-model agnostic ("compatible with the
majority of deep learning-based recommendation models", Section III-B);
NCF and LightGCN are the two it evaluates.  GMF (He et al., 2017, §3.1)
is the natural third member and the one the federated-recommendation
pioneers ([12], FCF) actually used: the logit is a learned linear
function of the elementwise product ``u ⊙ v``, which at initialisation
is exactly the classic matrix-factorisation inner product.

GMF is the cleanest probe of *embedding-width* capacity — there is no
MLP path that could compensate for a narrow table — so the model-size
experiments (Table VII) are sharpest under it.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseRecommender


class GMF(BaseRecommender):
    """Scoring through the head's GMF path only.

    The shared :class:`ScoringHead` already contains both an MLP and a
    GMF path; GMF-the-model routes around the MLP so the logit is
    ``w · (u ⊙ v)`` alone.  The MLP parameters still exist (they keep Θ's
    shape identical across architectures, which Table III's accounting
    and the head-aggregation path rely on) but receive zero gradient.
    """

    arch = "mf"

    def score_matrix(
        self,
        user_mat: np.ndarray,
        train_items=None,  # GMF scoring has no propagation stage
    ) -> np.ndarray:
        user_mat, item_mat = self._block(user_mat)
        return self.head.gmf_matrix(user_mat, item_mat)
