"""Shared recommender structure: item embedding + scoring head.

A recommendation model in this codebase is split exactly as the paper
splits parameters:

* ``item_embedding`` — the public matrix ``V`` (|V| × N), dominating the
  parameter count;
* ``head`` — the predictor Θ (feed-forward layers over the concatenated
  user/item vectors, Eq. 5);
* the user embedding ``u_i`` is *not* part of the model: it is each
  client's private parameter and is passed into :meth:`score_matrix` by
  the federated layer.

Prefix scoring (``width`` < N) is first-class because HeteFedRec's unified
dual-task learning (Eq. 11) scores items with column-prefixes of a larger
table through a smaller head; gradients then flow into exactly those
prefix columns, which is what makes the padded aggregation sound.

A model has one forward pass, the plain-numpy :meth:`score_matrix`;
training differentiates the same scoring in the round engine's closed
form (:mod:`repro.federated.round_engine`).  The tape forms of both live
with the tests, as their gradient-checking oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Embedding, Linear, ReLU, Sequential
from repro.nn.module import Module


class ScoringHead(Module):
    """The predictor Θ: FFN over ``[u, v]`` plus a GMF path (Eq. 5).

    The MLP follows the paper's architecture — "three feedforward layers
    with [2×N, 8, 8] dimensions" (input width 2N, two hidden layers of 8
    units, scalar output).  In addition, the elementwise-product (GMF)
    path of the cited NCF paper (He et al., 2017, NeuMF fusion) feeds
    ``u ⊙ v`` through a linear term added to the logit.  The GMF path is
    what lets the embedding *width* carry model capacity: with a pure
    8-unit-bottleneck MLP, small and large embeddings score identically
    well, and the paper's size-heterogeneity premise cannot manifest.
    The sigmoid of Eq. 5 is folded into the loss (``bce_with_logits``).
    """

    def __init__(
        self,
        dim: int,
        hidden: Sequence[int] = (8, 8),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.hidden = tuple(hidden)
        widths = [2 * dim, *hidden, 1]
        layers = []
        for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
            layers.append(Linear(w_in, w_out, rng=rng))
            if i < len(widths) - 2:
                layers.append(ReLU())
        self.ffn = Sequential(*layers)
        self.gmf = Linear(dim, 1, bias=False, rng=rng)
        # Start the GMF path at the plain inner product: it gives the
        # model a useful collaborative-filtering prior from step one.
        self.gmf.weight.data[...] = 1.0

    # ------------------------------------------------------------------
    # Batched scoring (plain numpy)
    # ------------------------------------------------------------------
    def gmf_matrix(self, user_mat: np.ndarray, item_mat: np.ndarray) -> np.ndarray:
        """GMF logits for every user×item pair as one BLAS call.

        ``Σ_d u_d v_d w_d = (u ⊙ w) · v``, so the whole (B, I) block is
        ``(U ⊙ w) @ V.T`` — no (B, I, d) intermediate is materialised.
        """
        weighted_users = user_mat * self.gmf.weight.data[:, 0]
        return weighted_users @ item_mat.T

    def logits_matrix(self, user_mat: np.ndarray, item_mat: np.ndarray) -> np.ndarray:
        """Full-head logits (MLP + GMF) for every user×item pair, (B, I).

        The first FFN layer acts on ``[u, v]`` concatenations, so its
        pre-activation splits into a user term and an item term: two small
        GEMMs plus a broadcast add replace B·I per-pair concatenations.
        Activations are hidden-major, (B, h, I): every elementwise step runs in
        place along the long item axis, not an 8-wide hidden one, and each later
        layer is one (h', h) @ (h, I) GEMM per user; per element as in :meth:`logits_pairs`.
        """
        layers = list(self.ffn)
        first = layers[0]
        split = user_mat.shape[1]
        user_part = user_mat @ first.weight.data[:split]
        item_part = np.ascontiguousarray((item_mat @ first.weight.data[split:]).T)
        z = user_part[:, :, None] + item_part
        if first.has_bias:
            z += first.bias.data[:, None]
        for layer in layers[1:]:
            if isinstance(layer, ReLU):
                np.maximum(z, 0.0, out=z)
            else:
                z = layer.weight.data.T @ z
                if layer.has_bias:
                    z += layer.bias.data[:, None]
        return np.add(z[:, 0], self.gmf_matrix(user_mat, item_mat), out=z[:, 0])

    def logits_pairs(self, user_mat: np.ndarray, item_mat: np.ndarray) -> np.ndarray:
        """Full-head logits for *aligned* (P, d) user/item rows, (P,).

        Pair ``p`` scores ``user_mat[p]`` against ``item_mat[p]``.  Used
        where the all-pairs :meth:`logits_matrix` block does not apply —
        LightGCN's interacted items propagate per (user, item) edge, so
        their corrected scores are a sparse set of aligned pairs.
        """
        layers = list(self.ffn)
        first = layers[0]
        split = user_mat.shape[1]
        z = user_mat @ first.weight.data[:split] + item_mat @ first.weight.data[split:]
        if first.has_bias:
            z = z + first.bias.data
        for layer in layers[1:]:
            if isinstance(layer, ReLU):
                z = np.maximum(z, 0.0)
            else:
                z = z @ layer.weight.data
                if layer.has_bias:
                    z = z + layer.bias.data
        gmf = ((user_mat * self.gmf.weight.data[:, 0]) * item_mat).sum(axis=1)
        return z[:, 0] + gmf


class BaseRecommender(Module):
    """Item table + scoring head with prefix-sliced scoring.

    Parameters
    ----------
    num_items:
        Catalogue size |V|.
    dim:
        Item-embedding width N for this model instance.
    hidden:
        Hidden widths of the scoring head.
    item_weight:
        Optional explicit initial value for ``V`` — HeteFedRec passes
        prefix-shared initialisations here (see
        :func:`repro.nn.init.nested_embedding_tables`).
    """

    arch: str = "base"

    def __init__(
        self,
        num_items: int,
        dim: int,
        hidden: Sequence[int] = (8, 8),
        rng: Optional[np.random.Generator] = None,
        item_weight: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.num_items = num_items
        self.dim = dim
        self.item_embedding = Embedding(num_items, dim, rng=rng, weight=item_weight)
        self.head = ScoringHead(dim, hidden=hidden, rng=rng)

    # ------------------------------------------------------------------
    # Scoring API
    # ------------------------------------------------------------------
    def score_matrix(
        self,
        user_mat: np.ndarray,
        train_items: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Scores of *every* catalogue item for a stacked block of users.

        ``user_mat`` is (B, N); the result is (B, |V|) — one full-ranking
        score row per user, computed as blocked matrix products.
        ``train_items`` optionally carries each user's local graph (one id
        array per row, aligned with ``user_mat``) for architectures whose
        scoring propagates over it (LightGCN); NCF/GMF ignore it.  Every
        architecture must implement it: training evaluation, Standalone's
        personal models and the serving layer all score blocks.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched scoring"
        )

    def _block(self, user_mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The validated user block and the item table :meth:`score_matrix`
        implementations score."""
        user_mat = np.asarray(user_mat)
        if user_mat.ndim != 2:
            raise ValueError(f"user_mat must be (B, d), got {user_mat.shape}")
        return user_mat, self.item_embedding.weight.data

    # ------------------------------------------------------------------
    # Parameter partition (public V vs public Θ)
    # ------------------------------------------------------------------
    def embedding_key(self) -> str:
        return "item_embedding.weight"

    def head_state(self) -> dict:
        return {k: v for k, v in self.state_dict().items() if k.startswith("head.")}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(items={self.num_items}, dim={self.dim})"
