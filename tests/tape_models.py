"""Tape forward passes of the models: the oracle their numpy paths match.

``repro`` scores through plain numpy (``BaseRecommender.score_matrix``)
and trains through the round engine's hand-derived backward, so its
layers and models are parameter containers without a forward pass.  This
module keeps the autodiff forms of the same forwards — each layer, the
scoring head, and one user's prefix scoring under every architecture —
so tests can gradient-check them and pin the numpy paths against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.models.base import BaseRecommender, ScoringHead
from repro.nn.layers import Embedding, Linear, ReLU, Sequential
from repro.nn.module import Module


class Sigmoid(Module):
    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    def __repr__(self) -> str:
        return "Tanh()"


def forward(module: Module, *inputs):
    """Run ``module`` on the tape: a layer, a ``Sequential`` or a ``ScoringHead``.

    ``Embedding`` takes integer row ids; a ``ScoringHead`` takes aligned
    (B, d) user and item batches and returns (B,) logits.
    """
    if isinstance(module, Linear):
        out = inputs[0].matmul(module.weight)
        if module.has_bias:
            out = out + module.bias
        return out
    if isinstance(module, Embedding):
        return ops.gather(module.weight, inputs[0])
    if isinstance(module, ReLU):
        return inputs[0].relu()
    if isinstance(module, Sigmoid):
        return inputs[0].sigmoid()
    if isinstance(module, Tanh):
        return inputs[0].tanh()
    if isinstance(module, Sequential):
        x = inputs[0]
        for layer in module:
            x = forward(layer, x)
        return x
    if isinstance(module, ScoringHead):
        user_vecs, item_vecs = inputs
        x = ops.concat([user_vecs, item_vecs], axis=1)
        mlp_logit = forward(module.ffn, x).reshape(-1)
        gmf_logit = forward(module.gmf, user_vecs * item_vecs).reshape(-1)
        return mlp_logit + gmf_logit
    raise NotImplementedError(f"no tape forward for {type(module).__name__}")


def tile_user(user_vec: Tensor, batch: int) -> Tensor:
    """Broadcast a (d,) user vector into a (batch, d) matrix, differentiably.

    Implemented as ``ones(batch, 1) @ u.reshape(1, d)`` so the gradient of
    every row accumulates back into the single private user embedding.
    """
    ones = Tensor(np.ones((batch, 1)))
    return ones.matmul(user_vec.reshape(1, -1))


def item_vectors(
    model: BaseRecommender, item_ids: np.ndarray, width: Optional[int] = None
) -> Tensor:
    """Gather item rows, optionally truncated to a column prefix."""
    vecs = forward(model.item_embedding, item_ids)
    if width is not None and width < model.dim:
        vecs = vecs[:, :width]
    return vecs


def _validate_prefix(
    model: BaseRecommender, width: Optional[int], head: Optional[ScoringHead]
):
    """Resolve and validate a (width, head) prefix-submodel selection.

    ``width`` defaults to the full table and ``head`` to the model's own;
    the head must be exactly ``width`` wide.
    """
    head = head if head is not None else model.head
    effective = width if width is not None else model.dim
    if effective > model.dim:
        raise ValueError(f"width {effective} exceeds table dim {model.dim}")
    if head.dim != effective:
        raise ValueError(f"head dim {head.dim} does not match width {effective}")
    return effective, head


def logits(
    model: BaseRecommender,
    user_vec: Tensor,
    item_ids: np.ndarray,
    train_item_ids: Optional[np.ndarray] = None,
    width: Optional[int] = None,
    head: Optional[ScoringHead] = None,
) -> Tensor:
    """Preference logits of one user for ``item_ids``.

    ``width``/``head`` select a prefix sub-model: item vectors are the
    first ``width`` columns of the model's table, the user vector is
    truncated to match, and ``head`` (a smaller Θ) scores them.  With
    the defaults this is ordinary full-width scoring.  ``train_item_ids``
    carries the user's local graph for LightGCN; NCF and GMF ignore it.
    """
    effective, head = _validate_prefix(model, width, head)
    item_vecs = item_vectors(model, np.asarray(item_ids, dtype=np.int64), width=effective)
    if effective < user_vec.shape[-1]:
        user_vec = user_vec[:effective]
    score = _SCORERS[model.arch]
    return score(model, user_vec, item_vecs, np.asarray(item_ids), train_item_ids, head, effective)


def _score_ncf(model, user_vec, item_vecs, item_ids, train_item_ids, head, width):
    return forward(head, tile_user(user_vec, item_vecs.shape[0]), item_vecs)


def _score_mf(model, user_vec, item_vecs, item_ids, train_item_ids, head, width):
    user_mat = tile_user(user_vec, item_vecs.shape[0])
    return forward(head.gmf, user_mat * item_vecs).reshape(-1)


def _score_lightgcn(model, user_vec, item_vecs, item_ids, train_item_ids, head, width):
    batch = item_vecs.shape[0]
    if train_item_ids is None or len(train_item_ids) == 0:
        # No local graph (e.g. cold evaluation): the un-propagated
        # embeddings, the limit of the propagation as the neighbourhood
        # empties.
        user_prop = user_vec
        item_prop = item_vecs
    else:
        train_item_ids = np.asarray(train_item_ids, dtype=np.int64)
        neighbour_vecs = item_vectors(model, train_item_ids, width=width)
        user_prop = (user_vec + neighbour_vecs.mean(axis=0)) * 0.5

        interacted = np.isin(item_ids, train_item_ids).reshape(batch, 1)
        user_row = user_vec.reshape(1, -1)
        propagated = (item_vecs + user_row) * 0.5
        item_prop = ops.where(interacted, propagated, item_vecs)
    return forward(head, tile_user(user_prop, batch), item_prop)


_SCORERS = {"ncf": _score_ncf, "mf": _score_mf, "lightgcn": _score_lightgcn}
