"""Tape oracle of the round engine's closed-form objective.

The vectorized round engine (``repro/federated/round_engine.py``)
differentiates its bucket objective by hand.  This module keeps the tape
form that objective used to be built from — the two batched tape ops
(``batched_gather``, ``batched_sparse_matmul``), the per-slice
decorrelation penalty and the fused multi-width logits with LightGCN's
star-graph propagation — so tests can check the closed form's loss and
gradients against reverse-mode autodiff on identical inputs.

It also keeps the tape forms of the two other hand-differentiated
objectives: the per-table decorrelation penalty (Eq. 13) and the
server-side RESKD relation step (``repro/core/distillation.py``,
Eq. 16–17).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor, no_grad
from repro.core import distillation
from repro.nn.module import Parameter
from repro.nn.optim import SGD
from tape_functional import standardize_columns


def batched_gather(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Per-batch row selection ``out[b, l] = weight[b, indices[b, l]]``.

    The batched counterpart of :func:`repro.autograd.ops.gather`:
    ``weight`` stacks one embedding table per client ``(B, S, d)`` and
    ``indices`` holds each client's item batch ``(B, L)``.  The backward
    pass scatter-adds into the touched ``(b, row)`` pairs with
    ``np.add.at`` so duplicate items within a batch accumulate.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if weight.data.ndim != 3 or indices.ndim != 2:
        raise ValueError(
            f"batched_gather expects (B, S, d) weights and (B, L) indices, "
            f"got {weight.data.shape} and {indices.shape}"
        )
    batch_arange = np.arange(weight.data.shape[0])[:, None]
    out_data = weight.data[batch_arange, indices]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            np.add.at(weight._grad_buffer(), (batch_arange, indices), grad)

    return Tensor(
        out_data,
        requires_grad=weight.requires_grad,
        parents=(weight,),
        backward=backward,
    )


def batched_sparse_matmul(
    weight: Tensor, indices: np.ndarray, coeffs: np.ndarray
) -> Tensor:
    """Padded-CSR sparse × dense product per batch slice: ``(B, S, d) → (B, d)``.

    ``out[b] = Σ_l coeffs[b, l] · weight[b, indices[b, l]]`` — one sparse
    row vector per slice (right-padded with coefficient 0, so padded
    entries may point anywhere) against that slice's dense ``(S, d)``
    table: one client's normalized adjacency row against its working
    item table.  ``coeffs`` is a constant; the backward pass scatter-adds
    ``coeffs[b, l] · grad[b]`` into the touched rows with ``np.add.at``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=weight.data.dtype)
    if weight.data.ndim != 3 or indices.ndim != 2 or coeffs.shape != indices.shape:
        raise ValueError(
            f"batched_sparse_matmul expects (B, S, d) weights and aligned "
            f"(B, L) indices/coeffs, got {weight.data.shape}, "
            f"{indices.shape} and {coeffs.shape}"
        )
    batch_arange = np.arange(weight.data.shape[0])[:, None]
    gathered = weight.data[batch_arange, indices]
    out_data = np.matmul(coeffs[:, None, :], gathered)[:, 0, :]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            np.add.at(
                weight._grad_buffer(),
                (batch_arange, indices),
                coeffs[:, :, None] * grad[:, None, :],
            )

    return Tensor(
        out_data,
        requires_grad=weight.requires_grad,
        parents=(weight,),
        backward=backward,
    )


def decorrelation_penalty(embedding: Tensor, eps: float = 1e-8) -> Tensor:
    """Eq. 13 verbatim: ``(1/N) ‖corr((V - V̄)/√var(V))‖_F``.

    The correlation matrix of a column-standardised matrix is
    ``Z^T Z / M``.  Its diagonal is identically ~1 regardless of ``V``, and
    the paper keeps it inside the norm.  That is not a cosmetic detail:
    with off-diagonal mass ``s`` the penalty is ``√(s + N)/N``, whose
    gradient carries a ``1/(2√(s+N))`` factor — the constant diagonal
    *damps* the regulariser when the table is already decorrelated, which
    is what makes α ≈ 1 a stable operating point (Fig. 8).  Dropping the
    diagonal (a tempting "optimisation") makes the gradient explode near
    zero and the penalty dominate the recommendation loss.
    """
    rows, cols = embedding.shape
    if cols < 2:
        # A single dimension cannot be correlated with anything.
        return (embedding * 0.0).sum()
    z = standardize_columns(embedding, eps=eps)
    corr = z.T.matmul(z) / float(rows)
    return ((corr * corr).sum() + eps) ** 0.5 / float(cols)


def batched_decorrelation_penalty(stack: Tensor, eps: float = 1e-8) -> Tensor:
    """Eq. 13 per batch slice: ``(B, M, d) → (B,)`` penalties.

    Matches :func:`decorrelation_penalty` applied to each ``(M, d)`` slice — same standardisation, same
    in-norm diagonal, same ``eps`` placement.
    """
    _, m, d = stack.shape
    centred = stack - stack.mean(axis=1, keepdims=True)
    variance = (centred * centred).mean(axis=1, keepdims=True)
    z = centred / ((variance + eps) ** 0.5)
    corr = z.transpose((0, 2, 1)).matmul(z) / float(m)
    return ((corr * corr).sum(axis=(1, 2)) + eps) ** 0.5 / float(d)


def _propagate(table, user, item_vecs, nbr_idx, nbr_coeffs, has_neighbours, interacted):
    """One star-graph propagation step for the whole bucket, on the tape."""
    num_clients, dim = user.shape
    nbr_mean = batched_sparse_matmul(table, nbr_idx, nbr_coeffs)
    user_vecs = (user + nbr_mean) * 0.5
    if has_neighbours is not None:
        user_vecs = ops.where(has_neighbours, user_vecs, user)
    user_rows = user.reshape(num_clients, 1, dim)
    item_prop = ops.where(
        interacted[:, :, None], (item_vecs + user_rows) * 0.5, item_vecs
    )
    return user_vecs, item_prop


def _fused_logits(ffn, user_vecs, item_vecs, heads: Dict[str, Tensor], dim: int):
    """All dual-task widths' logits at once → ``(T, B, L)``."""
    num_clients, max_len = item_vecs.shape[0], item_vecs.shape[1]
    num_tasks = heads["gmf.weight"].shape[0]
    user_col = user_vecs.reshape(1, num_clients, dim, 1)
    logits = item_vecs.matmul(user_col * heads["gmf.weight"]).reshape(
        num_tasks, num_clients, max_len
    )
    z = None
    for kind, position in ffn:
        if kind == "relu":
            z = z.relu()
            continue
        weight = heads[f"ffn.layer{position}.weight"]
        if z is None:
            user_term = user_vecs.reshape(1, num_clients, 1, dim).matmul(
                weight[:, :, :dim, :]
            )
            z = item_vecs.matmul(weight[:, :, dim:, :]) + user_term
        else:
            z = z.matmul(weight)
        bias = heads.get(f"ffn.layer{position}.bias")
        if bias is not None:
            z = z + bias.reshape(num_tasks, num_clients, 1, -1)
    if z is None:
        return logits
    return logits + z.reshape(num_tasks, num_clients, max_len)


def tape_objective(
    values: Dict[str, np.ndarray],
    ffn: Sequence[Tuple[str, Optional[int]]],
    idx: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    graph=None,
    interacted: Optional[np.ndarray] = None,
    ddr=None,
) -> Tuple[Tensor, Dict[str, Parameter]]:
    """The engine's bucket objective built on the tape.

    ``values`` holds the stacked arrays under the engine's names (``U``,
    ``V`` and the head-stack names); ``graph`` is ``(nbr_idx, coeffs,
    has_neighbours)`` and ``ddr`` is ``(ddr_idx, alpha)``.  Returns the
    scalar loss ``Σ_tasks Σ_b mean_l BCE + α Σ_b penalty_b`` and the
    parameters it was built over (call ``loss.backward()`` for grads).
    """
    params = {name: Parameter(value.copy(), name=name) for name, value in values.items()}
    table, user = params["V"], params["U"]
    dim = user.shape[1]
    item_vecs = batched_gather(table, idx)
    if graph is not None:
        user_vecs, item_vecs = _propagate(table, user, item_vecs, *graph, interacted)
    else:
        user_vecs = user
    elementwise = ops.bce_with_logits(
        _fused_logits(ffn, user_vecs, item_vecs, params, dim), labels, reduction="none"
    )
    loss = (elementwise * weights).sum()
    if ddr is not None:
        ddr_idx, alpha = ddr
        loss = loss + alpha * batched_decorrelation_penalty(
            batched_gather(table, ddr_idx)
        ).sum()
    return loss, params


# ----------------------------------------------------------------------
# RESKD (Eq. 16–17) on the tape
# ----------------------------------------------------------------------
def ensemble_relation(tables: Dict[str, np.ndarray], subset: np.ndarray) -> np.ndarray:
    """Eq. 16: mean pairwise-cosine matrix of ``subset`` across tables."""
    matrices = []
    with no_grad():
        for values in tables.values():
            rows = Tensor(values[subset])
            matrices.append(ops.cosine_similarity_matrix(rows).data)
    return np.mean(matrices, axis=0)


def relation_distillation_loss(
    embedding: Parameter, subset: np.ndarray, target_relation: np.ndarray
) -> Tensor:
    """Eq. 17: squared distance between a table's relation and the ensemble."""
    rows = ops.gather(embedding, subset)
    relation = ops.cosine_similarity_matrix(rows)
    diff = relation - Tensor(target_relation)
    return (diff * diff).sum()


def relation_distillation_step(
    embeddings: Dict[str, Parameter], config, rng: np.random.Generator
) -> Dict[str, float]:
    """The tape form of :func:`repro.core.distillation.relation_distillation_step`:
    one SGD optimiser per table over the full-table ``.grad`` the gather
    scatters into."""
    catalogue = next(iter(embeddings.values())).data.shape[0]
    size = min(config.num_items, catalogue)
    subset = rng.choice(catalogue, size=size, replace=False)
    target = ensemble_relation(
        {name: param.data for name, param in embeddings.items()}, subset
    )
    losses: Dict[str, float] = {}
    for name, param in embeddings.items():
        final = 0.0
        if distillation.STEPS:
            optimizer = SGD([param], lr=distillation.LR)
            for _ in range(distillation.STEPS):
                optimizer.zero_grad()
                loss = relation_distillation_loss(param, subset, target)
                loss.backward()
                optimizer.step()
                final = float(loss.data)
        losses[name] = final
    return losses
