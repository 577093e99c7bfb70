"""Tape oracle of the round engine's closed-form objective.

The vectorized round engine (``repro/federated/round_engine.py``)
differentiates its bucket objective by hand.  This module keeps the tape
form that objective used to be built from — the two batched tape ops
(``batched_gather``, ``batched_sparse_matmul``), the per-slice
decorrelation penalty and the fused multi-width logits with LightGCN's
star-graph propagation — so tests can check the closed form's loss and
gradients against reverse-mode autodiff on identical inputs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Parameter


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


def batched_decorrelation_penalty(stack: Tensor, eps: float = 1e-8) -> Tensor:
    """Eq. 13 per batch slice: ``(B, M, d) → (B,)`` penalties.

    Matches :func:`repro.core.decorrelation.decorrelation_penalty`
    applied to each ``(M, d)`` slice — same standardisation, same
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
