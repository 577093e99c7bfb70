"""Structural and composite differentiable operations.

These are the graph operations that do not fit naturally as
:class:`~repro.autograd.tensor.Tensor` methods: multi-input ops
(``concat``, ``stack``), the sparse embedding ``gather``, and the
numerically careful composites used by the recommendation losses
(``bce_with_logits``, ``cosine_similarity_matrix``, ``log_sigmoid``).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.autograd.tensor import ArrayLike, Tensor, unbroadcast


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    requires = any(t.requires_grad for t in tensors)
    return Tensor(out_data, requires_grad=requires, parents=tensors, backward=backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(slab, axis=axis))

    requires = any(t.requires_grad for t in tensors)
    return Tensor(out_data, requires_grad=requires, parents=tensors, backward=backward)


def gather(weight: Tensor, indices: Union[np.ndarray, Sequence[int]]) -> Tensor:
    """Select rows ``weight[indices]`` with sparse accumulation on backward.

    This is the embedding lookup.  The backward pass uses ``np.add.at`` so
    duplicate indices accumulate correctly.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            np.add.at(weight._grad_buffer(), indices, grad)

    return Tensor(
        out_data,
        requires_grad=weight.requires_grad,
        parents=(weight,),
        backward=backward,
    )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a constant boolean mask."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * (~condition), b.shape))

    requires = a.requires_grad or b.requires_grad
    return Tensor(out_data, requires_grad=requires, parents=(a, b), backward=backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``.

    Uses the identity ``log σ(x) = min(x, 0) - log(1 + exp(-|x|))`` which is
    safe for large-magnitude logits in both directions.
    """
    data = x.data
    out_data = np.minimum(data, 0.0) - np.log1p(np.exp(-np.abs(data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(data, -500, 500)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - sig))

    return Tensor(out_data, requires_grad=x.requires_grad, parents=(x,), backward=backward)


def bce_with_logits(logits: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on raw logits (Eq. 2 of the paper).

    Equivalent to ``-(r log σ(z) + (1-r) log(1-σ(z)))`` but computed in a
    numerically stable fused form: ``max(z,0) - z*r + log(1+exp(-|z|))``.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    z = logits.data
    out_data = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    if reduction == "mean":
        scale = 1.0 / max(out_data.size, 1)
        reduced = np.asarray(out_data.mean())
    elif reduction == "sum":
        scale = 1.0
        reduced = np.asarray(out_data.sum())
    elif reduction == "none":
        scale = None
        reduced = out_data
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        local = sig - targets
        if scale is None:
            logits._accumulate(grad * local)
        else:
            logits._accumulate(float(grad) * scale * local)

    return Tensor(
        reduced, requires_grad=logits.requires_grad, parents=(logits,), backward=backward
    )


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows of ``x`` to unit L2 norm (differentiable composite)."""
    squared = (x * x).sum(axis=axis, keepdims=True)
    norm = (squared + eps) ** 0.5
    return x / norm


def cosine_similarity_matrix(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Pairwise cosine similarity between rows of ``x``.

    Used by the relation-based ensemble distillation (Eq. 16): the spatial
    relation of a set of item embeddings is their row-wise cosine matrix.
    """
    unit = l2_normalize(x, axis=-1, eps=eps)
    return unit.matmul(unit.T)


def frobenius_norm(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Differentiable Frobenius norm ``sqrt(sum(x^2) + eps)``."""
    return ((x * x).sum() + eps) ** 0.5
