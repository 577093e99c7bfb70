"""Property-based gradient checks over the autodiff ops (hypothesis).

The existing op tests verify hand-picked cases; these sweep random
shapes and values through the finite-difference checker, which is the
strongest guarantee the substrate can give the algorithms built on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import ops
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor


def arrays(min_rows=1, max_rows=4, min_cols=1, max_cols=5):
    """Small float matrices with tame magnitudes (finite differences)."""
    return st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols),
        st.integers(0, 2**31 - 1),
    ).map(
        lambda args: np.random.default_rng(args[2]).uniform(
            -2.0, 2.0, size=(args[0], args[1])
        )
    )


class TestElementwiseGradients:
    @given(arrays())
    @settings(max_examples=25, deadline=None)
    def test_sigmoid_chain(self, values):
        assert gradcheck(lambda t: ops.log_sigmoid(t).sum(), [Tensor(values, requires_grad=True)])

    @given(arrays())
    @settings(max_examples=25, deadline=None)
    def test_square_sum(self, values):
        assert gradcheck(lambda t: (t * t).sum(), [Tensor(values, requires_grad=True)])

    @given(arrays())
    @settings(max_examples=20, deadline=None)
    def test_mean_and_reshape(self, values):
        assert gradcheck(
            lambda t: t.reshape(-1).mean(), [Tensor(values, requires_grad=True)]
        )


class TestMatrixGradients:
    @given(arrays(min_cols=2, max_cols=4))
    @settings(max_examples=20, deadline=None)
    def test_matmul(self, values):
        other = np.random.default_rng(0).uniform(-1, 1, size=(values.shape[1], 3))

        def f(t):
            return t.matmul(Tensor(other)).sum()

        assert gradcheck(f, [Tensor(values, requires_grad=True)])

    @given(arrays(min_rows=2, min_cols=2))
    @settings(max_examples=15, deadline=None)
    def test_cosine_similarity_matrix(self, values):
        # Keep away from the zero-row singularity.
        values = values + np.sign(values.sum(axis=1, keepdims=True) + 0.1) * 0.5

        def f(t):
            return ops.cosine_similarity_matrix(t).sum()

        assert gradcheck(f, [Tensor(values, requires_grad=True)], atol=1e-4)


class TestStructuralGradients:
    @given(arrays(min_rows=3), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gather_rows(self, values, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, values.shape[0], size=5)

        def f(t):
            return ops.gather(t, indices).sum()

        assert gradcheck(f, [Tensor(values, requires_grad=True)])

    @given(arrays(), arrays())
    @settings(max_examples=15, deadline=None)
    def test_concat_first_argument(self, a, b):
        if a.shape[0] != b.shape[0]:
            b = np.resize(b, (a.shape[0], b.shape[1]))

        def f(t):
            return ops.concat([t, Tensor(b)], axis=1).sum()

        assert gradcheck(f, [Tensor(a, requires_grad=True)])

    @given(arrays(min_rows=2))
    @settings(max_examples=15, deadline=None)
    def test_slicing(self, values):
        def f(t):
            return t[: values.shape[0] // 2 + 1, :].sum()

        assert gradcheck(f, [Tensor(values, requires_grad=True)])


class TestLossGradients:
    @given(arrays(min_rows=1, max_rows=1, min_cols=2, max_cols=8),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bce_with_logits(self, logits, seed):
        flat = logits.ravel()
        labels = np.random.default_rng(seed).integers(0, 2, size=flat.size).astype(float)

        def f(t):
            return ops.bce_with_logits(t, labels)

        assert gradcheck(f, [Tensor(flat, requires_grad=True)])

    @given(arrays(min_rows=2, min_cols=2))
    @settings(max_examples=15, deadline=None)
    def test_decorrelation_penalty(self, values):
        from engine_oracle import decorrelation_penalty

        # Give every column genuine variance so corr() is differentiable.
        values = values + np.random.default_rng(1).normal(0, 0.5, size=values.shape)

        def f(t):
            return decorrelation_penalty(t)

        assert gradcheck(f, [Tensor(values, requires_grad=True)], atol=1e-3)
