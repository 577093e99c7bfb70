"""Tests for the functional helpers (mse, column standardisation)."""

import numpy as np
import pytest
import tape_functional as F

from repro.autograd import Tensor, gradcheck


class TestMSE:
    def test_zero_for_exact_match(self):
        pred = Tensor([1.0, 2.0])
        assert float(F.mse(pred, [1.0, 2.0]).data) == 0.0

    def test_value(self):
        pred = Tensor([0.0, 0.0])
        assert float(F.mse(pred, [2.0, 0.0]).data) == pytest.approx(2.0)

    def test_gradient(self):
        pred = Tensor([0.0, 0.0], requires_grad=True)
        assert gradcheck(lambda p: F.mse(p, [1.0, -1.0]), [pred])


class TestStandardizeColumns:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(3.0, 2.5, size=(200, 4)))
        z = F.standardize_columns(x).data
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.var(axis=0), 1.0, atol=1e-4)

    def test_constant_column_is_stable(self):
        x = Tensor(np.ones((10, 2)))
        z = F.standardize_columns(x).data
        assert np.all(np.isfinite(z))
        assert np.allclose(z, 0.0)

    def test_differentiable(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
        assert gradcheck(lambda x: (F.standardize_columns(x) ** 3).sum(), [x])


class TestReexports:
    def test_functional_namespace_is_complete(self):
        for name in (
            "bce_with_logits",
            "cosine_similarity_matrix",
            "l2_normalize",
            "log_sigmoid",
            "concat",
            "frobenius_norm",
        ):
            assert callable(getattr(F, name))
