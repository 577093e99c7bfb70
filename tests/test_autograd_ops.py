"""Tests for structural/composite ops: concat, stack, gather, losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_oracle import batched_gather, batched_sparse_matmul

from repro.autograd import Tensor, ops


class TestConcat:
    def test_forward_axis1(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        assert np.allclose(out.data[:, :2], 1.0)

    def test_gradient_splits_correctly(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        out.backward(np.tile(np.arange(5.0), (2, 1)))
        assert np.allclose(a.grad, np.tile([0.0, 1.0], (2, 1)))
        assert np.allclose(b.grad, np.tile([2.0, 3.0, 4.0], (2, 1)))

    def test_axis0(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        ops.concat([a, b], axis=0).sum().backward()
        assert a.grad.shape == (1, 3)
        assert b.grad.shape == (2, 3)


class TestStack:
    def test_forward_and_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])


class TestGather:
    def test_selects_rows(self):
        w = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ops.gather(w, [2, 0])
        assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_duplicate_indices_accumulate(self):
        w = Tensor(np.zeros((4, 2)), requires_grad=True)
        ops.gather(w, [1, 1, 1]).sum().backward()
        assert np.allclose(w.grad[1], [3.0, 3.0])
        assert np.allclose(w.grad[0], [0.0, 0.0])

    def test_gradient_only_on_touched_rows(self):
        w = Tensor(np.ones((5, 2)), requires_grad=True)
        ops.gather(w, [0, 4]).sum().backward()
        touched = np.abs(w.grad).sum(axis=1) > 0
        assert list(touched) == [True, False, False, False, True]

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_gradient_counts_match_index_multiplicity(self, indices):
        w = Tensor(np.zeros((10, 1)), requires_grad=True)
        ops.gather(w, indices).sum().backward()
        for row in range(10):
            assert w.grad[row, 0] == indices.count(row)


class TestWhere:
    def test_selection(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([10.0, 20.0])
        out = ops.where(np.array([True, False]), a, b)
        assert np.allclose(out.data, [1.0, 20.0])

    def test_gradient_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        ops.where(np.array([True, False]), a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_broadcast_condition_column(self):
        mask = np.array([[True], [False]])
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ops.where(mask, a, b)
        assert np.allclose(out.data, [[1, 1, 1], [0, 0, 0]])


class TestLogSigmoid:
    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-5, 5, 11)
        out = ops.log_sigmoid(Tensor(x))
        assert np.allclose(out.data, np.log(1 / (1 + np.exp(-x))))

    def test_stable_at_extremes(self):
        out = ops.log_sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == pytest.approx(0.0, abs=1e-10)

    def test_gradient(self):
        x = Tensor([0.0], requires_grad=True)
        ops.log_sigmoid(x).sum().backward()
        assert np.allclose(x.grad, [0.5])  # 1 - σ(0)


class TestBCEWithLogits:
    def test_matches_manual_formula(self):
        logits = np.array([0.3, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        out = ops.bce_with_logits(Tensor(logits), targets)
        sig = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(sig) + (1 - targets) * np.log(1 - sig)).mean()
        assert out.data == pytest.approx(manual)

    def test_reductions(self):
        logits = Tensor(np.zeros(4))
        per_item = ops.bce_with_logits(logits, np.ones(4), reduction="none")
        assert per_item.shape == (4,)
        total = ops.bce_with_logits(logits, np.ones(4), reduction="sum")
        assert total.data == pytest.approx(4 * np.log(2))

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            ops.bce_with_logits(Tensor([0.0]), [1.0], reduction="bogus")

    def test_gradient_is_sigma_minus_target(self):
        logits = Tensor([0.0, 0.0], requires_grad=True)
        ops.bce_with_logits(logits, np.array([1.0, 0.0]), reduction="sum").backward()
        assert np.allclose(logits.grad, [-0.5, 0.5])

    def test_stable_for_extreme_logits(self):
        out = ops.bce_with_logits(Tensor([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(float(out.data))

    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=10),
        st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_loss_nonnegative(self, logits, labels):
        n = min(len(logits), len(labels))
        out = ops.bce_with_logits(
            Tensor(np.array(logits[:n])), np.array(labels[:n])
        )
        assert float(out.data) >= 0.0


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        sims = ops.cosine_similarity_matrix(x).data
        assert np.allclose(np.diag(sims), 1.0)

    def test_symmetric_and_bounded(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        sims = ops.cosine_similarity_matrix(x).data
        assert np.allclose(sims, sims.T)
        assert np.all(sims <= 1.0 + 1e-9)
        assert np.all(sims >= -1.0 - 1e-9)

    def test_orthogonal_rows(self):
        x = Tensor(np.eye(3))
        sims = ops.cosine_similarity_matrix(x).data
        assert np.allclose(sims, np.eye(3))

    def test_scale_invariance(self):
        base = np.random.default_rng(2).normal(size=(3, 4))
        a = ops.cosine_similarity_matrix(Tensor(base)).data
        b = ops.cosine_similarity_matrix(Tensor(base * 7.5)).data
        assert np.allclose(a, b)


class TestNormHelpers:
    def test_l2_normalize_unit_rows(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 5)))
        norms = np.linalg.norm(ops.l2_normalize(x).data, axis=1)
        assert np.allclose(norms, 1.0)

    def test_frobenius_norm(self):
        x = Tensor([[3.0, 4.0]])
        assert float(ops.frobenius_norm(x).data) == pytest.approx(5.0, rel=1e-6)


class TestBatchedGather:
    def test_forward_selects_per_batch_rows(self):
        weight = Tensor(np.arange(24, dtype=np.float64).reshape(2, 4, 3))
        idx = np.array([[0, 2], [3, 3]])
        out = batched_gather(weight, idx)
        assert np.array_equal(out.data[0], weight.data[0][[0, 2]])
        assert np.array_equal(out.data[1], weight.data[1][[3, 3]])

    def test_duplicate_indices_accumulate(self):
        weight = Tensor(np.zeros((1, 3, 2)), requires_grad=True)
        idx = np.array([[1, 1, 0]])
        out = batched_gather(weight, idx)
        out.sum().backward()
        assert np.array_equal(weight.grad[0, :, 0], [1.0, 2.0, 0.0])

    def test_gradcheck(self):
        from repro.autograd.gradcheck import gradcheck

        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        idx = rng.integers(0, 5, size=(2, 4))
        assert gradcheck(lambda w: (batched_gather(w, idx) ** 2).sum(), [weight])

    def test_matches_per_batch_gather(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(3, 6, 4))
        idx = rng.integers(0, 6, size=(3, 5))
        batched = batched_gather(Tensor(weight), idx)
        for b in range(3):
            single = ops.gather(Tensor(weight[b]), idx[b])
            assert np.array_equal(batched.data[b], single.data)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_gather(Tensor(np.zeros((2, 3))), np.zeros((2, 2), dtype=int))


class TestBatchedSparseMatmul:
    """The round engine's padded-CSR propagation primitive."""

    def test_forward_is_weighted_row_sum(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(2, 5, 3))
        idx = np.array([[0, 2, 4], [1, 1, 3]])
        coeffs = np.array([[0.5, 0.25, 0.25], [1.0, -1.0, 2.0]])
        out = batched_sparse_matmul(Tensor(weight), idx, coeffs)
        for b in range(2):
            expected = coeffs[b] @ weight[b][idx[b]]
            np.testing.assert_allclose(out.data[b], expected)

    def test_zero_coefficient_padding_is_inert(self):
        """Padded entries carry coefficient 0 and may point anywhere:
        they must contribute neither value nor gradient."""
        weight = Tensor(np.ones((1, 4, 2)), requires_grad=True)
        idx = np.array([[1, 3, 0]])
        coeffs = np.array([[0.5, 0.5, 0.0]])
        out = batched_sparse_matmul(weight, idx, coeffs)
        np.testing.assert_allclose(out.data, [[1.0, 1.0]])
        out.sum().backward()
        assert np.all(weight.grad[0, 0] == 0.0)
        np.testing.assert_allclose(weight.grad[0, 1], [0.5, 0.5])

    def test_duplicate_indices_accumulate(self):
        weight = Tensor(np.zeros((1, 3, 2)), requires_grad=True)
        idx = np.array([[1, 1, 0]])
        coeffs = np.array([[2.0, 3.0, 1.0]])
        batched_sparse_matmul(weight, idx, coeffs).sum().backward()
        np.testing.assert_allclose(weight.grad[0, :, 0], [1.0, 5.0, 0.0])

    def test_matches_gather_mean(self):
        """With coefficients 1/n this is exactly the neighbourhood mean
        LightGCN's reference path computes per client."""
        rng = np.random.default_rng(2)
        weight = rng.normal(size=(1, 8, 4))
        neighbours = np.array([0, 3, 5])
        idx = neighbours[np.newaxis]
        coeffs = np.full((1, 3), 1.0 / 3.0)
        out = batched_sparse_matmul(Tensor(weight), idx, coeffs)
        np.testing.assert_allclose(
            out.data[0], weight[0][neighbours].mean(axis=0), atol=1e-12
        )

    def test_gradcheck(self):
        from repro.autograd.gradcheck import gradcheck

        rng = np.random.default_rng(3)
        weight = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        idx = rng.integers(0, 6, size=(2, 4))
        coeffs = rng.normal(size=(2, 4))
        assert gradcheck(
            lambda w: (batched_sparse_matmul(w, idx, coeffs) ** 2).sum(),
            [weight],
        )

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError):
            batched_sparse_matmul(
                Tensor(np.zeros((2, 3, 2))),
                np.zeros((2, 2), dtype=int),
                np.zeros((2, 3)),
            )
