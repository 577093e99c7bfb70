"""Tests for unified dual-task learning (Eq. 11)."""

import numpy as np
import pytest
from reference_trainer import dual_task_loss
from tape_models import logits as tape_logits

from repro.autograd import ops
from repro.core.dual_task import widths_up_to
from repro.data.sampling import TrainingBatch
from repro.models import NCF, ScoringHead
from repro.nn.module import Parameter

DIMS = {"s": 4, "m": 6, "l": 8}


def heads(rng=None):
    rng = rng or np.random.default_rng(0)
    return {g: ScoringHead(d, rng=rng) for g, d in DIMS.items()}


def batch():
    return TrainingBatch(
        items=np.array([0, 1, 2, 3, 4]),
        labels=np.array([1.0, 1.0, 0.0, 0.0, 0.0]),
    )


class TestWidthsUpTo:
    def test_each_group(self):
        assert widths_up_to("s", DIMS) == ["s"]
        assert widths_up_to("m", DIMS) == ["s", "m"]
        assert widths_up_to("l", DIMS) == ["s", "m", "l"]

    def test_unknown_group(self):
        with pytest.raises(KeyError):
            widths_up_to("xl", DIMS)


class TestDualTaskLoss:
    def test_small_client_is_single_task(self):
        """For U_s the dual-task loss is exactly the plain BCE (Eq. 11 L_s)."""
        model = NCF(num_items=10, dim=4, rng=np.random.default_rng(1))
        hs = heads()
        u = Parameter(np.random.default_rng(2).normal(0, 0.1, 4))
        b = batch()
        dual = dual_task_loss(model, "s", DIMS, hs, u, b, np.array([0, 1]))
        logits = tape_logits(model, u, b.items, train_item_ids=np.array([0, 1]),
                              width=4, head=hs["s"])
        plain = ops.bce_with_logits(logits, b.labels)
        assert float(dual.data) == pytest.approx(float(plain.data))

    def test_large_client_sums_three_terms(self):
        model = NCF(num_items=10, dim=8, rng=np.random.default_rng(1))
        hs = heads()
        u = Parameter(np.random.default_rng(2).normal(0, 0.1, 8))
        b = batch()
        total = dual_task_loss(model, "l", DIMS, hs, u, b, np.array([0, 1]))
        parts = []
        for g in ("s", "m", "l"):
            logits = tape_logits(model, u, b.items, train_item_ids=np.array([0, 1]),
                                  width=DIMS[g], head=hs[g])
            parts.append(float(ops.bce_with_logits(logits, b.labels).data))
        assert float(total.data) == pytest.approx(sum(parts))

    def test_prefix_columns_receive_all_task_gradients(self):
        """The defining property of UDL: the first Ns columns of a large
        table are trained by the s-task as well, while trailing columns
        only see the wider tasks."""
        model = NCF(num_items=10, dim=8, rng=np.random.default_rng(1))
        hs = heads()
        u = Parameter(np.random.default_rng(2).normal(0, 0.1, 8))
        b = batch()

        # Gradient from the full dual-task loss.
        model.zero_grad()
        u.zero_grad()
        dual_task_loss(model, "l", DIMS, hs, u, b, np.array([0, 1])).backward()
        full_grad = model.item_embedding.weight.grad.copy()

        # Gradient from only the full-width term (same head as the
        # dual-task loss uses for the l-width task).
        model.zero_grad()
        logits = tape_logits(
            model, u, b.items, train_item_ids=np.array([0, 1]), width=8, head=hs["l"]
        )
        ops.bce_with_logits(logits, b.labels).backward()
        wide_only = model.item_embedding.weight.grad.copy()

        # Trailing columns [6:8] are touched only by the full-width task.
        assert np.allclose(full_grad[:, 6:], wide_only[:, 6:])
        # Prefix columns receive extra contributions from the narrower tasks.
        assert not np.allclose(full_grad[:, :4], wide_only[:, :4])

    def test_all_heads_receive_gradient(self):
        model = NCF(num_items=10, dim=8, rng=np.random.default_rng(1))
        hs = heads()
        u = Parameter(np.random.default_rng(2).normal(0, 0.1, 8))
        dual_task_loss(model, "l", DIMS, hs, u, batch(), np.array([0])).backward()
        for g in ("s", "m", "l"):
            grads = [p.grad for p in hs[g].parameters()]
            assert any(g_ is not None and np.abs(g_).sum() > 0 for g_ in grads)

    def test_medium_client_does_not_touch_large_head(self):
        model = NCF(num_items=10, dim=6, rng=np.random.default_rng(1))
        hs = heads()
        u = Parameter(np.random.default_rng(2).normal(0, 0.1, 6))
        dual_task_loss(model, "m", DIMS, hs, u, batch(), np.array([0])).backward()
        for p in hs["l"].parameters():
            assert p.grad is None
