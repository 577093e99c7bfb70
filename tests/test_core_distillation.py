"""Tests for relation-based ensemble self-distillation (Eq. 16–17)."""

import engine_oracle
import numpy as np
import pytest
from engine_oracle import relation_distillation_loss

from repro.autograd import ops, Tensor
from repro.core import distillation
from repro.core.distillation import (
    DistillationConfig,
    ensemble_relation,
    relation_distillation_step,
)
from repro.nn.module import Parameter


def tables(seed=0, items=20, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {
        group: rng.normal(0, 0.1, (items, dim)).astype(dtype)
        for group, dim in (("s", 4), ("m", 6), ("l", 8))
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(num_items=1)
        with pytest.raises(ValueError):
            DistillationConfig(num_items=0)

    def test_defaults(self):
        config = DistillationConfig()
        assert config.num_items >= 2
        assert distillation.LR > 0 and distillation.STEPS >= 0


class TestEnsembleRelation:
    def test_is_mean_of_cosine_matrices(self):
        ts = tables()
        subset = np.array([0, 3, 7])
        target = ensemble_relation(ts, subset)
        manual = np.mean(
            [
                ops.cosine_similarity_matrix(Tensor(table[subset])).data
                for table in ts.values()
            ],
            axis=0,
        )
        assert np.allclose(target, manual)

    def test_symmetric_unit_diagonal(self):
        ts = tables()
        subset = np.arange(5)
        target = ensemble_relation(ts, subset)
        assert np.allclose(target, target.T)
        assert np.allclose(np.diag(target), 1.0)


class TestDistillationLoss:
    def test_zero_when_already_aligned(self):
        ts = tables()
        subset = np.arange(6)
        own = ops.cosine_similarity_matrix(Tensor(ts["s"][subset])).data
        loss = relation_distillation_loss(Parameter(ts["s"]), subset, own)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_misaligned(self):
        ts = tables()
        subset = np.arange(6)
        target = np.eye(6)
        loss = relation_distillation_loss(Parameter(ts["s"]), subset, target)
        assert float(loss.data) > 0


class TestDistillationStep:
    def test_reduces_relation_distance(self, monkeypatch):
        """Repeated steps shrink every table's distance to the ensemble."""
        monkeypatch.setattr(distillation, "LR", 0.05)
        ts = tables(seed=1)
        config = DistillationConfig(num_items=10)
        rng = np.random.default_rng(0)

        # Fixed subset probe: measure alignment before and after.
        probe = np.arange(10)
        before_target = ensemble_relation(ts, probe)
        before = {
            k: float(relation_distillation_loss(Parameter(t), probe, before_target).data)
            for k, t in ts.items()
        }
        for _ in range(30):
            relation_distillation_step(ts, config, rng)
        after_target = ensemble_relation(ts, probe)
        after = {
            k: float(relation_distillation_loss(Parameter(t), probe, after_target).data)
            for k, t in ts.items()
        }
        assert sum(after.values()) < sum(before.values())

    def test_returns_losses_per_table(self):
        ts = tables()
        losses = relation_distillation_step(
            ts, DistillationConfig(num_items=8), np.random.default_rng(0)
        )
        assert set(losses) == {"s", "m", "l"}
        assert all(v >= 0 for v in losses.values())

    def test_zero_steps_leaves_tables_unchanged(self, monkeypatch):
        monkeypatch.setattr(distillation, "STEPS", 0)
        ts = tables()
        snapshot = {k: t.copy() for k, t in ts.items()}
        relation_distillation_step(
            ts, DistillationConfig(num_items=8), np.random.default_rng(0)
        )
        for k, t in ts.items():
            assert np.array_equal(t, snapshot[k])

    def test_subset_capped_at_catalogue(self):
        ts = tables(items=5)
        relation_distillation_step(
            ts, DistillationConfig(num_items=1000),
            np.random.default_rng(0),
        )  # must not raise

    def test_only_subset_rows_move(self, monkeypatch):
        monkeypatch.setattr(distillation, "LR", 0.1)
        ts = tables(items=30)
        snapshot = ts["l"].copy()
        config = DistillationConfig(num_items=5)
        relation_distillation_step(ts, config, np.random.default_rng(3))
        moved = np.abs(ts["l"] - snapshot).sum(axis=1) > 0
        assert 0 < moved.sum() <= 5


class TestReskdClosedForm:
    """The numpy relation step against its tape form (``engine_oracle``):
    tables, their dtype, returned losses and the KD stream it consumes,
    all bitwise, in float64 and in float32."""

    CATALOGUE = 20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("num_items", [2, 32, 1000], ids=["2", "32", "over-catalogue"])
    def test_bitwise_the_tape_step(self, num_items, steps, dtype, monkeypatch):
        monkeypatch.setattr(distillation, "STEPS", steps)
        monkeypatch.setattr(distillation, "LR", 0.05)
        config = DistillationConfig(num_items=num_items)
        numpy_tables = tables(seed=4, items=self.CATALOGUE, dtype=dtype)
        tape_tables = {k: Parameter(t.copy()) for k, t in numpy_tables.items()}
        numpy_rng, tape_rng = np.random.default_rng(9), np.random.default_rng(9)
        numpy_losses = relation_distillation_step(numpy_tables, config, numpy_rng)
        tape_losses = engine_oracle.relation_distillation_step(tape_tables, config, tape_rng)
        for name, table in numpy_tables.items():
            assert table.dtype == dtype
            assert tape_tables[name].data.dtype == dtype
            assert np.array_equal(table, tape_tables[name].data), name
        assert numpy_losses == tape_losses
        assert numpy_rng.bit_generator.state == tape_rng.bit_generator.state
