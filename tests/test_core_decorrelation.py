"""Tests for the DDR penalty (Eq. 13) and collapse diagnostics (Table V)."""

import numpy as np
import pytest
from engine_oracle import decorrelation_penalty

from repro.autograd import Tensor, gradcheck
from repro.core.decorrelation import effective_rank, singular_value_variance


def correlated_matrix(rows=100, cols=6, seed=0):
    """Columns are near-copies of one factor → heavily correlated."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(rows, 1))
    return base @ np.ones((1, cols)) + 0.01 * rng.normal(size=(rows, cols))


def decorrelated_matrix(rows=100, cols=6, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, cols))


class TestDecorrelationPenalty:
    def test_orders_correlated_above_independent(self):
        corr = float(decorrelation_penalty(Tensor(correlated_matrix())).data)
        indep = float(decorrelation_penalty(Tensor(decorrelated_matrix())).data)
        assert corr > indep

    def test_floor_is_diagonal_term(self):
        """For a perfectly decorrelated table the penalty approaches
        √N / N = 1/√N — the constant diagonal inside the paper's norm."""
        cols = 16
        big = np.random.default_rng(1).normal(size=(20000, cols))
        value = float(decorrelation_penalty(Tensor(big)).data)
        assert value == pytest.approx(1 / np.sqrt(cols), rel=0.05)

    def test_upper_bound_when_fully_correlated(self):
        """All-identical columns: corr ≈ all-ones → ‖corr‖_F/N ≈ 1."""
        value = float(decorrelation_penalty(Tensor(correlated_matrix())).data)
        assert value == pytest.approx(1.0, rel=0.05)

    def test_single_column_is_zero(self):
        out = decorrelation_penalty(Tensor(np.random.default_rng(0).normal(size=(10, 1))))
        assert float(out.data) == 0.0

    def test_differentiable(self):
        x = Tensor(np.random.default_rng(2).normal(size=(12, 4)), requires_grad=True)
        assert gradcheck(decorrelation_penalty, [x], atol=1e-4, rtol=1e-3)

    def test_gradient_reduces_correlation(self):
        """A few gradient steps on the penalty must reduce it."""
        from repro.nn.module import Parameter
        from repro.nn.optim import SGD

        table = Parameter(correlated_matrix(rows=50, cols=4, seed=3))
        optimizer = SGD([table], lr=0.5)
        first = None
        for _ in range(50):
            optimizer.zero_grad()
            loss = decorrelation_penalty(table)
            loss.backward()
            optimizer.step()
            if first is None:
                first = float(loss.data)
        assert float(loss.data) < first


class TestSingularValueVariance:
    def test_isotropic_is_small(self):
        value = singular_value_variance(
            np.random.default_rng(0).normal(size=(5000, 8))
        )
        assert value < 0.1

    def test_collapsed_is_large(self):
        assert singular_value_variance(correlated_matrix(cols=8)) > 1.0

    def test_scale_invariant(self):
        base = np.random.default_rng(1).normal(size=(100, 6))
        assert singular_value_variance(base) == pytest.approx(
            singular_value_variance(base * 37.0), rel=1e-6
        )

    def test_degenerate_inputs(self):
        assert singular_value_variance(np.zeros((5, 1))) == 0.0
        assert singular_value_variance(np.zeros((5, 4))) == 0.0


class TestEffectiveRank:
    def test_isotropic_near_full_rank(self):
        value = effective_rank(np.random.default_rng(0).normal(size=(5000, 8)))
        assert value > 7.0

    def test_rank_one_collapse(self):
        assert effective_rank(correlated_matrix(cols=8)) < 2.0

    def test_ddr_training_increases_effective_rank(self):
        from repro.nn.module import Parameter
        from repro.nn.optim import SGD

        table = Parameter(correlated_matrix(rows=60, cols=5, seed=4))
        before = effective_rank(table.data)
        optimizer = SGD([table], lr=0.5)
        for _ in range(100):
            optimizer.zero_grad()
            loss = decorrelation_penalty(table)
            loss.backward()
            optimizer.step()
        assert effective_rank(table.data) > before
