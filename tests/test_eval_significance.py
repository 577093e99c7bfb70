"""Tests for the paired significance machinery."""

import numpy as np
import pytest

from repro.eval import significance
from repro.eval.significance import (
    BootstrapResult,
    paired_bootstrap,
    sign_test_pvalue,
)


class TestPairedBootstrap:
    def test_clear_winner_is_significant(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(0, 0.2, 200)
        a = b + 0.1 + rng.normal(0, 0.01, 200)
        result = paired_bootstrap(a, b, seed=1)
        assert result.mean_difference == pytest.approx(0.1, abs=0.01)
        assert result.significant
        assert result.win_probability > 0.99

    def test_identical_methods_not_significant(self):
        values = np.random.default_rng(1).uniform(0, 1, 100)
        result = paired_bootstrap(values, values.copy(), seed=0)
        assert result.mean_difference == 0.0
        assert not result.significant

    def test_noise_only_not_significant(self, monkeypatch):
        monkeypatch.setattr(significance, "NUM_SAMPLES", 500)
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, 50)
        b = a + rng.normal(0, 0.5, 50)  # huge noise, no systematic gap
        result = paired_bootstrap(a, b, seed=0)
        assert isinstance(result, BootstrapResult)
        assert result.ci_low < 0 < result.ci_high or abs(result.mean_difference) > 0.1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            paired_bootstrap(np.zeros(0), np.zeros(0))

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=30), rng.uniform(size=30)
        first = paired_bootstrap(a, b, seed=7)
        second = paired_bootstrap(a, b, seed=7)
        assert first == second


class TestSignTest:
    def test_all_wins_tiny_pvalue(self):
        a = np.ones(20)
        b = np.zeros(20)
        assert sign_test_pvalue(a, b) < 1e-4

    def test_balanced_large_pvalue(self):
        a = np.array([1.0, 0.0] * 10)
        b = np.array([0.0, 1.0] * 10)
        assert sign_test_pvalue(a, b) > 0.5

    def test_all_ties(self):
        values = np.ones(10)
        assert sign_test_pvalue(values, values) == 1.0

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(size=25), rng.uniform(size=25)
        assert sign_test_pvalue(a, b) == pytest.approx(sign_test_pvalue(b, a))
