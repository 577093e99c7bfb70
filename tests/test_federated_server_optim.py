"""Tests for the server-side optimisers (FedAvgM / FedAdam / FedYogi)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import server_optim
from repro.federated.server_optim import ServerOptimizer, ServerOptimizerConfig


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ServerOptimizerConfig(kind="adamw")

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            ServerOptimizerConfig(lr=0.0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            ServerOptimizerConfig(momentum=1.0)

    def test_bad_betas(self):
        """The moment decay rates are constants, and valid ones."""
        assert 0.0 <= server_optim.BETA1 < 1.0
        assert 0.0 <= server_optim.BETA2 < 1.0


class TestSGDMode:
    def test_identity_at_unit_lr(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="sgd", lr=1.0))
        delta = np.array([1.0, -2.0])
        assert np.array_equal(opt.step("x", delta), delta)

    def test_scales_by_lr(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="sgd", lr=0.5))
        assert np.array_equal(opt.step("x", np.array([4.0])), np.array([2.0]))

    def test_stateless(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="sgd"))
        opt.step("x", np.ones(3))
        assert opt.state_norms() == {}


class TestFedAvgM:
    def test_first_step_equals_lr_delta(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", lr=1.0, momentum=0.9))
        delta = np.array([1.0, 2.0])
        assert np.allclose(opt.step("x", delta), delta)

    def test_momentum_accumulates(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", lr=1.0, momentum=0.5))
        opt.step("x", np.array([1.0]))
        second = opt.step("x", np.array([1.0]))
        assert np.allclose(second, [1.5])  # 0.5·1 + 1

    def test_converges_to_geometric_sum(self):
        momentum = 0.9
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", momentum=momentum))
        step = None
        for _ in range(300):
            step = opt.step("x", np.array([1.0]))
        assert np.allclose(step, 1.0 / (1.0 - momentum), atol=1e-3)

    def test_state_is_per_key(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", momentum=0.5))
        opt.step("a", np.array([1.0]))
        fresh = opt.step("b", np.array([1.0]))
        assert np.allclose(fresh, [1.0])

    def test_reset_clears_state(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", momentum=0.5))
        opt.step("x", np.array([1.0]))
        opt.reset()
        assert np.allclose(opt.step("x", np.array([1.0])), [1.0])


class TestFedAdam:
    def test_step_direction_follows_delta(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedadam", lr=0.1))
        step = opt.step("x", np.array([1.0, -1.0]))
        assert step[0] > 0 > step[1]

    def test_adaptive_normalisation(self, monkeypatch):
        """Constant deltas of different magnitude converge to similar step
        sizes — the signature of adaptive methods (with Adam's small
        ``EPS``, so the floor does not dominate the small delta)."""
        monkeypatch.setattr(server_optim, "EPS", 1e-8)
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedadam", lr=0.1))
        small = big = None
        for _ in range(500):
            small = opt.step("small", np.array([0.01]))
            big = opt.step("big", np.array([10.0]))
        assert abs(small[0] - big[0]) / abs(big[0]) < 0.05

    def test_zero_delta_zero_first_step(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedadam"))
        assert np.allclose(opt.step("x", np.zeros(4)), 0.0)


class TestFedYogi:
    def test_second_moment_grows_slower_than_adam(self):
        """Yogi's additive rule reacts less violently to a variance spike."""
        adam = ServerOptimizer(ServerOptimizerConfig(kind="fedadam", lr=1.0))
        yogi = ServerOptimizer(ServerOptimizerConfig(kind="fedyogi", lr=1.0))
        for _ in range(20):
            adam.step("x", np.array([0.01]))
            yogi.step("x", np.array([0.01]))
        adam_spike = adam.step("x", np.array([100.0]))
        yogi_spike = yogi.step("x", np.array([100.0]))
        assert np.all(np.isfinite(adam_spike)) and np.all(np.isfinite(yogi_spike))

    def test_direction_follows_delta(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedyogi", lr=0.1))
        step = opt.step("x", np.array([2.0, -2.0]))
        assert step[0] > 0 > step[1]


class TestPrefixConsistency:
    """Elementwise server rules preserve the Eq. 10 nesting invariant."""

    @given(
        kind=st.sampled_from(["sgd", "fedavgm", "fedadam", "fedyogi"]),
        rounds=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_steps_match(self, kind, rounds, seed):
        rng = np.random.default_rng(seed)
        opt = ServerOptimizer(ServerOptimizerConfig(kind=kind, lr=0.5))
        narrow_total = np.zeros((4, 2))
        wide_total = np.zeros((4, 5))
        for _ in range(rounds):
            wide_delta = rng.normal(size=(4, 5))
            narrow_delta = wide_delta[:, :2]
            narrow_total += opt.step("V:s", narrow_delta)
            wide_total += opt.step("V:l", wide_delta)
        assert np.allclose(narrow_total, wide_total[:, :2])

    def test_shape_change_resets_state(self):
        opt = ServerOptimizer(ServerOptimizerConfig(kind="fedavgm", momentum=0.9))
        opt.step("x", np.ones(3))
        # A different shape for the same key must not crash (fresh buffer).
        step = opt.step("x", np.ones(5))
        assert step.shape == (5,)
