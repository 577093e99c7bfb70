"""Tests for the end-to-end differential-privacy accountant.

Composition math, accountant lifecycle, the trainer surfacing (ε, δ)
into ``TrainingHistory``, the experiment runner's columns, and bitwise
survival of the privacy state across checkpoint/resume.
"""

import math

import numpy as np
import pytest

from repro.core.grouping import divide_clients
from repro.federated import accounting
from repro.federated.accounting import (
    PrivacyAccountant,
    PrivacySpent,
    compose_advanced,
    compose_basic,
    gaussian_epsilon,
)
from repro.federated.checkpoint import (
    load_checkpoint_impl as load_checkpoint,
    save_checkpoint_impl as save_checkpoint,
)
from repro.federated.privacy import PrivacyConfig
from repro.federated.trainer import FederatedConfig, FederatedTrainer

DELTA = 1e-5


def make_trainer(dataset, clients, **overrides):
    base = dict(
        arch="ncf",
        dims={"s": 4, "m": 6, "l": 8},
        epochs=2,
        clients_per_round=16,
        local_epochs=1,
        lr=0.05,
        seed=0,
        privacy=PrivacyConfig(clip_norm=2.0, noise_std=0.5),
    )
    base.update(overrides)
    group_of = divide_clients(clients)
    return FederatedTrainer(
        dataset.num_items, clients, group_of, FederatedConfig(**base)
    )


class TestCompositionMath:
    def test_gaussian_epsilon_formula(self):
        sigma, delta = 2.0, 1e-5
        assert gaussian_epsilon(sigma, delta) == pytest.approx(
            math.sqrt(2.0 * math.log(1.25 / delta)) / sigma
        )

    def test_gaussian_epsilon_zero_noise_is_infinite(self):
        assert math.isinf(gaussian_epsilon(0.0, 1e-5))

    def test_gaussian_epsilon_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            gaussian_epsilon(1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_epsilon(1.0, 1.0)

    def test_basic_composition_is_linear_in_rounds(self):
        eps_1, _ = compose_basic(1.0, 1, DELTA)
        eps_10, _ = compose_basic(1.0, 10, DELTA)
        # Linear in k up to the δ/k sharpening of the per-round bound.
        assert eps_10 > 9 * eps_1

    def test_advanced_beats_basic_for_many_quiet_rounds(self):
        # Strong composition only wins when the per-round ε₀ is well
        # below 1, i.e. at high noise multipliers.
        sigma, rounds = 20.0, 500
        eps_basic, _ = compose_basic(sigma, rounds, DELTA)
        eps_adv, _ = compose_advanced(sigma, rounds, DELTA)
        assert eps_adv < eps_basic

    def test_zero_rounds_costs_nothing(self):
        assert compose_basic(1.0, 0, DELTA) == (0.0, 0.0)
        assert compose_advanced(1.0, 0, DELTA) == (0.0, 0.0)


class TestAccountant:
    def test_spent_reports_min_of_both_bounds(self):
        accountant = PrivacyAccountant(8.0)
        for _ in range(500):
            accountant.record_round()
        spent = accountant.spent()
        eps_basic, _ = compose_basic(8.0, 500, DELTA)
        eps_adv, _ = compose_advanced(8.0, 500, DELTA)
        assert spent.epsilon == pytest.approx(min(eps_basic, eps_adv))
        assert spent.mechanism == ("advanced" if eps_adv < eps_basic else "basic")
        assert spent.rounds == 500 and spent.delta == DELTA

    def test_epsilon_monotone_in_rounds(self):
        accountant = PrivacyAccountant(1.0)
        curve = []
        for _ in range(1, 40):
            accountant.record_round()
            curve.append(accountant.spent().epsilon)
        assert all(b > a for a, b in zip(curve, curve[1:]))

    def test_inactive_accountant_reports_infinite_epsilon(self):
        accountant = PrivacyAccountant(0.0)
        for _ in range(3):
            accountant.record_round()
        assert not accountant.active
        assert math.isinf(accountant.spent().epsilon)

    def test_zero_rounds_spends_nothing(self):
        spent = PrivacyAccountant(1.0).spent()
        assert spent == PrivacySpent(0.0, 0.0, 0, "basic")

    def test_state_round_trips(self, monkeypatch):
        monkeypatch.setattr(accounting, "TARGET_DELTA", 1e-6)
        accountant = PrivacyAccountant(1.5)
        for _ in range(7):
            accountant.record_round()
        monkeypatch.undo()
        clone = PrivacyAccountant(1.0)
        clone.load_state(accountant.export_state())
        assert clone.spent() == accountant.spent()

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(-1.0)


class TestTrainerSurfacing:
    def test_history_carries_privacy_curve(self, tiny_dataset, tiny_clients):
        trainer = make_trainer(tiny_dataset, tiny_clients)
        history = trainer.fit()
        curve = history.privacy_curve()
        assert len(curve) == 2
        epochs, epsilons = zip(*curve)
        assert list(epochs) == [1, 2]
        assert all(np.isfinite(e) and e > 0 for e in epsilons)
        assert epsilons[1] > epsilons[0], "privacy loss must accumulate"
        assert history.records[-1].delta == pytest.approx(1e-5)

    def test_unprotected_run_logs_no_epsilon(self, tiny_dataset, tiny_clients):
        trainer = make_trainer(tiny_dataset, tiny_clients, privacy=None)
        history = trainer.fit()
        assert trainer.privacy_spent() is None
        assert history.privacy_curve() == []
        assert history.records[-1].epsilon is None

    def test_clip_without_noise_is_not_accounted(self, tiny_dataset, tiny_clients):
        """Clipping alone is not DP; the accountant must stay off rather
        than certify a meaningless guarantee."""
        trainer = make_trainer(
            tiny_dataset, tiny_clients,
            privacy=PrivacyConfig(clip_norm=2.0, noise_std=0.0),
        )
        trainer.fit()
        assert trainer.privacy_spent() is None

    def test_spent_matches_round_count(self, tiny_dataset, tiny_clients):
        trainer = make_trainer(tiny_dataset, tiny_clients)
        trainer.fit()
        spent = trainer.privacy_spent()
        assert spent.rounds == trainer._round_counter
        reference = PrivacyAccountant(0.5)
        for _ in range(spent.rounds):
            reference.record_round()
        assert spent == reference.spent()

    def test_history_export_restore_roundtrip(self, tiny_dataset, tiny_clients):
        trainer = make_trainer(tiny_dataset, tiny_clients)
        history = trainer.fit()
        restored = type(history)()
        restored.restore_records(history.export_records())
        assert restored.privacy_curve() == history.privacy_curve()

    def test_runner_surfaces_epsilon(self):
        from repro.experiments.runner import RunResult

        payload = RunResult(
            dataset="ml", method="hetefedrec", arch="ncf", profile="smoke",
            recall=0.1, ndcg=0.1, group_recall={}, group_ndcg={},
            ndcg_curve=[], communication_total=1, communication_per_round=1.0,
            collapse={}, epsilon=3.5, delta=1e-5,
        ).to_json()
        restored = RunResult.from_json(payload)
        assert restored.epsilon == 3.5 and restored.delta == 1e-5
        # Backcompat: pre-accounting cache entries lack the fields.
        import json

        legacy = json.loads(payload)
        del legacy["epsilon"], legacy["delta"]
        old = RunResult.from_json(json.dumps(legacy))
        assert old.epsilon is None and old.delta is None


class TestCheckpointResume:
    def test_epsilon_survives_resume_bitwise(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        path = str(tmp_path / "privacy.ckpt.npz")
        full = make_trainer(tiny_dataset, tiny_clients, epochs=4)
        full.fit()

        first = make_trainer(tiny_dataset, tiny_clients, epochs=2)
        first.fit()
        save_checkpoint(first, path)

        resumed = make_trainer(tiny_dataset, tiny_clients, epochs=4)
        load_checkpoint(resumed, path)
        assert resumed._accountant.rounds == first._accountant.rounds
        resumed.fit()

        assert resumed._accountant.rounds == full._accountant.rounds
        assert resumed.privacy_spent() == full.privacy_spent()
        assert (
            resumed.history.privacy_curve() == full.history.privacy_curve()
        ), "per-epoch (ε, δ) must be bitwise identical across a resume"
