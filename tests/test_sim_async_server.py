"""The async FedBuff-style server: mirror contract and degradation policies."""

import numpy as np
import pytest

from repro.federated.trainer import FederatedConfig, FederatedTrainer
from repro.sim.async_server import AsyncFedServer, TrainerBackend
from repro.sim.config import (
    ArrivalModelConfig,
    DropoutModelConfig,
    LatencyModelConfig,
    SimulationConfig,
)


def build_trainer(tiny_dataset, tiny_clients, **overrides):
    settings = dict(epochs=2, clients_per_round=8, local_epochs=1, seed=0)
    settings.update(overrides)
    config = FederatedConfig(**settings)
    group_of = {
        c.user_id: ("s" if i % 2 else "m") for i, c in enumerate(tiny_clients)
    }
    return FederatedTrainer(tiny_dataset.num_items, tiny_clients, group_of, config)


def mirror_config(trainer) -> SimulationConfig:
    """The zero-fault configuration that must reproduce ``fit()`` exactly."""
    return SimulationConfig(
        num_clients=len(trainer.clients),
        num_items=trainer.num_items,
        epochs=trainer.config.epochs,
        clients_per_round=trainer.config.clients_per_round,
        seed=trainer.config.seed,
        arrival=ArrivalModelConfig(kind="rounds"),
        latency=LatencyModelConfig(kind="zero"),
        dropout=DropoutModelConfig(kind="none"),
    )


class TestSyncMirror:
    def test_zero_fault_run_reproduces_fit_bitwise(
        self, tiny_dataset, tiny_clients
    ):
        """The determinism contract's anchor: async server + immediate
        quorum + zero latency + no dropout == the synchronous trainer,
        bitwise — history, round count, communication meter, and every
        model parameter (via the digest)."""
        sync = build_trainer(tiny_dataset, tiny_clients)
        sync.fit()
        sync_digest = TrainerBackend(sync).digest()

        asynchronous = build_trainer(tiny_dataset, tiny_clients)
        backend = TrainerBackend(asynchronous)
        result = AsyncFedServer(backend, mirror_config(asynchronous)).run()

        assert result.param_digest == sync_digest
        assert asynchronous.history.records == sync.history.records
        assert asynchronous._round_counter == sync._round_counter
        assert asynchronous.meter.export_state() == sync.meter.export_state()
        assert result.dropped_updates == 0
        assert result.clients_unavailable == 0
        assert result.clients_simulated == len(sync.clients) * 2  # 2 epochs

    def test_mirror_is_deterministic_across_runs(
        self, tiny_dataset, tiny_clients
    ):
        digests = []
        for _ in range(2):
            trainer = build_trainer(tiny_dataset, tiny_clients)
            backend = TrainerBackend(trainer)
            result = AsyncFedServer(backend, mirror_config(trainer)).run()
            digests.append(result.param_digest)
        assert digests[0] == digests[1]

    def test_participation_source_seam(self, tiny_dataset, tiny_clients):
        """The simulator takes its cohorts from the trainer's
        ``participation_rounds``: override it with one fixed cohort and
        the async server trains exactly those users, every epoch."""
        trainer = build_trainer(tiny_dataset, tiny_clients)
        fixed = [c.user_id for c in tiny_clients[:4]]
        trainer.participation_rounds = lambda epoch: [list(fixed)]
        trained = []
        train_clients = trainer._train_clients

        def recording(users):
            trained.append(list(users))
            return train_clients(users)

        trainer._train_clients = recording
        result = AsyncFedServer(TrainerBackend(trainer), mirror_config(trainer)).run()
        assert trained == [fixed] * trainer.config.epochs
        assert result.clients_simulated == len(fixed) * trainer.config.epochs


class TestDeadlinePolicies:
    """Degradation behaviour under a deadline shorter than the latency."""

    def _config(self, trainer, **overrides) -> SimulationConfig:
        base = dict(
            num_clients=len(trainer.clients),
            num_items=trainer.num_items,
            epochs=1,
            clients_per_round=8,
            seed=0,
            arrival=ArrivalModelConfig(kind="rounds"),
            # Every upload takes 30 sim-seconds: far beyond any deadline,
            # so windows always close by policy, never by quorum.
            latency=LatencyModelConfig(kind="fixed", scale=30.0),
            dropout=DropoutModelConfig(kind="none"),
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def test_apply_policy_closes_short(self, tiny_dataset, tiny_clients):
        trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
        config = self._config(trainer, round_deadline=40.0, deadline_policy="apply")
        result = AsyncFedServer(TrainerBackend(trainer), config).run()
        assert result.short_rounds > 0
        assert result.rounds_extended == 0
        # Nothing is lost, only applied late/short.
        assert result.updates_aggregated == len(trainer.clients)

    def test_extend_policy_buys_time(self, tiny_dataset, tiny_clients):
        # Latencies spread around the deadline: it fires while part of the
        # cohort is still in flight, on a partly full buffer — the
        # extension is what saves the window.
        trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
        config = self._config(
            trainer, round_deadline=30.5,
            latency=LatencyModelConfig(kind="lognormal", scale=30.0, sigma=1.0),
            deadline_policy="extend", max_extensions=3,
        )
        result = AsyncFedServer(TrainerBackend(trainer), config).run()
        assert result.rounds_extended > 0
        assert result.updates_aggregated == len(trainer.clients)

    def test_skip_policy_ages_and_evicts(self, tiny_dataset, tiny_clients):
        # Latencies spread around a short deadline: windows expire on a
        # partial buffer, and max_age 0 means each skip evicts what it
        # was holding.
        trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
        config = self._config(
            trainer,
            latency=LatencyModelConfig(kind="lognormal", scale=2.0, sigma=1.0),
            round_deadline=2.0,
            deadline_policy="skip",
            buffer_max_age_rounds=0,
        )
        result = AsyncFedServer(TrainerBackend(trainer), config).run()
        assert result.rounds_skipped > 0
        # max_age 0: every skipped window's buffer is evicted, counted.
        assert result.dropped_updates > 0
        assert (
            result.updates_aggregated + result.dropped_updates
            == len(trainer.clients)
        )

    def test_staleness_discount_changes_the_outcome(
        self, tiny_dataset, tiny_clients
    ):
        """With deadlines forcing late arrivals, ``staleness_weight < 1``
        must produce different global parameters than weight 1.0 — the
        discount is real, not cosmetic."""
        digests = {}
        for weight in (1.0, 0.5):
            trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
            config = self._config(
                trainer,
                round_deadline=10.0,
                deadline_policy="apply",
                staleness_weight=weight,
            )
            result = AsyncFedServer(TrainerBackend(trainer), config).run()
            digests[weight] = result.param_digest
        assert digests[1.0] != digests[0.5]


class TestRetriesAndTimeouts:
    def test_timeout_exhaustion_drops_accountably(
        self, tiny_dataset, tiny_clients
    ):
        """Latency above ``upload_timeout`` on every attempt: all trained
        updates exhaust retries; none aggregate, all are accounted."""
        trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
        config = SimulationConfig(
            num_clients=len(trainer.clients),
            num_items=trainer.num_items,
            epochs=1,
            clients_per_round=8,
            seed=0,
            latency=LatencyModelConfig(kind="fixed", scale=5.0),
            upload_timeout=1.0,
            max_retries=2,
        )
        result = AsyncFedServer(TrainerBackend(trainer), config).run()
        population = len(trainer.clients)
        assert result.dropped_updates == population
        assert result.updates_aggregated == 0
        assert result.rounds_applied == 0
        # 1 attempt + 2 retries per client, every one wasted in full.
        assert result.network.messages_dropped == 3 * population
        assert result.network.retries == 2 * population
        assert result.network.bytes_wasted > 0
        assert result.network.messages_delivered == population  # downloads only

    def test_mid_upload_drop_wastes_partial_bytes(
        self, tiny_dataset, tiny_clients
    ):
        """Every upload dies mid-flight; the fraction that reached the
        wire is charged as waste — exactly proportional to the fraction."""
        wasted = {}
        for fraction in (0.25, 1.0):
            trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
            config = SimulationConfig(
                num_clients=len(trainer.clients),
                num_items=trainer.num_items,
                epochs=1,
                clients_per_round=8,
                seed=0,
                latency=LatencyModelConfig(kind="fixed", scale=0.5),
                dropout=DropoutModelConfig(
                    kind="bernoulli", rate=1.0,
                    drop_mid_upload_fraction=fraction,
                ),
                max_retries=0,
            )
            result = AsyncFedServer(TrainerBackend(trainer), config).run()
            assert result.dropped_updates == len(trainer.clients)
            assert result.network.messages_dropped == len(trainer.clients)
            assert result.network.bytes_up == 0.0
            wasted[fraction] = result.network.bytes_wasted
        # Same seed, same trained updates: a quarter-way drop wastes
        # exactly a quarter of what a full-transfer drop wastes.
        assert wasted[0.25] == pytest.approx(0.25 * wasted[1.0])
        assert wasted[1.0] > 0


class TestDuplicateDeliveries:
    def test_duplicates_account_and_merge(self, tiny_dataset, tiny_clients):
        trainer = build_trainer(tiny_dataset, tiny_clients, epochs=1)
        config = SimulationConfig(
            num_clients=len(trainer.clients),
            num_items=trainer.num_items,
            epochs=1,
            clients_per_round=8,
            seed=0,
            latency=LatencyModelConfig(kind="fixed", scale=0.1),
            duplicate_rate=1.0,  # every delivery is delivered twice
            duplicate_delay=0.01,
        )
        result = AsyncFedServer(TrainerBackend(trainer), config).run()
        population = len(trainer.clients)
        assert result.network.duplicates_delivered == population
        # Both copies' bytes are charged...
        assert result.network.messages_delivered == 3 * population  # down + 2 up
        # ...and the aggregation path merged every duplicate it buffered
        # together with its original.
        assert result.duplicates_merged > 0
        assert (
            result.updates_aggregated + result.duplicates_merged
            == 2 * population
        )
