"""The bitwise-restart contract: stop at epoch k, resume, finish.

Pins (the checkpoint counterpart of ``test_round_engine.py``'s
engine-vs-reference pin): a run interrupted at epoch k — full-state
autosave, fresh process, ``load_checkpoint``, ``fit`` — produces
history, parameters, user embeddings and communication totals *exactly*
equal (``np.array_equal``, not allclose) to the uninterrupted run, for

* the base ncf protocol (the CI resume smoke: 2 epochs vs 1+save+resume+1);
* a full HeteFedRec dual-task config with availability (straggler
  buffer), secure aggregation, RESKD and sampled DDR all enabled;
* a server-optimiser + error-feedback compression config (Adam moments
  and carried residuals must survive);
* the unlearning trainer (ledger survives, later unlearning stays exact);
* the Standalone baseline (per-client personal models survive).
"""

import os

import numpy as np
from reference_trainer import tape_scores

from repro.baselines.standalone import StandaloneTrainer
from repro.compression.codecs import CompressionConfig
from repro.core import HeteFedRec, HeteFedRecConfig, hetefedrec
from repro.core.grouping import divide_clients
from repro.eval.evaluator import Evaluator
from repro.federated.availability import AvailabilityConfig
from repro.federated.checkpoint import (
    load_checkpoint_impl as load_checkpoint,
    save_checkpoint_impl as save_checkpoint,
)
from repro.federated.secure_agg import SecureAggregationConfig
from repro.federated.server_optim import ServerOptimizerConfig
from repro.federated.trainer import FederatedConfig, FederatedTrainer
from repro.federated.unlearning import UnlearningHeteFedRec

DIMS = {"s": 4, "m": 6, "l": 8}


def history_rows(trainer):
    return [
        (r.epoch, r.train_loss, r.recall, r.ndcg) for r in trainer.history.records
    ]


def assert_bitwise_identical(uninterrupted, resumed):
    """Full-state equality: parameters, embeddings, history, meter."""
    for group in uninterrupted.groups:
        state_a = uninterrupted.models[group].state_dict()
        state_b = resumed.models[group].state_dict()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), (group, key)
    for user_id, runtime in uninterrupted.runtimes.items():
        assert np.array_equal(
            runtime.user_embedding, resumed.runtimes[user_id].user_embedding
        ), user_id
    assert history_rows(uninterrupted) == history_rows(resumed)
    assert uninterrupted.meter.export_state() == resumed.meter.export_state()
    assert uninterrupted._round_counter == resumed._round_counter
    assert uninterrupted.epochs_completed == resumed.epochs_completed


def interrupted_run(build, config, stop_after, path, evaluator=None):
    """Simulate a preemption: autosave-fit to ``stop_after`` epochs, then
    restore into a fresh trainer targeting the full schedule and finish."""
    first = build(
        config.copy_with(
            epochs=stop_after, checkpoint_path=path, checkpoint_every=1
        )
    )
    first.fit(evaluator)
    resumed = build(config)
    load_checkpoint(resumed, path)
    assert resumed.epochs_completed == stop_after
    resumed.fit(evaluator)
    return first, resumed


class TestBitwiseResume:
    def test_ncf_base(self, tiny_dataset, tiny_clients, tmp_path):
        """The CI smoke: train 2 epochs vs 1 + save + resume + 1."""
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        config = FederatedConfig(
            dims=DIMS, epochs=2, local_epochs=2, lr=0.05,
            clients_per_round=24, eval_every=1, seed=3,
        )

        def build(cfg):
            return FederatedTrainer(
                tiny_dataset.num_items, tiny_clients, group_of, cfg
            )

        evaluator = Evaluator(tiny_clients, k=10)
        uninterrupted = build(config)
        uninterrupted.fit(evaluator)
        _, resumed = interrupted_run(
            build, config, 1, str(tmp_path / "ncf.ckpt.npz"), evaluator
        )
        assert_bitwise_identical(uninterrupted, resumed)

    def test_hetefedrec_dual_task_availability_secure_agg(
        self, tiny_dataset, tiny_clients, tmp_path, monkeypatch
    ):
        """The full paper config plus every stream-shaping component."""
        monkeypatch.setattr(hetefedrec, "DDR_ROW_SAMPLE", 8)
        config = HeteFedRecConfig(
            dims=DIMS, epochs=3, local_epochs=2, lr=0.01, seed=0,
            clients_per_round=16, eval_every=1,
            availability=AvailabilityConfig(offline_rate=0.15, straggler_rate=0.2, seed=3),
            secure_aggregation=SecureAggregationConfig(),
        )

        def build(cfg):
            return HeteFedRec(tiny_dataset.num_items, tiny_clients, cfg)

        evaluator = Evaluator(tiny_clients, k=10)
        uninterrupted = build(config)
        uninterrupted.fit(evaluator)
        first, resumed = interrupted_run(
            build, config, 2, str(tmp_path / "hete.ckpt.npz"), evaluator
        )
        # The interruption actually exercised the straggler buffer: the
        # checkpointed state carried pending late updates across the cut.
        assert len(first._straggler_buffer) > 0
        assert_bitwise_identical(uninterrupted, resumed)

    def test_server_optimizer_and_compression(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """Adam moments and error-feedback residuals survive the cut."""
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        config = FederatedConfig(
            dims=DIMS, epochs=3, local_epochs=1, lr=0.05,
            clients_per_round=32, eval_every=1, seed=1,
            server_optimizer=ServerOptimizerConfig(kind="fedadam"),
            compression=CompressionConfig(
                kind="randomk", ratio=0.5, error_feedback=True
            ),
        )

        def build(cfg):
            return FederatedTrainer(
                tiny_dataset.num_items, tiny_clients, group_of, cfg
            )

        uninterrupted = build(config)
        uninterrupted.fit()
        first, resumed = interrupted_run(
            build, config, 1, str(tmp_path / "sopt.ckpt.npz")
        )
        assert first._server_opt.state_norms()  # moments existed at the cut
        assert_bitwise_identical(uninterrupted, resumed)

    def test_unlearning_ledger_survives(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """Resume carries the ledger; unlearning after it stays exact."""
        config = HeteFedRecConfig(
            dims=DIMS, epochs=2, local_epochs=1, lr=0.05, seed=0,
            clients_per_round=32, eval_every=1, enable_reskd=False,
        )

        def build(cfg):
            return UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, cfg)

        uninterrupted = build(config)
        uninterrupted.fit()
        _, resumed = interrupted_run(
            build, config, 1, str(tmp_path / "unlearn.ckpt.npz")
        )
        assert_bitwise_identical(uninterrupted, resumed)

        quitter = tiny_clients[0].user_id
        uninterrupted.unlearn(quitter)
        resumed.unlearn(quitter)
        for group in uninterrupted.groups:
            assert np.array_equal(
                uninterrupted.models[group].item_embedding.weight.data,
                resumed.models[group].item_embedding.weight.data,
            )

    def test_standalone_personal_models(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """The per-client model copies are the state here; they survive."""
        config = FederatedConfig(
            dims=DIMS, epochs=2, local_epochs=1, lr=0.05,
            clients_per_round=64, eval_every=1, seed=2,
        )

        def build(cfg):
            return StandaloneTrainer(tiny_dataset.num_items, tiny_clients, cfg)

        uninterrupted = build(config)
        uninterrupted.fit()
        _, resumed = interrupted_run(
            build, config, 1, str(tmp_path / "standalone.ckpt.npz")
        )
        for user_id, state in uninterrupted._client_states.items():
            for name in state:
                assert np.array_equal(
                    state[name], resumed._client_states[user_id][name]
                ), (user_id, name)
        client = tiny_clients[0]
        assert np.array_equal(
            tape_scores(uninterrupted, client), tape_scores(resumed, client)
        )


class TestAutosaveMechanics:
    def test_autosave_written_atomically(self, tiny_dataset, tiny_clients, tmp_path):
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        path = str(tmp_path / "auto.ckpt.npz")
        config = FederatedConfig(
            dims=DIMS, epochs=2, local_epochs=1, clients_per_round=64,
            seed=0, checkpoint_path=path, checkpoint_every=1,
        )
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        trainer.fit()
        # One file, and atomic discipline: nothing beside the ``.npz`` —
        # no sidecar, no torn temporaries left behind.
        assert os.listdir(tmp_path) == ["auto.ckpt.npz"]

    def test_final_epoch_always_saved(self, tiny_dataset, tiny_clients, tmp_path):
        """With checkpoint_every > 1, the last save must still hold the
        *final* state — the checkpoint doubles as the deploy artefact."""
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        path = str(tmp_path / "final.ckpt.npz")
        config = FederatedConfig(
            dims=DIMS, epochs=5, local_epochs=1, clients_per_round=64,
            seed=0, checkpoint_path=path, checkpoint_every=3,
        )
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        trainer.fit()
        restored = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        load_checkpoint(restored, path)
        assert restored.epochs_completed == 5
        assert_bitwise_identical(trainer, restored)

    def test_checkpoint_every_zero_disables_autosave(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        path = str(tmp_path / "never.ckpt.npz")
        config = FederatedConfig(
            dims=DIMS, epochs=1, local_epochs=1, clients_per_round=64,
            seed=0, checkpoint_path=path, checkpoint_every=0,
        )
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        trainer.fit()
        assert not os.path.exists(path)

    def test_fit_is_a_noop_when_schedule_complete(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """Resuming a checkpoint of a *finished* run retrains nothing."""
        group_of = divide_clients(tiny_clients, (5, 3, 2))
        config = FederatedConfig(
            dims=DIMS, epochs=1, local_epochs=1, clients_per_round=64, seed=0
        )
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        trainer.fit()
        path = str(tmp_path / "done.ckpt.npz")
        save_checkpoint(trainer, path)

        restored = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, config
        )
        load_checkpoint(restored, path)
        before = {
            group: restored.models[group].state_dict() for group in restored.groups
        }
        restored.fit()
        assert len(restored.history.records) == 1
        for group, state in before.items():
            after = restored.models[group].state_dict()
            for key in state:
                assert np.array_equal(state[key], after[key])


class TestResumeViaCli:
    def test_train_alias_resumes(self, tmp_path, capsys):
        """End-to-end through ``python -m repro train --resume``."""
        from repro.cli import main

        path = str(tmp_path / "cli.ckpt.npz")
        base = [
            "train", "--scale", "0.008", "--method", "directly_aggregate",
            "--clients-per-round", "64", "--k", "5",
        ]
        assert main([*base, "--epochs", "1", "--checkpoint", path]) == 0
        assert os.path.exists(path)
        assert main([*base, "--epochs", "2", "--resume", path]) == 0
        out = capsys.readouterr().out
        assert f"resumed from {path} at epoch 1" in out
