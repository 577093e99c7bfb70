"""Equivalence suite: vectorized round engine vs. per-client reference.

The engine's contract (see ``repro/federated/round_engine.py``) is
numerical equivalence with one tape session per client
(``tests/reference_trainer.py``) up to floating-point summation order;
everything here pins that to 1e-8 after multi-epoch runs, for
homogeneous, heterogeneous and Standalone configurations, plus the
blocked evaluator against the per-client protocol.
"""

import sys
import threading

import numpy as np
import pytest
import reference_trainer
from ranking_oracle import assert_matches_oracle, oracle_metrics
from reference_trainer import ReferenceTrainer, tape_scores

from repro.autograd.tensor import Tensor
from repro.core.config import HeteFedRecConfig
from repro.core.grouping import divide_clients, homogeneous_assignment
from repro.core import hetefedrec
from repro.core.hetefedrec import HeteFedRec
from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset
from repro.data.splitting import train_test_split_per_user
from repro.eval import evaluator as evaluator_module
from repro.eval.evaluator import Evaluator
from repro import parallel
from repro.federated import round_engine
from repro.federated.payload import SparseRowDelta
from repro.federated.privacy import PrivacyConfig
from repro.federated.round_engine import VectorizedRoundEngine
from repro.federated.trainer import FederatedConfig, FederatedTrainer
from repro.nn.optim import Adam

ATOL = 1e-8


def small_config(**overrides):
    base = dict(
        arch="ncf",
        dims={"s": 4, "m": 6, "l": 8},
        epochs=2,
        clients_per_round=16,
        local_epochs=2,
        lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return FederatedConfig(**base)


def fitted_pair(make, evaluator=None):
    """Fit ``make()`` twice: once on the oracle, once on the engine."""
    reference, vectorized = reference_trainer.install(make()), make()
    for trainer in (reference, vectorized):
        trainer.fit(evaluator)
    return reference, vectorized


def federated_pair(dataset, clients, group_of, evaluator=None, **overrides):
    """Train one reference and one vectorized trainer on identical configs."""
    return fitted_pair(
        lambda: FederatedTrainer(
            dataset.num_items, clients, group_of, small_config(**overrides)
        ),
        evaluator,
    )


def assert_equivalent(reference, vectorized):
    for ref_rec, vec_rec in zip(
        reference.history.records, vectorized.history.records
    ):
        assert ref_rec.train_loss == pytest.approx(vec_rec.train_loss, abs=ATOL)
        if ref_rec.recall is not None:
            assert vec_rec.recall == pytest.approx(ref_rec.recall, abs=ATOL)
            assert vec_rec.ndcg == pytest.approx(ref_rec.ndcg, abs=ATOL)
    for group in reference.groups:
        ref_state = reference.models[group].state_dict()
        vec_state = vectorized.models[group].state_dict()
        for key in ref_state:
            np.testing.assert_allclose(
                ref_state[key], vec_state[key], atol=ATOL, err_msg=f"{group}:{key}"
            )
    for user in reference.runtimes:
        np.testing.assert_allclose(
            reference.runtimes[user].user_embedding,
            vectorized.runtimes[user].user_embedding,
            atol=ATOL,
            err_msg=f"user {user}",
        )
    if reference._client_states is not None:
        for user, ref_state in reference._client_states.items():
            for key, value in ref_state.items():
                np.testing.assert_allclose(
                    value,
                    vectorized._client_states[user][key],
                    atol=ATOL,
                    err_msg=f"user {user}:{key}",
                )


class TestEngineEquivalence:
    def test_heterogeneous_ncf(self, tiny_dataset, tiny_clients):
        group_of = divide_clients(tiny_clients)
        evaluator = Evaluator(tiny_clients, k=10)
        reference, vectorized = federated_pair(
            tiny_dataset, tiny_clients, group_of, evaluator
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_homogeneous_ncf(self, tiny_dataset, tiny_clients):
        group_of = homogeneous_assignment(tiny_clients, group="all")
        reference, vectorized = federated_pair(
            tiny_dataset, tiny_clients, group_of, dims={"all": 6}
        )
        assert_equivalent(reference, vectorized)

    def test_heterogeneous_mf(self, tiny_dataset, tiny_clients):
        group_of = divide_clients(tiny_clients)
        evaluator = Evaluator(tiny_clients, k=10)
        reference, vectorized = federated_pair(
            tiny_dataset, tiny_clients, group_of, evaluator, arch="mf"
        )
        assert_equivalent(reference, vectorized)

    def test_heterogeneous_lightgcn(self, tiny_dataset, tiny_clients):
        """LightGCN's local-graph propagation batched as one padded
        sparse–dense matmul per epoch: states, losses and (per-client)
        eval metrics must match the reference to 1e-8."""
        group_of = divide_clients(tiny_clients)
        evaluator = Evaluator(tiny_clients, k=10)
        reference, vectorized = federated_pair(
            tiny_dataset, tiny_clients, group_of, evaluator, arch="lightgcn"
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_lightgcn_round_updates_identical(self, tiny_dataset, tiny_clients):
        """Per-upload equality for one LightGCN round: sparse embedding
        deltas (which include the propagated neighbour rows) and heads."""
        group_of = divide_clients(tiny_clients)
        make = lambda: FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            group_of,
            small_config(arch="lightgcn"),
        )
        reference, vectorized = reference_trainer.install(make()), make()
        users = [c.user_id for c in tiny_clients[:10]]
        ref_updates = reference._train_clients(users)
        vec_updates = vectorized._train_clients(users)
        for ref_up, vec_up in zip(ref_updates, vec_updates):
            assert ref_up.user_id == vec_up.user_id
            assert ref_up.num_examples == vec_up.num_examples
            assert ref_up.train_loss == pytest.approx(vec_up.train_loss, abs=ATOL)
            np.testing.assert_allclose(
                np.asarray(ref_up.embedding_delta),
                np.asarray(vec_up.embedding_delta),
                atol=ATOL,
            )

    def test_with_privacy_protection(self, tiny_dataset, tiny_clients):
        """Client-side clipping/noise runs after training on the client's
        own RNG, so the protected uploads must also match."""
        group_of = divide_clients(tiny_clients)
        reference, vectorized = federated_pair(
            tiny_dataset,
            tiny_clients,
            group_of,
            privacy=PrivacyConfig(clip_norm=1.0, noise_std=0.01),
        )
        assert_equivalent(reference, vectorized)

    def test_round_updates_identical(self, tiny_dataset, tiny_clients):
        """Beyond end-state equality: the per-client uploads of a single
        round match field by field, in round order."""
        group_of = divide_clients(tiny_clients)
        make = lambda: FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            group_of,
            small_config(),
        )
        reference, vectorized = reference_trainer.install(make()), make()
        users = [c.user_id for c in tiny_clients[:10]]
        ref_updates = reference._train_clients(users)
        vec_updates = vectorized._train_clients(users)
        for ref_up, vec_up in zip(ref_updates, vec_updates):
            assert ref_up.user_id == vec_up.user_id
            assert ref_up.group == vec_up.group
            assert ref_up.num_examples == vec_up.num_examples
            assert ref_up.train_loss == pytest.approx(vec_up.train_loss, abs=ATOL)
            np.testing.assert_allclose(
                ref_up.embedding_delta, vec_up.embedding_delta, atol=ATOL
            )
            for head_group in ref_up.head_deltas:
                for key, value in ref_up.head_deltas[head_group].items():
                    np.testing.assert_allclose(
                        value, vec_up.head_deltas[head_group][key], atol=ATOL
                    )

    def test_fewer_tape_nodes_per_round(self, tiny_dataset, tiny_clients):
        """The fused graph must build ≥5× fewer Python-level autodiff
        nodes per round than the per-client reference path."""
        group_of = divide_clients(tiny_clients)
        counts = {}
        original_init = Tensor.__init__
        for engine in ("reference", "vectorized"):
            trainer = FederatedTrainer(
                tiny_dataset.num_items,
                tiny_clients,
                group_of,
                small_config(),
            )
            if engine == "reference":
                reference_trainer.install(trainer)
            users = [c.user_id for c in tiny_clients]
            counter = {"n": 0}

            def counting_init(self, *args, **kwargs):
                counter["n"] += 1
                original_init(self, *args, **kwargs)

            Tensor.__init__ = counting_init
            try:
                trainer._train_clients(users)
            finally:
                Tensor.__init__ = original_init
            counts[engine] = counter["n"]
        assert counts["reference"] >= 5 * counts["vectorized"], counts


class TestStandaloneEngineEquivalence:
    """Standalone trains each client's personal model on the engine:
    personal tables and heads, user embeddings, losses and eval metrics
    must match the per-client personal session, and nothing is metered."""

    @pytest.mark.parametrize("arch", ["ncf", "mf", "lightgcn"])
    def test_personal_models(self, arch, tiny_dataset, tiny_clients):
        from repro.baselines.standalone import StandaloneTrainer

        reference, vectorized = fitted_pair(
            lambda: StandaloneTrainer(
                tiny_dataset.num_items, tiny_clients, small_config(arch=arch)
            ),
            Evaluator(tiny_clients, k=10),
        )
        assert isinstance(vectorized._engine, VectorizedRoundEngine)
        assert_equivalent(reference, vectorized)
        assert reference.meter.total == vectorized.meter.total == 0


class TestDualTaskEngineEquivalence:
    """The widened dispatch: HeteFedRec's dual-task objective (Eq. 11),
    with and without the DDR penalty and RESKD, must ride the engine and
    match the per-client reference to 1e-8 — item tables, heads, user
    embeddings, losses and eval metrics."""

    def hetefedrec_pair(self, dataset, clients, evaluator=None, **overrides):
        base = dict(
            arch="ncf",
            dims={"s": 8, "m": 16, "l": 32},
            epochs=2,
            clients_per_round=16,
            local_epochs=2,
            lr=0.01,
            seed=0,
        )
        base.update(overrides)
        return fitted_pair(
            lambda: HeteFedRec(dataset.num_items, clients, HeteFedRecConfig(**base)),
            evaluator,
        )

    def test_full_hetefedrec(self, tiny_dataset, tiny_clients):
        """UDL + DDR + RESKD, the paper's headline configuration, on the
        paper's hetero dims {8, 16, 32}."""
        evaluator = Evaluator(tiny_clients, k=10)
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, evaluator
        )
        assert isinstance(reference._engine, ReferenceTrainer)
        assert isinstance(vectorized._engine, VectorizedRoundEngine)
        assert_equivalent(reference, vectorized)

    def test_udl_without_ddr(self, tiny_dataset, tiny_clients):
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, enable_ddr=False
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_ddr_without_udl(self, tiny_dataset, tiny_clients):
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, enable_udl=False
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_full_table_ddr(self, tiny_dataset, tiny_clients, monkeypatch):
        """DDR_ROW_SAMPLE=0 regularises the whole table (the reference's
        small-catalogue branch, which consumes no DDR RNG)."""
        monkeypatch.setattr(hetefedrec, "DDR_ROW_SAMPLE", 0)
        reference, vectorized = self.hetefedrec_pair(tiny_dataset, tiny_clients, epochs=1)
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_dual_task_mf(self, tiny_dataset, tiny_clients):
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, arch="mf", epochs=1
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_full_hetefedrec_lightgcn(self, tiny_dataset, tiny_clients):
        """UDL + DDR + RESKD on LightGCN — the last architecture outside
        the fast path: the propagated multi-width logits and the DDR
        penalty must all fuse and match the reference."""
        evaluator = Evaluator(tiny_clients, k=10)
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, evaluator, arch="lightgcn"
        )
        assert isinstance(reference._engine, ReferenceTrainer)
        assert isinstance(vectorized._engine, VectorizedRoundEngine)
        assert_equivalent(reference, vectorized)

    def test_lightgcn_udl_without_ddr(self, tiny_dataset, tiny_clients):
        reference, vectorized = self.hetefedrec_pair(
            tiny_dataset, tiny_clients, arch="lightgcn", enable_ddr=False, epochs=1
        )
        assert vectorized._engine is not None
        assert_equivalent(reference, vectorized)

    def test_dual_task_round_updates_identical(self, tiny_dataset, tiny_clients):
        """Per-upload equality for one dual-task round: every head a
        client trained (Θ_s through its own width) and its sparse
        embedding delta."""
        make = lambda: HeteFedRec(
            tiny_dataset.num_items,
            tiny_clients,
            HeteFedRecConfig(
                arch="ncf",
                dims={"s": 8, "m": 16, "l": 32},
                epochs=1,
                clients_per_round=16,
                local_epochs=2,
            ),
        )
        reference, vectorized = reference_trainer.install(make()), make()
        users = [c.user_id for c in tiny_clients[:12]]
        ref_updates = reference._train_clients(users)
        vec_updates = vectorized._train_clients(users)
        for ref_up, vec_up in zip(ref_updates, vec_updates):
            assert ref_up.user_id == vec_up.user_id
            assert ref_up.group == vec_up.group
            assert set(ref_up.head_deltas) == set(vec_up.head_deltas)
            widths = {"s": 1, "m": 2, "l": 3}
            assert len(ref_up.head_deltas) == widths[ref_up.group]
            assert ref_up.train_loss == pytest.approx(vec_up.train_loss, abs=ATOL)
            np.testing.assert_allclose(
                np.asarray(ref_up.embedding_delta),
                np.asarray(vec_up.embedding_delta),
                atol=ATOL,
            )
            for head_group in ref_up.head_deltas:
                for key, value in ref_up.head_deltas[head_group].items():
                    np.testing.assert_allclose(
                        value, vec_up.head_deltas[head_group][key], atol=ATOL
                    )


class TestBlockedEvaluation:
    @pytest.fixture()
    def trained(self, tiny_dataset, tiny_clients):
        group_of = divide_clients(tiny_clients)
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, group_of, small_config()
        )
        trainer.run_epoch(1)
        return trainer

    def test_blocked_matches_per_client(self, trained, tiny_clients):
        """The engine-trained trainer's blocked evaluation equals the
        per-user oracle run on its per-client tape scores."""
        result = trained.evaluate_with(Evaluator(tiny_clients, k=10))
        oracle = oracle_metrics(tiny_clients, lambda c: tape_scores(trained, c), k=10)
        assert_matches_oracle(result, oracle, atol=ATOL)
        assert result.ndcg == pytest.approx(oracle[2].mean(), abs=ATOL)

    def test_block_size_invariance(self, trained, tiny_clients, monkeypatch):
        evaluator = Evaluator(tiny_clients, k=10)
        monkeypatch.setattr(evaluator_module, "BLOCK_SIZE", 7)
        small_blocks = evaluator.evaluate(trained.score_item_matrix)
        monkeypatch.setattr(evaluator_module, "BLOCK_SIZE", 10_000)
        one_block = evaluator.evaluate(trained.score_item_matrix)
        np.testing.assert_allclose(
            small_blocks.per_user_ndcg, one_block.per_user_ndcg, atol=ATOL
        )

    def test_user_subset(self, trained, tiny_clients):
        subset = [c.user_id for c in tiny_clients[::3]]
        result = trained.evaluate_with(
            Evaluator(tiny_clients, k=10), user_subset=subset
        )
        oracle = oracle_metrics(
            tiny_clients, lambda c: tape_scores(trained, c), k=10, user_subset=subset
        )
        assert_matches_oracle(result, oracle, atol=ATOL)

    def test_hetefedrec_blocked_eval(self, tiny_dataset, tiny_clients):
        """Full HeteFedRec rides the engine for training *and* evaluates
        blocked; the result must match the oracle on the per-client hook."""
        trainer = HeteFedRec(
            tiny_dataset.num_items,
            tiny_clients,
            HeteFedRecConfig(
                arch="ncf",
                dims={"s": 4, "m": 6, "l": 8},
                epochs=1,
                clients_per_round=16,
                local_epochs=1,
            ),
        )
        trainer.run_epoch(1)
        assert trainer._engine is not None
        result = trainer.evaluate_with(Evaluator(tiny_clients, k=10))
        oracle = oracle_metrics(tiny_clients, lambda c: tape_scores(trainer, c), k=10)
        assert_matches_oracle(result, oracle, atol=ATOL)

    def test_lightgcn_blocked_matches_per_client(self, tiny_dataset, tiny_clients):
        """LightGCN evaluates blocked too: the star-graph propagation is
        batched through ``score_matrix``'s ``train_items`` argument and
        must reproduce the per-client scoring hook."""
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            divide_clients(tiny_clients),
            small_config(arch="lightgcn"),
        )
        trainer.fit()
        blocked = trainer.score_item_matrix(tiny_clients)
        per_client = np.stack(
            [tape_scores(trainer, client) for client in tiny_clients]
        )
        np.testing.assert_allclose(blocked, per_client, atol=1e-10)

    def test_empty_subset(self, trained, tiny_clients):
        evaluator = Evaluator(tiny_clients, k=10)
        result = evaluator.evaluate(trained.score_item_matrix, user_subset=[])
        assert result.recall == 0.0
        assert result.evaluated_users.size == 0


class TestDispatch:
    def test_auto_uses_engine_for_ncf(self, tiny_dataset, tiny_clients):
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            divide_clients(tiny_clients),
            small_config(),
        )
        assert isinstance(trainer._engine, VectorizedRoundEngine)

    def test_auto_uses_engine_for_lightgcn(self, tiny_dataset, tiny_clients):
        """Since the batched propagation landed, LightGCN — base and
        dual-task HeteFedRec — dispatches to the fused path too."""
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            divide_clients(tiny_clients),
            small_config(arch="lightgcn"),
        )
        assert isinstance(trainer._engine, VectorizedRoundEngine)
        hete = HeteFedRec(
            tiny_dataset.num_items,
            tiny_clients,
            HeteFedRecConfig(
                arch="lightgcn",
                dims={"s": 4, "m": 6, "l": 8},
                epochs=1,
                clients_per_round=8,
                local_epochs=1,
            ),
        )
        assert isinstance(hete._engine, VectorizedRoundEngine)

    def test_vectorized_on_custom_loss_raises(self, tiny_dataset, tiny_clients):
        """A trainer whose objective the engine cannot express is refused
        at construction, naming the hook, instead of silently ignored."""

        class CustomLoss(FederatedTrainer):
            def client_loss(self, runtime, user_param, batch):
                return super().client_loss(runtime, user_param, batch) * 2.0

        with pytest.raises(ValueError, match="CustomLoss defines client_loss"):
            CustomLoss(
                tiny_dataset.num_items,
                tiny_clients,
                divide_clients(tiny_clients),
                small_config(),
            )

    def test_arch_without_engine_objective_is_refused(
        self, tiny_dataset, tiny_clients, monkeypatch
    ):
        """A registered architecture the engine has no forward and
        backward for cannot train: refused at construction, by name."""
        from repro.models.factory import MODEL_REGISTRY
        from repro.models.ncf import NCF

        monkeypatch.setitem(MODEL_REGISTRY, "ncf_variant", NCF)
        with pytest.raises(ValueError, match="ncf_variant"):
            FederatedTrainer(
                tiny_dataset.num_items,
                tiny_clients,
                divide_clients(tiny_clients),
                small_config(arch="ncf_variant"),
            )

    def test_directly_aggregate_uses_engine(self, tiny_dataset, tiny_clients):
        """HeteFedRec with every component off IS the base protocol
        (Directly Aggregate), so it must ride the engine — and match the
        reference path."""
        from repro.baselines.direct import DirectAggregateTrainer

        reference, vectorized = fitted_pair(
            lambda: DirectAggregateTrainer(
                tiny_dataset.num_items,
                tiny_clients,
                HeteFedRecConfig(
                    arch="ncf",
                    dims={"s": 4, "m": 6, "l": 8},
                    epochs=2,
                    clients_per_round=16,
                    local_epochs=2,
                ),
            )
        )
        assert isinstance(vectorized._engine, VectorizedRoundEngine)
        assert_equivalent(reference, vectorized)

    def test_full_hetefedrec_uses_engine(self, tiny_dataset, tiny_clients):
        """Every stock HeteFedRec configuration — dual-task on, with or
        without DDR — rides the engine."""
        for overrides in ({}, {"enable_ddr": False}, {"enable_udl": False}):
            trainer = HeteFedRec(
                tiny_dataset.num_items,
                tiny_clients,
                HeteFedRecConfig(
                    arch="ncf",
                    dims={"s": 4, "m": 6, "l": 8},
                    epochs=1,
                    clients_per_round=8,
                    local_epochs=1,
                    **overrides,
                ),
            )
            assert isinstance(trainer._engine, VectorizedRoundEngine), overrides

    def test_subclass_defining_a_removed_hook_is_refused(self, tiny_dataset, tiny_clients):
        """A subclass that defines ``train_client`` or ``client_loss``
        expects a per-client path that no longer exists: construction
        raises a ``ValueError`` naming the hook, for base-protocol and
        HeteFedRec subclasses alike."""
        config = HeteFedRecConfig(
            arch="ncf",
            dims={"s": 4, "m": 6, "l": 8},
            epochs=1,
            clients_per_round=8,
            local_epochs=1,
        )
        for parent in (FederatedTrainer, HeteFedRec):
            for hook in ("train_client", "client_loss"):
                custom = type("Custom", (parent,), {hook: lambda self, *args: None})
                args = (tiny_dataset.num_items, tiny_clients)
                if parent is FederatedTrainer:
                    args += (divide_clients(tiny_clients),)
                with pytest.raises(ValueError, match=f"Custom defines {hook}"):
                    custom(*args, config)

    def test_adversarial_harness_rides_engine(
        self, tiny_dataset, tiny_clients, monkeypatch
    ):
        """An attack (``config.attack``) poisons finished uploads on the
        round hook (``_train_clients``), so local training rides the fused
        engine, and an attacked run matches the reference path with the
        same poisoned uploads in the same order and the same final
        attack-stream state."""
        import repro.federated.trainer as trainer_module
        from repro.robustness.attacks import AttackConfig, poison_update

        evaluator = Evaluator(tiny_clients, k=10)
        for arch in ("ncf", "lightgcn", "mf"):
            trainers = {}
            poisoned = {"reference": [], "auto": []}
            for engine, log in poisoned.items():

                def recording(update, config, rng, log=log):
                    log.append(update.user_id)
                    return poison_update(update, config, rng)

                monkeypatch.setattr(trainer_module, "poison_update", recording)
                trainers[engine] = HeteFedRec(
                    tiny_dataset.num_items,
                    tiny_clients,
                    HeteFedRecConfig(
                        arch=arch,
                        dims={"s": 4, "m": 6, "l": 8},
                        epochs=2,
                        clients_per_round=8,
                        local_epochs=2,
                        attack=AttackConfig(kind="noise", fraction=0.2, scale=3.0),
                    ),
                )
                if engine == "reference":
                    reference_trainer.install(trainers[engine])
                trainers[engine].fit(evaluator)
            reference, fused = trainers["reference"], trainers["auto"]
            assert isinstance(reference._engine, ReferenceTrainer)
            assert isinstance(fused._engine, VectorizedRoundEngine)
            assert_equivalent(reference, fused)
            assert poisoned["reference"] == poisoned["auto"]
            assert len(poisoned["auto"]) == 2 * len(fused.malicious) > 0
            assert (
                reference._attack_rng.bit_generator.state
                == fused._attack_rng.bit_generator.state
            )


class TestDtypeKnob:
    def test_float32_threads_through(self, tiny_dataset, tiny_clients):
        group_of = divide_clients(tiny_clients)
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            group_of,
            small_config(dtype="float32", epochs=1),
        )
        assert trainer.models["s"].item_embedding.weight.data.dtype == np.float32
        runtime = next(iter(trainer.runtimes.values()))
        assert runtime.user_embedding.dtype == np.float32
        trainer.fit(Evaluator(tiny_clients, k=10))
        assert runtime.user_embedding.dtype == np.float32
        assert np.isfinite(trainer.history.records[-1].train_loss)

    def test_float32_reference_and_vectorized_agree(self, tiny_dataset, tiny_clients):
        group_of = divide_clients(tiny_clients)
        reference, vectorized = federated_pair(
            tiny_dataset, tiny_clients, group_of, dtype="float32", epochs=1
        )
        for group in reference.groups:
            np.testing.assert_allclose(
                reference.models[group].item_embedding.weight.data,
                vectorized.models[group].item_embedding.weight.data,
                atol=1e-4,
            )

    def test_default_stays_float64(self, tiny_dataset, tiny_clients):
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            divide_clients(tiny_clients),
            small_config(),
        )
        assert trainer.models["s"].item_embedding.weight.data.dtype == np.float64

    def test_invalid_dtype_rejected(self, tiny_dataset, tiny_clients):
        with pytest.raises(ValueError):
            FederatedTrainer(
                tiny_dataset.num_items,
                tiny_clients,
                divide_clients(tiny_clients),
                small_config(dtype="float16"),
            )


class TestConcurrentBuckets:
    """A round's buckets train on up to one thread per core.  The bucket
    a thread trains, and which thread trains it, must not matter: one and
    three threads give bitwise-equal rounds, a failing bucket's exception
    surfaces unchanged, and no thread outlives the round."""

    ROUNDS = (slice(0, 24), slice(20, 44), slice(36, 60))

    def run_rounds(self, make, cpus, monkeypatch, tiny_clients):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        monkeypatch.setattr(round_engine, "_THREADED_SIZE", 0)  # tiny rounds too
        trainer = make()
        calls = []
        train_bucket = VectorizedRoundEngine._train_bucket

        def counting(engine, *args):
            calls.append(args[1])
            return train_bucket(engine, *args)

        monkeypatch.setattr(VectorizedRoundEngine, "_train_bucket", counting)
        users = [c.user_id for c in tiny_clients]
        rounds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for chosen in self.ROUNDS:
                calls.clear()
                updates = trainer._train_clients(users[chosen])
                assert len(calls) >= 2  # more than one bucket: threads are used
                trainer.apply_updates(updates)
                rounds.append(updates)
        finally:
            sys.setswitchinterval(interval)
        return trainer, rounds

    def assert_bitwise(self, serial, threaded):
        (one, one_rounds), (three, three_rounds) = serial, threaded
        for updates_1, updates_3 in zip(one_rounds, three_rounds):
            assert [u.user_id for u in updates_1] == [u.user_id for u in updates_3]
            for a, b in zip(updates_1, updates_3):
                assert a.train_loss == b.train_loss
                assert a.num_examples == b.num_examples
                delta_a, delta_b = a.embedding_delta, b.embedding_delta
                if isinstance(delta_a, SparseRowDelta):
                    np.testing.assert_array_equal(delta_a.rows, delta_b.rows)
                    delta_a, delta_b = delta_a.values, delta_b.values
                np.testing.assert_array_equal(delta_a, delta_b)
                assert a.head_deltas.keys() == b.head_deltas.keys()
                for group, heads in a.head_deltas.items():
                    for name, value in heads.items():
                        np.testing.assert_array_equal(value, b.head_deltas[group][name])
        for group in one.groups:
            np.testing.assert_array_equal(
                one.user_tables[group].values, three.user_tables[group].values
            )
            for key, value in one.models[group].state_dict().items():
                np.testing.assert_array_equal(value, three.models[group].state_dict()[key])
        if one._client_states is not None:
            for user, state in one._client_states.items():
                for key, value in state.items():
                    np.testing.assert_array_equal(value, three._client_states[user][key])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ["ncf", "mf", "lightgcn"])
    def test_hetefedrec_rounds_are_bitwise_equal(
        self, arch, dtype, tiny_dataset, tiny_clients, monkeypatch
    ):
        def make():
            trainer = HeteFedRec(
                tiny_dataset.num_items,
                tiny_clients,
                HeteFedRecConfig(
                    arch=arch, dims={"s": 8, "m": 16, "l": 32}, local_epochs=2,
                    lr=0.01, seed=0, dtype=dtype,
                ),
            )
            assert trainer.fused_objective() > 0  # DDR is on
            return trainer

        serial = self.run_rounds(make, 1, monkeypatch, tiny_clients)
        threaded = self.run_rounds(make, 3, monkeypatch, tiny_clients)
        self.assert_bitwise(serial, threaded)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ["ncf", "mf", "lightgcn"])
    def test_standalone_rounds_are_bitwise_equal(
        self, arch, dtype, tiny_dataset, tiny_clients, monkeypatch
    ):
        from repro.baselines.standalone import StandaloneTrainer

        def make():
            return StandaloneTrainer(
                tiny_dataset.num_items, tiny_clients, small_config(arch=arch, dtype=dtype)
            )

        serial = self.run_rounds(make, 1, monkeypatch, tiny_clients)
        threaded = self.run_rounds(make, 3, monkeypatch, tiny_clients)
        self.assert_bitwise(serial, threaded)

    def test_first_failing_bucket_surfaces_after_every_thread_joined(
        self, tiny_dataset, tiny_clients, monkeypatch
    ):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
        monkeypatch.setattr(round_engine, "_THREADED_SIZE", 0)
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, divide_clients(tiny_clients),
            small_config(),
        )
        users = [c.user_id for c in tiny_clients]
        victim = next(u for u in users if trainer.group_of[u] == "m")
        raised = []
        train_bucket = VectorizedRoundEngine._train_bucket

        def failing(engine, params, group, bucket_users, *args):
            if victim in bucket_users:
                raised.append(ValueError(f"bucket of user {victim} failed"))
                raise raised[-1]
            if group == "l":  # later in bucket order: must not win
                raise RuntimeError("a later bucket failed too")
            return train_bucket(engine, params, group, bucket_users, *args)

        monkeypatch.setattr(VectorizedRoundEngine, "_train_bucket", failing)
        threads_before = threading.active_count()
        with pytest.raises(ValueError) as caught:
            trainer._train_clients(users)
        assert caught.value is raised[0]
        assert threading.active_count() == threads_before

    def test_a_small_round_starts_no_worker(self, tiny_dataset, tiny_clients, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, divide_clients(tiny_clients),
            small_config(),
        )
        started = []
        thread_class = threading.Thread

        class Recording(thread_class):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(parallel.threading, "Thread", Recording)
        users = [c.user_id for c in tiny_clients]
        trainer._train_clients(users)  # far below the gate's size
        assert not [name for name in started if name.startswith("groups-")]
        monkeypatch.setattr(round_engine, "_THREADED_SIZE", 0)
        trainer._train_clients(users)
        assert [name for name in started if name.startswith("groups-")]

    def test_every_step_is_taken_on_the_calling_thread(
        self, tiny_dataset, tiny_clients, monkeypatch
    ):
        # Workers only advance buckets' array work: a step on a worker
        # would escape a per-thread profile of the round.
        monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
        monkeypatch.setattr(round_engine, "_THREADED_SIZE", 0)
        trainer = FederatedTrainer(
            tiny_dataset.num_items, tiny_clients, divide_clients(tiny_clients),
            small_config(),
        )
        stepped_on = []
        step = Adam.step

        def recording(optimizer):
            stepped_on.append(threading.get_ident())
            return step(optimizer)

        monkeypatch.setattr(Adam, "step", recording)
        groups = []
        train_bucket = VectorizedRoundEngine._train_bucket

        def counting(engine, *args):
            groups.append(args[1])
            return train_bucket(engine, *args)

        monkeypatch.setattr(VectorizedRoundEngine, "_train_bucket", counting)
        trainer._train_clients([c.user_id for c in tiny_clients])
        assert len(groups) >= 2
        assert len(stepped_on) == len(groups) * trainer.config.local_epochs
        assert set(stepped_on) == {threading.get_ident()}
