"""Tests for contribution-ledger federated unlearning."""

import numpy as np
import pytest

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.federated.unlearning import ContributionLedger, UnlearningHeteFedRec


def config(**overrides):
    defaults = dict(
        epochs=2, clients_per_round=16, local_epochs=2, seed=4,
        enable_reskd=False,  # RESKD makes subtraction approximate; tests
                             # for exactness keep it off.
    )
    defaults.update(overrides)
    return HeteFedRecConfig(**defaults)


class TestContributionLedger:
    def test_accumulates(self):
        ledger = ContributionLedger()
        ledger.record_embedding(1, "s", np.ones((3, 2)))
        ledger.record_embedding(1, "s", np.ones((3, 2)))
        assert np.allclose(ledger.embedding_contribution(1)["s"], 2.0)

    def test_heads_accumulate(self):
        ledger = ContributionLedger()
        ledger.record_head(1, "s", "w", np.full((2,), 3.0))
        ledger.record_head(1, "s", "w", np.full((2,), 4.0))
        assert np.allclose(ledger.head_contribution(1)["s"]["w"], 7.0)

    def test_contributions_are_copies(self):
        ledger = ContributionLedger()
        ledger.record_embedding(1, "s", np.ones((2, 2)))
        out = ledger.embedding_contribution(1)
        out["s"] += 100.0
        assert np.allclose(ledger.embedding_contribution(1)["s"], 1.0)

    def test_forget(self):
        ledger = ContributionLedger()
        ledger.record_embedding(1, "s", np.ones((2, 2)))
        ledger.forget(1)
        assert ledger.embedding_contribution(1) == {}
        assert ledger.known_users() == []


class TestConstructorGuards:
    def test_rejects_secure_aggregation(self, tiny_dataset, tiny_clients):
        from repro.federated.secure_agg import SecureAggregationConfig

        with pytest.raises(ValueError):
            UnlearningHeteFedRec(
                tiny_dataset.num_items, tiny_clients,
                config(secure_aggregation=SecureAggregationConfig()),
            )

    def test_rejects_server_optimizer(self, tiny_dataset, tiny_clients):
        from repro.federated.server_optim import ServerOptimizerConfig

        with pytest.raises(ValueError):
            UnlearningHeteFedRec(
                tiny_dataset.num_items, tiny_clients,
                config(server_optimizer=ServerOptimizerConfig()),
            )

    @pytest.mark.parametrize("kind", ["clip", "krum", "median"])
    def test_rejects_defense(self, kind, tiny_dataset, tiny_clients):
        """A defense changes what is applied after the ledger recorded
        the uploads, so the ledger would no longer sum to the applied
        movement: refused."""
        from repro.robustness import RobustAggregationConfig

        with pytest.raises(ValueError, match="defense"):
            UnlearningHeteFedRec(
                tiny_dataset.num_items, tiny_clients,
                config(defense=RobustAggregationConfig(kind=kind)),
            )


class TestLedgerExactness:
    def test_ledger_sums_to_total_movement(self, tiny_dataset, tiny_clients):
        """Σ_users ledger[user] == V_now − V_init, per group (RESKD off)."""
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        initial = {
            g: trainer.models[g].item_embedding.weight.data.copy()
            for g in trainer.groups
        }
        trainer.fit()
        for group in trainer.groups:
            total = np.zeros_like(initial[group])
            for user in trainer.ledger.known_users():
                contribution = trainer.ledger.embedding_contribution(user)
                if group in contribution:
                    total += contribution[group]
            moved = trainer.models[group].item_embedding.weight.data - initial[group]
            assert np.allclose(total, moved, atol=1e-10), group

    def test_head_ledger_sums_to_total_movement(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        initial = {
            g: trainer.models[g].head.state_dict() for g in trainer.groups
        }
        trainer.fit()
        for group in trainer.groups:
            now = trainer.models[group].head.state_dict()
            for name in now:
                total = np.zeros_like(now[name])
                for user in trainer.ledger.known_users():
                    heads = trainer.ledger.head_contribution(user)
                    if group in heads and name in heads[group]:
                        total += heads[group][name]
                assert np.allclose(
                    total, now[name] - initial[group][name], atol=1e-10
                ), (group, name)


class TestUnlearn:
    def test_unlearn_inverts_contribution_exactly(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.fit()
        target = trainer.ledger.known_users()[0]

        expected = {
            g: trainer.models[g].item_embedding.weight.data
            - trainer.ledger.embedding_contribution(target).get(
                g, np.zeros_like(trainer.models[g].item_embedding.weight.data)
            )
            for g in trainer.groups
        }
        trainer.unlearn(target, recovery_epochs=0)
        for group in trainer.groups:
            assert np.allclose(
                trainer.models[group].item_embedding.weight.data,
                expected[group],
                atol=1e-12,
            )

    def test_unlearned_client_is_retired(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.fit()
        target = trainer.clients[0].user_id
        population = len(trainer.clients)
        trainer.unlearn(target)
        assert len(trainer.clients) == population - 1
        assert target not in trainer.runtimes
        assert target not in trainer.group_of
        assert target not in trainer.ledger.known_users()

    def test_unlearn_unknown_user_raises(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        with pytest.raises(KeyError):
            trainer.unlearn(999_999)

    def test_recovery_epochs_train_survivors(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.fit()
        target = trainer.clients[0].user_id
        before = trainer.models["l"].item_embedding.weight.data.copy()
        trainer.unlearn(target, recovery_epochs=1)
        after = trainer.models["l"].item_embedding.weight.data
        # Recovery training moved the model beyond the bare subtraction.
        assert not np.allclose(before, after)

    def test_unlearn_then_continue_training(self, tiny_dataset, tiny_clients):
        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.fit()
        trainer.unlearn(trainer.clients[0].user_id)
        loss = trainer.run_epoch(99)
        assert np.isfinite(loss)

    def test_works_with_reskd_approximately(self, tiny_dataset, tiny_clients):
        """With RESKD on, unlearn is approximate but must stay finite."""
        trainer = UnlearningHeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(enable_reskd=True)
        )
        trainer.fit()
        trainer.unlearn(trainer.clients[0].user_id, recovery_epochs=1)
        for group in trainer.groups:
            assert np.all(
                np.isfinite(trainer.models[group].item_embedding.weight.data)
            )

    def test_unlearned_user_leaves_table_checkpoint_and_serving(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """Deletion pin: the forgotten user's row is gone from the table,
        from every later checkpoint and from serving, and dropping it
        (which shifts every later row of the group) leaves each survivor
        addressing its own row."""
        from repro.api import UnknownUserError, save_checkpoint, serve

        trainer = UnlearningHeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.fit()
        # First id of its group: every other row of that table shifts.
        group = trainer.groups[-1]
        target = int(trainer.user_tables[group].ids[0])
        before = {u: r.user_embedding for u, r in trainer.runtimes.items() if u != target}

        trainer.unlearn(target)
        assert target not in trainer.user_tables[group].ids
        assert len(trainer.user_tables[group]) == len(trainer.user_tables[group].values)
        for user, embedding in before.items():
            assert np.array_equal(trainer.runtimes[user].user_embedding, embedding)

        path = str(tmp_path / "after_unlearn.npz")
        save_checkpoint(trainer, path)
        with np.load(path) as archive:
            stored = {g: archive[f"users/{g}/ids"] for g in trainer.groups}
            for g in trainer.groups:
                assert target not in stored[g]
                assert len(archive[f"users/{g}/values"]) == len(stored[g])
        assert sorted(int(u) for ids in stored.values() for u in ids) == sorted(before)
        service = serve(path)
        with pytest.raises(UnknownUserError, match=str(target)):
            service.query(target)
        assert service.query(next(iter(before))).items.size > 0

        # One more epoch moves every survivor, each through its own row.
        trainer.run_epoch(99)
        for user, embedding in before.items():
            runtime = trainer.runtimes[user]
            table = trainer.user_tables[trainer.group_of[user]]
            assert runtime.table is table
            assert not np.array_equal(runtime.user_embedding, embedding)
            assert np.array_equal(table.take([user])[0], runtime.user_embedding)
        assert sorted(
            int(u) for t in trainer.user_tables.values() for u in t.ids
        ) == sorted(before)
        # And a single commit writes one row, not its neighbour's.
        survivor = int(trainer.user_tables[group].ids[0])
        snapshot = trainer.user_tables[group].values.copy()
        trainer.runtimes[survivor].table.put([survivor], np.full((1, snapshot.shape[1]), 7.0))
        assert np.array_equal(trainer.user_tables[group].values[1:], snapshot[1:])
        assert np.all(trainer.user_tables[group].values[0] == 7.0)
