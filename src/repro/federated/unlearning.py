"""Federated unlearning: letting a quitting client take its influence along.

The paper's related work ([50], "Federated unlearning for on-device
recommendation") observes that FedRecs cannot forget clients who leave.
This module implements the contribution-subtraction family of federated
unlearning for HeteFedRec:

* during training, a :class:`ContributionLedger` records exactly what
  each client's uploads did to every public parameter (its padded
  prefix per item table, its share of every head update);
* :meth:`UnlearningHeteFedRec.unlearn` subtracts the quitter's ledger
  entry from the current global parameters, removes the client from the
  population, and optionally runs *recovery epochs* so the remaining
  clients smooth over the removal.

Exactness: with plain delta application the subtraction inverts the
aggregation exactly — `test_unlearning.py` asserts it to machine
precision when RESKD is off.  RESKD entangles tables after each round,
so with it enabled the subtraction is the standard first-order
approximation and recovery epochs do the rest.  Server optimisers and
secure aggregation are rejected: the former make contributions
non-linear, the latter hides them by design.  A robust-aggregation
defense is rejected too: it clips, drops or re-weights uploads after the
ledger has recorded them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.federated.aggregation import pad_columns
from repro.federated.checkpoint import pack_delta, unpack_delta
from repro.federated.payload import ClientUpdate, SparseRowDelta


class ContributionLedger:
    """Per-client record of applied public-parameter movements.

    Embedding contributions merge sparsely: a client's ledger entry
    covers only the rows it ever moved.
    """

    def __init__(self) -> None:
        #: user_id → group → accumulated applied embedding delta (group width).
        self._embeddings: Dict[int, Dict[str, object]] = {}
        #: user_id → head_group → name → accumulated applied head delta.
        self._heads: Dict[int, Dict[str, Dict[str, np.ndarray]]] = {}

    def record_embedding(self, user_id: int, group: str, applied) -> None:
        per_group = self._embeddings.setdefault(user_id, {})
        existing = per_group.get(group)
        if existing is None:
            per_group[group] = applied.copy()
        else:
            per_group[group] = existing + applied

    def record_head(
        self, user_id: int, head_group: str, name: str, applied: np.ndarray
    ) -> None:
        per_head = self._heads.setdefault(user_id, {}).setdefault(head_group, {})
        if name in per_head:
            per_head[name] += applied
        else:
            per_head[name] = applied.copy()

    def embedding_contribution(self, user_id: int) -> Dict[str, np.ndarray]:
        return {g: v.copy() for g, v in self._embeddings.get(user_id, {}).items()}

    def head_contribution(self, user_id: int) -> Dict[str, Dict[str, np.ndarray]]:
        return {
            hg: {n: v.copy() for n, v in state.items()}
            for hg, state in self._heads.get(user_id, {}).items()
        }

    def known_users(self) -> List[int]:
        return sorted(set(self._embeddings) | set(self._heads))

    def forget(self, user_id: int) -> None:
        self._embeddings.pop(user_id, None)
        self._heads.pop(user_id, None)

    # ------------------------------------------------------------------
    # Checkpointing: the ledger is what makes later unlearning exact, so
    # a resumed run must carry every recorded contribution.
    # ------------------------------------------------------------------
    def export_state(self):
        """``(arrays, meta)`` — arrays under ``ledger/…`` keys plus a
        JSON index; sparse entries keep their sparse form (the shared
        :func:`repro.federated.checkpoint.pack_delta` layout)."""
        arrays: Dict[str, np.ndarray] = {}
        meta = {"embeddings": [], "heads": []}
        index = 0
        for user_id in sorted(self._embeddings):
            for group in sorted(self._embeddings[user_id]):
                record = {"user": int(user_id), "group": group}
                record.update(
                    pack_delta(
                        self._embeddings[user_id][group],
                        f"ledger/emb/{index}",
                        arrays,
                    )
                )
                meta["embeddings"].append(record)
                index += 1
        index = 0
        for user_id in sorted(self._heads):
            for head_group in sorted(self._heads[user_id]):
                for name in sorted(self._heads[user_id][head_group]):
                    meta["heads"].append(
                        {"user": int(user_id), "head_group": head_group, "name": name}
                    )
                    arrays[f"ledger/head/{index}"] = self._heads[user_id][head_group][name]
                    index += 1
        return arrays, meta

    def load_state(self, archive, meta) -> None:
        """Inverse of :meth:`export_state`; replaces all recorded state
        (built aside: an unreadable record raises with the ledger untouched)."""
        embeddings, heads = {}, {}
        for index, record in enumerate(meta["embeddings"]):
            embeddings.setdefault(int(record["user"]), {})[
                record["group"]
            ] = unpack_delta(record, f"ledger/emb/{index}", archive)
        for index, record in enumerate(meta["heads"]):
            heads.setdefault(int(record["user"]), {}).setdefault(
                record["head_group"], {}
            )[record["name"]] = archive[f"ledger/head/{index}"]
        self._embeddings, self._heads = embeddings, heads


class UnlearningHeteFedRec(HeteFedRec):
    """HeteFedRec with a contribution ledger and client removal."""

    method_name = "hetefedrec_unlearning"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: HeteFedRecConfig,
    ) -> None:
        if config.secure_aggregation is not None:
            raise ValueError(
                "unlearning needs per-client contributions; secure "
                "aggregation hides them by design"
            )
        if config.server_optimizer is not None:
            raise ValueError(
                "unlearning's subtraction is exact only under direct delta "
                "application; server optimisers make contributions non-linear"
            )
        if config.defense is not None:
            raise ValueError(
                "unlearning records the uploads as sent; a robust-aggregation "
                "defense changes what is applied, so the ledger would not match"
            )
        super().__init__(num_items, clients, config)
        self.ledger = ContributionLedger()

    # ------------------------------------------------------------------
    # Recording: mirror apply_updates' arithmetic per contributing client
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Sequence[ClientUpdate]) -> None:
        accepted = [u for u in updates if self.accept_update(u)]
        if accepted:
            self._record_contributions(accepted)
        super().apply_updates(updates)

    def _record_contributions(self, accepted: Sequence[ClientUpdate]) -> None:
        cfg = self.config
        dims = {g: cfg.dims[g] for g in self.groups}
        widest = max(dims.values())

        head_counts: Dict[str, int] = {}
        for update in accepted:
            for head_group in update.head_deltas:
                head_counts[head_group] = head_counts.get(head_group, 0) + 1

        for update in accepted:
            delta = update.embedding_delta
            # Pad the touched-row block once at the widest width (a fresh
            # float64 copy); each group's ledger entry keeps the same rows.
            scaled = pad_columns(delta.values, widest).astype(np.float64)
            for group, width in dims.items():
                self.ledger.record_embedding(
                    update.user_id,
                    group,
                    SparseRowDelta(delta.num_rows, delta.rows, scaled[:, :width]),
                )
            for head_group, state in update.head_deltas.items():
                divisor = (
                    float(head_counts[head_group])
                    if cfg.aggregation.theta_mode == "mean"
                    else 1.0
                )
                for name, values in state.items():
                    self.ledger.record_head(
                        update.user_id, head_group, name,
                        values * (1.0 / divisor),
                    )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_extra_state(self):
        arrays, meta = super()._checkpoint_extra_state()
        ledger_arrays, ledger_meta = self.ledger.export_state()
        arrays.update(ledger_arrays)
        return arrays, {**meta, "ledger": ledger_meta}

    def _restore_checkpoint_extra_state(self, archive, meta) -> None:
        self.ledger.load_state(archive, meta["ledger"])
        super()._restore_checkpoint_extra_state(archive, meta)

    # ------------------------------------------------------------------
    # Unlearning
    # ------------------------------------------------------------------
    def unlearn(self, user_id: int, recovery_epochs: int = 0) -> None:
        """Remove ``user_id``'s recorded influence and retire the client.

        Subtracts the client's accumulated contributions from every item
        table and head, drops it from the training population, forgets
        its ledger entry, and optionally runs ``recovery_epochs`` of
        normal training over the survivors.
        """
        if user_id not in self.runtimes:
            raise KeyError(f"user {user_id} is not an active client")

        for group, contribution in self.ledger.embedding_contribution(user_id).items():
            weight = self.models[group].item_embedding.weight.data
            weight[contribution.rows] -= contribution.values
        for head_group, state in self.ledger.head_contribution(user_id).items():
            head = self.models[head_group].head
            for name, param in head.named_parameters():
                if name in state:
                    param.data -= state[name]

        self.clients = [c for c in self.clients if c.user_id != user_id]
        self.runtimes.pop(user_id, None)
        self.user_tables[self.group_of.pop(user_id)].drop(user_id)
        self.excluded_uploaders.discard(user_id)
        if self._straggler_buffer is not None:
            self._straggler_buffer.discard_user(user_id)
        self.ledger.forget(user_id)

        for epoch in range(1, recovery_epochs + 1):
            self.run_epoch(epoch)
