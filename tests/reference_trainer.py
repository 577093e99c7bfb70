"""Per-client tape oracle of the round engine.

Every trainer in ``repro`` trains its clients through
:class:`repro.federated.round_engine.VectorizedRoundEngine`, which runs
all of a round's sessions as one stacked computation with a hand-derived
backward.  This module keeps the per-client session that computation
replays: each client builds its own autodiff graph over the public
parameters it downloaded, steps its own Adam, and emits its deltas.

* the base protocol's BCE (Eq. 2);
* HeteFedRec's unified dual-task loss (Eq. 11) plus the α-weighted
  decorrelation penalty (Eq. 13/14) on the round's pre-drawn DDR rows;
* Standalone's personal-model session (no upload, no meter).

:func:`tape_scores` is the per-user tape scorer that the blocked
``score_item_matrix`` of every trainer (Standalone's personal models
included) is pinned against.

:func:`install` puts the oracle in a trainer's ``_engine`` slot, so the
trainer's own round hook (``_train_clients``, which the adversarial
harness extends) runs unchanged on top of it.  Tests then train one
trainer on the engine and one on the oracle and compare.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np
from engine_oracle import decorrelation_penalty
from tape_models import logits

from repro.autograd import ops
from repro.autograd.tensor import Tensor, no_grad
from repro.core.dual_task import widths_up_to
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.data.sampling import TrainingBatch
from repro.federated.client import ClientRuntime
from repro.federated.payload import ClientUpdate, SparseRowDelta, state_delta
from repro.federated.trainer import FederatedTrainer
from repro.models.base import BaseRecommender
from repro.nn.module import Parameter
from repro.nn.optim import Adam


def install(trainer: FederatedTrainer) -> FederatedTrainer:
    """Make ``trainer`` run every round's local training on the oracle."""
    trainer._engine = ReferenceTrainer(trainer)
    return trainer


def tape_scores(trainer: FederatedTrainer, client: ClientData) -> np.ndarray:
    """Scores of every catalogue item for one user, through the tape.

    The user's group model scores them; under Standalone the user's
    personal table and head are loaded into it first and the global
    state is restored after.
    """
    model = trainer.models[trainer.group_of[client.user_id]]
    personal = trainer._client_states
    global_state = model.state_dict() if personal is not None else None
    if personal is not None:
        model.load_state_dict(personal[client.user_id])
    try:
        with no_grad():
            scores = logits(
                model,
                Tensor(trainer.runtimes[client.user_id].user_embedding),
                np.arange(trainer.num_items, dtype=np.int64),
                train_item_ids=client.train_items,
            )
        return scores.data.copy()
    finally:
        if global_state is not None:
            model.load_state_dict(global_state)


def dual_task_loss(
    model: BaseRecommender,
    group: str,
    dims: Mapping[str, int],
    heads: Mapping[str, object],
    user_param: Parameter,
    batch: TrainingBatch,
    train_item_ids: np.ndarray,
) -> Tensor:
    """Build the Eq. 11 multi-width loss graph for one client.

    Parameters
    ----------
    model:
        The client's own model (it owns the item table ``V_group``).
    heads:
        ``{group: ScoringHead}`` — the Θ of every width class; a client
        only uses the heads of widths ≤ its own.
    user_param:
        The client's private embedding at its full width; prefix slices
        are taken inside the graph so all terms update the same tensor.
    """
    terms: List[Tensor] = []
    for task_group in widths_up_to(group, dims):
        width = dims[task_group]
        task_logits = logits(
            model,
            user_param,
            batch.items,
            train_item_ids=train_item_ids,
            width=width,
            head=heads[task_group],
        )
        terms.append(ops.bce_with_logits(task_logits, batch.labels))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def client_loss(
    trainer: FederatedTrainer,
    runtime: ClientRuntime,
    user_param: Parameter,
    batch: TrainingBatch,
    ddr_rows: Dict[int, object],
) -> Tensor:
    """One client's local objective on the tape.

    Plain BCE, or the dual-task sum under HeteFedRec's UDL; a client
    :meth:`~repro.federated.trainer.FederatedTrainer.presample_ddr_rows`
    drew rows for adds ``α · penalty`` over them (``None`` = the whole
    table).
    """
    group = trainer.group_of[runtime.user_id]
    model = trainer.models[group]
    train_items = runtime.data.train_items
    if isinstance(trainer, HeteFedRec) and trainer.config.enable_udl:
        heads = {g: trainer.models[g].head for g in trainer.trained_head_groups(group)}
        loss = dual_task_loss(
            model, group, trainer.config.dims, heads, user_param, batch, train_items
        )
    else:
        scores = logits(model, user_param, batch.items, train_item_ids=train_items)
        loss = ops.bce_with_logits(scores, batch.labels)
    if runtime.user_id in ddr_rows:
        weight = model.item_embedding.weight
        subset = ddr_rows[runtime.user_id]
        penalty = decorrelation_penalty(weight if subset is None else weight[subset])
        loss = loss + trainer.fused_objective() * penalty
    return loss


class ReferenceTrainer:
    """Stands in for a trainer's round engine: one tape session per client."""

    def __init__(self, trainer: FederatedTrainer) -> None:
        self.trainer = trainer

    def train_round(self, user_ids: Sequence[int]) -> List[ClientUpdate]:
        """The engine's contract: every client's upload, in input order."""
        trainer = self.trainer
        user_ids = [int(u) for u in user_ids]
        ddr_rows = trainer.presample_ddr_rows(user_ids)
        if trainer._client_states is not None:
            return [self.personal_session(trainer.runtimes[u]) for u in user_ids]
        return [self.train_client(trainer.runtimes[u], ddr_rows) for u in user_ids]

    # ------------------------------------------------------------------
    # Federated session: train from the global snapshot, upload deltas
    # ------------------------------------------------------------------
    def _snapshot(self, group: str) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy the public state a client of ``group`` is about to mutate."""
        trainer = self.trainer
        snap = {"embedding": {"V": trainer.models[group].item_embedding.weight.data.copy()}}
        for head_group in trainer.trained_head_groups(group):
            snap[f"head:{head_group}"] = trainer.models[head_group].head.state_dict()
        return snap

    def _restore(self, group: str, snapshot: Dict[str, Dict[str, np.ndarray]]) -> None:
        trainer = self.trainer
        trainer.models[group].item_embedding.weight.data[...] = snapshot["embedding"]["V"]
        for head_group in trainer.trained_head_groups(group):
            trainer.models[head_group].head.load_state_dict(snapshot[f"head:{head_group}"])

    def _run_session(
        self, runtime: ClientRuntime, params: List[Parameter], ddr_rows: Dict[int, object]
    ):
        """``local_epochs`` Adam steps on the tape; ``(last loss, examples)``."""
        trainer = self.trainer
        cfg = trainer.config
        optimizer = Adam(params, lr=cfg.lr)
        last_loss = 0.0
        num_examples = 0
        for _ in range(cfg.local_epochs):
            batch = runtime.sample_batch(cfg.negative_ratio)
            num_examples = len(batch)
            optimizer.zero_grad()
            loss = client_loss(trainer, runtime, params[0], batch, ddr_rows)
            loss.backward()
            optimizer.step()
            last_loss = float(loss.data)
        runtime.table.put([runtime.user_id], params[0].data[np.newaxis])
        return last_loss, num_examples

    def train_client(
        self, runtime: ClientRuntime, ddr_rows: Dict[int, object]
    ) -> ClientUpdate:
        """One client's local session: train on private data, emit deltas."""
        trainer = self.trainer
        group = trainer.group_of[runtime.user_id]
        model = trainer.models[group]
        snapshot = self._snapshot(group)

        params = [
            Parameter(runtime.user_embedding, name=f"user_{runtime.user_id}"),
            model.item_embedding.weight,
        ]
        for head_group in trainer.trained_head_groups(group):
            params.extend(trainer.models[head_group].head.parameters())
        last_loss, num_examples = self._run_session(runtime, params, ddr_rows)

        embedding_delta = SparseRowDelta.from_dense(
            model.item_embedding.weight.data - snapshot["embedding"]["V"]
        )
        head_deltas = {
            head_group: state_delta(
                trainer.models[head_group].head.state_dict(), snapshot[f"head:{head_group}"]
            )
            for head_group in trainer.trained_head_groups(group)
        }
        self._restore(group, snapshot)
        update = ClientUpdate(
            user_id=runtime.user_id,
            group=group,
            embedding_delta=embedding_delta,
            head_deltas=head_deltas,
            num_examples=num_examples,
            train_loss=last_loss,
        )
        return trainer._finish_upload(update, runtime.rng)

    # ------------------------------------------------------------------
    # Standalone session: the client's own model, nothing travels
    # ------------------------------------------------------------------
    def personal_session(self, runtime: ClientRuntime) -> ClientUpdate:
        """Train the client's persistent personal model in place of the
        global one and return an empty update (nothing is metered)."""
        trainer = self.trainer
        group = trainer.group_of[runtime.user_id]
        model = trainer.models[group]
        global_state = model.state_dict()
        model.load_state_dict(trainer._client_states[runtime.user_id])

        params = [
            Parameter(runtime.user_embedding, name=f"user_{runtime.user_id}"),
            model.item_embedding.weight,
            *model.head.parameters(),
        ]
        last_loss, num_examples = self._run_session(runtime, params, {})

        trainer._client_states[runtime.user_id] = model.state_dict()
        model.load_state_dict(global_state)
        return ClientUpdate(
            user_id=runtime.user_id,
            group=group,
            embedding_delta=np.zeros((0, 0)),
            head_deltas={},
            num_examples=num_examples,
            train_loss=last_loss,
        )
