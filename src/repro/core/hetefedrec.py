"""The HeteFedRec trainer — paper Algorithm 1.

Extends the base federated protocol with the three components:

* clients optimise the **unified dual-task** loss (Eq. 11) plus the
  α-weighted **decorrelation** penalty (Eq. 14) during local training;
* the server runs **padding aggregation** (inherited — Eq. 8/9/15);
* after aggregation the server applies **relation-based ensemble
  self-distillation** across the three item tables (Eq. 16/17).

Each component has an ``enable_*`` flag so the Table IV ablation ladder —
HeteFedRec → −RESKD → −RESKD,DDR → −RESKD,DDR,UDL (= Directly Aggregate) —
is a configuration sweep over one class.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.config import HeteFedRecConfig
from repro.core.decorrelation import decorrelation_penalty, singular_value_variance
from repro.core.distillation import relation_distillation_step
from repro.core.dual_task import dual_task_loss, widths_up_to
from repro.core.grouping import divide_clients
from repro.data.dataset import ClientData
from repro.data.sampling import TrainingBatch
from repro.federated.client import ClientRuntime
from repro.federated.trainer import FederatedTrainer
from repro.nn.module import Parameter


class HeteFedRec(FederatedTrainer):
    """Federated recommendation with heterogeneous model sizes."""

    method_name = "hetefedrec"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: HeteFedRecConfig,
        group_of: Optional[Mapping[int, str]] = None,
    ) -> None:
        if group_of is None:
            group_of = divide_clients(clients, config.ratios)
        self._kd_rng = np.random.default_rng(config.seed + 17)
        self._ddr_rng = np.random.default_rng(config.seed + 29)
        #: Per-round DDR row subsets, set by :meth:`presample_ddr_rows`
        #: at the start of every round (both execution paths).
        self._session_ddr_rows = {}
        super().__init__(num_items, clients, group_of, config)

    # ------------------------------------------------------------------
    # Client side: UDL + DDR
    # ------------------------------------------------------------------
    def trained_head_groups(self, group: str) -> List[str]:
        """Under UDL a client trains every head of width ≤ its own (Eq. 11);
        without it, only its own head (the Directly Aggregate behaviour)."""
        if self.config.enable_udl:
            return widths_up_to(group, self.config.dims)
        return [group]

    def fused_objective(self):
        """Every stock HeteFedRec objective is engine-expressible.

        The dual-task term is exactly the per-width BCE task list the
        engine derives from :meth:`trained_head_groups`, and the DDR
        penalty maps to ``FusedObjective.ddr_alpha`` plus the row
        subsets pre-drawn by :meth:`presample_ddr_rows`.  Subclasses
        that override any of the local-training hooks fall back to the
        reference path.
        """
        from repro.federated.round_engine import FusedObjective

        cls = type(self)
        if (
            cls.client_loss is not HeteFedRec.client_loss
            or cls.trained_head_groups is not HeteFedRec.trained_head_groups
            or cls._ddr_term is not HeteFedRec._ddr_term
            or cls.presample_ddr_rows is not HeteFedRec.presample_ddr_rows
        ):
            return None
        cfg = self.config
        ddr_alpha = cfg.alpha if (cfg.enable_ddr and cfg.alpha > 0) else 0.0
        return FusedObjective(ddr_alpha=ddr_alpha)

    def presample_ddr_rows(self, user_ids):
        """Draw each eligible client's DDR row subset for this round.

        One draw per eligible client, clients in round order — the single
        shared RNG site for both execution paths (``_train_clients``
        stashes the result for the reference path's ``_ddr_term``; the
        engine consumes it directly).  Group 's' never pays the penalty
        (Eq. 14 applies to the medium/large tables) and small catalogues
        use the full table (``None`` marker, no RNG consumed).
        """
        cfg = self.config
        self._session_ddr_rows = {}
        if not (cfg.enable_ddr and cfg.alpha > 0):
            return {}
        rows = self.num_items
        sample = cfg.ddr_row_sample
        for user in user_ids:
            if self.group_of[user] == "s":
                continue
            if sample and rows > sample:
                self._session_ddr_rows[user] = self._ddr_rng.choice(
                    rows, size=sample, replace=False
                )
            else:
                self._session_ddr_rows[user] = None
        return self._session_ddr_rows

    def client_loss(
        self, runtime: ClientRuntime, user_param: Parameter, batch: TrainingBatch
    ) -> Tensor:
        cfg = self.config
        group = self.group_of[runtime.user_id]
        model = self.models[group]

        if cfg.enable_udl:
            heads = {g: self.models[g].head for g in widths_up_to(group, cfg.dims)}
            loss = dual_task_loss(
                model,
                group,
                cfg.dims,
                heads,
                user_param,
                batch,
                runtime.data.train_items,
            )
        else:
            loss = super().client_loss(runtime, user_param, batch)

        if cfg.enable_ddr and group != "s" and cfg.alpha > 0:
            loss = loss + cfg.alpha * self._ddr_term(model, runtime.user_id)
        return loss

    def _ddr_term(self, model, user_id: int) -> Tensor:
        """Eq. 13 on (a row sample of) the client's item table.

        The paper regularises the whole table; sampling rows bounds the
        per-client cost at paper scale while leaving the estimator
        unbiased — with small catalogues the full table is used.  The
        subset is drawn once per local *session* (round), not per epoch:
        equally unbiased across rounds, and it keeps the fused round
        engine's per-client working set at ``batch rows + sample`` rather
        than ``batch rows + local_epochs × sample``.  Subsets normally
        arrive pre-drawn via :meth:`presample_ddr_rows`; a direct
        ``train_client`` call outside a round falls back to drawing here.
        """
        weight = model.item_embedding.weight
        rows = weight.data.shape[0]
        sample = self.config.ddr_row_sample
        if user_id in self._session_ddr_rows:
            subset = self._session_ddr_rows[user_id]
        elif sample and rows > sample:
            subset = self._ddr_rng.choice(rows, size=sample, replace=False)
        else:
            subset = None
        if subset is None:
            return decorrelation_penalty(weight)
        return decorrelation_penalty(weight[subset])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_rngs(self):
        """The KD and DDR streams shape training (RESKD anchors, DDR row
        subsets), so a bitwise resume must replay them too."""
        rngs = super()._checkpoint_rngs()
        rngs["kd"] = self._kd_rng
        rngs["ddr"] = self._ddr_rng
        return rngs

    # ------------------------------------------------------------------
    # Server side: RESKD
    # ------------------------------------------------------------------
    def post_aggregate(self, epoch: int) -> None:
        if not self.config.enable_reskd:
            return
        embeddings = {
            group: self.models[group].item_embedding.weight for group in self.groups
        }
        relation_distillation_step(embeddings, self.config.distillation, self._kd_rng)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def collapse_diagnostics(self) -> dict:
        """Table V quantity: singular-value variance of each table's covariance."""
        return {
            group: singular_value_variance(self.models[group].item_embedding.weight.data)
            for group in self.groups
        }
