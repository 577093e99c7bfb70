"""The HeteFedRec trainer — paper Algorithm 1.

Extends the base federated protocol with the three components:

* clients optimise the **unified dual-task** loss (Eq. 11) plus the
  α-weighted **decorrelation** penalty (Eq. 14) during local training —
  declared through :meth:`HeteFedRec.trained_head_groups`,
  :meth:`HeteFedRec.fused_objective` and
  :meth:`HeteFedRec.presample_ddr_rows`, and differentiated by the round
  engine (:mod:`repro.federated.round_engine`);
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

from repro.core.config import HeteFedRecConfig
from repro.core.decorrelation import singular_value_variance
from repro.core.distillation import relation_distillation_step
from repro.core.dual_task import widths_up_to
from repro.core.grouping import divide_clients
from repro.data.dataset import ClientData
from repro.federated.trainer import FederatedTrainer

#: Rows of the catalogue each medium/large client's DDR penalty samples per
#: round (0, or a catalogue no larger, regularises the whole table).
DDR_ROW_SAMPLE = 256


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

    def fused_objective(self) -> float:
        """DDR's α (Eq. 14), or 0 when the penalty is off."""
        cfg = self.config
        return cfg.alpha if (cfg.enable_ddr and cfg.alpha > 0) else 0.0

    def presample_ddr_rows(self, user_ids):
        """Draw each eligible client's DDR row subset for this round.

        One draw per eligible client, clients in round order — the single
        site that consumes the shared DDR RNG.  Group 's' never pays the
        penalty (Eq. 14 applies to the medium/large tables).

        The paper regularises the whole table; sampling rows bounds the
        per-client cost at paper scale while leaving the estimator
        unbiased, and small catalogues use the full table (``None``
        marker, no RNG consumed).  The subset is drawn once per local
        *session* (round), not per epoch: equally unbiased across rounds,
        and it keeps the round engine's per-client working set at
        ``batch rows + sample`` rather than ``batch rows + local_epochs ×
        sample``.
        """
        cfg = self.config
        if not (cfg.enable_ddr and cfg.alpha > 0):
            return {}
        rows = self.num_items
        sample = DDR_ROW_SAMPLE
        subsets = {}
        for user in user_ids:
            if self.group_of[user] == "s":
                continue
            if sample and rows > sample:
                subsets[user] = self._ddr_rng.choice(rows, size=sample, replace=False)
            else:
                subsets[user] = None
        return subsets

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
        tables = {
            group: self.models[group].item_embedding.weight.data for group in self.groups
        }
        relation_distillation_step(tables, self.config.distillation, self._kd_rng)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def collapse_diagnostics(self) -> dict:
        """Table V quantity: singular-value variance of each table's covariance."""
        return {
            group: singular_value_variance(self.models[group].item_embedding.weight.data)
            for group in self.groups
        }
