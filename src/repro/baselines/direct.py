"""Directly Aggregate baseline (paper Section V-C, Eq. 8 without Eq. 11).

Heterogeneous models with padding-based aggregation but *no* unified
dual-task learning, decorrelation or distillation: exactly the naive
scheme whose update-mismatch problem motivates HeteFedRec.  Implemented
as HeteFedRec with every component disabled, which makes the Table IV
equivalence (−RESKD,DDR,UDL ≡ Directly Aggregate) true by construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.federated.trainer import FederatedConfig


class DirectAggregateTrainer(HeteFedRec):
    """Padding aggregation of mismatched updates — all components off."""

    method_name = "directly_aggregate"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: FederatedConfig,
    ) -> None:
        config = HeteFedRecConfig.widen(config).copy_with(
            enable_udl=False, enable_ddr=False, enable_reskd=False
        )
        super().__init__(num_items, clients, config)
