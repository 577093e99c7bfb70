"""Homogeneous baselines: All Small, All Large, All Large/Exclusive.

These are ordinary single-size FedRecs (the pre-HeteFedRec status quo).
"All Small" gives every client the N_s model; "All Large" the N_l model;
"All Large/Exclusive" additionally discards uploads from data-poor
clients at the server (they still receive the global model and keep their
private embedding fresh, but their updates never enter aggregation).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.core.grouping import divide_clients, homogeneous_assignment
from repro.data.dataset import ClientData
from repro.federated.trainer import FederatedConfig, FederatedTrainer


class HomogeneousTrainer(FederatedTrainer):
    """Single-group FedRec: the conventional protocol of Section III-A."""

    method_name = "homogeneous"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: FederatedConfig,
        dim: int,
        excluded_uploaders: Optional[Set[int]] = None,
    ) -> None:
        config = config.copy_with(dims={"all": dim})
        group_of = homogeneous_assignment(clients, group="all")
        super().__init__(
            num_items, clients, group_of, config, excluded_uploaders=excluded_uploaders
        )


class AllLargeExclusiveTrainer(HomogeneousTrainer):
    """All Large with server-side exclusion of data-poor clients.

    The excluded set is the U_s portion of the division the heterogeneous
    methods would use (ratio default 5:3:2) — "clients with insufficient
    data" in the paper's wording.
    """

    method_name = "all_large_exclusive"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: FederatedConfig,
        dim: int,
        ratios: Sequence[float] = (5, 3, 2),
    ) -> None:
        division = divide_clients(clients, ratios)
        excluded = {user for user, group in division.items() if group == "s"}
        super().__init__(
            num_items, clients, config, dim=dim, excluded_uploaders=excluded
        )


def all_small(
    num_items: int, clients: Sequence[ClientData], config: FederatedConfig
) -> HomogeneousTrainer:
    """'All Small' baseline: everyone trains the N_s model."""
    trainer = HomogeneousTrainer(num_items, clients, config, dim=config.dims["s"])
    trainer.method_name = "all_small"
    return trainer


def all_large(
    num_items: int, clients: Sequence[ClientData], config: FederatedConfig
) -> HomogeneousTrainer:
    """'All Large' baseline: everyone trains the N_l model."""
    trainer = HomogeneousTrainer(num_items, clients, config, dim=config.dims["l"])
    trainer.method_name = "all_large"
    return trainer


def all_large_exclusive(
    num_items: int,
    clients: Sequence[ClientData],
    config: FederatedConfig,
    ratios: Sequence[float] = (5, 3, 2),
) -> AllLargeExclusiveTrainer:
    """'All Large/Exclusive' baseline: N_l models, U_s uploads discarded."""
    return AllLargeExclusiveTrainer(
        num_items, clients, config, dim=config.dims["l"], ratios=ratios
    )
