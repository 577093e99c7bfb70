"""Clustered FedRec baseline (paper Section V-C, after [74, 75]).

Heterogeneous model sizes, but aggregation stays *within* each size
cluster: U_s clients only ever share with U_s clients, and so on — three
independent homogeneous FedRecs running side by side.  The paper uses it
to show that isolating the clusters forfeits the cross-group
collaborative signal recommendation depends on.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.grouping import divide_clients
from repro.data.dataset import ClientData
from repro.federated.payload import ClientUpdate
from repro.federated.trainer import FederatedConfig, FederatedTrainer


class ClusteredTrainer(FederatedTrainer):
    """Per-cluster aggregation: no padding, no cross-size sharing."""

    method_name = "clustered"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: FederatedConfig,
        ratios: Sequence[float] = (5, 3, 2),
    ) -> None:
        super().__init__(num_items, clients, divide_clients(clients, ratios), config)

    def aggregate_embeddings(
        self, updates: Sequence[ClientUpdate]
    ) -> Dict[str, np.ndarray]:
        """Combine item-embedding deltas separately per group.

        Identical arithmetic to the homogeneous aggregator, applied three
        times — each group's table only ever sees deltas of its own width.
        """
        out: Dict[str, np.ndarray] = {}
        for group in self.groups:
            group_updates = [u for u in updates if u.group == group]
            if not group_updates:
                continue
            total = np.zeros(group_updates[0].embedding_delta.shape, dtype=np.float64)
            for update in group_updates:
                delta = update.embedding_delta
                total[delta.rows] += delta.values
            out[group] = total
        return out
