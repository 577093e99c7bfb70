"""Method registry: build any of the paper's seven methods by name.

The experiment harness iterates over this mapping to produce Table II;
``build_method`` is the single entry point examples and benchmarks use.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.baselines.clustered import ClusteredTrainer
from repro.baselines.direct import DirectAggregateTrainer
from repro.baselines.homogeneous import all_large, all_large_exclusive, all_small
from repro.baselines.standalone import StandaloneTrainer
from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.federated.trainer import FederatedConfig, FederatedTrainer


def _build_hetefedrec(num_items, clients, config) -> HeteFedRec:
    return HeteFedRec(num_items, clients, HeteFedRecConfig.widen(config))


def _build_standalone(num_items, clients, config) -> StandaloneTrainer:
    ratios = getattr(config, "ratios", (5, 3, 2))
    return StandaloneTrainer(num_items, clients, config, ratios=ratios)


def _build_clustered(num_items, clients, config) -> ClusteredTrainer:
    ratios = getattr(config, "ratios", (5, 3, 2))
    return ClusteredTrainer(num_items, clients, config, ratios=ratios)


def _build_direct(num_items, clients, config) -> DirectAggregateTrainer:
    return DirectAggregateTrainer(num_items, clients, config)


def _build_all_large_exclusive(num_items, clients, config):
    ratios = getattr(config, "ratios", (5, 3, 2))
    return all_large_exclusive(num_items, clients, config, ratios=ratios)


#: Method name → builder(num_items, clients, config) → trainer.
METHODS: Dict[str, Callable[..., FederatedTrainer]] = {
    "all_small": all_small,
    "all_large": all_large,
    "all_large_exclusive": _build_all_large_exclusive,
    "standalone": _build_standalone,
    "clustered": _build_clustered,
    "directly_aggregate": _build_direct,
    "hetefedrec": _build_hetefedrec,
}

#: Display names matching the paper's Table II rows.
DISPLAY_NAMES: Dict[str, str] = {
    "all_small": "All Small",
    "all_large": "All Large",
    "all_large_exclusive": "All Large/Exclusive",
    "standalone": "Standalone",
    "clustered": "Clustered FedRec",
    "directly_aggregate": "Directly Aggregate",
    "hetefedrec": "HeteFedRec(Ours)",
}

#: Paper ordering for Table II.
TABLE2_ORDER = (
    "all_small",
    "all_large",
    "all_large_exclusive",
    "standalone",
    "clustered",
    "directly_aggregate",
    "hetefedrec",
)


def build_method(
    name: str,
    num_items: int,
    clients: Sequence[ClientData],
    config: FederatedConfig,
) -> FederatedTrainer:
    """Instantiate a method by registry name."""
    key = name.lower()
    if key not in METHODS:
        raise KeyError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    return METHODS[key](num_items, clients, config)
