"""Robustness: poisoning attacks and robust aggregation for FedRecs.

The paper's related work (Section II-A) surveys how FedRecs "are
susceptible to manipulation by malicious users who upload poisoned model
updates" (PipAttack [44], FedRecAttack [45], [46]).  This subpackage
reproduces that threat model against every trainer in the repo —
including HeteFedRec, whose heterogeneous aggregation is a *new* attack
surface (a poisoned narrow update contaminates the prefix of every wider
table) — together with the standard server-side defences.

* :mod:`repro.robustness.attacks` — malicious-client behaviours
  (random-noise, sign-flip/model poisoning, target-item promotion);
* :mod:`repro.robustness.defenses` — robust aggregators (server-side
  norm clipping, per-row trimmed mean / median, multi-Krum selection).

Attacks and defences are config features, not a trainer of their own:
``FederatedConfig.attack`` (an :class:`AttackConfig`) and
``FederatedConfig.defense`` (a :class:`RobustAggregationConfig`) switch
them on in any trainer, beside privacy, compression and availability.
:class:`~repro.federated.trainer.FederatedTrainer` poisons the malicious
clients' finished uploads, clips or multi-Krum-filters the uploads
before aggregation, takes the median / trimmed mean in place of the
padded sum, and scores honest clients only.

This is defensive-security tooling: it exists to measure and harden the
aggregation rules, mirroring the published attack evaluations.
"""

from repro.robustness.attacks import AttackConfig, choose_malicious, poison_update
from repro.robustness.defenses import (
    RobustAggregationConfig,
    krum_select,
    robust_embedding_aggregate,
    server_clip_updates,
)

__all__ = [
    "AttackConfig",
    "choose_malicious",
    "poison_update",
    "RobustAggregationConfig",
    "krum_select",
    "robust_embedding_aggregate",
    "server_clip_updates",
]
