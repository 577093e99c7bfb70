"""Experiment profiles: how big and how long.

The pure-numpy substrate trades speed for auditability, so experiments
run at three sizes:

* ``smoke`` — seconds; used by the integration tests.  Orderings are not
  expected to be stable at this size.
* ``bench`` — the default for ``benchmarks/``; minutes per table; method
  orderings (the paper's *shape*) are stable.
* ``full``  — the largest practical size; closest to the paper's relative
  factors.  No committed artefact uses it: ``results/`` holds the
  ``bench`` profile's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.data.synthetic import SyntheticConfig


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale/duration bundle for one experiment run."""

    name: str
    scale: float
    item_scale: float
    epochs: int
    clients_per_round: int = 256
    local_epochs: int = 4
    lr: float = 0.01
    seed: int = 0

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            scale=self.scale, item_scale=self.item_scale, seed=self.seed
        )


PROFILES: Dict[str, ExperimentProfile] = {
    "smoke": ExperimentProfile(
        name="smoke", scale=0.015, item_scale=0.05, epochs=2
    ),
    "bench": ExperimentProfile(
        name="bench", scale=0.04, item_scale=0.15, epochs=20
    ),
    "full": ExperimentProfile(
        name="full", scale=0.08, item_scale=0.20, epochs=40
    ),
}


def get_profile(name: str) -> ExperimentProfile:
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    return PROFILES[name]
