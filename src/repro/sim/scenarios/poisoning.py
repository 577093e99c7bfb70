"""Spam/poisoning at population scale.

Ten percent of the fleet is malicious and runs the real
:mod:`repro.robustness.attacks` sign-flip transformation over its
(surrogate) honest updates — the identical code path a trainer under
``config.attack`` runs, but at populations the trainer cannot reach.
``poisoned_updates`` counts every poisoned upload that was trained.
"""

from __future__ import annotations

from repro.robustness.attacks import AttackConfig
from repro.sim.config import SimulationConfig


NAME = "poisoning"


def build(base: SimulationConfig):
    from repro.sim.scenarios import ScenarioSpec

    config = base.copy_with(
        latency=base.latency.__class__(kind="lognormal", scale=0.1, sigma=0.5),
    )
    attack = AttackConfig(kind="signflip", fraction=0.1, scale=10.0, seed=base.seed)
    return ScenarioSpec(NAME, config, attack)
