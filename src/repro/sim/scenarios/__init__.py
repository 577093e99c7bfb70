"""The scenario catalogue: named, reproducible fault-injection setups.

Each scenario module exports ``NAME`` and ``build(base) -> ScenarioSpec``
— a :class:`~repro.sim.config.SimulationConfig` derived from the caller's
base plus (optionally) a :class:`~repro.robustness.attacks.AttackConfig`
applied by the surrogate fleet.  :func:`run_scenario` wires spec → fleet
→ :class:`~repro.sim.async_server.AsyncFedServer` and returns the
deterministic :class:`~repro.sim.config.ScenarioResult`.

Fault families covered (each asserted by the test suite):

* ``dropout_storm`` — mass upload failure + retry/backoff exhaustion;
* ``straggler_flood`` — heavy-tailed latency against round deadlines,
  staleness-discounted buffered aggregation, max-age eviction;
* ``duplicate_uploads`` — retries racing their originals, exercising
  ``merge_duplicate_users`` in the hot aggregation path;
* ``flapping`` — Markov availability (clients oscillate offline/online);
* ``poisoning`` — spam/poisoning at population scale through the real
  :mod:`repro.robustness.attacks` transformations;
* ``secure_dropout`` — every aggregation runs the phased secure-masking
  protocol with dropouts/duplicates injected at every protocol phase and
  periodic below-threshold abort storms (see :mod:`repro.sim.secure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.robustness.attacks import AttackConfig
from repro.sim.async_server import AsyncFedServer
from repro.sim.config import ScenarioResult, SimulationConfig
from repro.sim.engine import SimStreams
from repro.sim.population import SURROGATE_GROUP, SurrogateFleet
from repro.sim.secure import SecureAggregatingBackend, SecureScenarioConfig
from repro.sim.scenarios import (  # noqa: E402  (registry population)
    baseline,
    dropout_storm,
    duplicate_uploads,
    flapping,
    poisoning,
    secure_dropout,
    straggler_flood,
)


@dataclass
class ScenarioSpec:
    """A named, fully-resolved scenario: config plus optional faults.

    ``attack`` poisons client updates inside the fleet; ``secure`` routes
    every aggregation through the phased secure-masking protocol with
    the configured fault injection.
    """

    name: str
    config: SimulationConfig
    attack: Optional[AttackConfig] = None
    secure: Optional[SecureScenarioConfig] = None


#: name -> build(base_config) -> ScenarioSpec
SCENARIOS: Dict[str, Callable[[SimulationConfig], ScenarioSpec]] = {
    module.NAME: module.build
    for module in (
        baseline,
        dropout_storm,
        straggler_flood,
        duplicate_uploads,
        flapping,
        poisoning,
        secure_dropout,
    )
}


def build_scenario(
    name: str, base: Optional[SimulationConfig] = None, **overrides
) -> ScenarioSpec:
    """Resolve a catalogue name against a base config (plus overrides)."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}")
    spec = SCENARIOS[name](base if base is not None else SimulationConfig())
    if overrides:
        spec = ScenarioSpec(
            spec.name, spec.config.copy_with(**overrides), spec.attack, spec.secure
        )
    return spec


def run_scenario(
    scenario: Union[str, SimulationConfig, ScenarioSpec],
    base: Optional[SimulationConfig] = None,
    **overrides,
) -> ScenarioResult:
    """Run one scenario end to end against the surrogate fleet.

    ``scenario`` may be a catalogue name, a bare
    :class:`SimulationConfig` (run as-is, no attack), or a resolved
    :class:`ScenarioSpec`.  Nothing touches disk: the fleet holds its
    population in memory, so the result is a function of the spec alone.
    """
    if isinstance(scenario, SimulationConfig):
        spec = ScenarioSpec("custom", scenario)
        if overrides:
            spec = ScenarioSpec(spec.name, spec.config.copy_with(**overrides))
    elif isinstance(scenario, ScenarioSpec):
        spec = scenario
        if overrides:
            spec = ScenarioSpec(
                spec.name, spec.config.copy_with(**overrides), spec.attack, spec.secure
            )
    else:
        spec = build_scenario(scenario, base, **overrides)

    streams = SimStreams(spec.config.seed)
    fleet = SurrogateFleet(
        spec.config,
        streams.population,
        attack=spec.attack,
        attack_rng=streams.attack,
    )
    backend = fleet
    if spec.secure is not None:
        backend = SecureAggregatingBackend(
            fleet,
            dims={SURROGATE_GROUP: spec.config.dim},
            config=spec.secure,
            rng=streams.secure,
        )
    server = AsyncFedServer(backend, spec.config, name=spec.name, streams=streams)
    result = server.run()
    result.poisoned_updates = fleet.poisoned_updates
    if spec.secure is not None:
        result.secure_rounds_applied = backend.rounds_applied
        result.secure_rounds_aborted = backend.rounds_aborted
        result.secure_dropouts_injected = dict(backend.dropouts_injected)
        result.secure_phase_wire = dict(backend.phase_wire)
        result.secure_max_sum_error = backend.max_sum_error
        result.secure_saturated_scalars = backend.saturated_scalars
        # Updates stranded in an aborted final round never reached
        # the model — account them as dropped, not silently lost.
        result.dropped_updates += backend.carried_unapplied
    return result


__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "build_scenario",
    "run_scenario",
]
