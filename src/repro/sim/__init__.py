"""Event-driven fault-injecting federation simulator.

The synchronous trainer (:mod:`repro.federated.trainer`) evaluates the
paper's protocol as a lock-step loop over always-available clients.
This package is the layer that stresses it: a seeded discrete-event
simulation where clients *arrive* (diurnal or heavy-tailed traces),
uploads take time, drop mid-flight, retry with backoff, or show up
twice, and the server aggregates asynchronously from a staleness-
weighted buffer — degrading gracefully (and *accountably*) instead of
silently when a round closes short of quorum.

Layout
------
``config``
    :class:`SimulationConfig` (every knob of a scenario) and
    :class:`ScenarioResult` (what a run reports, down to exact
    per-message wire accounting).
``engine``
    The event queue plus the client-behaviour models: arrival traces,
    latency distributions, dropout processes.  All randomness flows
    from owned :class:`numpy.random.Generator` streams spawned off the
    scenario seed, so every run is deterministic.
``async_server``
    The FedBuff-style buffered-aggregation server and the backends it
    drives (a real :class:`~repro.federated.trainer.FederatedTrainer`,
    or the population-scale surrogate fleet).
``population``
    The surrogate client fleet for population-scale scenarios; its
    clients' private vectors live in one in-memory
    :class:`~repro.federated.user_table.UserTable`.
``scenarios``
    The scenario catalogue: ``run_scenario(name, config)`` wraps the
    fault injectors and the :mod:`repro.robustness` attacks into
    reproducible, accountable experiments.
"""

from repro.sim.config import ScenarioResult, SimulationConfig
from repro.sim.scenarios import SCENARIOS, run_scenario

__all__ = ["SimulationConfig", "ScenarioResult", "SCENARIOS", "run_scenario"]
