"""The blessed public API: six verbs and one import surface.

Everything a caller needs lives here.  The six **verbs** cover the full
artefact lifecycle the repo is built around (train → checkpoint → serve
→ keep training):

========================  ==================================================
verb                      does
========================  ==================================================
:func:`fit`               train a built method (checkpoint-resume aware)
:func:`save_checkpoint`   persist a trainer's full state to one ``.npz``
:func:`resume`            restore a trainer from a checkpoint, bitwise
:func:`load_model`        rebuild one group's inference model from a
                          checkpoint (group optional when unambiguous)
:func:`recommend`         one-shot top-k answers straight off a checkpoint
:func:`serve`             stand up the online serving layer (service
                          object, or blocking HTTP front end)
========================  ==================================================

Every other public name (configs, datasets, evaluators, baselines,
serving classes, experiment helpers) is re-exported here lazily — heavy
subsystems import only when first touched — so

    >>> from repro.api import HeteFedRecConfig, build_method, fit

is the one import line callers and all ``examples/*.py`` use.  This
module is the only door: the deprecated deep-import verbs
(``repro.federated.checkpoint.save_checkpoint`` and friends) spent
their one-release window and are gone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.serving import Recommendation, RecommendationService

# ----------------------------------------------------------------------
# Lazy re-export surface: name -> defining module.  PEP 562 __getattr__
# resolves these on first access so `import repro.api` stays light.
# ----------------------------------------------------------------------
_EXPORTS = {
    # core framework
    "HeteFedRec": "repro.core",
    "HeteFedRecConfig": "repro.core",
    "divide_clients": "repro.core.grouping",
    "group_counts": "repro.core.grouping",
    "Candidate": "repro.core.size_search",
    "successive_halving": "repro.core.size_search",
    # federation
    "FederatedConfig": "repro.federated.trainer",
    "FederatedTrainer": "repro.federated.trainer",
    "AvailabilityConfig": "repro.federated.availability",
    "PrivacyConfig": "repro.federated.privacy",
    "SecureAggregationConfig": "repro.federated.secure_agg",
    "FaultPlan": "repro.federated.secure_protocol",
    "run_secure_round": "repro.federated.secure_protocol",
    "SystemProfile": "repro.federated.systems",
    "round_time_summary": "repro.federated.systems",
    "simulate_round_times": "repro.federated.systems",
    "time_to_accuracy": "repro.federated.systems",
    "UnlearningHeteFedRec": "repro.federated.unlearning",
    # checkpoints
    "CheckpointMismatchError": "repro.federated.checkpoint",
    "UnknownGroupError": "repro.federated.checkpoint",
    "read_manifest": "repro.federated.checkpoint",
    # baselines
    "METHODS": "repro.baselines",
    "build_method": "repro.baselines",
    "DISPLAY_NAMES": "repro.baselines.registry",
    "TABLE2_ORDER": "repro.baselines.registry",
    # data
    "InteractionDataset": "repro.data",
    "SyntheticConfig": "repro.data",
    "load_benchmark_dataset": "repro.data",
    "train_test_split_per_user": "repro.data",
    "load_movielens": "repro.data.movielens",
    "save_ratings": "repro.data.movielens",
    "dataset_statistics": "repro.data.stats",
    # evaluation
    "Evaluator": "repro.eval",
    "per_group_metrics": "repro.eval",
    "blocked_top_k": "repro.eval",
    # subsystems
    "CompressionConfig": "repro.compression",
    "AttackConfig": "repro.robustness",
    "RobustAggregationConfig": "repro.robustness",
    # experiment harness helpers the examples use
    "format_table": "repro.experiments.reporting",
    "format_table3": "repro.experiments.table3",
    "hetefedrec_extra_head_cost": "repro.experiments.table3",
    "run_table3": "repro.experiments.table3",
    # serving
    "RecommendationService": "repro.serving",
    "RequestCoalescer": "repro.serving",
    "Recommendation": "repro.serving",
    "QueryRequest": "repro.serving",
    "ModelSnapshot": "repro.serving",
    "load_snapshot": "repro.serving",
    "TopKCache": "repro.serving",
    "UnknownUserError": "repro.serving",
    "delivered": "repro.serving",
    # serving resilience + chaos
    "ResilientService": "repro.serving",
    "ResilienceConfig": "repro.serving",
    "AdmissionQueue": "repro.serving",
    "CircuitBreaker": "repro.serving",
    "HealthMonitor": "repro.serving",
    "ShedError": "repro.serving",
    "DeadlineExceededError": "repro.serving",
    "CircuitOpenError": "repro.serving",
    "ManualClock": "repro.serving.chaos",
    "ServingChaosConfig": "repro.serving.chaos",
    "run_chaos_scenario": "repro.serving.chaos",
}

__all__ = sorted(
    [
        "fit",
        "save_checkpoint",
        "resume",
        "load_model",
        "recommend",
        "serve",
        "user_embedding_from_checkpoint",
        *_EXPORTS,
    ]
)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return __all__


# ----------------------------------------------------------------------
# The six verbs
# ----------------------------------------------------------------------
def fit(trainer, evaluator=None):
    """Train ``trainer`` to its configured epoch budget; return the history.

    Checkpoint-resume aware: a trainer restored via :func:`resume` picks
    up at the epoch it left off, and a ``checkpoint_path`` in its config
    keeps autosaving as training progresses.  ``evaluator`` (an
    :class:`Evaluator`) turns on per-epoch metric tracking.
    """
    return trainer.fit(evaluator)


def save_checkpoint(trainer, path: str) -> None:
    """Persist ``trainer``'s full state — models, user embeddings, RNG
    streams, progress — to one ``.npz`` file at ``path``, manifest
    embedded (:func:`read_manifest` reads it back), written atomically."""
    from repro.federated.checkpoint import save_checkpoint_impl

    save_checkpoint_impl(trainer, path)


def resume(trainer, path: str):
    """Restore ``trainer`` from ``path`` and return it, ready to
    :func:`fit` onward bitwise-identically to a never-interrupted run.

    Fails two ways, ``trainer`` left exactly as it was: ``OSError`` iff
    the file cannot be opened, :class:`CheckpointMismatchError` for its
    content — torn, another format version, a missing section, or
    produced under an incompatible configuration.
    """
    from repro.federated.checkpoint import load_checkpoint_impl

    load_checkpoint_impl(trainer, path)
    return trainer


def load_model(path: str, group: Optional[str] = None):
    """One dim-group's inference model, as serving loads it (:func:`load_snapshot`).

    Returns ``(model, meta)``.  ``group`` may be omitted when the
    checkpoint holds a single group; otherwise the raised
    :class:`UnknownGroupError` lists the valid choices.
    """
    from repro.federated.checkpoint import UnknownGroupError
    from repro.serving import load_snapshot

    snapshot = load_snapshot(path)
    groups = snapshot.groups
    if group is None and len(groups) == 1:
        group = groups[0]
    if group not in groups:
        raise UnknownGroupError(
            f"checkpoint {path!r} holds models for groups {groups}; pass group=<name> to choose one"
            if group is None
            else f"group {group!r} not in checkpoint {path!r} (valid groups: {groups})"
        )
    return snapshot.models[group], snapshot.meta


def user_embedding_from_checkpoint(path: str, user_id: int) -> "np.ndarray":
    """One user's private embedding, looked up in serving's user tables
    (:func:`load_snapshot`); ``KeyError`` if no group holds the user."""
    from repro.serving import load_snapshot

    for table in load_snapshot(path).users.values():
        if user_id in table.ids:
            return table.take([user_id])[0]
    raise KeyError(f"no embedding stored for user {user_id}")


def recommend(
    checkpoint: Union[str, "RecommendationService"],
    user_ids: Union[int, Sequence[int]],
    k: int = 20,
    exclude: Optional["np.ndarray"] = None,
) -> Union["Recommendation", list]:
    """One-shot top-k answers straight off a checkpoint.

    ``checkpoint`` is a path (a throwaway service is warm-loaded for the
    call) or an existing :class:`RecommendationService` (reusing its
    cache and snapshot).  A scalar ``user_ids`` returns one
    :class:`Recommendation`; a sequence returns a list, scored as one
    batch.  A request the service refuses — an unknown user
    (:class:`UnknownUserError`), an ``exclude`` id outside the catalogue
    (:class:`ValueError`) — is raised; for a sequence, the first such
    refusal in request order (``service.query_batch`` hands back every
    slot instead, refusals included).  For sustained traffic build the
    service once via :func:`serve` instead of re-loading per call.
    """
    from repro.serving import QueryRequest, RecommendationService, delivered

    service = (
        checkpoint
        if isinstance(checkpoint, RecommendationService)
        else RecommendationService(checkpoint, k=k)
    )
    if isinstance(user_ids, (int,)) or hasattr(user_ids, "__index__"):
        return service.query(int(user_ids), k=k, exclude=exclude)
    requests = [QueryRequest(int(user), k, exclude) for user in user_ids]
    return [delivered(slot) for slot in service.query_batch(requests)]


def serve(
    checkpoint: str,
    host: Optional[str] = None,
    port: int = 8777,
    k: int = 20,
    cache_size: int = 4096,
    max_batch: int = 32,
    history=None,
    exclude_seen: bool = False,
    verbose: bool = True,
    resilience: Union[bool, "object", None] = None,
    watch: Optional[str] = None,
    watch_interval_s: float = 2.0,
    request_timeout_s: Optional[float] = 30.0,
):
    """Stand up the online serving layer over ``checkpoint``.

    With ``host=None`` (the default) returns a ready
    :class:`RecommendationService` for in-process use — query it, swap
    checkpoints into it, wrap it in a :class:`RequestCoalescer`.  Pass
    ``resilience=True`` (or a :class:`ResilienceConfig`) to get a
    :class:`ResilientService` instead: admission control, deadline
    budgets, the degradation ladder, and circuit-broken hot-swap.

    With a ``host`` it *blocks*, running the stdlib JSON front end on
    ``host:port`` (the ``repro serve`` CLI entry) with concurrent HTTP
    requests coalesced into blocked matmuls (at most ``max_batch``; a
    lone request is scored at once, never held for company).  The HTTP
    path always carries the resilience layer (shed → 503 + Retry-After,
    deadline overrun → 504, ``/healthz`` surfaces the health state
    machine) and drains gracefully on SIGTERM/SIGINT.  ``watch`` polls a checkpoint
    path and hot-swaps when a new valid one lands.

    The checkpoint is read and validated whole first, failing
    :func:`resume`'s two ways (as does every later ``swap``).
    """
    from repro.serving import (
        RecommendationService,
        ResilienceConfig,
        ResilientService,
    )

    service = RecommendationService(
        checkpoint,
        k=k,
        cache_size=cache_size,
        history=history,
        exclude_seen=exclude_seen,
    )
    resilience_config = (
        resilience if isinstance(resilience, ResilienceConfig) else None
    )
    if host is None and not resilience:
        return service
    resilient = ResilientService(service, resilience_config)
    if watch:
        resilient.watch(watch, interval_s=watch_interval_s)
    if host is None:
        return resilient

    from repro.serving.coalescer import RequestCoalescer
    from repro.serving.http_api import run_server

    run_server(
        resilient,
        RequestCoalescer(resilient, max_batch=max_batch),
        host=host,
        port=port,
        verbose=verbose,
        request_timeout_s=request_timeout_s,
    )
    return service
