"""Shared experiment runner: cached single runs and a parallel grid executor.

:func:`run_spec` trains one :class:`RunSpec` — a (dataset, method,
architecture) triple under a profile — and returns a :class:`RunResult`
with everything the table/figure modules need: overall metrics,
per-group metrics, the NDCG-vs-epoch curve, communication totals, and
collapse diagnostics.

Results are cached as JSON under ``.repro_cache/`` keyed by the exact
run parameters, so re-running a benchmark suite (or building several
tables that share runs — Table II, Fig. 6 and Fig. 7 all reuse the same
training jobs) costs one training run, not three.

Grid execution
--------------
Experiment modules declare each grid once, as a nested ``label → … →``
:class:`RunSpec` mapping (a hashable run descriptor — the same
parameters of one training run), and hand it to :func:`run_tree`, which
runs the leaves through :func:`run_grid` and returns the same shape with
results at the leaves.  ``run_grid``

1. dedupes identical specs *before* dispatch (overlapping grids such as
   Table II / Fig. 6 / Fig. 7 collapse to one training job per unique
   spec, not one per consumer);
2. resolves cache hits in the parent process;
3. fans the remaining misses out over a ``ProcessPoolExecutor`` when
   ``jobs > 1``.  Workers memoize dataset generation per process, train
   deterministically from the spec's seed (results are bitwise-identical
   to serial execution), re-check the cache before training (another
   process may have finished the same key), and publish results with an
   atomic ``os.replace`` so concurrent writers can never tear an entry.

Cache writes are atomic everywhere (:func:`repro.io.atomic_write`: tmp
file in the cache directory + ``os.replace``); a torn or corrupt entry
is treated as a miss and is rewritten by the next run that needs it.
Point ``REPRO_CACHE_DIR`` at a shared location to reuse runs across
working copies.

Preemption tolerance
--------------------
Cached runs are also *resumable*: while training, a worker autosaves a
full-state checkpoint (``{key}.ckpt.npz`` next to the cache entry,
every ``max(1, epochs // 5)`` epochs plus always after the final one,
atomic) and a worker picking the same spec up after a
kill restores it and continues the run bitwise-identically — the result
published to the cache is the one the uninterrupted run would have
produced (see :mod:`repro.federated.checkpoint`).  A stale, corrupt or
incompatible checkpoint makes the spec restart cleanly — but it is
*quarantined* as ``{key}.ckpt.corrupt`` (with a ``RuntimeWarning``
naming it), never silently deleted, so fault post-mortems can inspect
what the crashed writer left behind.  The checkpoint is deleted once
the result is published.  :func:`_train_spec` alone (the tests' ground
truth) stays fully stateless (no checkpoint reads or writes).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.registry import build_method
from repro.core.config import HeteFedRecConfig
from repro.core.grouping import divide_clients
from repro.data.splitting import train_test_split_per_user
from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset
from repro.eval.evaluator import Evaluator
from repro.eval.groups import per_group_metrics
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.io import atomic_write, quarantine

#: Cache directory; co-located with the repository by default.
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", os.path.join(os.getcwd(), ".repro_cache"))


@dataclass
class RunResult:
    """Everything one training run produces, JSON-serialisable."""

    dataset: str
    method: str
    arch: str
    profile: str
    recall: float
    ndcg: float
    group_recall: Dict[str, float]
    group_ndcg: Dict[str, float]
    ndcg_curve: List[Tuple[int, float]]
    communication_total: int
    communication_per_round: float
    collapse: Dict[str, float]
    seed: int = 0
    #: End-to-end differential-privacy spend (None when the run trains
    #: without clipping+noise — the accountant is inactive).
    epsilon: Optional[float] = None
    delta: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        raw = json.loads(payload)
        raw["ndcg_curve"] = [tuple(point) for point in raw["ndcg_curve"]]
        return cls(**raw)


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Hashable descriptor of one training run.

    Identity (``==`` / ``hash``) is the cache key: two specs that would
    produce the same cache entry are the same run, regardless of whether
    their overrides were spelled as equal-but-distinct objects.  That
    makes pre-dispatch dedup in :func:`run_grid` exact, and lets callers
    fetch results from a grid with freshly-built specs.
    """

    dataset: str
    method: str
    arch: str = "ncf"
    profile: "str | ExperimentProfile" = "bench"
    seed: int = 0
    config_overrides: Optional[Mapping[str, Any]] = None

    def resolved_profile(self) -> ExperimentProfile:
        if isinstance(self.profile, ExperimentProfile):
            return self.profile
        return get_profile(self.profile)

    def cache_params(self) -> Dict[str, Any]:
        """The exact parameter dict the cache key is derived from."""
        overrides = dict(self.config_overrides or {})
        return dict(
            dataset=self.dataset,
            method=self.method,
            arch=self.arch,
            # Every profile field: profiles that differ anywhere (cohort
            # size, dataset seed, ...) are different runs.
            profile=asdict(self.resolved_profile()),
            seed=self.seed,
            overrides={k: repr(v) for k, v in sorted(overrides.items())},
            # Bump to invalidate on semantic changes.  v5: v4 keys omitted
            # ``clients_per_round`` and the profile's dataset seed, so a
            # v4 entry may have been trained under another value of either.
            version=5,
        )

    def key(self) -> str:
        # Memoized: identity is probed on every dict lookup, and the
        # canonicalisation (profile resolution + json + sha256) is pure.
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _cache_key(**self.cache_params())
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        prof = self.profile if isinstance(self.profile, str) else self.profile.name
        tail = f", overrides={dict(self.config_overrides)}" if self.config_overrides else ""
        return (
            f"RunSpec({self.dataset!r}, {self.method!r}, arch={self.arch!r}, "
            f"profile={prof!r}, seed={self.seed}{tail})"
        )


def _cache_key(**params) -> str:
    canonical = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _cache_path(key: str) -> str:
    return os.path.join(CACHE_DIR, f"{key}.json")


def _load_cached(key: str) -> Optional[RunResult]:
    path = _cache_path(key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return RunResult.from_json(handle.read())
    except (json.JSONDecodeError, KeyError, TypeError):
        # A corrupt (e.g. torn by a crashed writer) entry is a miss, not
        # an error; the next training run overwrites it atomically.
        return None


def _store_cached(key: str, result: RunResult) -> None:
    """Publish a result atomically: concurrent readers see old/new, never torn."""
    atomic_write(_cache_path(key), lambda handle: handle.write(result.to_json()))


# ----------------------------------------------------------------------
# Dataset memoization (per process)
# ----------------------------------------------------------------------
#: Generated datasets keyed by (name, SyntheticConfig fields).  Datasets
#: are immutable once built (splitting copies interactions out), so runs
#: in one process — a grid worker training several specs, or a serial
#: sweep — share one generation instead of regenerating per run.
_DATASET_MEMO: Dict[tuple, Any] = {}
_DATASET_MEMO_LIMIT = 8


def _memoized_dataset(name: str, config: SyntheticConfig):
    memo_key = (name, astuple(config))
    dataset = _DATASET_MEMO.get(memo_key)
    if dataset is None:
        dataset = load_benchmark_dataset(name, config)
        if len(_DATASET_MEMO) >= _DATASET_MEMO_LIMIT:
            _DATASET_MEMO.pop(next(iter(_DATASET_MEMO)))
        _DATASET_MEMO[memo_key] = dataset
    return dataset


def build_config(
    profile: ExperimentProfile,
    arch: str,
    seed: int,
    **overrides,
) -> HeteFedRecConfig:
    """The HeteFedRecConfig a profile implies, with per-experiment overrides."""
    config = HeteFedRecConfig(
        arch=arch,
        epochs=profile.epochs,
        clients_per_round=profile.clients_per_round,
        local_epochs=profile.local_epochs,
        lr=profile.lr,
        seed=seed,
        eval_every=max(profile.epochs // 5, 1),
    )
    return config.copy_with(**overrides) if overrides else config


def _spec_checkpoint_path(key: str) -> str:
    """Where a worker autosaves/resumes the full training state for a key."""
    return os.path.join(CACHE_DIR, f"{key}.ckpt.npz")


def _train_spec(spec: RunSpec, checkpoint: bool = False) -> RunResult:
    """Train one spec (no cache involvement) — deterministic in the spec.

    With ``checkpoint=True`` the run autosaves its full state under the
    spec's cache key every ``max(1, epochs // 5)`` epochs (plus always
    after the final one) and resumes from an existing checkpoint (a
    previous worker killed mid-run) instead of restarting; resumed
    results are bitwise-identical to uninterrupted ones, so the cache
    entry is the same either way.
    """
    from repro.federated.checkpoint import CheckpointMismatchError, load_checkpoint_impl

    prof = spec.resolved_profile()
    overrides = dict(spec.config_overrides or {})

    data = _memoized_dataset(spec.dataset, prof.synthetic_config())
    clients = train_test_split_per_user(data, seed=spec.seed)
    config = build_config(prof, spec.arch, spec.seed, **overrides)
    ckpt_path = None
    if checkpoint:
        ckpt_path = _spec_checkpoint_path(spec.key())
        config.checkpoint_path = ckpt_path
        # Cadence scales with the schedule (like eval_every): long runs
        # checkpoint often enough to bound lost work, short smoke runs
        # don't pay a compressed full-state write every epoch.  The
        # final epoch always saves regardless, covering the window
        # between training and the cache publish.
        config.checkpoint_every = max(1, config.epochs // 5)
    trainer = build_method(spec.method, data.num_items, clients, config)
    if ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            load_checkpoint_impl(trainer, ckpt_path)
        except (CheckpointMismatchError, OSError) as error:
            # Stale/corrupt/incompatible leftovers: quarantine the file
            # (a torn write, a stale format, a bad disk — post-mortems
            # need the evidence), warn, and restart cleanly — a refused
            # restore left the trainer as it was built.
            quarantined = quarantine(ckpt_path)
            if quarantined is not None:
                warnings.warn(
                    f"checkpoint {ckpt_path} could not be restored "
                    f"({type(error).__name__}: {error}); quarantined as "
                    f"{quarantined} and restarting the run cleanly",
                    RuntimeWarning,
                    stacklevel=2,
                )
    evaluator = Evaluator(clients)

    trainer.fit(evaluator)
    final = trainer.evaluate_with(evaluator)
    # NB: the checkpoint is NOT removed here — run_spec deletes it only
    # after the result is published to the cache, so a kill between
    # training and publishing still resumes (from the final-epoch save,
    # where fit() is a no-op) instead of restarting.

    division = divide_clients(clients, getattr(config, "ratios", (5, 3, 2)))
    groups = per_group_metrics(final, division)

    epsilon = delta = None
    privacy_spent = getattr(trainer, "privacy_spent", lambda: None)
    spent = privacy_spent()
    if spent is not None:
        epsilon, delta = float(spent.epsilon), float(spent.delta)

    collapse = {}
    if hasattr(trainer, "collapse_diagnostics"):
        collapse = trainer.collapse_diagnostics()
    else:
        from repro.core.decorrelation import singular_value_variance

        collapse = {
            group: singular_value_variance(model.item_embedding.weight.data)
            for group, model in trainer.models.items()
        }

    return RunResult(
        dataset=spec.dataset,
        method=spec.method,
        arch=spec.arch,
        profile=prof.name,
        recall=final.recall,
        ndcg=final.ndcg,
        group_recall={g: m.recall for g, m in groups.items()},
        group_ndcg={g: m.ndcg for g, m in groups.items()},
        ndcg_curve=[(int(e), float(n)) for e, n in trainer.history.ndcg_curve()],
        communication_total=trainer.meter.total,
        communication_per_round=trainer.meter.per_client_round(),
        collapse={g: float(v) for g, v in collapse.items()},
        seed=spec.seed,
        epsilon=epsilon,
        delta=delta,
    )


def run_spec(spec: RunSpec) -> RunResult:
    """Train one spec through the cache (the serial execution path).

    The run checkpoints while training and resumes a killed run's
    checkpoint.
    """
    from repro.federated.checkpoint import remove_checkpoint

    key = spec.key()
    cached = _load_cached(key)
    if cached is not None:
        # A kill between a previous publish and its cleanup can
        # orphan the checkpoint; the hit path sweeps it.
        remove_checkpoint(_spec_checkpoint_path(key))
        return cached
    result = _train_spec(spec, checkpoint=True)
    _store_cached(key, result)
    # Only now is the run durable; dropping the checkpoint earlier
    # would open a kill window that loses the whole run.
    remove_checkpoint(_spec_checkpoint_path(key))
    return result


def _grid_worker(spec: RunSpec, cache_dir: str) -> RunResult:
    """Resolve one dispatched miss inside a pool worker.

    ``cache_dir`` is passed explicitly because only fork-started workers
    inherit the parent's (possibly overridden) ``CACHE_DIR`` global;
    under spawn/forkserver the module is re-imported and would resolve
    the default location instead.  Re-checks the cache first: a
    concurrent invocation (another grid, a benchmark in a second working
    copy sharing ``REPRO_CACHE_DIR``) may have published this key since
    the parent's miss scan.
    """
    global CACHE_DIR
    CACHE_DIR = cache_dir
    return run_spec(spec)


def run_grid(
    specs: Sequence[RunSpec], jobs: Optional[int] = None
) -> Dict[RunSpec, RunResult]:
    """Execute a grid of runs, deduped, cached, and optionally in parallel.

    Parameters
    ----------
    specs:
        Run descriptors, possibly with duplicates (overlapping consumer
        grids are the normal case) — deduped before any dispatch.
    jobs:
        Worker processes for cache misses.  ``None``/``1`` trains the
        misses serially in-process; ``jobs > 1`` fans them out over a
        ``ProcessPoolExecutor``.  Results are bitwise-identical either
        way (training is deterministic in the spec).  Hits are served
        from ``.repro_cache/`` and misses are published back to it.

    Returns a mapping from spec to result; index it with any
    :class:`RunSpec` equal to one of the inputs (spec identity is the
    cache key, so rebuilding a spec at the call site works).
    """
    unique: Dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key(), spec)

    results: Dict[str, RunResult] = {}
    misses: List[RunSpec] = []
    for key, spec in unique.items():
        cached = _load_cached(key)
        if cached is not None:
            results[key] = cached
        else:
            misses.append(spec)

    workers = 1 if jobs is None else max(int(jobs), 1)
    if misses:
        if workers == 1 or len(misses) == 1:
            for spec in misses:
                results[spec.key()] = run_spec(spec)
        else:
            # Warm the dataset memo once in the parent: fork-started
            # workers inherit the generated datasets, sparing each its
            # own regeneration (spawn platforms fall back to the
            # per-worker memo).
            for spec in misses:
                _memoized_dataset(
                    spec.dataset, spec.resolved_profile().synthetic_config()
                )
            with ProcessPoolExecutor(max_workers=min(workers, len(misses))) as pool:
                futures = {
                    spec.key(): pool.submit(_grid_worker, spec, CACHE_DIR)
                    for spec in misses
                }
                for key, future in futures.items():
                    results[key] = future.result()

    return {spec: results[key] for key, spec in unique.items()}


def tree_specs(tree: "RunSpec | Mapping[Any, Any]") -> List[RunSpec]:
    """The leaves of a nested ``label → … → RunSpec`` mapping, in order."""
    if isinstance(tree, RunSpec):
        return [tree]
    return [spec for child in tree.values() for spec in tree_specs(child)]


def run_tree(tree: Mapping[Any, Any]) -> Dict[Any, Any]:
    """Run a nested ``label → … → RunSpec`` mapping through :func:`run_grid`.

    An artefact declares its grid once, in the shape its formatter
    consumes (``grid[arch][dataset][label]``); this executes the leaves
    as one deduped grid and hands back the same shape with a
    :class:`RunResult` in place of each :class:`RunSpec`.  Misses train
    serially: :func:`repro.experiments.run_all.run_all` warms the cache
    ``--jobs``-wide before any artefact asks.
    """
    grid = run_grid(tree_specs(tree))

    def fill(node):
        if isinstance(node, RunSpec):
            return grid[node]
        return {label: fill(child) for label, child in node.items()}

    return fill(tree)


def clear_cache() -> int:
    """Delete all cached run results; returns the number removed."""
    if not os.path.isdir(CACHE_DIR):
        return 0
    removed = 0
    for name in os.listdir(CACHE_DIR):
        if name.endswith((".ckpt.npz", ".ckpt.corrupt")):
            # Resume checkpoints of killed runs (and quarantined corrupt
            # ones); not result entries.
            os.remove(os.path.join(CACHE_DIR, name))
        elif name.endswith(".json"):
            os.remove(os.path.join(CACHE_DIR, name))
            removed += 1
        elif name.endswith(".tmp"):
            # Leftover from a crashed writer; never a valid entry.
            os.remove(os.path.join(CACHE_DIR, name))
    return removed
