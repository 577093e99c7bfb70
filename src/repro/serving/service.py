"""The recommendation service: a checkpoint, warm-loaded and answering.

PR 5 made the training checkpoint "the deploy artefact"; this module is
the other half of that contract — :class:`RecommendationService` loads
every group's model and every user's private embedding out of one
checkpoint and answers top-k queries through the repo's blocked scorer
(:meth:`~repro.models.base.BaseRecommender.score_matrix` +
:func:`~repro.eval.metrics.blocked_top_k`), exactly the arithmetic the
evaluator pins.

Production shape, plain python:

* **Immutable snapshots** — all per-checkpoint state (models, one
  read-only user table per dim-group, manifest) lives in one
  :class:`ModelSnapshot`; a query reads ``self._snapshot`` once and
  never looks again, so model state can never mix mid-request.
* **Zero-downtime hot-swap** — :meth:`RecommendationService.swap`
  builds and validates the next snapshot *completely* (raising
  :class:`~repro.federated.checkpoint.CheckpointMismatchError` on an
  incompatible manifest) before a single atomic rebind cuts traffic
  over; in-flight queries finish on the snapshot they started with.
* **Hot top-k cache** — answers are cached per
  ``(model_version, user, k)`` (:mod:`repro.serving.cache`), so a swap
  implicitly invalidates and :meth:`invalidate_cache` is the explicit
  hatch.
* **Batched scoring** — :meth:`query_batch` coalesces many users into
  one blocked matmul per dim-group; :mod:`repro.serving.coalescer`
  feeds it from concurrent callers.  A batch's groups are scored on
  every core (:func:`~repro.parallel.run_groups`: each group's
  full-catalogue block is the serial call, so answers are bitwise the
  same), and each group's task yields its top-k back to the calling
  thread as soon as the group is scored.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eval.metrics import blocked_top_k, mask_scored_items
from repro.federated.checkpoint import (
    CheckpointMismatchError,
    inference_model,
    load_user_tables,
    read_checkpoint,
    refusing,
)
from repro.federated.user_table import UserTable
from repro import parallel

#: Users per dim-group (the id-sorted head of each table) whose mean
#: score is a snapshot's popularity prior.
PRIOR_USERS = 32


@dataclass(frozen=True)
class QueryRequest:
    """One top-k question: which ``k`` items should ``user_id`` see?

    ``exclude`` masks item ids out of the ranking for this request only
    (on top of the service-level seen-item exclusion, if configured);
    requests carrying it bypass the cache, and an id outside the served
    catalogue is refused when the batch is scored (the catalogue is the
    snapshot's to know).  A ``k`` below 1 is a
    malformed question and is refused here, as a :class:`ValueError`,
    before it can reach (and crash) the scoring path; so is a
    ``user_id`` outside int64, which no user table can hold and the
    batch's vectorised lookup could not even represent.
    """

    user_id: int
    k: Optional[int] = None
    exclude: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not -(2**63) <= self.user_id < 2**63:
            raise UnknownUserError(f"user {self.user_id} not in any checkpoint")


@dataclass(frozen=True)
class Recommendation:
    """A served answer, tagged with the model version that produced it.

    The ``items`` / ``scores`` arrays the serving stack hands out are
    read-only: the cache and the stale tier serve the same arrays again,
    so a write through an answer raises instead of rewriting them.
    """

    user_id: int
    items: np.ndarray
    scores: np.ndarray
    model_version: int
    cached: bool = False
    tier: str = "full"

    def __post_init__(self) -> None:
        items, scores = self.items, self.scores
        if type(items) is not np.ndarray or items.dtype != np.int64:
            object.__setattr__(self, "items", np.asarray(items, dtype=np.int64))
        if type(scores) is not np.ndarray or scores.dtype != np.float64:
            object.__setattr__(self, "scores", np.asarray(scores, dtype=np.float64))
        if self.cached and self.tier == "full":
            object.__setattr__(self, "tier", "cached")

    def to_json(self) -> dict:
        return {
            "user": int(self.user_id),
            "items": [int(i) for i in self.items],
            "scores": [float(s) for s in self.scores],
            "model_version": int(self.model_version),
            "cached": bool(self.cached),
            "tier": self.tier,
        }


@dataclass(frozen=True)
class ModelSnapshot:
    """Everything one checkpoint contributes to serving, immutable.

    Queries hold a reference to the snapshot they started with; the
    service swaps snapshots by rebinding one attribute, so a snapshot is
    never mutated after construction (its user tables' arrays are marked
    read-only: a stray write raises).  A user's group is the table
    whose ``ids`` hold them.
    """

    version: int
    path: str
    meta: dict
    models: Mapping[str, object]
    users: Mapping[str, UserTable]
    num_items: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_items", int(self.meta["num_items"]))
        for table in self.users.values():
            table.ids.flags.writeable = False
            table.values.flags.writeable = False

    @property
    def groups(self) -> List[str]:
        return sorted(self.models)

    @property
    def num_users(self) -> int:
        return sum(len(table) for table in self.users.values())

    def user_ids(self) -> List[int]:
        return np.sort(np.concatenate([t.ids for t in self.users.values()])).tolist()

    @cached_property
    def popularity_prior(self) -> Tuple[np.ndarray, np.ndarray]:
        """Item ids ranked by the popularity prior, and their scores.

        Mean score over a deterministic user sample, per dim-group, then
        example-weighted across groups: a cheap, model-consistent "what
        everyone likes" answer for when per-user scoring is unavailable
        (the resilience layer's fallback tier).  Computed once, freed
        with the snapshot; both arrays are read-only.
        """
        totals = np.zeros(self.num_items, dtype=np.float64)
        weight = 0
        for group in self.groups:
            # The table is id-sorted: its head is the deterministic sample.
            user_mat = self.users[group].values[:PRIOR_USERS]
            if not len(user_mat):
                continue
            totals += self.models[group].score_matrix(user_mat).sum(axis=0, dtype=np.float64)
            weight += len(user_mat)
        prior = totals / max(1, weight)
        order = np.argsort(-prior, kind="stable").astype(np.int64)
        ranked = prior[order]
        order.flags.writeable = False
        ranked.flags.writeable = False
        return order, ranked


def load_snapshot(path: str, version: int = 1) -> ModelSnapshot:
    """Warm-load a checkpoint into an immutable serving snapshot.

    One archive open, one manifest parse
    (:func:`~repro.federated.checkpoint.read_checkpoint`): every group's
    user table, every group's model rebuilt in its trained dtype.  What
    can fail, fails here — before the snapshot ever sees traffic — the
    door's two ways: ``OSError`` iff the file cannot be opened,
    :class:`CheckpointMismatchError` for anything about its content,
    a Standalone run's per-client models included.
    """
    meta, arrays = read_checkpoint(path)
    with refusing(path):
        if meta.get("method") == "standalone":
            # Its clients train personal models; the archive's shared item
            # tables and heads are the untrained initialisation.
            raise CheckpointMismatchError(
                "a standalone checkpoint holds one model per client and "
                "cannot be served from a shared snapshot"
            )
        users = load_user_tables(arrays, meta)
        unpopulated = sorted(set(meta["dims"]) - set(users))
        if unpopulated:
            raise CheckpointMismatchError(
                f"checkpoint has no user table for group(s) {unpopulated}"
            )
        models = {
            group: inference_model(arrays, meta, group)
            for group in sorted(meta["dims"])
        }
        return ModelSnapshot(
            version=version, path=path, meta=meta, models=models, users=users
        )


class UnknownUserError(KeyError):
    """A user id the serving snapshot has no embedding for."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.args[0] if self.args else ""


def delivered(slot: Union[Recommendation, Exception]) -> Recommendation:
    """One slot of a scored batch, as its own request hears it: the
    answer — or, raised, the refusal the slot holds."""
    if isinstance(slot, Exception):
        raise slot
    return slot


class RecommendationService:
    """Top-k recommendation over a warm-loaded checkpoint.

    Parameters
    ----------
    checkpoint_path:
        The ``.npz`` checkpoint to serve (every group, every user).
    k:
        Default cut-off for queries that do not pass their own.
    cache_size:
        Capacity of the hot top-k cache (``0`` disables caching).
    history:
        Optional per-user interacted-item ids.  When provided, they feed
        architectures whose scoring propagates over the local graph
        (LightGCN) and — with ``exclude_seen=True`` — are masked out of
        every answer, matching the evaluator's full-ranking protocol.
        The checkpoint itself carries no interaction data (clients own
        their data), so this is the deployment's hook to supply it.
    exclude_seen:
        Mask each user's ``history`` items out of their answers.
    """

    def __init__(
        self,
        checkpoint_path: str,
        k: int = 20,
        cache_size: int = 4096,
        history: Optional[Mapping[int, np.ndarray]] = None,
        exclude_seen: bool = False,
    ) -> None:
        from repro.serving.cache import TopKCache

        self.default_k = int(k)
        self._history = dict(history) if history is not None else {}
        self._exclude_seen = bool(exclude_seen) and bool(self._history)
        self._cache = TopKCache(cache_size)
        self._cache_enabled = int(cache_size) > 0
        self._stale_versions = 0
        self._swap_lock = threading.Lock()
        self._snapshot = load_snapshot(checkpoint_path, version=1)
        self._queries = 0
        self._batches = 0
        self._swaps = 0
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> ModelSnapshot:
        """The current snapshot (atomic read; safe from any thread)."""
        return self._snapshot

    @property
    def model_version(self) -> int:
        return self._snapshot.version

    @property
    def checkpoint_path(self) -> str:
        return self._snapshot.path

    @property
    def num_items(self) -> int:
        return self._snapshot.num_items

    def stats(self) -> dict:
        snap = self._snapshot
        with self._stats_lock:
            counters = {
                "queries": self._queries,
                "batches": self._batches,
                "swaps": self._swaps,
            }
        return {
            **counters,
            "model_version": snap.version,
            "checkpoint": os.path.basename(snap.path),
            "groups": snap.groups,
            "users": snap.num_users,
            "num_items": snap.num_items,
            "arch": snap.meta.get("arch"),
            "cache": self._cache.stats(),
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        user_id: int,
        k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
    ) -> Recommendation:
        """Answer one user's top-k query (cache-aware); raises the
        request's refusal (see :meth:`query_batch`)."""
        return delivered(self.query_batch([QueryRequest(int(user_id), k, exclude)])[0])

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[Union[Recommendation, Exception]]:
        """Answer a batch of queries with one blocked matmul per dim-group.

        Returns one slot per request, in request order: its
        :class:`Recommendation`, or the refusal that is that request's
        own — :class:`UnknownUserError` for an id no table of this
        batch's snapshot holds, :class:`ValueError` for an ``exclude`` id
        outside ``[0, num_items)``.  A refused request costs the others
        nothing: riders share a matmul, never an outcome
        (:func:`delivered` turns a slot back into return-or-raise).
        Raises only when scoring itself fails.

        The snapshot is read **once** for the whole batch: every answer
        in it is produced by the same model version, which is what makes
        hot-swap atomic from a caller's point of view.

        The dim-groups' score blocks are computed concurrently, up to one
        thread per core (:func:`~repro.parallel.run_groups`; a batch under
        :data:`~repro.parallel.SERIAL_CELLS` score cells starts no
        thread); each group yields its :func:`~repro.eval.metrics.blocked_top_k`
        back to the calling thread, and the answers and cache entries are
        built afterwards, in group order.  A batch's answers are bitwise
        the same on any number of cores.
        """
        snap = self._snapshot
        with self._stats_lock:
            self._queries += len(requests)
            self._batches += 1

        answers: List[Union[Recommendation, Exception, None]] = [None] * len(requests)
        if not self._cache_enabled:
            # Cache off: every request is a miss; skip the scan entirely
            # (unknown users are caught in the scoring group-up).
            if requests:
                self._score_misses(snap, requests, range(len(requests)), answers)
            return answers  # type: ignore[return-value]

        misses: List[int] = []
        for i, request in enumerate(requests):
            if request.exclude is None:
                k = request.k if request.k is not None else self.default_k
                hit = self._cache.get((snap.version, request.user_id, k))
                if hit is not None:
                    items, scores = hit
                    answers[i] = Recommendation(
                        request.user_id, items, scores, snap.version, cached=True
                    )
                    continue
            misses.append(i)

        if misses:
            self._score_misses(snap, requests, misses, answers)
        return answers  # type: ignore[return-value]

    def _score_misses(
        self,
        snap: ModelSnapshot,
        requests: Sequence[QueryRequest],
        misses: Sequence[int],
        answers: List[Union[Recommendation, Exception, None]],
    ) -> None:
        """Score all cache misses, grouped into one matmul per dim-group
        (the groups concurrently); a request refused here fills its own
        slot and is left out."""
        use_cache = self._cache_enabled
        # An ``exclude`` id indexes the score block: checked per request,
        # before anything is scored, so one bad id is its sender's alone.
        excluding = [i for i in misses if requests[i].exclude is not None]
        for i in excluding:
            ids = np.asarray(requests[i].exclude, dtype=np.int64)
            if ids.size and not 0 <= ids.min() <= ids.max() < snap.num_items:
                answers[i] = ValueError(
                    f"exclude ids must lie in [0, {snap.num_items}), got "
                    f"{int(ids.min())}..{int(ids.max())}"
                )
        if excluding:
            misses = [i for i in misses if answers[i] is None]
        misses = np.fromiter(misses, dtype=np.int64)
        wanted = np.array([requests[i].user_id for i in misses], dtype=np.int64)
        # Resolve the whole batch to (group, row) with one vectorised
        # lookup per table; whoever no table holds is unknown.
        unknown = np.ones(wanted.size, dtype=bool)
        by_group: Dict[str, Tuple[List[int], np.ndarray]] = {}
        for group, table in snap.users.items():
            rows, held = table.find(wanted)
            if held.any():
                by_group[group] = (misses[held].tolist(), rows[held])
                unknown &= ~held
        if unknown.any():
            for i in misses[unknown].tolist():
                answers[i] = UnknownUserError(
                    f"user {requests[i].user_id} not in checkpoint "
                    f"{os.path.basename(snap.path)} ({snap.num_users} users)"
                )

        # Each group is scored wherever run_groups puts it, its top-k on
        # this thread; the answers are built below, in group order.
        plans = list(by_group.values())
        masking = self._exclude_seen or bool(excluding)
        selected = parallel.run_groups(
            [
                partial(self._score_group, snap, group, requests, indices, rows, masking)
                for group, (indices, rows) in by_group.items()
            ],
            [len(indices) * snap.num_items for indices, _ in plans],
            parallel.SERIAL_CELLS,
        )
        for (indices, _), (block_k, top, top_scores) in zip(plans, selected):
            for row, i in enumerate(indices):
                request = requests[i]
                k = request.k if request.k is not None else self.default_k
                # Rows are views into the (B, block_k) result — nothing
                # mutates them, and the parent block is tiny, so no copy.
                items = top[row] if k == block_k else top[row, :k]
                item_scores = (
                    top_scores[row] if k == block_k else top_scores[row, :k]
                )
                answers[i] = Recommendation(
                    request.user_id, items, item_scores, snap.version, cached=False
                )
                if use_cache and request.exclude is None and k == block_k:
                    # Sliced rows of a larger-k batch are correct but
                    # cached only at the k actually computed, so a later
                    # direct hit can never return fewer items than asked.
                    self._cache.put(
                        (snap.version, request.user_id, k), (items, item_scores)
                    )

    def _score_group(
        self,
        snap: ModelSnapshot,
        group: str,
        requests: Sequence[QueryRequest],
        indices: List[int],
        rows: np.ndarray,
        masking: bool,
        slot: int,
    ) -> Generator[Callable, object, Tuple[int, np.ndarray, np.ndarray]]:
        """Score one dim-group's masked (B, num_items) block; its top-k
        selection is yielded to the calling thread, then returned."""
        users = [requests[i].user_id for i in indices]
        train_items = [self._history.get(u) for u in users] if self._history else None
        scores = snap.models[group].score_matrix(
            snap.users[group].values[rows], train_items=train_items
        )
        if masking:
            exclusions = [
                self._exclusion_for(requests[i], requests[i].user_id) for i in indices
            ]
            mask_scored_items(scores, exclusions)
        return (yield partial(self._select, snap, requests, indices, scores))

    def _select(
        self,
        snap: ModelSnapshot,
        requests: Sequence[QueryRequest],
        indices: List[int],
        scores: np.ndarray,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(block_k, top, top_scores)`` of one scored group, at the
        largest ``k`` its requests ask for."""
        block_k = max(
            (requests[i].k if requests[i].k is not None else self.default_k)
            for i in indices
        )
        block_k = min(block_k, snap.num_items)
        top = blocked_top_k(scores, block_k)
        # Selected as scored (float32 stays float32), widened once, read-only:
        # every answer is a view of these two, served again by the cache.
        top_scores = np.take_along_axis(scores, top, axis=1).astype(np.float64)
        top.flags.writeable = False
        top_scores.flags.writeable = False
        return block_k, top, top_scores

    def _exclusion_for(
        self, request: QueryRequest, user_id: int
    ) -> Optional[np.ndarray]:
        seen = self._history.get(user_id) if self._exclude_seen else None
        if request.exclude is None:
            return seen
        explicit = np.asarray(request.exclude, dtype=np.int64)
        if seen is None or not np.asarray(seen).size:
            return explicit
        return np.concatenate([np.asarray(seen, dtype=np.int64), explicit])

    # ------------------------------------------------------------------
    # Stale answers (the resilience layer's degradation tier)
    # ------------------------------------------------------------------
    def retain_stale(self, versions: int) -> None:
        """Keep the cached answers of the last ``versions`` snapshot
        generations across a hot-swap (by default a swap drops them
        all), so :meth:`stale_answer` has something to serve."""
        self._stale_versions = int(versions)

    def stale_answer(self, request: QueryRequest) -> Optional[Recommendation]:
        """A retained previous generation's cached answer to ``request``
        (tier ``"stale"``, tagged with the version that scored it), or
        ``None``.  Never consulted for a request carrying ``exclude``."""
        if request.exclude is not None:
            return None
        k = request.k if request.k is not None else self.default_k
        hit = self._cache.get_stale(
            request.user_id, k, self._snapshot.version, max_back=self._stale_versions
        )
        if hit is None:
            return None
        version, (items, scores) = hit
        return Recommendation(
            request.user_id, items, scores, version, cached=True, tier="stale"
        )

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap(self, checkpoint_path: str) -> int:
        """Cut traffic over to a newer checkpoint, with zero downtime.

        The next snapshot is fully built and validated *before* the
        rebind: an unreadable or incompatible checkpoint raises (the
        manifest mismatches via
        :class:`~repro.federated.checkpoint.CheckpointMismatchError`)
        and the service keeps serving the old model untouched.  The
        rebind itself is a single attribute assignment — queries that
        already read the old snapshot finish on it; every query that
        starts after :meth:`swap` returns sees the new version.

        Returns the new model version.
        """
        with self._swap_lock:
            current = self._snapshot
            candidate = load_snapshot(checkpoint_path, version=current.version + 1)
            self._validate_swap(current, candidate)
            self._snapshot = candidate  # the cutover: atomic rebind
            with self._stats_lock:
                self._swaps += 1
        # Old-version entries are unreachable for direct hits
        # (version-keyed); reclaim them eagerly instead of letting LRU
        # age them out — unless a stale window is kept for degradation.
        if self._stale_versions:
            self._cache.evict_older_than(candidate.version - self._stale_versions)
        else:
            self._cache.invalidate()
        return candidate.version

    @staticmethod
    def _validate_swap(current: ModelSnapshot, candidate: ModelSnapshot) -> None:
        """The serving contract two checkpoints must share to hot-swap."""
        problems: List[str] = []
        for name in ("arch", "num_items", "dtype"):
            want, got = current.meta.get(name), candidate.meta.get(name)
            if want != got:
                problems.append(f"{name}: serving={want!r} vs candidate={got!r}")
        if not candidate.num_users:
            problems.append("candidate carries no user embeddings")
        if problems:
            raise CheckpointMismatchError(
                "checkpoint incompatible with serving snapshot: "
                + "; ".join(problems)
            )

    def invalidate_cache(self) -> int:
        """Explicitly drop every cached answer (returns entries dropped)."""
        return self._cache.invalidate()
