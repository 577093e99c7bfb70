"""Resilience for the online path: behave well at the edge, provably.

PR 8's serving stack assumes a healthy process — queries never time
out, a bad checkpoint can be retried forever, and overload queues
unboundedly.  This module is the layer that removes those assumptions,
mirroring how the sim package (PR 6) removed them from training:

* **Admission control & load shedding** — :class:`AdmissionQueue`
  bounds how many requests may be in flight (plus a bounded wait room);
  a request that cannot meet its deadline budget is *shed immediately*
  (:class:`ShedError`, mapped to HTTP 503 + ``Retry-After``) instead of
  queued, and a request that overruns its deadline mid-flight raises
  :class:`DeadlineExceededError` (HTTP 504) with the wasted partial
  work metered.
* **A degradation ladder** — full blocked scoring → fresh
  version-matched cache hit → stale-cache-allowed answer (previous
  snapshot generation) → popularity-prior fallback (computed once per
  snapshot, as soon as the service adopts it) → shed.  The entry tier
  is driven by the :class:`HealthMonitor` state machine (healthy /
  degraded / unhealthy), surfaced in ``/healthz`` and ``stats()``.  The ladder
  exists once (:meth:`ResilientService._ladder`, over a request list):
  a single query is a batch of one, the live tiers are one scoring call
  for the whole batch, the degraded tiers and tier 5 are per rider — a
  :class:`ShedError` in *that* rider's slot.  What the service *raises*
  is a health event; what it *refuses* (an unknown user, a bad
  ``exclude``) comes back in the request's own slot and is nobody
  else's business, this module's included.
* **Circuit-broken, self-healing hot-swap** —
  :meth:`ResilientService.swap` wraps the service's validated swap in
  retry-with-bounded-backoff plus a :class:`CircuitBreaker`;
  corrupt/mismatched checkpoints are quarantined as ``*.corrupt``
  (the grid runner's convention) and the last-good snapshot keeps
  serving.  The door is the whole cutover: a candidate is refused at
  load or served, and a later scoring fault takes the degradation
  ladder like any other.  An optional watcher polls a path and swaps
  when a new valid checkpoint appears.

Every time source is an injectable monotonic clock (default
:func:`time.monotonic`), so all deadline/shed/breaker logic is
unit-testable without sleeps — and drivable by the deterministic chaos
harness (:mod:`repro.serving.chaos`) on a simulated clock.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.federated.checkpoint import CheckpointMismatchError
from repro.io import quarantine
from repro.serving.service import (
    QueryRequest,
    Recommendation,
    RecommendationService,
    delivered,
)

Clock = Callable[[], float]

#: Health states, in degradation order.
HEALTHY, DEGRADED, UNHEALTHY = "healthy", "degraded", "unhealthy"

#: Degradation-ladder tiers, in the order they are tried.
TIERS = ("full", "cached", "stale", "fallback", "shed")

#: Previous snapshot generations whose cached answers the service is
#: asked to retain across a hot-swap, for the stale tier to serve.
STALE_VERSIONS = 1

#: Tiers that spent live scoring work.  Only these can *overrun* a
#: deadline: a degraded answer (stale / fallback) costs nothing, exists
#: precisely for when the budget cannot buy a fresh one, and is
#: delivered even when late.
LIVE_TIERS = frozenset(("full", "cached"))

#: Ceiling on one backoff sleep between retries of a missing candidate.
SWAP_BACKOFF_MAX_S = 1.0


class ShedError(RuntimeError):
    """Request refused at admission (HTTP 503). ``retry_after`` advises
    (in seconds) when the caller should try again."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceededError(TimeoutError):
    """Deadline overrun mid-flight (HTTP 504). ``wasted_ms`` is the
    scoring work spent on the answer nobody will read."""

    def __init__(self, message: str, wasted_ms: float = 0.0) -> None:
        super().__init__(message)
        self.wasted_ms = float(wasted_ms)


class CircuitOpenError(RuntimeError):
    """Swap refused because the circuit breaker is open (HTTP 503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class AdmissionTicket:
    """One admitted (or waiting) request's place in the queue."""

    __slots__ = ("priority", "seq", "deadline", "admitted_at", "state", "ready")

    def __init__(self, priority: int, seq: int, deadline: Optional[float],
                 admitted_at: float) -> None:
        self.priority = int(priority)
        self.seq = int(seq)
        self.deadline = deadline
        self.admitted_at = admitted_at
        self.state = "waiting"  # waiting -> executing -> done/cancelled
        self.ready = threading.Event()


class AdmissionQueue:
    """Bounded admission in front of the scoring path.

    ``capacity`` bounds concurrently *executing* requests; ``max_waiting``
    bounds the wait room behind them (0 = admit-or-shed, no waiting).
    A request is shed immediately — never queued — when the wait room is
    full (*capacity shed*) or when its deadline budget cannot cover the
    estimated wait (*deadline shed*, estimate = backlog × EMA service
    time / capacity).  Waiters are promoted strictly by
    ``(priority, admission order)``: lower priority value first, FIFO
    within a class.  All timing goes through the injected monotonic
    ``clock``, so every decision is unit-testable without sleeps.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_waiting: int = 0,
        clock: Clock = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_waiting < 0:
            raise ValueError(f"max_waiting must be >= 0, got {max_waiting}")
        self.capacity = int(capacity)
        self.max_waiting = int(max_waiting)
        self.clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._executing = 0
        self._waiting: Dict[int, deque] = {}
        self._draining = False
        self._ema_service = 0.010  # seconds; seeds the wait estimate
        self.admitted = 0
        self.completed = 0
        self.shed_capacity = 0
        self.shed_deadline = 0
        self.shed_draining = 0
        self.cancelled = 0
        self.max_depth = 0

    # -- introspection -------------------------------------------------
    @property
    def executing(self) -> int:
        return self._executing

    @property
    def waiting(self) -> int:
        return sum(len(q) for q in self._waiting.values())

    def _estimate_locked(self) -> float:
        backlog = self._executing + sum(len(q) for q in self._waiting.values())
        waves = max(0.0, (backlog - self.capacity + 1)) / self.capacity
        return waves * self._ema_service

    # -- admission -----------------------------------------------------
    def try_admit(
        self, budget: Optional[float] = None, priority: int = 0
    ) -> AdmissionTicket:
        """Admit (or park) one request; raises :class:`ShedError` otherwise.

        Returns a ticket in state ``"executing"`` (run it now) or
        ``"waiting"`` (run when :meth:`release` promotes it — blocking
        callers use :meth:`wait`).  ``budget`` is the request's remaining
        deadline budget in seconds.
        """
        with self._lock:
            now = self.clock()
            if self._draining:
                self.shed_draining += 1
                raise ShedError("service is draining", retry_after=1.0)
            estimate = self._estimate_locked()
            if budget is not None and estimate > budget:
                self.shed_deadline += 1
                raise ShedError(
                    f"estimated wait {estimate * 1000:.0f}ms exceeds the "
                    f"{budget * 1000:.0f}ms deadline budget",
                    retry_after=max(estimate, self._ema_service),
                )
            deadline = None if budget is None else now + budget
            ticket = AdmissionTicket(priority, self._seq, deadline, now)
            self._seq += 1
            if self._executing < self.capacity:
                self._executing += 1
                ticket.state = "executing"
                ticket.ready.set()
            elif sum(len(q) for q in self._waiting.values()) < self.max_waiting:
                self._waiting.setdefault(ticket.priority, deque()).append(ticket)
            else:
                self.shed_capacity += 1
                raise ShedError(
                    f"admission queue full ({self.capacity} executing, "
                    f"{self.max_waiting} waiting)",
                    retry_after=max(estimate, self._ema_service),
                )
            self.admitted += 1
            depth = self._executing + sum(len(q) for q in self._waiting.values())
            self.max_depth = max(self.max_depth, depth)
            return ticket

    def wait(self, ticket: AdmissionTicket, timeout: Optional[float] = None) -> bool:
        """Block until ``ticket`` may execute; False = timed out (cancelled)."""
        if ticket.ready.wait(timeout):
            return True
        self.cancel(ticket)
        return ticket.state == "executing"

    def cancel(self, ticket: AdmissionTicket) -> None:
        """Withdraw a still-waiting ticket (deadline gave out in the queue)."""
        with self._lock:
            if ticket.state == "waiting":
                self._withdraw_locked(ticket)
                self.shed_deadline += 1

    def _withdraw_locked(self, ticket: AdmissionTicket) -> None:
        queue = self._waiting[ticket.priority]
        queue.remove(ticket)
        if not queue:
            del self._waiting[ticket.priority]
        ticket.state = "cancelled"
        self.cancelled += 1

    def release(self, ticket: AdmissionTicket, service_seconds: Optional[float] = None) -> None:
        """Finish one executing ticket and promote the next waiter."""
        with self._lock:
            if ticket.state == "waiting":
                # Released without ever executing (caller gave up).
                self._withdraw_locked(ticket)
                return
            if ticket.state != "executing":
                return
            ticket.state = "done"
            self._executing -= 1
            self.completed += 1
            if service_seconds is not None:
                self._ema_service += 0.2 * (float(service_seconds) - self._ema_service)
            self._promote_locked()

    def _promote_locked(self) -> None:
        while self._executing < self.capacity and self._waiting:
            priority = min(self._waiting)
            queue = self._waiting[priority]
            ticket = queue.popleft()
            if not queue:
                del self._waiting[priority]
            ticket.state = "executing"
            self._executing += 1
            ticket.ready.set()

    # -- draining ------------------------------------------------------
    def drain(self) -> None:
        """Stop admitting; everything already admitted still completes."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "max_waiting": self.max_waiting,
                "executing": self._executing,
                "waiting": sum(len(q) for q in self._waiting.values()),
                "max_depth": self.max_depth,
                "admitted": self.admitted,
                "completed": self.completed,
                "shed_capacity": self.shed_capacity,
                "shed_deadline": self.shed_deadline,
                "shed_draining": self.shed_draining,
                "cancelled": self.cancelled,
                "draining": self._draining,
                "ema_service_ms": self._ema_service * 1000.0,
            }


# ----------------------------------------------------------------------
# Health state machine
# ----------------------------------------------------------------------
#: The health window (scoring outcomes), the failure fractions that make
#: the service degraded / unhealthy, and the consecutive successes that
#: leave unhealthy.
HEALTH_WINDOW = 32
DEGRADED_AT = 0.1
UNHEALTHY_AT = 0.5
RECOVERY_SUCCESSES = 3


class HealthMonitor:
    """healthy / degraded / unhealthy, from a sliding outcome window.

    The failure fraction over the last ``HEALTH_WINDOW`` scoring outcomes
    drives the state: ≥ ``UNHEALTHY_AT`` → unhealthy, ≥ ``DEGRADED_AT``
    → degraded, else healthy — with one hysteresis rule: leaving
    ``unhealthy`` additionally requires ``RECOVERY_SUCCESSES``
    *consecutive* successes, so a single lucky probe cannot flap the
    service back to full scoring mid-incident.  A monitor reads the four
    constants when it is built.
    """

    def __init__(self) -> None:
        self.window = HEALTH_WINDOW
        self.degraded_at = DEGRADED_AT
        self.unhealthy_at = UNHEALTHY_AT
        self.recovery_successes = RECOVERY_SUCCESSES
        self._outcomes: deque = deque(maxlen=self.window)
        self._consecutive_ok = 0
        self._state = HEALTHY
        self.transitions: List[Tuple[str, str]] = []
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def record(self, ok: bool) -> str:
        """Record one scoring outcome; returns the (possibly new) state."""
        with self._lock:
            self._outcomes.append(bool(ok))
            self._consecutive_ok = self._consecutive_ok + 1 if ok else 0
            # Count failures directly: `1 - successes/n` accumulates a
            # float error that breaks exact threshold comparisons.
            failures = len(self._outcomes) - sum(self._outcomes)
            failure_rate = failures / len(self._outcomes)
            if failure_rate >= self.unhealthy_at:
                target = UNHEALTHY
            elif failure_rate >= self.degraded_at:
                target = DEGRADED
            else:
                target = HEALTHY
            if (
                self._state == UNHEALTHY
                and target != UNHEALTHY
                and self._consecutive_ok < self.recovery_successes
            ):
                target = UNHEALTHY  # hysteresis: hold until proven stable
            if target != self._state:
                self.transitions.append((self._state, target))
                self._state = target
            return self._state

    def stats(self) -> dict:
        with self._lock:
            window = len(self._outcomes)
            failures = window - sum(self._outcomes)
            return {
                "state": self._state,
                "window": window,
                "failures_in_window": int(failures),
                "transitions": len(self.transitions),
            }


# ----------------------------------------------------------------------
# Circuit breaker (hot-swap guard)
# ----------------------------------------------------------------------
class CircuitBreaker:
    """closed → open after ``failure_threshold`` consecutive failures;
    open → half-open once ``reset_after`` clock-seconds pass (one trial
    call allowed); half-open failure reopens, success closes."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 30.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self.clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.opens = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == self.OPEN
            and self.clock() - self._opened_at >= self.reset_after
        ):
            self._state = self.HALF_OPEN

    def allow(self) -> bool:
        """May the guarded call proceed right now?"""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state != self.OPEN

    def retry_after(self) -> float:
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_after - (self.clock() - self._opened_at))

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open_locked()
            self._failures += 1
            if self._state == self.HALF_OPEN or self._failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    self.opens += 1
                self._state = self.OPEN
                self._opened_at = self.clock()

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opens": self.opens,
                "failure_threshold": self.failure_threshold,
                "reset_after_s": self.reset_after,
            }


# ----------------------------------------------------------------------
# The resilient service
# ----------------------------------------------------------------------
@dataclass
class ResilienceConfig:
    """The admission and hot-swap knobs of the resilience layer.

    Defaults are transparent: generous capacity, no default deadline.  The
    health state machine runs at :class:`HealthMonitor`'s constants and the
    ladder probes at :attr:`ResilientService.PROBE_EVERY`.
    """

    # Admission.
    admission_capacity: int = 256
    max_waiting: int = 512
    default_deadline_ms: Optional[float] = None
    # Hot-swap guard.
    breaker_failures: int = 3
    breaker_reset_s: float = 30.0
    swap_retries: int = 2
    swap_backoff_s: float = 0.05


@dataclass
class _SwapStats:
    attempts: int = 0
    succeeded: int = 0
    retries: int = 0
    rejected: int = 0
    quarantined: int = 0
    breaker_fast_fails: int = 0
    watcher_swaps: int = 0


class ResilientService:
    """The full degradation ladder wrapped around a
    :class:`~repro.serving.service.RecommendationService`.

    Duck-types the inner service (``query`` / ``query_batch`` / ``swap``
    / ``stats`` all exist, unknown attributes forward), so anything that
    served a ``RecommendationService`` — the coalescer,
    :func:`repro.api.recommend` — can serve a resilient one.  The HTTP
    front end serves nothing else: its requests go through
    :meth:`run_admitted`, the same driver :meth:`query` uses.
    """

    #: While unhealthy, every ``PROBE_EVERY``-th request probes the full
    #: tier instead of stepping down the ladder.
    PROBE_EVERY = 8

    def __init__(
        self,
        service: RecommendationService,
        config: Optional[ResilienceConfig] = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._service = service
        self.config = config or ResilienceConfig()
        self.clock = clock
        self._sleep = sleep
        # The stale tier answers from previous cache generations, so the
        # inner service must retain that window across swaps.
        service.retain_stale(STALE_VERSIONS)
        self.admission = AdmissionQueue(
            self.config.admission_capacity, self.config.max_waiting, clock=clock
        )
        self.health = HealthMonitor()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_after=self.config.breaker_reset_s,
            clock=clock,
        )
        self._swap_lock = threading.Lock()
        self._swap_stats = _SwapStats()
        self._tier_counts = {tier: 0 for tier in TIERS}
        self._deadline_overruns = 0
        self._wasted_ms = 0.0
        self._requests_since_probe = 0
        self._counter_lock = threading.Lock()
        # Warm the prior (cached on the snapshot) before scoring can fail.
        service.snapshot.popularity_prior  # noqa: B018
        self._watcher: Optional[threading.Thread] = None
        self._watcher_stop = threading.Event()
        self._watched_mtime: Optional[float] = None

    # -- forwarding ----------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._service, name)

    @property
    def service(self) -> RecommendationService:
        return self._service

    # -- popularity-prior fallback -------------------------------------
    def fallback_answer(self, user_id: int, k: int) -> Recommendation:
        """The popularity-prior answer (ladder tier 4): a slice of the
        current snapshot's :attr:`~ModelSnapshot.popularity_prior`."""
        snap = self._service.snapshot
        items, scores = snap.popularity_prior
        k = min(int(k), items.size)
        return Recommendation(
            int(user_id), items[:k], scores[:k], snap.version, cached=False,
            tier="fallback",
        )

    # -- admission → wait → score → deadline → release -------------------
    def query(
        self,
        user_id: int,
        k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        deadline_ms: Optional[float] = None,
    ) -> Recommendation:
        """One admission-controlled, deadline-bounded, ladder-backed query
        (at the default priority, 0)."""
        ticket = self.try_admit(deadline_ms)
        return self.execute(ticket, user_id, k=k, exclude=exclude)

    def run_admitted(
        self,
        user_id: int,
        score: Callable[[Optional[float]], Recommendation],
        deadline_ms: Optional[float] = None,
        priority: int = 0,
    ) -> Recommendation:
        """:meth:`query` for a request somebody else scores.

        Same admission, wait, deadline and metering rules; only the
        scoring step differs: ``score(remaining_seconds)`` produces the
        answer.  The HTTP front end passes the coalescer's ``submit``
        (whose batches flush into :meth:`query_batch` — the same ladder,
        over the whole batch).
        """
        return self._run_ticket(self.try_admit(deadline_ms, priority), user_id, score)

    def try_admit(
        self, deadline_ms: Optional[float] = None, priority: int = 0
    ) -> AdmissionTicket:
        """Phase 1 of the two-phase API (the chaos harness takes a whole
        burst's tickets before running any): admission only, no scoring
        work.  Raises :class:`ShedError`, or :class:`ValueError` for a
        deadline that is not a finite positive number."""
        return self.admission.try_admit(self._budget_seconds(deadline_ms), priority)

    def execute(
        self,
        ticket: AdmissionTicket,
        user_id: int,
        k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
    ) -> Recommendation:
        """Phase 2: run one admitted request — a batch of one — down the
        degradation ladder; raises what its slot holds."""
        answer = self._run_ticket(
            ticket,
            user_id,
            lambda remaining: delivered(
                self._ladder([QueryRequest(int(user_id), k, exclude)], remaining)[0]
            ),
        )
        self._count_tier(answer.tier)
        return answer

    def _run_ticket(
        self,
        ticket: AdmissionTicket,
        user_id: int,
        score: Callable[[Optional[float]], Recommendation],
    ) -> Recommendation:
        """The one driver every admitted request goes through.

        Wait (within the budget) until the ticket executes, score it,
        refuse a live answer that lands past the deadline, meter the
        overrun, release the slot.  ``service_seconds`` — what feeds the
        queue's wait estimate — runs from the moment the ticket
        executes, never from before the wait.
        """
        deadline = ticket.deadline
        if ticket.state != "executing" and not self.admission.wait(
            ticket, self._remaining(deadline)
        ):
            # Never executed, so no scoring work was wasted: the queue
            # has already metered it (``cancelled`` / ``shed_deadline``)
            # and it is not a deadline *overrun*.
            raise DeadlineExceededError(
                f"user {user_id}: deadline spent waiting for admission"
            )
        start = self.clock()
        try:
            try:
                answer = score(self._remaining(deadline))
            except TimeoutError as error:
                raise self._overrun(user_id, start) from error
            if (
                deadline is not None
                and answer.tier in LIVE_TIERS
                and self.clock() > deadline
            ):
                raise self._overrun(user_id, start)
            return answer
        finally:
            self.admission.release(ticket, service_seconds=self.clock() - start)

    def _remaining(self, deadline: Optional[float]) -> Optional[float]:
        return None if deadline is None else max(0.0, deadline - self.clock())

    def _overrun(self, user_id: int, start: float) -> DeadlineExceededError:
        """Meter one deadline overrun; returns the error to raise."""
        wasted = (self.clock() - start) * 1000.0
        with self._counter_lock:
            self._deadline_overruns += 1
            self._wasted_ms += wasted
        return DeadlineExceededError(
            f"user {user_id}: past its deadline ({wasted:.1f}ms of work wasted)",
            wasted_ms=wasted,
        )

    def _budget_seconds(self, deadline_ms: Optional[float]) -> Optional[float]:
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is None:
            return None
        budget = float(deadline_ms) / 1000.0
        if not (math.isfinite(budget) and budget > 0.0):
            raise ValueError(
                f"deadline_ms must be a finite number > 0, got {deadline_ms}"
            )
        return budget

    # -- the ladder ----------------------------------------------------
    def _ladder(
        self, requests: Sequence[QueryRequest], remaining: Optional[float] = None
    ) -> List[Union[Recommendation, Exception]]:
        """The degradation ladder, once: one slot per request.

        Tiers 1–2 are one blocked scoring call for the whole batch
        (fresh cache hits ride along; a slot the service refused is its
        request's own and passes through).  When scoring raises — or the
        service is unhealthy and this is not a probe turn — every rider
        degrades on its own: tier 3 stale, tier 4 the popularity prior,
        tier 5 a :class:`ShedError` in that rider's slot, counted here.
        """
        if self.health.state != UNHEALTHY or self._take_probe_turn():
            if remaining is not None and remaining <= 0.0:
                raise DeadlineExceededError("deadline expired before scoring")
            try:
                answers = self._service.query_batch(list(requests))
            except Exception:  # noqa: BLE001 - enters the ladder
                self.health.record(False)
            else:
                self.health.record(True)
                return answers
        return [self._degraded_slot(request) for request in requests]

    def _degraded_slot(
        self, request: QueryRequest
    ) -> Union[Recommendation, ShedError]:
        """Tiers 3–5 for one rider: a stale answer from a retained
        previous snapshot, else the popularity prior, else shed."""
        try:
            answer = self._service.stale_answer(request)
            if answer is None:
                answer = self.fallback_answer(
                    request.user_id,
                    request.k if request.k is not None else self._service.default_k,
                )
            return answer
        except Exception as error:  # noqa: BLE001 - ladder exhausted
            self._count_tier("shed")
            shed = ShedError(
                f"user {request.user_id}: every degradation tier failed "
                f"({type(error).__name__})",
                retry_after=1.0,
            )
            shed.__cause__ = error
            return shed

    def _take_probe_turn(self) -> bool:
        with self._counter_lock:
            self._requests_since_probe += 1
            if self._requests_since_probe >= self.PROBE_EVERY:
                self._requests_since_probe = 0
                return True
            return False

    def _count_tier(self, tier: str) -> None:
        with self._counter_lock:
            self._tier_counts[tier] += 1

    # -- batch path (feeds the coalescer) ------------------------------
    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[Union[Recommendation, Exception]]:
        """The ladder over a batch (what the coalescer flushes into).

        One slot per request, in request order: the answer of whichever
        tier delivered it (counted in ``tiers``), the refusal the
        service put there (that request's own — counted nowhere), or a
        :class:`ShedError` for a rider every tier failed (counted
        ``shed``).  A healthy batch is one blocked scoring call, exactly
        like the raw service; a failing one degrades per rider.  Raises
        nothing of a request's own.
        """
        if not requests:
            return []
        answers = self._ladder(requests)
        for answer in answers:
            if isinstance(answer, Recommendation):
                self._count_tier(answer.tier)
        return answers

    # -- guarded hot-swap ----------------------------------------------
    def swap(self, checkpoint_path: str) -> int:
        """Circuit-broken, self-healing swap to a newer checkpoint.

        Corrupt or mismatched candidates are quarantined as
        ``*.corrupt`` and the last-good snapshot keeps serving; missing
        files are retried with bounded backoff (a writer may still be
        mid-``os.replace``); repeated failures open the breaker so a
        swap storm cannot monopolize the process.  The inner service's
        validated swap is the whole cutover: what it accepts is served.

        Returns the new model version.
        """
        with self._swap_lock:
            self._swap_stats.attempts += 1
            if not self.breaker.allow():
                self._swap_stats.breaker_fast_fails += 1
                raise CircuitOpenError(
                    f"swap circuit open after repeated failures; retry in "
                    f"{self.breaker.retry_after():.1f}s",
                    retry_after=self.breaker.retry_after(),
                )
            backoff = self.config.swap_backoff_s
            attempt = 0
            while True:
                try:
                    version = self._service.swap(checkpoint_path)
                except CheckpointMismatchError:
                    self.breaker.record_failure()
                    self._swap_stats.rejected += 1
                    quarantine(checkpoint_path)
                    self._swap_stats.quarantined += 1
                    raise
                except OSError as error:
                    missing = isinstance(error, FileNotFoundError)
                    if not missing or attempt >= self.config.swap_retries:
                        self.breaker.record_failure()
                        self._swap_stats.rejected += 1
                        raise
                    attempt += 1
                    self._swap_stats.retries += 1
                    self._sleep(min(backoff, SWAP_BACKOFF_MAX_S))
                    backoff *= 2.0
                else:
                    break
            self._service.snapshot.popularity_prior  # noqa: B018 - warm, as at start
            self.breaker.record_success()
            self._swap_stats.succeeded += 1
            return version

    # -- checkpoint watcher --------------------------------------------
    def watch(self, path: str, interval_s: float = 2.0) -> None:
        """Poll ``path`` and hot-swap whenever a new valid checkpoint lands."""
        if self._watcher is not None:
            raise RuntimeError("watcher already running")
        self._watcher_stop.clear()
        self._watched_mtime = None

        def loop() -> None:
            while not self._watcher_stop.wait(interval_s):
                self.watch_once(path)

        self._watcher = threading.Thread(
            target=loop, name="repro-serving-watcher", daemon=True
        )
        self._watcher.start()

    def watch_once(self, path: str) -> bool:
        """One watcher poll (exposed for tests); True = swap happened."""
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return False
        if self._watched_mtime is None:
            # First observation: if we are already serving this file,
            # record its mtime and wait for a *newer* landing.  (Only
            # the first — after a watcher swap the watched path IS the
            # served path, and later overwrites must still trigger.)
            if os.path.abspath(path) == os.path.abspath(
                self._service.checkpoint_path
            ):
                self._watched_mtime = mtime
                return False
        elif mtime <= self._watched_mtime:
            return False
        self._watched_mtime = mtime
        try:
            self.swap(path)
        except Exception:  # noqa: BLE001 - quarantined/logged via stats
            return False
        with self._swap_lock:
            self._swap_stats.watcher_swaps += 1
        return True

    def stop_watching(self) -> None:
        if self._watcher is None:
            return
        self._watcher_stop.set()
        self._watcher.join(timeout=5.0)
        self._watcher = None

    # -- draining / introspection --------------------------------------
    def drain(self) -> None:
        """Stop admitting new requests (graceful-shutdown step 1)."""
        self.admission.drain()
        self.stop_watching()

    def healthz(self) -> dict:
        """The ``/healthz`` body: liveness plus the degradation state."""
        return {
            "status": "draining" if self.admission.draining else self.health.state,
            "model_version": self._service.model_version,
            "checkpoint": self._service.checkpoint_path,
            "breaker": self.breaker.state,
            "active_tier_floor": self._active_tier(),
        }

    def _active_tier(self) -> str:
        state = self.health.state
        if state == HEALTHY:
            return "full"
        if state == DEGRADED:
            return "stale"
        return "fallback"

    def tier_counts(self) -> Dict[str, int]:
        with self._counter_lock:
            return dict(self._tier_counts)

    def stats(self) -> dict:
        with self._counter_lock:
            overruns = {
                "deadline_overruns": self._deadline_overruns,
                "wasted_ms": round(self._wasted_ms, 3),
            }
            tiers = dict(self._tier_counts)
        return {
            **self._service.stats(),
            "resilience": {
                "health": self.health.stats(),
                "admission": self.admission.stats(),
                "breaker": self.breaker.stats(),
                "tiers": tiers,
                **overruns,
                "swap": asdict(self._swap_stats),
            },
        }
