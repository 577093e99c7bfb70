"""Request coalescing: many concurrent queries, one blocked matmul.

A single top-k query spends more time in python/numpy dispatch than in
arithmetic — the same overhead profile the vectorized round engine
eliminated for training.  The coalescer applies the identical cure on
the serving side: concurrent callers hand their queries to
:meth:`RequestCoalescer.submit`, which parks them in a pending batch and
flushes the whole batch through
:meth:`~repro.serving.service.RecommendationService.query_batch` — one
``score_matrix`` block per dim-group — when either trigger fires:

* **size** — the batch reached ``max_batch`` queries; the submitting
  thread flushes inline (no waiting for a timer that can only add
  latency);
* **deadline** — ``max_wait_ms`` elapsed since the batch's *first*
  query; a background flusher thread fires so a lone query is never
  parked longer than the deadline.

Every query in a flushed batch is answered from one snapshot read, so
coalescing also inherits the service's hot-swap atomicity for free.
Riders share a matmul, never an outcome: each waiter hears its own slot
of the batch — its answer, or the refusal that is its own request's.
The rendezvous is per *batch*, not per query — one ``Event`` wakes all
of a batch's waiters in a single syscall, which is what keeps the
coalesced path cheap at high concurrency.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Union

import numpy as np

from repro.serving.service import (
    QueryRequest,
    Recommendation,
    RecommendationService,
    delivered,
)


class _Batch:
    """One pending batch: its requests, and the rendezvous for answers.

    All waiters of a batch share a single :class:`threading.Event`; the
    flusher fills ``answers`` — one slot per request — or, when scoring
    itself failed, ``error``, and sets it once.
    """

    __slots__ = ("requests", "answers", "error", "ready")

    def __init__(self) -> None:
        self.requests: List[QueryRequest] = []
        self.answers: Optional[List[Union[Recommendation, Exception]]] = None
        self.error: Optional[BaseException] = None
        self.ready = threading.Event()


class RequestCoalescer:
    """Batches concurrent queries into blocked scoring calls.

    Parameters
    ----------
    service:
        The :class:`RecommendationService` flushes are scored against.
    max_batch:
        Size trigger: a batch never grows beyond this many queries.
    max_wait_ms:
        Deadline trigger: the longest a query waits for company before
        its batch is flushed anyway.
    clock:
        Monotonic time source for the deadline trigger (default
        :func:`time.monotonic`).  Injectable so deadline behaviour is
        unit-testable — and chaos-drivable — without real sleeps; pair a
        manual clock with :meth:`poll` instead of the flusher thread.
    """

    def __init__(
        self,
        service: RecommendationService,
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.clock = clock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending = _Batch()
        self._deadline: Optional[float] = None
        self._closed = False
        self._size_flushes = 0
        self._deadline_flushes = 0
        self._forced_flushes = 0
        self._queries = 0
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-serving-coalescer", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(
        self,
        user_id: int,
        k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        timeout: Optional[float] = None,
    ) -> Recommendation:
        """Park one query and block until its batch is scored.

        Returns — or raises — this query's own slot of the batch: an
        unknown user or a bad ``exclude`` is raised to its sender only,
        and the other riders get their answers.  A fault of the scoring
        call itself is raised to every rider of the batch, and
        :class:`TimeoutError` if ``timeout`` (seconds) elapses first.
        """
        request = QueryRequest(int(user_id), k, exclude)
        to_flush: Optional[_Batch] = None
        with self._wakeup:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            batch = self._pending
            index = len(batch.requests)
            batch.requests.append(request)
            self._queries += 1
            if len(batch.requests) >= self.max_batch:
                to_flush = self._take_pending_locked()
                self._size_flushes += 1
            elif self._deadline is None:
                # First query of a fresh batch: arm the deadline and wake
                # the flusher.  Later queries change nothing it watches,
                # so they skip the notify (waking it per-submit costs a
                # GIL round-trip each under concurrent load).
                self._deadline = self.clock() + self.max_wait
                self._wakeup.notify_all()
        if to_flush is not None:
            # Size trigger: the thread that completed the batch scores it
            # inline — everyone else in the batch is already waiting.
            self._flush(to_flush)
        if not batch.ready.wait(timeout):
            raise TimeoutError(
                f"query for user {user_id} not flushed within {timeout}s"
            )
        if batch.error is not None:
            raise batch.error
        return delivered(batch.answers[index])

    def flush(self) -> int:
        """Force-flush the pending batch (returns how many were flushed)."""
        with self._wakeup:
            batch = self._take_pending_locked()
            if batch.requests:
                self._forced_flushes += 1
        self._flush(batch)
        return len(batch.requests)

    def poll(self) -> int:
        """Flush the pending batch iff its deadline (per ``clock``) passed.

        Returns how many queries were flushed.  This is the deadline
        trigger as a pull: with an injected manual clock the flusher
        thread never fires (it waits on real time), so deterministic
        drivers advance the clock and call ``poll()`` themselves.
        """
        with self._wakeup:
            if self._deadline is None or self.clock() < self._deadline:
                return 0
            batch = self._take_pending_locked()
            if batch.requests:
                self._deadline_flushes += 1
        self._flush(batch)
        return len(batch.requests)

    def close(self) -> None:
        """Flush anything pending and stop the background flusher."""
        with self._wakeup:
            self._closed = True
            batch = self._take_pending_locked()
            self._wakeup.notify_all()
        self._flush(batch)
        self._flusher.join(timeout=5.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "queries": self._queries,
                "pending": len(self._pending.requests),
                "size_flushes": self._size_flushes,
                "deadline_flushes": self._deadline_flushes,
                "forced_flushes": self._forced_flushes,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait * 1000.0,
            }

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _take_pending_locked(self) -> _Batch:
        """Detach the pending batch (caller holds the lock)."""
        batch, self._pending = self._pending, _Batch()
        self._deadline = None
        return batch

    def _flush(self, batch: _Batch) -> None:
        """Score one detached batch and wake every waiter in it — once."""
        if not batch.requests:
            return
        try:
            batch.answers = self.service.query_batch(batch.requests)
        except BaseException as error:  # noqa: BLE001 - delivered to waiters
            batch.error = error
        batch.ready.set()

    def _flush_loop(self) -> None:
        """Deadline watcher: flush batches whose first query waited long."""
        while True:
            with self._wakeup:
                while not self._closed and self._deadline is None:
                    self._wakeup.wait()
                if self._closed:
                    return
                remaining = self._deadline - self.clock()
                if remaining > 0:
                    self._wakeup.wait(remaining)
                    continue
                batch = self._take_pending_locked()
                if batch.requests:
                    self._deadline_flushes += 1
            self._flush(batch)
