"""Request coalescing: many concurrent queries, one blocked matmul.

A single top-k query spends more time in python/numpy dispatch than in
arithmetic — the same overhead profile the vectorized round engine
eliminated for training.  The coalescer applies the identical cure on
the serving side: concurrent callers hand their queries to
:meth:`RequestCoalescer.submit`, which parks them in a pending batch and
flushes the whole batch through
:meth:`~repro.serving.service.RecommendationService.query_batch` — one
``score_matrix`` block per dim-group — as soon as either holds:

* **size** — the batch reached ``max_batch`` queries; the submitting
  thread flushes inline;
* **idle** — the background flusher is free: it takes whatever is
  pending the moment it is done with the previous batch.  A query never
  waits for company (a lone one is scored at once); batches are the
  queries that arrive while a batch is being scored.  No timer.

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
from typing import List, Optional, Union

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
    """

    def __init__(self, service: RecommendationService, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending = _Batch()
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
        with self._wakeup:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            batch = self._pending
            index = len(batch.requests)
            batch.requests.append(request)
            self._queries += 1
            full = len(batch.requests) >= self.max_batch
            if full:
                self._pending = _Batch()
                self._size_flushes += 1
            elif index == 0:
                # First query of a fresh batch: wake the flusher.  Later
                # ones skip the notify (a GIL round-trip each under load);
                # a busy flusher re-checks ``pending`` before it waits.
                self._wakeup.notify()
        if full:
            # Size trigger: the thread that completed the batch scores it
            # inline — everyone else in the batch is already waiting.
            self._flush(batch)
        if not batch.ready.wait(timeout):
            raise TimeoutError(
                f"query for user {user_id} not flushed within {timeout}s"
            )
        if batch.error is not None:
            raise batch.error
        return delivered(batch.answers[index])

    def close(self) -> None:
        """Flush anything pending and stop the background flusher."""
        with self._wakeup:
            self._closed = True
            batch, self._pending = self._pending, _Batch()
            self._forced_flushes += bool(batch.requests)
            self._wakeup.notify()
        self._flush(batch)
        self._flusher.join(timeout=5.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Counters.  ``deadline_flushes`` counts the flusher's idle flushes
        (no deadline exists; the key keeps its name for its readers),
        ``size_flushes`` the inline ones, ``forced_flushes`` close()'s."""
        with self._lock:
            return {
                "queries": self._queries,
                "pending": len(self._pending.requests),
                "size_flushes": self._size_flushes,
                "deadline_flushes": self._deadline_flushes,
                "forced_flushes": self._forced_flushes,
                "max_batch": self.max_batch,
            }

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
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
        """Idle flusher: score whatever is pending whenever it is free."""
        while True:
            with self._wakeup:
                while not self._closed and not self._pending.requests:
                    self._wakeup.wait()
                if self._closed:
                    return
                batch, self._pending = self._pending, _Batch()
                self._deadline_flushes += 1
            self._flush(batch)
