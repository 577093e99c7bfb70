"""Independent per-group calls, run on every core this process may use.

A served snapshot and a trainer both hold one model per dim-group, and
one group's full-catalogue scoring shares nothing mutable with
another's: it reads its own model and user rows and writes its own
block.  numpy releases the GIL in the GEMMs and elementwise passes that
are most of a group's time, so a query batch or an evaluation block can
score its groups concurrently.  :func:`run_groups` is that one pattern;
the caller keeps every call whose position in a per-thread profile
matters (the top-k selection behind it, say) on its own thread through
``then``.

A group's call stays exactly the call it would be serially — one whole
group per task, never a split of its users or items — because a
different GEMM shape is not bitwise the same block.
"""

from __future__ import annotations

import collections
import os
import threading
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Summed score cells (users x items) from which a call's groups run on
#: worker threads too: a smaller call is over about as soon as a worker
#: has started.  ``query_batch`` on a 2-core box (a three-group douban
#: snapshot of 7,397 items, BLAS on one thread), two threads against
#: one: 2 users (1.5e4 cells) took 1.39x as long, 3-6 users (2.2e4-4.4e4
#: cells) 0.93-1.03x, and 8 to 32 users (5.9e4-2.4e5 cells) 0.72-0.87x.
SERIAL_CELLS = 1 << 16


def cpu_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run_groups(
    calls: Sequence[Callable[[], T]],
    cells: Sequence[int],
    then: Optional[Callable[[int, T], object]] = None,
) -> List[object]:
    """Run every independent ``calls[g]()``; results in group order.

    ``cells[g]`` is group ``g``'s size (its users x items).  The calling
    thread and up to ``cpu_count() - 1`` workers, which start and join
    inside this call, share the groups: the workers take them from the
    largest down, this thread from the smallest up.  ``then(g, value)``
    runs on this thread for each group as soon as the group's call has
    returned, before this thread takes another group, and its return is
    that group's result.  Once every thread has joined, the first
    failing group's exception (of its call or its ``then``, in group
    order) is raised.  On one core, or when the cells sum to less than
    :data:`SERIAL_CELLS`, no worker starts: this thread runs every group.
    """
    count = len(calls)
    workers = min(cpu_count(), count) - 1 if sum(cells) >= SERIAL_CELLS else 0
    values: List[object] = [None] * count
    errors: List[Optional[BaseException]] = [None] * count
    pending = collections.deque(sorted(range(count), key=lambda group: cells[group]))
    scored: collections.deque = collections.deque()  # a worker's, awaiting ``then``
    state = threading.Condition(threading.Lock())

    def run(group: int) -> None:
        try:
            values[group] = calls[group]()
        except BaseException as error:  # surfaces on the calling thread
            errors[group] = error

    def work() -> None:
        while True:
            with state:
                if not pending:
                    return
                group = pending.pop()
            run(group)
            with state:
                scored.append(group)
                state.notify()

    threads = [
        threading.Thread(target=work, name=f"groups-{slot}")
        for slot in range(1, workers + 1)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(count):
            with state:
                while not scored and not pending:
                    state.wait()
                mine = not scored
                group = pending.popleft() if mine else scored.popleft()
            if mine:
                run(group)
            if then is not None and errors[group] is None:
                try:
                    values[group] = then(group, values[group])
                except Exception as error:
                    errors[group] = error
    finally:
        with state:  # an interrupted caller leaves the rest undone
            pending.clear()
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return values
