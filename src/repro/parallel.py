"""Independent per-group tasks, run on every core this process may use.

HeteFedRec keeps one model per dim-group, so a round's length buckets and
a query batch's or an evaluation block's groups are short lists of tasks
that share nothing mutable, and numpy releases the GIL in most of a
task's work.  A task stays exactly its serial call (a different GEMM
shape is not bitwise the same block), so results never depend on the
number of cores.
"""

from __future__ import annotations

import collections
import inspect
import os
import threading
from typing import Callable, List, Optional, Sequence

#: Summed score cells (users x items) from which a scoring call's groups
#: run on worker threads too: a smaller call is over about as soon as a
#: worker has started.  ``query_batch`` on a 2-core box (a three-group
#: douban snapshot of 7,397 items, BLAS on one thread), two threads
#: against one: 2 users (1.5e4 cells) took 1.39x as long, 3-6 users
#: (2.2e4-4.4e4 cells) 0.93-1.03x, and 8 to 32 users (5.9e4-2.4e5 cells)
#: 0.72-0.87x.
SERIAL_CELLS = 1 << 16


def cpu_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run_groups(
    tasks: Sequence[Callable[[int], object]],
    sizes: Sequence[int],
    serial_below: int,
) -> List[object]:
    """Run every independent ``tasks[i](slot)``; results in task order.

    A task returns its result, or a generator whose return is its result:
    each callable it yields runs on the calling thread (where a per-thread
    profile sees an optimizer step or a top-k inside the call), and that
    call's return is sent back in.  No two tasks in flight share a
    ``slot``, so a task may use per-slot scratch state without a lock.

    This thread and up to ``cpu_count() - 1`` workers, which start and
    join inside this call, share the tasks.  This thread runs a due call
    first; otherwise a thread advances a task whose call has returned, or
    starts one: this thread from the smallest ``sizes[i]`` up, the workers
    from the largest down.  At most one task per thread is in flight,
    which bounds peak memory.  Under ``serial_below`` summed sizes, or on
    one core, no worker starts.

    A task fails when it or a call it yields raises; once every thread
    has joined, the first failing task's exception, in task order, is
    raised.  A failure that is not an :class:`Exception` (a
    ``KeyboardInterrupt``, say) also interrupts the call: no further task
    starts.
    """
    count = len(tasks)
    threads = min(cpu_count(), count) if sum(sizes) >= serial_below else 1
    values: List[object] = [None] * count
    errors: List[Optional[BaseException]] = [None] * count
    unstarted = collections.deque(sorted(range(count), key=lambda task: sizes[task]))
    free = list(range(threads - 1, -1, -1))  # slots; this thread takes 0 first
    # In flight, ``[index, slot, generator, call, value]``: ``due`` for this
    # thread to run ``call``, ``ready`` for any to send ``value`` in.
    ready: collections.deque = collections.deque()
    due: collections.deque = collections.deque()
    state = threading.Condition(threading.Lock())
    unfinished = count

    def turn(entry: list) -> None:
        """Outside ``state``: a due call, or a task's work up to its next."""
        nonlocal unfinished
        index, slot, generator, call, value = entry
        try:
            if call is not None:
                entry[3:], queue = (None, call()), ready
            else:
                if generator is None:
                    generator = entry[2] = tasks[index](slot)
                    if not inspect.isgenerator(generator):
                        raise StopIteration(generator)  # a plain result ends it
                entry[3], queue = generator.send(value), due
        except StopIteration as done:
            values[index], queue = done.value, None
        except BaseException as error:
            errors[index], queue = error, None
        with state:
            if queue is not None:
                queue.append(entry)
            else:
                free.append(slot)
                unfinished -= 1
                if not isinstance(errors[index], (Exception, type(None))):
                    unfinished = 0  # an interrupt: no further task starts
            state.notify_all()

    def serve(caller: bool) -> None:
        take = unstarted.popleft if caller else unstarted.pop
        with state:
            while unfinished > 0:
                if caller and due:
                    entry = due.popleft()
                elif ready:
                    entry = ready.popleft()
                elif unstarted and free:
                    entry = [take(), free.pop(), None, None, None]
                else:
                    state.wait()
                    continue
                state.release()
                try:
                    turn(entry)
                finally:
                    state.acquire()

    workers = [
        threading.Thread(target=serve, args=(False,), name=f"groups-{n}")
        for n in range(1, threads)
    ]
    for worker in workers:
        worker.start()
    try:
        serve(True)
    finally:
        with state:  # an interrupted caller starts no further task
            unfinished = 0
            state.notify_all()
        for worker in workers:
            worker.join()
    for error in errors:
        if error is not None:
            raise error
    return values
