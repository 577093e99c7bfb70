"""The one scheduler of independent per-group tasks
(:func:`repro.parallel.run_groups`), pinned on toy tasks with real
threads on one and three cores: no model is involved, so a failure here
is the scheduler's own.

Each toy task sleeps between its yields (a sleep releases the GIL as
numpy's array work does), so the workers get tasks of their own.
"""

import sys
import threading
import time
from functools import partial

import pytest

from repro import parallel

WORK_S = 0.002


@pytest.fixture(params=[1, 3], ids=["1-core", "3-cores"])
def cores(request, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    yield request.param
    sys.setswitchinterval(interval)


@pytest.fixture()
def started(monkeypatch):
    """The names of the threads run_groups starts."""
    names = []

    class Recording(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(parallel.threading, "Thread", Recording)
    return names


class Flight:
    """What the toy tasks saw: which started, on which thread, on which
    slot, and how many were in flight at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started = []
        self.body_threads = set()
        self.call_threads = set()
        self.slots = set()
        self.in_flight = 0
        self.peak = 0
        self.shared_slot = False

    def enter(self, index, slot):
        with self.lock:
            self.started.append(index)
            self.body_threads.add(threading.get_ident())
            self.shared_slot |= slot in self.slots
            self.slots.add(slot)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)

    def leave(self, slot):
        with self.lock:
            self.slots.discard(slot)
            self.in_flight -= 1

    def call(self, index, step):
        """A yielded call: records its thread, returns a value the task
        must get back."""
        self.call_threads.add(threading.get_ident())
        return 10 * index + step


def stepping(flight, index, steps=2):
    """A task that works, yields ``steps`` calls and returns the sum of
    what they returned."""

    def task(slot):
        flight.enter(index, slot)
        total = 0
        for step in range(steps):
            time.sleep(WORK_S)
            total += yield partial(flight.call, index, step)
        flight.leave(slot)
        return index, total

    return task


def plain(flight, index):
    """A task that returns a value and yields nothing."""

    def task(slot):
        flight.enter(index, slot)
        time.sleep(WORK_S)
        flight.leave(slot)
        return index * index

    return task


SIZES = [5, 1, 4, 2, 6, 3]


def test_results_come_back_in_task_order_and_yielded_calls_run_on_the_caller(
    cores, started
):
    flight = Flight()
    values = parallel.run_groups(
        [stepping(flight, index) for index in range(len(SIZES))], SIZES, 0
    )
    assert values == [(index, 20 * index + 1) for index in range(len(SIZES))]
    assert flight.call_threads == {threading.get_ident()}
    assert sorted(flight.started) == list(range(len(SIZES)))
    assert started == [f"groups-{n}" for n in range(1, cores)]
    if cores > 1:  # the workers ran task bodies of their own
        assert len(flight.body_threads) > 1


def test_plain_return_tasks(cores, started):
    flight = Flight()
    tasks = [plain(flight, index) for index in range(len(SIZES))]
    assert parallel.run_groups(tasks, SIZES, 0) == [n * n for n in range(len(SIZES))]
    assert started == [f"groups-{n}" for n in range(1, cores)]


def test_plain_and_yielding_tasks_mix(cores):
    flight = Flight()
    tasks = [
        (stepping if index % 2 else plain)(flight, index) for index in range(len(SIZES))
    ]
    assert parallel.run_groups(tasks, SIZES, 0) == [
        (index, 20 * index + 1) if index % 2 else index * index
        for index in range(len(SIZES))
    ]


def test_at_most_one_task_per_thread_is_in_flight(cores):
    flight = Flight()
    count = 8
    parallel.run_groups(
        [stepping(flight, index, steps=3) for index in range(count)], range(count), 0
    )
    assert sorted(flight.started) == list(range(count))
    assert 1 <= flight.peak <= cores
    assert not flight.shared_slot
    assert flight.in_flight == 0


@pytest.mark.parametrize("where", ["body", "yielded call"])
def test_the_first_failing_task_wins_after_every_thread_joined(cores, where):
    flight = Flight()
    raised = []

    def first(slot):
        flight.enter(1, slot)
        time.sleep(WORK_S)
        raised.append(ValueError("task 1 failed"))
        if where == "body":
            raise raised[-1]
        yield partial(raise_, raised[-1])

    def later(slot):  # later in task order and the largest: must not win
        flight.enter(4, slot)
        yield partial(raise_, RuntimeError("task 4 failed too"))

    tasks = [stepping(flight, index) for index in range(len(SIZES))]
    tasks[1], tasks[4] = first, later
    threads_before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        parallel.run_groups(tasks, SIZES, 0)
    assert caught.value is raised[0]
    assert sorted(flight.started) == list(range(len(SIZES)))  # none was stopped
    assert threading.active_count() == threads_before


def raise_(error):
    raise error


def test_a_call_below_serial_below_starts_no_thread(monkeypatch, started):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    flight = Flight()
    tasks = [stepping(flight, index) for index in range(len(SIZES))]
    parallel.run_groups(tasks, SIZES, sum(SIZES) + 1)
    assert started == []
    assert flight.body_threads == {threading.get_ident()}
    parallel.run_groups(tasks, SIZES, sum(SIZES))
    assert started == ["groups-1", "groups-2"]


def test_an_interrupted_caller_starts_no_further_task(cores, started):
    flight = Flight()
    interrupt = KeyboardInterrupt()
    calls = []

    def interrupting(index, step):
        calls.append(index)
        raise interrupt

    flight.call = interrupting
    threads_before = threading.active_count()
    with pytest.raises(KeyboardInterrupt) as caught:
        parallel.run_groups(
            [stepping(flight, index) for index in range(len(SIZES))], SIZES, 0
        )
    assert caught.value is interrupt
    assert threading.active_count() == threads_before
    assert len(calls) == 1
    # Every task holds its slot until its yielded calls have run, and the
    # first of them interrupted the call: only the tasks that already
    # held a slot ever started.
    assert len(flight.started) <= cores < len(SIZES)
    if cores == 1:
        assert flight.started == calls == [SIZES.index(min(SIZES))]


def test_a_worker_interrupt_propagates_after_every_thread_joined(cores):
    flight = Flight()
    stop = SystemExit("a task exited")

    def exiting(slot):
        raise stop

    tasks = [stepping(flight, index) for index in range(len(SIZES))]
    tasks[SIZES.index(max(SIZES))] = exiting  # the workers take it first
    threads_before = threading.active_count()
    with pytest.raises(SystemExit) as caught:
        parallel.run_groups(tasks, SIZES, 0)
    assert caught.value is stop
    assert threading.active_count() == threads_before
