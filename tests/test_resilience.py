"""Tests for the serving resilience layer (``repro.serving.resilience``).

Pins the tentpole contracts: the admission queue never exceeds capacity
and sheds instead of queueing unboundedly (hypothesis-verified), shed
requests never consume scoring work, FIFO holds within a priority
class, deadline budgets shed up front and meter overruns, the health
state machine degrades and recovers with hysteresis, the degradation
ladder answers stale → fallback when live scoring fails, the guarded
hot-swap quarantines corrupt checkpoints as ``*.corrupt`` and serves
whatever its door accepts, and the circuit breaker stops a swap storm.

Everything runs on the injectable manual clock — no sleeps.
"""

import os
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeteFedRec, HeteFedRecConfig
from repro.federated.checkpoint import (
    CheckpointMismatchError,
    save_checkpoint_impl,
)
from repro.serving import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    HealthMonitor,
    QueryRequest,
    RecommendationService,
    ResilienceConfig,
    ResilientService,
    ShedError,
    TopKCache,
)
from repro.serving import resilience as resilience_module
from repro.serving.chaos import ManualClock
from repro.serving.resilience import DEGRADED, HEALTHY, UNHEALTHY

from malformed_checkpoints import MALFORMED_CHECKPOINTS, forge

CONFIG = dict(dims={"s": 4, "m": 6, "l": 8}, epochs=2, local_epochs=1, lr=0.01)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """v1/v2 of one run plus an arch-mismatched checkpoint."""
    from repro.data.splitting import train_test_split_per_user
    from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset

    dataset = load_benchmark_dataset(
        "ml", SyntheticConfig(scale=0.01, item_scale=0.03, seed=7)
    )
    clients = train_test_split_per_user(dataset, seed=7)
    root = tmp_path_factory.mktemp("resilience")
    trainer = HeteFedRec(
        dataset.num_items, clients, HeteFedRecConfig(seed=0, **CONFIG)
    )
    paths = {}
    trainer.run_epoch(1)
    paths["v1"] = str(root / "v1.npz")
    save_checkpoint_impl(trainer, paths["v1"])
    trainer.run_epoch(2)
    paths["v2"] = str(root / "v2.npz")
    save_checkpoint_impl(trainer, paths["v2"])

    mismatched = HeteFedRec(
        dataset.num_items, clients, HeteFedRecConfig(seed=0, arch="mf", **CONFIG)
    )
    mismatched.run_epoch(1)
    paths["mf"] = str(root / "mf.npz")
    save_checkpoint_impl(mismatched, paths["mf"])
    return {"paths": paths, "clients": clients}


#: ``make_resilient`` keywords that configure the service's health
#: monitor (the ``resilience`` constants a ``HealthMonitor`` reads)
#: rather than its config.
HEALTH_KEYWORDS = {
    "health_window": "HEALTH_WINDOW", "degraded_at": "DEGRADED_AT",
    "unhealthy_at": "UNHEALTHY_AT", "recovery_successes": "RECOVERY_SUCCESSES",
}


def make_resilient(checkpoints, tmp_path, clock=None, probe_every=None, **config):
    """A fresh ResilientService over a private copy of v1 (swap targets
    are copies too, so quarantine renames never eat the fixture).

    The one place that translates the health and probe settings the
    tests vary: a ``HealthMonitor`` built from them replaces the
    service's, and ``probe_every`` overrides ``PROBE_EVERY`` on the
    instance."""
    clock = clock or ManualClock()
    v1 = str(tmp_path / "serve_v1.npz")
    shutil.copyfile(checkpoints["paths"]["v1"], v1)
    service = RecommendationService(v1, k=10, cache_size=512)
    health = {HEALTH_KEYWORDS[key]: config.pop(key) for key in list(config)
              if key in HEALTH_KEYWORDS}
    defaults = dict(admission_capacity=4, max_waiting=4, swap_backoff_s=0.0)
    defaults.update(config)
    resilient = ResilientService(
        service, ResilienceConfig(**defaults), clock=clock, sleep=clock.sleep
    )
    if health:
        with mock.patch.multiple(resilience_module, **health):
            resilient.health = HealthMonitor()
    if probe_every is not None:
        resilient.PROBE_EVERY = probe_every
    return resilient, clock


# ----------------------------------------------------------------------
# AdmissionQueue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_grants_up_to_capacity_then_queues_then_sheds(self):
        q = AdmissionQueue(capacity=2, max_waiting=1, clock=ManualClock())
        t1 = q.try_admit()
        t2 = q.try_admit()
        assert t1.state == t2.state == "executing"
        t3 = q.try_admit()
        assert t3.state == "waiting"
        with pytest.raises(ShedError) as excinfo:
            q.try_admit()
        assert excinfo.value.retry_after > 0
        assert q.shed_capacity == 1

    def test_release_promotes_in_fifo_order(self):
        q = AdmissionQueue(capacity=1, max_waiting=3, clock=ManualClock())
        first = q.try_admit()
        waiters = [q.try_admit() for _ in range(3)]
        q.release(first)
        assert waiters[0].state == "executing"
        assert waiters[1].state == waiters[2].state == "waiting"
        q.release(waiters[0])
        assert waiters[1].state == "executing"

    def test_priority_classes_jump_the_line(self):
        q = AdmissionQueue(capacity=1, max_waiting=4, clock=ManualClock())
        first = q.try_admit()
        low = q.try_admit(priority=5)
        high = q.try_admit(priority=0)
        q.release(first)
        assert high.state == "executing" and low.state == "waiting"

    def test_unmeetable_deadline_sheds_immediately(self):
        clock = ManualClock()
        q = AdmissionQueue(capacity=1, max_waiting=8, clock=clock)
        q.try_admit()
        q.try_admit()  # one waiting -> estimated wait 2 * ema (20ms)
        with pytest.raises(ShedError):
            q.try_admit(budget=0.005)
        assert q.shed_deadline == 1
        # A budget that covers the wait is queued, not shed.
        assert q.try_admit(budget=10.0).state == "waiting"

    def test_drain_sheds_new_arrivals(self):
        q = AdmissionQueue(capacity=4, clock=ManualClock())
        ticket = q.try_admit()
        q.drain()
        with pytest.raises(ShedError):
            q.try_admit()
        # Already-admitted work still completes.
        q.release(ticket)
        assert q.completed == 1 and q.shed_draining == 1

    def test_ema_tracks_service_time(self):
        q = AdmissionQueue(capacity=1, clock=ManualClock())
        for _ in range(50):
            q.release(q.try_admit(), service_seconds=0.1)
        assert q.stats()["ema_service_ms"] == pytest.approx(100.0, rel=0.05)


class TestAdmissionQueueProperties:
    """Hypothesis: invariants under arbitrary admit/release interleavings."""

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=60
        ),
        st.integers(1, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity(self, ops, capacity, max_waiting):
        q = AdmissionQueue(capacity, max_waiting, clock=ManualClock())
        live = []
        for is_admit, priority in ops:
            if is_admit:
                try:
                    live.append(q.try_admit(priority=priority))
                except ShedError:
                    pass
            elif live:
                q.release(live.pop(0))
            assert q.executing <= capacity
            assert q.waiting <= max_waiting

    @given(
        st.lists(st.booleans(), min_size=1, max_size=80),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shed_requests_never_consume_scoring_work(self, ops, capacity, waiting):
        """completed + executing + waiting == admitted: a shed request
        never occupies a slot, so it can never be 'completed'."""
        q = AdmissionQueue(capacity, waiting, clock=ManualClock())
        live = []
        sheds = 0
        for is_admit in ops:
            if is_admit:
                try:
                    live.append(q.try_admit())
                except ShedError:
                    sheds += 1
            elif live:
                q.release(live.pop(0))
        stats = q.stats()
        assert stats["admitted"] == (
            stats["completed"] + stats["executing"] + stats["waiting"]
        )
        assert stats["shed_capacity"] == sheds
        assert stats["admitted"] + sheds == sum(1 for op in ops if op)

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_fifo_within_priority_class(self, priorities):
        q = AdmissionQueue(1, max_waiting=len(priorities), clock=ManualClock())
        blocker = q.try_admit()
        tickets = [q.try_admit(priority=p) for p in priorities]
        order = []
        q.release(blocker)
        for _ in tickets:
            running = next(t for t in tickets if t.state == "executing")
            order.append((running.priority, running.seq))
            q.release(running)
        assert order == sorted(order)


# ----------------------------------------------------------------------
# CircuitBreaker / HealthMonitor
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens_on_clock(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow() and breaker.state == "closed"
        breaker.record_failure()
        assert not breaker.allow() and breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_failure()  # half-open failure -> straight back open
        assert breaker.state == "open"
        clock.advance(10.0)
        breaker.record_success()
        assert breaker.state == "closed" and breaker.opens == 2

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=ManualClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


class TestHealthMonitor:
    def test_degrades_and_recovers_with_hysteresis(self, monkeypatch):
        for name, value in (("HEALTH_WINDOW", 10), ("DEGRADED_AT", 0.2),
                            ("UNHEALTHY_AT", 0.5), ("RECOVERY_SUCCESSES", 3)):
            monkeypatch.setattr(resilience_module, name, value)
        health = HealthMonitor()
        for _ in range(10):
            health.record(True)
        assert health.state == HEALTHY
        health.record(False)
        health.record(False)
        assert health.state == DEGRADED
        for _ in range(4):
            health.record(False)
        assert health.state == UNHEALTHY
        # Two successes is not enough to leave unhealthy...
        for _ in range(2):
            health.record(True)
        assert health.state == UNHEALTHY
        # ...but enough clean traffic flushes the window and holds the
        # consecutive-success bar.
        for _ in range(10):
            health.record(True)
        assert health.state == HEALTHY
        assert (UNHEALTHY, HEALTHY) in health.transitions or (
            UNHEALTHY, DEGRADED
        ) in health.transitions


# ----------------------------------------------------------------------
# TopKCache version eviction + stale reads
# ----------------------------------------------------------------------
class TestCacheVersionEviction:
    def test_evict_older_than(self):
        cache = TopKCache()
        for version in (1, 2, 3):
            cache.put((version, 7, 10), f"v{version}")
        assert cache.evict_older_than(3) == 2  # drops v1 and v2
        assert cache.get((2, 7, 10)) is None
        assert cache.get((3, 7, 10)) == "v3"
        assert cache.stats()["evictions"] == 2

    def test_get_stale_walks_back_and_counts(self):
        cache = TopKCache()
        cache.put((3, 7, 10), "v3")
        cache.put((5, 7, 10), "v5")
        assert cache.get_stale(7, 10, current_version=6, max_back=1) == (5, "v5")
        assert cache.get_stale(7, 10, current_version=6, max_back=3) == (5, "v5")
        assert cache.get_stale(7, 10, current_version=5, max_back=1) is None
        assert cache.get_stale(7, 10, current_version=5, max_back=2) == (3, "v3")
        assert cache.stats()["stale_hits"] == 3
        # Regular hit/miss counters are untouched by stale probes.
        assert cache.stats()["hits"] == 0


# ----------------------------------------------------------------------
# The degradation ladder end to end
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_healthy_path_is_full_scoring(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        user = resilient.snapshot.user_ids()[0]
        answer = resilient.query(user)
        assert answer.tier == "full" and not answer.cached
        answer = resilient.query(user)
        assert answer.tier == "cached" and answer.cached

    def test_scoring_failure_degrades_to_fallback(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path, probe_every=1000)
        user = resilient.snapshot.user_ids()[0]
        inner = resilient.service

        def boom(requests):
            raise RuntimeError("scoring down")

        original = inner.query_batch
        inner.query_batch = boom
        try:
            answer = resilient.query(user, k=5)
            # No stale cache yet: the ladder lands on the popularity prior.
            assert answer.tier == "fallback"
            assert len(answer.items) == 5
            assert resilient.tier_counts()["fallback"] == 1
        finally:
            inner.query_batch = original

    def test_stale_tier_serves_previous_generation(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path, probe_every=1000)
        user = resilient.snapshot.user_ids()[0]
        resilient.query(user)  # populate the v1 cache entry
        v2 = str(tmp_path / "swap_v2.npz")
        shutil.copyfile(checkpoints["paths"]["v2"], v2)
        resilient.swap(v2)
        inner = resilient.service
        original = inner.query_batch

        def boom(requests):
            raise RuntimeError("scoring down")

        inner.query_batch = boom
        try:
            answer = resilient.query(user)
            assert answer.tier == "stale"
            assert answer.model_version == 1  # the retained generation
        finally:
            inner.query_batch = original

    def test_unhealthy_state_skips_live_scoring_except_probes(
        self, checkpoints, tmp_path
    ):
        resilient, _ = make_resilient(
            checkpoints, tmp_path, probe_every=3, unhealthy_at=0.3, health_window=4
        )
        user = resilient.snapshot.user_ids()[0]
        inner = resilient.service
        calls = {"n": 0}
        original = inner.query_batch

        def boom(requests):
            calls["n"] += 1
            raise RuntimeError("down")

        inner.query_batch = boom
        try:
            for _ in range(4):
                resilient.query(user)
            assert resilient.health.state == UNHEALTHY
            calls["n"] = 0
            for _ in range(6):
                resilient.query(user)
            # Unhealthy: only every 3rd request probes the live path.
            assert calls["n"] == 2
        finally:
            inner.query_batch = original

    def test_recovery_returns_to_full_tier(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(
            checkpoints, tmp_path, probe_every=2, unhealthy_at=0.3,
            health_window=4, recovery_successes=2,
        )
        users = resilient.snapshot.user_ids()
        inner = resilient.service
        original = inner.query_batch

        def boom(requests):
            raise RuntimeError("down")

        inner.query_batch = boom
        for _ in range(4):
            resilient.query(users[0])
        assert resilient.health.state == UNHEALTHY
        inner.query_batch = original  # fault clears
        for i in range(12):
            resilient.query(users[i % len(users)])
        assert resilient.health.state == HEALTHY
        assert resilient.query(users[0], k=7).tier in ("full", "cached")

    def test_deadline_sheds_upfront_and_meters_overrun(
        self, checkpoints, tmp_path
    ):
        clock = ManualClock()
        resilient, clock = make_resilient(
            checkpoints, tmp_path, clock=clock, admission_capacity=1, max_waiting=4
        )
        user = resilient.snapshot.user_ids()[0]
        # Expired before scoring: 504, zero wasted work.
        ticket = resilient.try_admit(deadline_ms=5.0)
        clock.advance(0.010)
        from repro.serving import DeadlineExceededError

        with pytest.raises(DeadlineExceededError):
            resilient.execute(ticket, user)
        stats = resilient.stats()["resilience"]
        assert stats["deadline_overruns"] == 1
        assert stats["wasted_ms"] == 0.0
        # The queue slot was released despite the overrun.
        assert resilient.admission.executing == 0


    @pytest.mark.parametrize("bad", ["one-past-the-end", "negative"])
    def test_bad_exclude_is_its_senders_alone(self, checkpoints, tmp_path, bad):
        """An ``exclude`` id outside the catalogue is the caller's
        mistake: told to the caller, not booked as a scoring failure."""
        resilient, _ = make_resilient(checkpoints, tmp_path, health_window=4)
        offender, stranger = resilient.snapshot.user_ids()[:2]
        exclude = [resilient.num_items] if bad == "one-past-the-end" else [-1]
        with pytest.raises(ValueError, match="exclude"):
            resilient.query(offender, exclude=np.array(exclude))
        assert resilient.health.state == HEALTHY
        assert resilient.query(stranger).tier == "full"
        assert resilient.tier_counts() == {
            "full": 1, "cached": 0, "stale": 0, "fallback": 0, "shed": 0,
        }
        assert resilient.admission.executing == 0


# ----------------------------------------------------------------------
# One ladder: a single query is a batch of one
# ----------------------------------------------------------------------
def _scoring_down(requests):
    raise MemoryError("scoring down")


class TestOneLadder:
    """``query`` (what in-process callers use) and ``query_batch`` (what
    every HTTP request rides) are the same ladder: same tier, same
    items, same counters, in every health state."""

    STATES = ("healthy", "scoring-down", "unhealthy-not-probe-turn", "every-tier-down")

    def stack_in(self, state, checkpoints, tmp_path):
        resilient, _ = make_resilient(
            checkpoints, tmp_path / state, probe_every=1000, unhealthy_at=0.5,
            health_window=2,
        )
        user = resilient.snapshot.user_ids()[0]
        if state == "unhealthy-not-probe-turn":
            working = resilient.service.query_batch
            resilient.service.query_batch = _scoring_down
            for _ in range(2):
                resilient.query(user)
            assert resilient.health.state == UNHEALTHY
            resilient.service.query_batch = working  # up again, but not asked
        elif state != "healthy":
            resilient.service.query_batch = _scoring_down
        if state == "every-tier-down":
            def no_prior(user_id, k):
                raise RuntimeError("no prior either")

            resilient.fallback_answer = no_prior
        return resilient, user

    @pytest.mark.parametrize("state", STATES)
    def test_single_and_batch_deliver_the_same(self, state, checkpoints, tmp_path):
        outcomes = {}
        for form in ("single", "batch"):
            (tmp_path / form / state).mkdir(parents=True)
            resilient, user = self.stack_in(state, checkpoints, tmp_path / form)
            before = resilient.tier_counts()
            if form == "single":
                try:
                    slot = resilient.query(user, k=5)
                except ShedError as error:
                    slot = error
            else:
                (slot,) = resilient.query_batch([QueryRequest(user, 5)])
            counted = {
                tier: n - before[tier]
                for tier, n in resilient.tier_counts().items() if n != before[tier]
            }
            outcomes[form] = (
                ("shed", str(slot)) if isinstance(slot, ShedError)
                else (slot.tier, slot.items.tolist(), slot.model_version),
                counted,
                resilient.health.state,
            )
        assert outcomes["single"] == outcomes["batch"]
        delivered, counted, _ = outcomes["single"]
        expected = {
            "healthy": "full", "scoring-down": "fallback",
            "unhealthy-not-probe-turn": "fallback", "every-tier-down": "shed",
        }[state]
        assert delivered[0] == expected and counted == {expected: 1}

    def test_only_the_rider_whose_tiers_fail_is_shed(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path, probe_every=1000)
        a, b, c = resilient.snapshot.user_ids()[:3]
        resilient.service.query_batch = _scoring_down
        prior = resilient.fallback_answer

        def prior_but_not_for_b(user_id, k):
            if user_id == b:
                raise RuntimeError("b's prior is gone")
            return prior(user_id, k)

        resilient.fallback_answer = prior_but_not_for_b
        slots = resilient.query_batch([QueryRequest(u, 5) for u in (a, b, c)])
        assert [getattr(slot, "tier", "shed") for slot in slots] == [
            "fallback", "shed", "fallback",
        ]
        assert isinstance(slots[1], ShedError) and str(b) in str(slots[1])
        assert (slots[0].user_id, slots[2].user_id) == (a, c)
        counts = resilient.tier_counts()
        assert (counts["fallback"], counts["shed"]) == (2, 1)


# ----------------------------------------------------------------------
# Guarded hot-swap
# ----------------------------------------------------------------------
class TestGuardedSwap:
    def test_corrupt_checkpoint_quarantined_as_corrupt(
        self, checkpoints, tmp_path
    ):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        bad = str(tmp_path / "bad.npz")
        with open(checkpoints["paths"]["v2"], "rb") as fh:
            blob = fh.read()
        with open(bad, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        served_before = resilient.checkpoint_path
        with pytest.raises(CheckpointMismatchError, match="torn or corrupt"):
            resilient.swap(bad)
        assert not os.path.exists(bad)
        assert os.path.exists(str(tmp_path / "bad.corrupt"))
        assert resilient.checkpoint_path == served_before
        assert resilient.stats()["resilience"]["swap"]["quarantined"] == 1

    def test_mismatched_arch_quarantined_and_old_model_serves(
        self, checkpoints, tmp_path
    ):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        mf = str(tmp_path / "mf.npz")
        shutil.copyfile(checkpoints["paths"]["mf"], mf)
        with pytest.raises(CheckpointMismatchError):
            resilient.swap(mf)
        assert os.path.exists(str(tmp_path / "mf.corrupt"))
        user = resilient.snapshot.user_ids()[0]
        assert resilient.query(user).model_version == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_quarantined_and_last_good_serves(
        self, checkpoints, tmp_path, case
    ):
        """Each malformed shape the serving door refuses is refused at
        swap time too, before cutover — the door covers everything a
        post-swap probe query could have caught: quarantined, one
        breaker failure, and the very same snapshot object serving."""
        resilient, _ = make_resilient(checkpoints, tmp_path)
        user = resilient.snapshot.user_ids()[0]
        before = resilient.query(user).items
        snapshot = resilient.snapshot
        bad = forge(
            checkpoints["paths"]["v2"], str(tmp_path / "bad.npz"),
            MALFORMED_CHECKPOINTS[case],
        )
        with pytest.raises(CheckpointMismatchError):
            resilient.swap(bad)
        assert not os.path.exists(bad)
        assert os.path.exists(str(tmp_path / "bad.corrupt"))
        assert resilient.stats()["resilience"]["swap"]["quarantined"] == 1
        assert resilient.breaker.stats()["consecutive_failures"] == 1
        assert resilient.snapshot is snapshot and resilient.model_version == 1
        answer = resilient.query(user)
        assert answer.model_version == 1 and np.array_equal(answer.items, before)

    def test_missing_file_retries_with_backoff_then_raises(
        self, checkpoints, tmp_path
    ):
        resilient, clock = make_resilient(
            checkpoints, tmp_path, swap_retries=2, swap_backoff_s=0.5
        )
        before = clock()
        with pytest.raises(FileNotFoundError):
            resilient.swap(str(tmp_path / "never.npz"))
        # Two retries slept (0.5 + 1.0) simulated seconds; no quarantine
        # file appeared for a merely-missing path.
        assert clock() - before == pytest.approx(1.5)
        assert resilient.stats()["resilience"]["swap"]["retries"] == 2
        assert not os.path.exists(str(tmp_path / "never.corrupt"))

    def test_swap_storm_opens_breaker_then_recovers(self, checkpoints, tmp_path):
        resilient, clock = make_resilient(
            checkpoints, tmp_path, breaker_failures=2, breaker_reset_s=30.0,
            swap_retries=0,
        )
        for i in range(2):
            bad = str(tmp_path / f"storm_{i}.npz")
            with open(bad, "wb") as fh:
                fh.write(b"not a checkpoint")
            with pytest.raises(CheckpointMismatchError):
                resilient.swap(bad)
        with pytest.raises(CircuitOpenError) as excinfo:
            resilient.swap(checkpoints["paths"]["v2"])
        assert excinfo.value.retry_after > 0
        assert resilient.stats()["resilience"]["swap"]["breaker_fast_fails"] == 1
        clock.advance(30.0)  # breaker half-opens on the manual clock
        v2 = str(tmp_path / "good_v2.npz")
        shutil.copyfile(checkpoints["paths"]["v2"], v2)
        assert resilient.swap(v2) == 2
        assert resilient.breaker.state == "closed"

    @pytest.mark.parametrize(
        "where", ["own_path", "previous_deleted", "served_path"]
    )
    def test_scoring_fault_after_cutover_keeps_the_candidate(
        self, checkpoints, tmp_path, where
    ):
        """A transient scoring fault right after cutover is the ladder's
        business, not the swap's: the pristine candidate the door
        accepted stays served — whether it has its own path, the file
        served before it is gone, or it landed on the served (watched)
        path itself."""
        resilient, _ = make_resilient(checkpoints, tmp_path, probe_every=1000)
        served = resilient.checkpoint_path
        candidate = str(tmp_path / "cand_v2.npz")
        if where == "previous_deleted":
            os.remove(served)
        elif where == "served_path":
            candidate = served
        shutil.copyfile(checkpoints["paths"]["v2"], candidate)

        inner = resilient.service
        working_query, working_swap = inner.query_batch, inner.swap
        faults = []

        def swap_then_fault(path):
            version = working_swap(path)
            faults.append("armed")
            return version

        def query_batch(requests):
            if faults == ["armed"]:
                faults.append("raised")
                raise RuntimeError("transient scoring fault")
            return working_query(requests)

        inner.swap, inner.query_batch = swap_then_fault, query_batch
        assert resilient.swap(candidate) == 2
        assert resilient.breaker.stats()["consecutive_failures"] == 0
        assert not list(tmp_path.glob("*.corrupt"))
        assert resilient.checkpoint_path == candidate

        user = resilient.snapshot.user_ids()[0]
        degraded = resilient.query(user, k=5)
        assert faults == ["armed", "raised"]
        assert (degraded.tier, degraded.model_version) == ("fallback", 2)
        expected = RecommendationService(checkpoints["paths"]["v2"]).query(user, k=5)
        answer = inner.query(user, k=5)  # the fault is spent: live scoring
        assert (answer.tier, answer.model_version) == ("full", 2)
        assert np.array_equal(answer.items, expected.items)
        assert np.array_equal(answer.scores, expected.scores)

    def test_watcher_swaps_new_valid_and_skips_corrupt(
        self, checkpoints, tmp_path
    ):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        watched = str(tmp_path / "incoming.npz")
        # Nothing there yet.
        assert resilient.watch_once(watched) is False
        shutil.copyfile(checkpoints["paths"]["v2"], watched)
        assert resilient.watch_once(watched) is True
        assert resilient.model_version == 2
        # Same mtime: no re-swap.
        assert resilient.watch_once(watched) is False
        # A corrupt landing is quarantined (renamed), so it never loops.
        with open(watched, "wb") as fh:
            fh.write(b"garbage")
        os.utime(watched, (2_000_000_000, 2_000_000_000))
        assert resilient.watch_once(watched) is False
        assert os.path.exists(str(tmp_path / "incoming.corrupt"))
        assert resilient.model_version == 2


# ----------------------------------------------------------------------
# Drain + healthz
# ----------------------------------------------------------------------
class TestDrainAndHealthz:
    def test_drain_sheds_and_healthz_reports(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        user = resilient.snapshot.user_ids()[0]
        assert resilient.healthz()["status"] == HEALTHY
        resilient.query(user)
        resilient.drain()
        assert resilient.healthz()["status"] == "draining"
        with pytest.raises(ShedError):
            resilient.query(user)

    def test_stats_carries_nested_resilience_block(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        resilient.query(resilient.snapshot.user_ids()[0])
        stats = resilient.stats()
        assert stats["queries"] == 1  # inner service counters intact
        block = stats["resilience"]
        assert block["health"]["state"] == HEALTHY
        assert block["admission"]["admitted"] == 1
        assert block["tiers"]["full"] == 1
        assert "evictions" in stats["cache"] and "stale_hits" in stats["cache"]


# ----------------------------------------------------------------------
# Lock discipline (PR 10 regression pins)
# ----------------------------------------------------------------------
class TestLockDiscipline:
    """Pins for the PR 10 lock fixes in the serving layer.

    ``watch_once`` used to bump ``_swap_stats.watcher_swaps`` outside
    ``_swap_lock`` while ``swap`` mutates the same stats
    under it — a lost-update race under a real watcher thread.  The
    counter behaviour is pinned functionally here, and the structural
    fix (every ``_swap_stats`` write under the lock) is pinned by the
    ``lock-discipline`` lint rule over the real sources: reverting the
    fix turns these red without needing to win a race in CI.
    """

    def test_watcher_swap_counts_into_swap_stats(self, checkpoints, tmp_path):
        resilient, _ = make_resilient(checkpoints, tmp_path)
        watched = str(tmp_path / "counted.npz")
        shutil.copyfile(checkpoints["paths"]["v2"], watched)
        assert resilient.watch_once(watched) is True
        swap_block = resilient.stats()["resilience"]["swap"]
        assert swap_block["watcher_swaps"] == 1
        assert swap_block["succeeded"] == 1

    def test_serving_sources_pass_lock_discipline_rule(self):
        from pathlib import Path

        from repro.analysis import lint_file

        serving_dir = Path(__file__).resolve().parent.parent / "src/repro/serving"
        for path in sorted(serving_dir.glob("*.py")):
            findings, _ = lint_file(str(path), rules=["lock-discipline"])
            assert findings == [], "\n".join(f.render() for f in findings)
