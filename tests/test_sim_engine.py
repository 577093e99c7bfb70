"""Unit tests for the discrete-event core (queue + behaviour models)."""

import numpy as np
import pytest

from repro.sim.config import (
    ArrivalModelConfig,
    DropoutModelConfig,
    LatencyModelConfig,
    SimulationConfig,
)
from repro.sim.engine import (
    DEADLINE,
    DISPATCH,
    UPLOAD,
    ArrivalModel,
    DropoutModel,
    EventQueue,
    LatencyModel,
    SimStreams,
    build_models,
    spawn_streams,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, UPLOAD)
        queue.push(1.0, DISPATCH)
        queue.push(2.0, DEADLINE)
        assert [queue.pop().kind for _ in range(3)] == [DISPATCH, DEADLINE, UPLOAD]

    def test_ties_break_in_push_order(self):
        queue = EventQueue()
        for i in range(10):
            queue.push(1.0, UPLOAD, index=i)
        assert [queue.pop().payload["index"] for _ in range(10)] == list(range(10))

    def test_rejects_non_finite_times(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(float("inf"), UPLOAD)
        with pytest.raises(ValueError):
            queue.push(float("nan"), UPLOAD)

    def test_counts_processed(self):
        queue = EventQueue()
        queue.push(1.0, UPLOAD)
        queue.push(2.0, UPLOAD)
        queue.pop()
        assert queue.events_processed == 1
        assert len(queue) == 1
        assert bool(queue)


class TestStreams:
    def test_spawned_streams_are_independent(self):
        streams = spawn_streams(0, ["a", "b"])
        a = streams["a"].random(100)
        b = streams["b"].random(100)
        assert not np.allclose(a, b)

    def test_same_seed_same_streams(self):
        one, two = SimStreams(7), SimStreams(7)
        assert np.allclose(one.latency.random(50), two.latency.random(50))


class TestLatencyModel:
    def _model(self, **kwargs):
        return LatencyModel(
            LatencyModelConfig(**kwargs), np.random.default_rng(0)
        )

    def test_zero_and_fixed(self):
        assert self._model(kind="zero").sample() == 0.0
        assert self._model(kind="fixed", scale=2.5).sample() == 2.5

    def test_lognormal_positive(self):
        model = self._model(kind="lognormal", scale=0.5, sigma=1.0)
        draws = [model.sample() for _ in range(200)]
        assert all(d > 0 for d in draws)

    def test_pareto_heavy_tail_respects_minimum(self):
        model = self._model(kind="pareto", scale=0.2, alpha=1.5)
        draws = np.array([model.sample() for _ in range(2000)])
        assert draws.min() >= 0.2
        # Heavy tail: the max dwarfs the median.
        assert draws.max() > 10 * np.median(draws)


class TestDropoutModel:
    def test_none_never_drops(self):
        model = DropoutModel(DropoutModelConfig(kind="none"), np.random.default_rng(0))
        assert all(model.check_available(u) for u in range(50))
        assert not any(model.upload_drops() for _ in range(50))

    def test_bernoulli_rate(self):
        model = DropoutModel(
            DropoutModelConfig(kind="bernoulli", rate=0.3), np.random.default_rng(0)
        )
        drops = sum(model.upload_drops() for _ in range(5000)) / 5000
        assert abs(drops - 0.3) < 0.03

    def test_markov_chain_flaps(self):
        model = DropoutModel(
            DropoutModelConfig(kind="markov", p_fail=0.4, p_recover=0.4),
            np.random.default_rng(0),
        )
        trace = [model.check_available(7) for _ in range(200)]
        assert any(trace) and not all(trace)  # goes down AND comes back

    def test_markov_chains_are_per_client(self):
        model = DropoutModel(
            DropoutModelConfig(kind="markov", p_fail=0.5, p_recover=0.5),
            np.random.default_rng(0),
        )
        for user in range(20):
            model.check_available(user)
        assert len(model._available) == 20


class TestArrivalModel:
    def _model(self, seed=0, **kwargs):
        return ArrivalModel(
            ArrivalModelConfig(**kwargs), np.random.default_rng(seed)
        )

    def test_rounds_keeps_cohorts_as_blocks(self):
        model = self._model(kind="rounds")
        schedule = model.schedule(5.0, [[1, 2, 3], [4, 5], []])
        assert schedule == [(5.0, [1, 2, 3]), (6.0, [4, 5])]

    def test_diurnal_times_within_period_and_ordered(self):
        model = self._model(kind="diurnal", period=24.0, amplitude=0.8)
        schedule = model.schedule(100.0, [list(range(50))])
        times = np.array([t for t, _ in schedule])
        assert np.all(times >= 100.0) and np.all(times <= 124.0)
        assert np.all(np.diff(times) >= 0)

    def test_diurnal_intensity_follows_the_sinusoid(self):
        model = self._model(kind="diurnal", period=24.0, amplitude=0.9)
        schedule = model.schedule(0.0, [list(range(4000))])
        offsets = np.array([t for t, _ in schedule]) % 24.0
        peak = ((offsets > 2.0) & (offsets < 10.0)).sum()    # around sin max (t=6)
        trough = ((offsets > 14.0) & (offsets < 22.0)).sum() # around sin min (t=18)
        assert peak > 2 * trough

    def test_empty_queue(self):
        assert self._model(kind="diurnal").schedule(0.0, [[]]) == []


def test_build_models_wires_owned_streams():
    config = SimulationConfig(
        latency=LatencyModelConfig(kind="lognormal"),
        dropout=DropoutModelConfig(kind="bernoulli", rate=0.5),
    )
    streams, arrival, latency, dropout = build_models(config)
    assert latency._rng is streams.latency
    assert dropout._rng is streams.dropout
    assert arrival._rng is streams.arrival
    # An explicitly shared stream set is honoured (scenario runner path).
    reused, *_ = build_models(config, streams)
    assert reused is streams
