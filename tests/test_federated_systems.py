"""Tests for the wall-clock systems model."""

import numpy as np
import pytest

from repro.federated.communication import transmission_cost
from repro.federated import systems
from repro.federated.systems import (
    Device,
    SystemProfile,
    client_round_time,
    payload_for,
    round_time_summary,
    simulate_round_times,
    time_to_accuracy,
)

DIMS = {"s": 8, "m": 16, "l": 32}


class TestSystemProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemProfile(median_bandwidth=0)
        with pytest.raises(ValueError):
            SystemProfile(bandwidth_sigma=-1)

    def test_devices_deterministic_per_user(self):
        profile = SystemProfile(seed=3)
        a = profile.sample_devices([1, 2, 3])
        b = profile.sample_devices([1, 2, 3])
        for user in (1, 2, 3):
            assert a[user].bandwidth == b[user].bandwidth
            assert a[user].compute == b[user].compute

    def test_homogeneous_fleet_at_zero_sigma(self):
        profile = SystemProfile(bandwidth_sigma=0.0)
        devices = profile.sample_devices(range(10))
        bandwidths = {d.bandwidth for d in devices.values()}
        assert len(bandwidths) == 1

    def test_heavy_tail_at_high_sigma(self):
        profile = SystemProfile(bandwidth_sigma=1.5, seed=0)
        devices = profile.sample_devices(range(500))
        bandwidths = np.array([d.bandwidth for d in devices.values()])
        assert bandwidths.max() / bandwidths.min() > 50


class TestClientRoundTime:
    def test_components_add(self):
        device = Device(bandwidth=1000.0, compute=10.0)
        # 100 scalars → 800 bytes both ways → 0.8 s; 20 examples / 10 per s → 2 s.
        seconds = client_round_time(device, payload_scalars=100, train_examples=20)
        assert seconds == pytest.approx(0.8 + 2.0)

    def test_local_epochs_multiply_training(self):
        device = Device(bandwidth=1e9, compute=10.0)
        one = client_round_time(device, 0, 10, local_epochs=1)
        four = client_round_time(device, 0, 10, local_epochs=4)
        assert four == pytest.approx(4 * one)


class TestPayloadFor:
    def test_matches_table3(self):
        for method in ("all_small", "all_large", "hetefedrec"):
            for group in ("s", "m", "l"):
                assert payload_for(method, group, 100, DIMS) == transmission_cost(
                    method, group, 100, DIMS
                )

    def test_hetefedrec_small_client_moves_least(self):
        small = payload_for("hetefedrec", "s", 1000, DIMS)
        large_method = payload_for("all_large", "s", 1000, DIMS)
        assert small < large_method


class TestSimulateRoundTimes:
    def _world(self, n_users=60):
        group_of = {u: ("s" if u % 2 else "l") for u in range(n_users)}
        train_sizes = {u: 20 for u in range(n_users)}
        return group_of, train_sizes

    def test_output_shape_and_positivity(self):
        group_of, sizes = self._world()
        times = simulate_round_times(
            "hetefedrec", group_of, sizes, num_items=500, dims=DIMS,
            profile=SystemProfile(seed=0), clients_per_round=16, num_rounds=10,
        )
        assert times.shape == (10,)
        assert np.all(times > 0)

    def test_hetefedrec_rounds_faster_than_all_large(self):
        """The systems claim: heterogeneous sizing cuts the straggler tail."""
        group_of, sizes = self._world()
        kwargs = dict(
            group_of=group_of, train_sizes=sizes, num_items=2000, dims=DIMS,
            profile=SystemProfile(seed=1, bandwidth_sigma=1.0),
            clients_per_round=16, num_rounds=30,
        )
        hete = simulate_round_times("hetefedrec", **kwargs)
        large = simulate_round_times("all_large", **kwargs)
        assert hete.mean() < large.mean()

    def test_deterministic(self):
        group_of, sizes = self._world(20)
        kwargs = dict(
            group_of=group_of, train_sizes=sizes, num_items=100, dims=DIMS,
            profile=SystemProfile(seed=2), clients_per_round=8, num_rounds=5,
        )
        assert np.array_equal(
            simulate_round_times("hetefedrec", **kwargs),
            simulate_round_times("hetefedrec", **kwargs),
        )


class TestTimeToAccuracy:
    def test_maps_epochs_to_cumulative_seconds(self):
        times = np.array([10.0, 20.0, 30.0])
        curve = time_to_accuracy([(1, 0.1), (2, 0.2), (3, 0.3)], times)
        assert curve == [(10.0, 0.1), (30.0, 0.2), (60.0, 0.3)]

    def test_cycles_when_horizon_exceeds_samples(self):
        times = np.array([10.0, 20.0])
        curve = time_to_accuracy([(3, 0.5)], times)
        assert curve == [(40.0, 0.5)]  # 10+20 then 10 again

    def test_rounds_per_epoch(self, monkeypatch):
        monkeypatch.setattr(systems, "ROUNDS_PER_EPOCH", 3)
        times = np.array([5.0] * 10)
        curve = time_to_accuracy([(2, 0.4)], times)
        assert curve == [(30.0, 0.4)]

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            time_to_accuracy([(1, 0.1)], np.array([]))


class TestSummary:
    def test_statistics(self):
        times = np.array([1.0, 2.0, 3.0, 100.0])
        summary = round_time_summary(times)
        assert summary["median"] == pytest.approx(2.5)
        assert summary["p95"] > summary["median"]

    def test_empty(self):
        assert round_time_summary(np.array([])) == {
            "mean": 0.0, "median": 0.0, "p95": 0.0,
        }
