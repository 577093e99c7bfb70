"""Scenario catalogue: determinism contract and per-fault accounting."""

import pytest

from repro.sim.config import ScenarioResult, SimulationConfig
from repro.sim.scenarios import SCENARIOS, build_scenario, run_scenario


def small_base(**overrides) -> SimulationConfig:
    settings = dict(
        num_clients=400, num_items=200, dim=8, items_per_client=8,
        clients_per_round=32, epochs=1, seed=0,
    )
    settings.update(overrides)
    return SimulationConfig(**settings)


class TestCatalogue:
    def test_expected_scenarios_registered(self):
        assert set(SCENARIOS) == {
            "baseline", "dropout_storm", "straggler_flood",
            "duplicate_uploads", "flapping", "poisoning",
            "secure_dropout",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("nope")

    def test_overrides_flow_through(self):
        spec = build_scenario("baseline", small_base(), seed=9)
        assert spec.config.seed == 9
        assert spec.config.num_clients == 400


class TestDeterminismContract:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_bitwise_identical_result(self, name):
        """The tentpole contract: same config + same seed ⇒ the entire
        ScenarioResult — every counter, every wire byte, the parameter
        digest — is identical."""
        one = run_scenario(name, small_base())
        two = run_scenario(name, small_base())
        assert one.fingerprint() == two.fingerprint()

    def test_seed_changes_the_run(self):
        one = run_scenario("baseline", small_base(seed=0))
        two = run_scenario("baseline", small_base(seed=1))
        assert one.param_digest != two.param_digest

    def test_store_dir_is_immaterial(self, tmp_path, capsys):
        """Two CLI runs given the same ``--store-dir`` print the same
        fingerprint: nothing one run leaves behind reaches the next."""
        from repro.cli import main

        argv = [
            "simulate", "baseline", "--clients", "400", "--items", "200",
            "--epochs", "1", "--json", "--store-dir", str(tmp_path / "d"),
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestBaselineExactAccounting:
    def test_no_fault_counters_all_zero(self):
        result = run_scenario("baseline", small_base())
        assert result.clients_simulated == 400
        assert result.clients_unavailable == 0
        assert result.dropped_updates == 0
        assert result.duplicates_merged == 0
        assert result.poisoned_updates == 0
        assert result.network.messages_dropped == 0
        assert result.network.retries == 0
        assert result.network.bytes_wasted == 0.0
        # 400 clients / 32 per round: 12 full rounds + 1 short flush.
        assert result.rounds_applied == 13
        assert result.short_rounds == 1
        assert result.updates_aggregated == 400
        # Every client: one download (dense table) + one upload
        # (sparse rows: <= items_per_client rows of (1 + dim) scalars).
        assert result.network.bytes_down == 400 * 200 * 8
        assert result.network.bytes_up <= 400 * 8 * (1 + 8)
        assert result.network.messages_delivered == 800


class TestFaultFamilies:
    """At least three fault families, each with exact conservation laws."""

    def test_dropout_storm_conserves_updates(self):
        result = run_scenario("dropout_storm", small_base())
        assert result.dropped_updates > 0
        assert result.network.bytes_wasted > 0
        assert result.network.retries > 0
        # Every trained update either aggregated or dropped — none lost.
        assert (
            result.updates_aggregated + result.dropped_updates
            == result.clients_simulated
        )

    def test_straggler_flood_closes_short_rounds(self):
        spec = build_scenario("straggler_flood", small_base())
        result = run_scenario(spec)
        assert result.short_rounds > 0
        assert result.network.latency_max > spec.config.round_deadline
        # Deadline-applied rounds + quorum rounds all land; stragglers
        # beyond max age (or retry exhaustion) are the only losses.
        assert (
            result.updates_aggregated + result.dropped_updates
            == result.clients_simulated
        )

    def test_duplicate_uploads_merge_and_account(self):
        result = run_scenario("duplicate_uploads", small_base())
        assert result.network.duplicates_delivered > 0
        assert result.duplicates_merged > 0
        assert result.duplicates_merged <= result.network.duplicates_delivered
        # Buffered deliveries = aggregated + merged away.
        deliveries = result.clients_simulated + result.network.duplicates_delivered
        assert result.updates_aggregated + result.duplicates_merged == deliveries

    def test_flapping_gates_dispatch(self):
        result = run_scenario("flapping", small_base())
        assert result.clients_unavailable > 0
        assert (
            result.clients_simulated + result.clients_unavailable
            == small_base().num_clients
        )

    def test_secure_dropout_faults_every_phase(self):
        result = run_scenario("secure_dropout", small_base())
        assert result.secure_rounds_applied > 0
        # The storm rounds (period 5, co-prime with the 4-phase target
        # cycle) must force the below-threshold abort path.
        assert result.secure_rounds_aborted > 0
        for phase in ("advertise", "shares", "masked_input", "unmask"):
            assert result.secure_dropouts_injected[phase] > 0, phase
            assert result.secure_phase_wire[phase] > 0, phase
        # Every applied round passed the adapter's conservation check
        # (a violation raises); the residual is pure quantisation.
        assert 0 <= result.secure_max_sum_error < 1e-5

    def test_poisoning_at_scale_counts_poisoned_updates(self):
        result = run_scenario("poisoning", small_base())
        # fraction 0.1 of 400 clients, every one of them trained once.
        assert result.poisoned_updates == 40
        assert result.updates_aggregated == 400
        # Sign-flipped amplified updates must change the global table.
        clean = run_scenario("baseline", small_base())
        assert result.param_digest != clean.param_digest


class TestResultShape:
    def test_fingerprint_excludes_wall_clock(self):
        result = run_scenario("baseline", small_base())
        assert "wall_seconds" not in result.fingerprint()
        assert isinstance(result, ScenarioResult)

    def test_summary_lines_render(self):
        result = run_scenario("baseline", small_base())
        text = "\n".join(result.summary_lines())
        assert "baseline" in text
        assert "clients simulated" in text


@pytest.mark.slow
class TestPopulationScale:
    def test_hundred_thousand_clients_under_memory_budget(self):
        """The acceptance-scale run: 10⁵ clients through a full scenario;
        the fleet's whole user state is one 10⁵ × 8 float32 table."""
        from repro.sim.async_server import AsyncFedServer
        from repro.sim.engine import SimStreams
        from repro.sim.population import SurrogateFleet

        config = SimulationConfig(
            num_clients=100_000, num_items=500, dim=8, items_per_client=16,
            clients_per_round=512, epochs=1, seed=0,
        )
        streams = SimStreams(config.seed)
        fleet = SurrogateFleet(config, streams.population)
        result = AsyncFedServer(fleet, config, name="pop", streams=streams).run()
        assert result.clients_simulated == 100_000
        assert fleet.users.values.nbytes == 100_000 * 8 * 4
