"""Benchmark: round wall-clock under a bandwidth-constrained device fleet.

Analytic artefact (no training): the systems restatement of Table III.
Shape targets: All Small has the cheapest rounds, All Large the most
expensive, and HeteFedRec sits in between — substantially cheaper than
All Large because only the data-rich minority moves large tables.
"""

from repro.experiments.run_all import render


def test_ablation_systems_round_times():
    results = render("ablation_systems", "bench")

    small = results["all_small"]["median"]
    large = results["all_large"]["median"]
    hete = results["hetefedrec"]["median"]
    assert small < hete < large
    # The headline factor: heterogeneous sizing cuts All Large's round
    # cost substantially (payloads shrink ~4× for half the population).
    assert hete < 0.7 * large
    for summary in results.values():
        assert summary["p95"] >= summary["median"] > 0
