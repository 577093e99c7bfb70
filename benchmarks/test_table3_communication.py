"""Benchmark: Table III — one-time communication cost per client type.

Analytic (no training).  Shape targets (paper): HeteFedRec costs exactly
All Small for U_s clients, and its only overhead over a homogeneous
deployment of the same width is the extra smaller heads — negligible
next to the item table.
"""

from repro.experiments.run_all import render


def test_table3_transmission_costs():
    costs = render("table3_communication", "bench")

    # U_s clients pay exactly the All Small price.
    assert costs["s"]["hetefedrec"] == costs["s"]["all_small"]
    # Every client type pays no more than All Large plus the small heads.
    assert costs["l"]["hetefedrec"] <= costs["l"]["all_large"] * 1.05
    # Monotone in client group (larger clients move more).
    assert costs["s"]["hetefedrec"] < costs["m"]["hetefedrec"] < costs["l"]["hetefedrec"]
    # Homogeneous columns are constant across client types.
    assert len({costs[g]["all_small"] for g in costs}) == 1
    assert len({costs[g]["all_large"] for g in costs}) == 1
