"""Benchmark: poisoning quadrants — damage and recovery.

Extension bench reproducing the FedRec attack literature's protocol
against HeteFedRec: a sign-flip poisoning minority must hurt an
undefended run, and median-of-norms clipping must recover most of the
loss while costing (almost) nothing when clean.
"""

import numpy as np

from repro.experiments.run_all import render


def test_ablation_robustness_quadrants():
    results = render("ablation_robustness", "bench")

    clean_u = results["clean / undefended"].ndcg
    clean_d = results["clean / defended"].ndcg
    attacked_u = results["attacked / undefended"].ndcg
    attacked_d = results["attacked / defended"].ndcg
    assert all(np.isfinite(v) for v in (clean_u, clean_d, attacked_u, attacked_d))

    # The attack does real damage without a defence...
    assert attacked_u < 0.7 * clean_u
    # ...the defence recovers a substantial part of it...
    assert attacked_d > 1.5 * attacked_u
    # ...and costs little when there is no attack.
    assert clean_d > 0.7 * clean_u
