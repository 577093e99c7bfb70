"""Benchmark: Fig. 6 — per-client-group NDCG breakdown.

Shape targets: the heterogeneous assignment does not sacrifice any single
client group relative to the homogeneous baselines (within a tolerance —
the U_l group of the smallest dataset has only ~15 users at bench scale,
so its group means are noisy), and HeteFedRec's data-poor majority (U_s)
is served at least as well as All Large would serve it.
"""

from repro.experiments.run_all import render


def test_fig6_per_group_ndcg():
    results = render("fig6_groups", "bench")

    for arch, per_dataset in results.items():
        for dataset, per_method in per_dataset.items():
            hete = per_method["hetefedrec"].group_ndcg
            small = per_method["all_small"].group_ndcg
            large = per_method["all_large"].group_ndcg
            # Every group gets a working recommender under every method.
            for method, run in per_method.items():
                for group in ("s", "m", "l"):
                    assert run.group_ndcg[group] > 0, (arch, dataset, method, group)
            # No group collapses under heterogeneity: each HeteFedRec
            # group stays within tolerance of the weaker homogeneous
            # baseline for that group.
            for group in ("s", "m", "l"):
                floor = min(small[group], large[group])
                assert hete[group] >= 0.5 * floor, (arch, dataset, group)
            # The paper's motivating group: data-poor clients (half the
            # population) are served better by right-sized models than by
            # an oversized shared model.
            assert hete["s"] >= 0.9 * large["s"], (arch, dataset)
