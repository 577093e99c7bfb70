"""Benchmark: Fig. 8 — sensitivity to the decorrelation weight α.

Shape target (paper): performance has an interior optimum in α — too
little regularisation permits collapse, too much drowns the
recommendation loss.
"""

from repro.experiments.fig8 import has_interior_peak
from repro.experiments.run_all import render


def test_fig8_alpha_sensitivity():
    results = render("fig8_alpha", "bench")

    for arch, per_alpha in results.items():
        values = [run.ndcg for run in per_alpha.values()]
        best = max(values)
        # The robust half of the paper's shape at any horizon: too much
        # regularisation drowns the recommendation loss — the largest α
        # is never the optimum.
        assert values[-1] < best, arch
        assert values[-1] <= 0.99 * best, arch
        # The other half — small α permitting collapse — needs long
        # training horizons to manifest (collapse accumulates over
        # epochs); report rather than assert at bench scale.
        if has_interior_peak(per_alpha):
            print(f"\n{arch}: interior optimum reproduced (paper shape)")
        else:
            print(
                f"\n{arch}: no interior peak at bench horizon "
                "(DDR's upside needs longer runs)"
            )
