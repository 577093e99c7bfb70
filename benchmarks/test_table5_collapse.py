"""Benchmark: Table V — DDR prevents dimensional collapse.

Shape target (paper): on every dataset the singular-value variance of
cov(V_l) drops when DDR is enabled (reusing the Table IV runs).
"""

from repro.experiments.run_all import render
from repro.experiments.table5 import collapse_variance


def test_table5_singular_value_variance():
    results = render("table5_collapse", "bench")

    for arch, per_dataset in results.items():
        for dataset, runs in per_dataset.items():
            with_ddr = collapse_variance(runs["+ DDR"])
            without_ddr = collapse_variance(runs["- DDR"])
            assert with_ddr < without_ddr, (arch, dataset)
            # The reduction is substantial, not marginal (paper: 3–10×).
            assert with_ddr < 0.7 * without_ddr, (arch, dataset)
