"""Benchmark: Table V — DDR prevents dimensional collapse.

Shape target (paper): on every dataset the singular-value variance of
cov(V_l) drops when DDR is enabled (reusing the Table IV runs).
"""

from repro.experiments.run_all import render


def test_table5_singular_value_variance():
    results = render("table5_collapse", "bench")

    for arch, per_dataset in results.items():
        for dataset, variants in per_dataset.items():
            assert variants["+ DDR"] < variants["- DDR"], (arch, dataset)
            # The reduction is substantial, not marginal (paper: 3–10×).
            assert variants["+ DDR"] < 0.7 * variants["- DDR"], (arch, dataset)
