"""Benchmark: Table I — dataset statistics of the three benchmarks."""

from repro.data.synthetic import DATASET_SPECS
from repro.experiments.run_all import render


def test_table1_dataset_statistics():
    stats = render("table1_datasets", "bench")

    # Shape checks against the paper's Table I.
    assert set(stats) == {"ml", "anime", "douban"}
    for name, stat in stats.items():
        spec = DATASET_SPECS[name]
        # The <50% percentile sits below the mean on every dataset
        # (long-tailed activity), as in the paper.
        assert stat.q50 < stat.avg
        # Relative user-count ordering across datasets is preserved.
    users = {name: stats[name].users for name in stats}
    assert users["anime"] > users["ml"] > users["douban"]
