"""Benchmark: upload compression vs communication volume and accuracy.

Extension bench (no paper counterpart): quantisation should be nearly
free, top-k should trade accuracy for volume, and every codec must
actually reduce the measured upload volume.
"""

import numpy as np

from repro.experiments.run_all import render


def test_ablation_compression():
    results = render("ablation_compression", "bench")

    dense = results["dense"]
    assert np.isfinite(dense.ndcg)

    for label, result in results.items():
        if label == "dense":
            continue
        # Every codec moves fewer scalars than dense uploads.
        assert result.communication_total < dense.communication_total, label

    # 8-bit quantisation is the "nearly free" codec: within 25% of dense.
    assert results["quantize 8-bit"].ndcg >= 0.75 * dense.ndcg
    # Error feedback should not hurt aggressive top-k.
    assert (
        results["topk 10% + EF"].ndcg
        >= 0.8 * results["topk 10%, no EF"].ndcg
    )
