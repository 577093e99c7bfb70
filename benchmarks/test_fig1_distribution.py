"""Benchmark: Fig. 1 — per-user interaction-count distributions."""

from repro.experiments.run_all import render


def test_fig1_interaction_distribution():
    results = render("fig1_distribution", "bench")

    for name, result in results.items():
        # The paper's motivating observation: most users sit below the
        # mean interaction count (heavy right tail).
        assert result["tail_heaviness"] > 0.5, name
        # Substantial dispersion: std is a sizeable fraction of the mean.
        assert result["std"] / result["avg"] > 0.4, name
