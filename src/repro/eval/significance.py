"""Statistical significance for method comparisons.

The paper reports point estimates; a reproduction at reduced scale needs
to know when a gap is real.  This module provides the standard paired
tests over per-user metric arrays (both methods evaluated on the same
users):

* :func:`paired_bootstrap` — probability that method A beats method B
  under resampling of users, plus the bootstrap CI of the mean gap;
* :func:`sign_test_pvalue` — a distribution-free sanity check on the
  per-user win/loss counts.

Used by the analysis notebooks/examples; the benchmark assertions stay
deterministic (fixed seeds) by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

#: Bootstrap resamples of the users, and the two-sided CI level.
NUM_SAMPLES = 2000
CONFIDENCE = 0.95


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a paired bootstrap comparison (A minus B)."""

    mean_difference: float
    ci_low: float
    ci_high: float
    win_probability: float
    num_users: int

    @property
    def significant(self) -> bool:
        """True when the ``CONFIDENCE`` (95%) CI of the gap excludes zero."""
        return self.ci_low > 0.0 or self.ci_high < 0.0


def paired_bootstrap(
    metric_a: np.ndarray, metric_b: np.ndarray, seed: int = 0
) -> BootstrapResult:
    """Paired bootstrap over users for the mean metric difference A − B.

    Both arrays must be aligned per user (same evaluation order).
    """
    metric_a = np.asarray(metric_a, dtype=np.float64)
    metric_b = np.asarray(metric_b, dtype=np.float64)
    if metric_a.shape != metric_b.shape:
        raise ValueError("paired comparison requires aligned per-user arrays")
    if metric_a.size == 0:
        raise ValueError("cannot compare empty metric arrays")

    differences = metric_a - metric_b
    rng = np.random.default_rng(seed)
    n = differences.size
    indices = rng.integers(0, n, size=(NUM_SAMPLES, n))
    sampled_means = differences[indices].mean(axis=1)

    alpha = (1.0 - CONFIDENCE) / 2.0
    return BootstrapResult(
        mean_difference=float(differences.mean()),
        ci_low=float(np.quantile(sampled_means, alpha)),
        ci_high=float(np.quantile(sampled_means, 1.0 - alpha)),
        win_probability=float((sampled_means > 0).mean()),
        num_users=n,
    )


def sign_test_pvalue(metric_a: np.ndarray, metric_b: np.ndarray) -> float:
    """Two-sided exact sign test on per-user wins (ties dropped).

    Under H0 (no difference) wins are Binomial(n, 1/2); returns the
    two-sided tail probability of the observed win count.
    """
    metric_a = np.asarray(metric_a, dtype=np.float64)
    metric_b = np.asarray(metric_b, dtype=np.float64)
    if metric_a.shape != metric_b.shape:
        raise ValueError("paired comparison requires aligned per-user arrays")
    wins = int((metric_a > metric_b).sum())
    losses = int((metric_a < metric_b).sum())
    n = wins + losses
    if n == 0:
        return 1.0
    k = max(wins, losses)
    # P(X >= k) for X ~ Binomial(n, 1/2), doubled (two-sided), capped at 1.
    tail = sum(comb(n, i) for i in range(k, n + 1)) / 2.0**n
    return float(min(1.0, 2.0 * tail))
