"""Synthetic analogues of the paper's three benchmark datasets.

The paper's motivation (Fig. 1, Table I) rests on one structural property:
per-user interaction counts are heavy-tailed — most users have far fewer
interactions than the mean, a few have many more.  The generators here
reproduce, per dataset, the *shape* of that distribution (mean, std/mean
ratio, and the <50% / <80% quantile positions from Table I) at a
configurable scale, and plant a learnable low-rank preference structure so
that recommendation quality differences between methods are meaningful.

Generative model
----------------
1. Draw user latent vectors ``p_u`` and item latent vectors ``q_i`` from a
   Gaussian with ``LATENT_DIM`` factors; draw item popularity biases from a
   Zipf-like power law (real catalogues are popularity-skewed).
2. Draw per-user interaction counts from a lognormal fitted to the target
   mean and coefficient of variation, clipped to ``[MIN_INTERACTIONS,
   max fraction of catalogue]``.
3. Link *preference complexity* to activity: a user at activity percentile
   ``p`` expresses only the first ``MIN_FACTORS + p·(k - MIN_FACTORS)``
   latent factors.  Casual users follow a few broad tastes; heavy users
   have multi-faceted preferences.  This is what makes a *small* model
   sufficient for data-poor clients and a *large* model necessary for
   data-rich ones — the premise of the paper's Fig. 6 / Table VII.
4. Link *interaction noise* to activity: a fraction of each user's
   interactions (``MAX_NOISE`` for the least active, falling linearly to
   ``MIN_NOISE`` for the most active) is drawn from the popularity prior
   instead of the user's own preference distribution — casual users
   browse charts.  Big embedding tables memorise this noise where small
   ones underfit it, producing the paper's All-Small > All-Large ordering
   and the harm data-poor clients inflict on a shared large model.
5. For each user, sample the signal portion with probability
   ``softmax(p_u · q_i / sqrt(k) * AFFINITY_SCALE + popularity_i)`` and
   the noise portion from the popularity prior.

Steps 3–4 are the calibration that lets a scaled-down synthetic dataset
exhibit the paper's *mechanisms*, not just its marginal statistics.  The
generative constants (``LATENT_DIM`` … ``MIN_NOISE``) are fixed module
constants; :class:`SyntheticConfig` sets only the size and the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.data.dataset import InteractionDataset


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of one benchmark dataset (from paper Table I).

    ``avg``, ``q50`` and ``q80`` are stored as *fractions of avg* so the
    spec survives rescaling: e.g. MovieLens has avg=165, <50%=77, <80%=203,
    hence ``q50_ratio≈0.47``, ``q80_ratio≈1.23``; std 154.2 → ``cv≈0.93``.
    """

    name: str
    paper_users: int
    paper_items: int
    paper_interactions: int
    paper_avg: float
    paper_q50: float
    paper_q80: float
    cv: float  # coefficient of variation (std / mean) of interaction counts

    @property
    def q50_ratio(self) -> float:
        return self.paper_q50 / self.paper_avg

    @property
    def q80_ratio(self) -> float:
        return self.paper_q80 / self.paper_avg


#: Table I of the paper, plus the std values quoted in the introduction.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "ml": DatasetSpec(
        name="ml",
        paper_users=6040,
        paper_items=3706,
        paper_interactions=1_000_209,
        paper_avg=165.0,
        paper_q50=77.0,
        paper_q80=203.0,
        cv=154.2 / 132.8,
    ),
    "anime": DatasetSpec(
        name="anime",
        paper_users=10_482,
        paper_items=6888,
        paper_interactions=1_265_530,
        paper_avg=120.0,
        paper_q50=69.0,
        paper_q80=150.0,
        cv=79.8 / 96.1,
    ),
    "douban": DatasetSpec(
        name="douban",
        paper_users=1833,
        paper_items=7397,
        paper_interactions=330_268,
        paper_avg=180.0,
        paper_q50=115.0,
        paper_q80=244.0,
        cv=105.2 / 143.7,
    ),
}


@dataclass
class SyntheticConfig:
    """Controls the size and difficulty of a generated dataset.

    ``scale`` shrinks the paper's user/item universe (1.0 = paper scale;
    the default benchmark scale keeps runs laptop-fast on the pure-numpy
    substrate).  ``avg_interactions`` overrides the per-user mean count.
    """

    scale: float = 0.08
    # Items shrink less than users: the paper's catalogues are ~25× the
    # average interaction count (a client touches ~5% of items per round).
    # Shrinking items as fast as users would let every client cover the
    # whole catalogue each round, erasing the sparsity structure that
    # federated aggregation dynamics depend on.
    item_scale: float = 0.15
    avg_interactions: float = 32.0
    seed: int = 0


# Calibration: the latent dimensionality must exceed the small model width
# (8) so that All Small is capacity-limited, while the *per-user expressed*
# complexity stays below each user's interaction count so preferences
# remain statistically identifiable.
LATENT_DIM = 24
AFFINITY_SCALE = 4.0
POPULARITY_EXPONENT = 1.0
MIN_INTERACTIONS = 6
# Activity-linked preference complexity (generative step 3).
MIN_FACTORS = 4
# Activity-linked interaction noise (generative step 4).
MAX_NOISE = 0.55
MIN_NOISE = 0.10


def _universe_sizes(spec: DatasetSpec, config: SyntheticConfig) -> tuple:
    """(num_users, num_items) the generator produces for ``spec``/``config``."""
    num_users = max(int(round(spec.paper_users * config.scale)), 20)
    num_items = max(int(round(spec.paper_items * config.item_scale)), 40)
    return num_users, num_items


def catalogue_size(name: str, config: Optional[SyntheticConfig] = None) -> int:
    """Catalogue size |V| of a benchmark dataset — without generating it.

    Analytic consumers (Table III's transmission-cost formulas) need only
    the item-universe size, which is a pure function of the spec and the
    scaling config; generating the interactions for it would be waste.
    """
    key = name.lower()
    if key not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASET_SPECS)}")
    return _universe_sizes(DATASET_SPECS[key], config or SyntheticConfig())[1]


def _lognormal_counts(
    rng: np.random.Generator,
    num_users: int,
    mean: float,
    cv: float,
) -> np.ndarray:
    """Per-user counts from a lognormal matched to (mean, cv).

    For lognormal with parameters (mu, sigma): mean = exp(mu + sigma²/2)
    and cv² = exp(sigma²) - 1, so sigma² = log(1 + cv²).
    """
    sigma2 = np.log1p(cv**2)
    mu = np.log(mean) - sigma2 / 2.0
    return rng.lognormal(mu, np.sqrt(sigma2), size=num_users)


def generate_dataset(
    spec: DatasetSpec,
    config: Optional[SyntheticConfig] = None,
) -> InteractionDataset:
    """Generate a synthetic analogue of ``spec`` under ``config``."""
    config = config or SyntheticConfig()
    # zlib.crc32 is a *stable* name hash — python's hash() is salted per
    # process and would make datasets irreproducible across runs.
    name_code = zlib.crc32(spec.name.encode("utf-8")) % (2**16)
    rng = np.random.default_rng(config.seed + name_code)

    num_users, num_items = _universe_sizes(spec, config)

    # --- latent preference structure -------------------------------------
    k = LATENT_DIM
    user_latent = rng.normal(0.0, 1.0, size=(num_users, k))
    item_latent = rng.normal(0.0, 1.0, size=(num_items, k))
    # Zipf-ish popularity bias: item ranked r gets log-popularity ∝ -a log r.
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    popularity = -POPULARITY_EXPONENT * np.log(ranks)
    popularity = rng.permutation(popularity)  # decouple popularity from id order

    # --- heavy-tailed per-user activity ----------------------------------
    counts = _lognormal_counts(rng, num_users, config.avg_interactions, spec.cv)
    cap = int(0.6 * num_items)
    counts = np.clip(np.round(counts), MIN_INTERACTIONS, cap).astype(np.int64)

    # --- activity-linked complexity and noise (steps 3–4) -----------------
    activity_pct = np.argsort(np.argsort(counts)) / max(num_users - 1, 1)
    factor_support = np.ceil(MIN_FACTORS + (k - MIN_FACTORS) * activity_pct).astype(np.int64)
    noise_fraction = MAX_NOISE - (MAX_NOISE - MIN_NOISE) * activity_pct

    popularity_probs = np.exp(popularity - popularity.max())
    popularity_probs /= popularity_probs.sum()

    # --- sample interactions ----------------------------------------------
    user_items = []
    scores_scale = AFFINITY_SCALE / np.sqrt(k)
    for user in range(num_users):
        vec = user_latent[user].copy()
        support = int(factor_support[user])
        vec[support:] = 0.0
        # Renormalise so every user's preference signal has the same scale
        # regardless of how many factors it is spread over.
        vec *= np.sqrt(k / max(support, 1))

        logits = vec @ item_latent.T * scores_scale + popularity
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()

        num_noise = int(round(counts[user] * noise_fraction[user]))
        num_signal = int(counts[user]) - num_noise
        signal = rng.choice(num_items, size=num_signal, replace=False, p=probs)
        if num_noise:
            # The sorted complement of the signal draw, without hashing
            # the whole catalogue per user (same pool as ``setdiff1d``).
            keep = np.ones(num_items, dtype=bool)
            keep[signal] = False
            pool = np.flatnonzero(keep)
            pool_probs = popularity_probs[pool] / popularity_probs[pool].sum()
            noise = rng.choice(
                pool, size=min(num_noise, pool.size), replace=False, p=pool_probs
            )
            chosen = np.concatenate([signal, noise])
        else:
            chosen = signal
        user_items.append(chosen)

    return InteractionDataset(num_users, num_items, user_items, name=spec.name)


def load_benchmark_dataset(
    name: str,
    config: Optional[SyntheticConfig] = None,
) -> InteractionDataset:
    """Load one of the three paper datasets by name ('ml', 'anime', 'douban').

    Currently always generates the synthetic analogue; a real MovieLens
    dump, when present, can be loaded via :func:`repro.data.movielens.load_movielens`
    and used anywhere an :class:`InteractionDataset` is expected.
    """
    key = name.lower()
    if key not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASET_SPECS)}")
    return generate_dataset(DATASET_SPECS[key], config=config)
