"""Dataset substrate: interaction data, synthetic generators, splits.

The paper evaluates on MovieLens-1M, Anime and Douban.  Real dumps are not
downloadable in this offline environment, so :mod:`repro.data.synthetic`
generates statistically matched analogues (long-tailed per-user activity
over a learnable low-rank preference structure); when a real MovieLens
``ratings.dat`` is available, :mod:`repro.data.movielens` parses it into
the same :class:`InteractionDataset` type.
"""

from repro.data.dataset import InteractionDataset, ClientData
from repro.data.synthetic import (
    DatasetSpec,
    SyntheticConfig,
    DATASET_SPECS,
    generate_dataset,
    load_benchmark_dataset,
)
from repro.data.movielens import load_movielens
from repro.data.splitting import train_test_split_per_user
from repro.data.sampling import NegativeSampler
from repro.data.stats import dataset_statistics, interaction_histogram

__all__ = [
    "InteractionDataset",
    "ClientData",
    "DatasetSpec",
    "SyntheticConfig",
    "DATASET_SPECS",
    "generate_dataset",
    "load_benchmark_dataset",
    "load_movielens",
    "train_test_split_per_user",
    "NegativeSampler",
    "dataset_statistics",
    "interaction_histogram",
]
