"""HeteFedRec reproduction: federated recommendation with model heterogeneity.

Reproduces *HeteFedRec: Federated Recommender Systems with Model
Heterogeneity* (Yuan et al., ICDE 2024) end to end on a from-scratch
numpy substrate: autodiff engine, NCF/LightGCN recommenders, federated
simulation, the HeteFedRec framework, all six paper baselines, and the
full experiment harness for every table and figure.

The stable public import surface is :mod:`repro.api` — one module,
six lifecycle verbs (``fit``, ``save_checkpoint``, ``resume``,
``load_model``, ``recommend``, ``serve``) plus every public class and
helper, re-exported lazily.  The names in ``__all__`` stay importable
from ``repro`` directly for convenience, resolved through that same
lazy facade, so ``import repro`` (and ``import repro.api``) stays light.

Quickstart
----------
>>> from repro import quick_run
>>> result = quick_run(dataset="ml", method="hetefedrec", epochs=3)
>>> print(result)                                        # doctest: +SKIP
Recall@20=... NDCG@20=...
"""

__version__ = "1.3.0"

__all__ = [
    "HeteFedRec",
    "HeteFedRecConfig",
    "FederatedConfig",
    "FederatedTrainer",
    "METHODS",
    "build_method",
    "InteractionDataset",
    "SyntheticConfig",
    "load_benchmark_dataset",
    "train_test_split_per_user",
    "Evaluator",
    "quick_run",
    "fit",
    "load_model",
    "recommend",
    "resume",
    "save_checkpoint",
    "serve",
]


def __getattr__(name: str):
    if name in __all__:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def quick_run(
    dataset: str = "ml",
    method: str = "hetefedrec",
    arch: str = "ncf",
    epochs: int = 5,
    scale: float = 0.04,
    seed: int = 0,
):
    """Train one method on one (small) dataset and return its evaluation.

    A convenience wrapper for interactive use and the quickstart example;
    the experiment harness in :mod:`repro.experiments` offers full control.
    """
    from repro.api import (
        Evaluator,
        HeteFedRecConfig,
        SyntheticConfig,
        build_method,
        load_benchmark_dataset,
        train_test_split_per_user,
    )

    data = load_benchmark_dataset(dataset, SyntheticConfig(scale=scale, seed=seed))
    clients = train_test_split_per_user(data, seed=seed)
    config = HeteFedRecConfig(arch=arch, epochs=epochs, seed=seed)
    trainer = build_method(method, data.num_items, clients, config)
    evaluator = Evaluator(clients)
    trainer.fit()
    return trainer.evaluate_with(evaluator)
