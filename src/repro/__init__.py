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

``examples/quickstart.py`` trains and evaluates one method end to end.
"""

__version__ = "1.4.0"

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
