"""README's "Removed in 1.4.0" table, checked against the code.

The table promises three things, one test each:

* a removed function or module is gone, with no shim keeping its name;
* a removed keyword is gone from its callable's signature (or, where a
  default was the thing removed, the parameter is now required);
* the module constant that replaced a keyword holds the keyword's old
  default, so every committed result was computed with the same value.

The census in ``tests/test_caller_census.py`` stops a new uncalled
keyword; this file stops a removed name from coming back as an alias.
"""

import importlib
import inspect

import pytest

#: ``(module, attribute)``; ``None`` for a removed module.
REMOVED_NAMES = [
    ("repro.data.loaders", None),
    ("repro.data.splitting", "temporal_split_per_user"),
    ("repro.data.splitting", "leave_one_out_split"),
    ("repro.data.splitting", "training_sizes"),
    ("repro.data.sampling", "build_training_batch"),
    ("repro.eval", "compare_results"),
    ("repro.eval.significance", "compare_results"),
    ("repro.robustness.metrics", None),
    ("repro.robustness", "exposure_at_k"),
    ("repro.robustness", "prediction_shift"),
    ("repro", "quick_run"),
    ("repro.experiments.runner", "run_method"),
    ("repro.experiments.table2", "run_table2"),
    ("repro.experiments.table4", "run_table4"),
    ("repro.experiments.table5", "run_table5"),
    ("repro.experiments.table6", "run_table6"),
    ("repro.experiments.table7", "run_table7"),
    ("repro.experiments.fig6", "run_fig6"),
    ("repro.experiments.fig7", "run_fig7"),
    ("repro.experiments.fig8", "run_fig8"),
    ("repro.experiments.fig8", "DEFAULT_ALPHAS"),
    ("repro.experiments.table3", "DEFAULT_DIMS"),
    ("repro.experiments.ablations", "run_theta_mode"),
    ("repro.experiments.ablations", "run_server_optimizer"),
    ("repro.experiments.ablations", "run_compression"),
    ("repro.experiments.ablations", "run_kd_subset"),
    ("repro.experiments.ablations", "run_arch_comparison"),
    ("repro.experiments.ablations", "run_robustness"),
    ("repro.experiments.ablations", "run_privacy"),
    ("repro.federated.privacy", "add_pseudo_items"),
    ("repro.federated.privacy", "PSEUDO_ITEMS"),
    ("repro.nn.optim", "Adam.reset_state"),
]

#: ``(module, qualified callable, removed keywords)``.
REMOVED_KEYWORDS = [
    ("repro.nn.optim", "Adam", ("betas", "eps", "weight_decay")),
    ("repro.nn.optim", "SGD", ("momentum", "weight_decay")),
    ("repro.data.splitting", "train_test_split_per_user", ("train_fraction", "valid_fraction")),
    ("repro.eval.significance", "paired_bootstrap", ("num_samples", "confidence")),
    ("repro.federated.secure_agg", "FixedPointCodec", ("precision_bits", "clip_range")),
    (
        "repro.serving.resilience", "HealthMonitor",
        ("window", "degraded_at", "unhealthy_at", "recovery_successes"),
    ),
    ("repro.core.size_search", "successive_halving", ("eta", "k")),
    ("repro.data.movielens", "load_movielens", ("separator", "name")),
    ("repro.data.movielens", "save_ratings", ("separator",)),
    ("repro.data.movielens", "parse_ratings_line", ("separator",)),
    ("repro.eval.evaluator", "Evaluator.evaluate", ("block_size",)),
    ("repro.eval.groups", "per_group_metrics", ("groups",)),
    ("repro.federated.accounting", "PrivacyAccountant", ("target_delta",)),
    ("repro.federated.accounting", "PrivacyAccountant.record_round", ("count",)),
    ("repro.federated.accounting", "PrivacyAccountant.spent", ("rounds",)),
    ("repro.federated.client", "ClientRuntime", ("init_std",)),
    ("repro.nn.init", "nested_embedding_tables", ("std",)),
    ("repro.nn.layers", "Embedding", ("std",)),
    ("repro.federated.systems", "simulate_round_times", ("local_epochs", "hidden")),
    ("repro.federated.systems", "time_to_accuracy", ("rounds_per_epoch",)),
    ("repro.robustness.defenses", "robust_embedding_aggregate", ("trim_fraction",)),
    ("repro.robustness.defenses", "krum_select", ("keep_fraction",)),
    ("repro.models.ncf", "NCF.score_matrix", ("width", "head")),
    ("repro.models.lightgcn", "LightGCN.score_matrix", ("width", "head")),
    ("repro.models.mf", "GMF.score_matrix", ("width", "head")),
    ("repro.nn.module", "Parameter", ("dtype",)),
    ("repro.nn.module", "Module.load_state_dict", ("strict",)),
    ("repro.serving.http_api", "run_server", ("ready",)),
    ("repro.serving.resilience", "ResilientService.query", ("priority",)),
    ("repro.baselines.clustered", "ClusteredTrainer", ("group_of",)),
    ("repro.baselines.direct", "DirectAggregateTrainer", ("group_of",)),
    ("repro.baselines.standalone", "StandaloneTrainer", ("group_of",)),
    ("repro.federated.unlearning", "UnlearningHeteFedRec", ("group_of",)),
    ("repro.baselines.homogeneous", "HomogeneousTrainer", ("group_label",)),
    ("repro.core.decorrelation", "effective_rank", ("eps",)),
    ("repro.experiments.profiles", "ExperimentProfile.synthetic_config", ("seed_offset",)),
    ("repro.experiments.runner", "run_grid", ("use_cache",)),
    ("repro.experiments.runner", "run_spec", ("use_cache",)),
    ("repro.experiments.fig6", "fig6_grid", ("datasets", "methods")),
    ("repro.experiments.fig7", "fig7_grid", ("dataset",)),
    ("repro.experiments.table4", "table4_grid", ("datasets",)),
    ("repro.experiments.table5", "table5_grid", ("datasets",)),
    ("repro.experiments.table6", "table6_grid", ("datasets",)),
    ("repro.experiments.table7", "table7_grid", ("dataset",)),
    ("repro.experiments.fig8", "fig8_grid", ("dataset", "alphas")),
    ("repro.experiments.ablations", "theta_mode_grid", ("arch",)),
    ("repro.experiments.ablations", "server_optimizer_grid", ("arch",)),
    ("repro.experiments.ablations", "compression_grid", ("arch",)),
    ("repro.experiments.ablations", "kd_subset_grid", ("arch", "sizes")),
    ("repro.experiments.ablations", "arch_comparison_grid", ("dataset",)),
    ("repro.experiments.ablations", "robustness_grid", ("arch",)),
    ("repro.experiments.ablations", "privacy_grid", ("arch",)),
    ("repro.experiments.ablations", "run_systems", ("methods",)),
    ("repro.experiments.fig1", "run_fig1", ("bins",)),
    ("repro.experiments.table3", "run_table3", ("dims", "hidden")),
    ("repro.experiments.table3", "hetefedrec_extra_head_cost", ("dims", "hidden")),
    ("repro.experiments.reporting", "format_series", ("value_format",)),
    ("repro.experiments.table2", "winner_per_dataset", ("metric",)),
]

#: ``(module, qualified callable, parameter)`` whose default was removed.
NOW_REQUIRED = [
    ("repro.nn.optim", "SGD", "lr"),
    ("repro.experiments.fig7", "convergence_epochs", "fraction"),
    ("repro.federated.availability", "StragglerBuffer.restore_pending", "ages"),
]

#: ``(module, constant, the default of the keyword it replaced)``.
CONSTANTS = [
    ("repro.nn.optim", "BETA1", 0.9),
    ("repro.nn.optim", "BETA2", 0.999),
    ("repro.nn.optim", "EPS", 1e-8),
    ("repro.nn.optim", "MOMENTUM", 0.0),
    ("repro.nn.optim", "WEIGHT_DECAY", 0.0),
    ("repro.data.splitting", "TRAIN_FRACTION", 0.8),
    ("repro.data.splitting", "VALID_FRACTION", 0.1),
    ("repro.eval.significance", "NUM_SAMPLES", 2000),
    ("repro.eval.significance", "CONFIDENCE", 0.95),
    ("repro.federated.secure_agg", "PRECISION_BITS", 24),
    ("repro.federated.secure_agg", "CLIP_RANGE", 64.0),
    ("repro.serving.resilience", "HEALTH_WINDOW", 32),
    ("repro.serving.resilience", "DEGRADED_AT", 0.1),
    ("repro.serving.resilience", "UNHEALTHY_AT", 0.5),
    ("repro.serving.resilience", "RECOVERY_SUCCESSES", 3),
    ("repro.core.size_search", "ETA", 2),
    ("repro.data.movielens", "SEPARATOR", "::"),
    ("repro.eval.evaluator", "BLOCK_SIZE", 256),
    ("repro.federated.accounting", "TARGET_DELTA", 1e-5),
    ("repro.nn.init", "EMBEDDING_STD", 0.01),
    ("repro.federated.systems", "LOCAL_EPOCHS", 4),
    ("repro.federated.systems", "HIDDEN", (8, 8)),
    ("repro.federated.systems", "ROUNDS_PER_EPOCH", 1),
    ("repro.robustness.defenses", "TRIM_FRACTION", 0.2),
    ("repro.robustness.defenses", "KRUM_KEEP", 0.7),
    ("repro.core.decorrelation", "EPS", 1e-12),
    ("repro.experiments.ablations", "KD_SIZES", (8, 32, 128)),
    ("repro.experiments.ablations", "ARCH_DATASET", "anime"),
    ("repro.experiments.ablations", "SYSTEMS_METHODS", ("all_small", "all_large", "hetefedrec")),
    ("repro.experiments.fig1", "BINS", 12),
    ("repro.experiments.table3", "DIMS", {"s": 8, "m": 16, "l": 32}),
    ("repro.experiments.table3", "HIDDEN", (8, 8)),
    ("repro.experiments.fig6", "DATASETS", ("ml", "anime", "douban")),
    ("repro.experiments.fig6", "FOCUS_METHODS", ("all_small", "all_large", "hetefedrec")),
    ("repro.experiments.fig7", "DATASET", "ml"),
    ("repro.experiments.fig8", "DATASET", "ml"),
    ("repro.experiments.fig8", "ALPHAS", (0.05, 0.25, 1.0, 4.0)),
    ("repro.experiments.table4", "DATASETS", ("ml", "anime", "douban")),
    ("repro.experiments.table6", "DATASETS", ("ml", "anime", "douban")),
    ("repro.experiments.table7", "DATASET", "ml"),
]


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _id(row) -> str:
    return f"{row[0]}:{row[1]}" if row[1] is not None else row[0]


@pytest.mark.parametrize("module, name", REMOVED_NAMES, ids=map(_id, REMOVED_NAMES))
def test_removed_name_has_no_shim(module, name):
    if name is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return
    owner, _, attr = name.rpartition(".")
    parent = _resolve(module, owner) if owner else importlib.import_module(module)
    assert not hasattr(parent, attr), f"{module}:{name} is back"


@pytest.mark.parametrize(
    "module, qualname, keywords", REMOVED_KEYWORDS, ids=map(_id, REMOVED_KEYWORDS)
)
def test_removed_keyword_is_out_of_the_signature(module, qualname, keywords):
    parameters = inspect.signature(_resolve(module, qualname)).parameters
    assert not set(keywords) & set(parameters), sorted(set(keywords) & set(parameters))
    # No ``**kwargs`` catch-all quietly accepts (and drops) the old keyword.
    assert not any(p.kind is p.VAR_KEYWORD for p in parameters.values())


@pytest.mark.parametrize(
    "module, qualname, parameter", NOW_REQUIRED, ids=[f"{_id(r)}.{r[2]}" for r in NOW_REQUIRED]
)
def test_parameter_whose_default_went_is_required(module, qualname, parameter):
    param = inspect.signature(_resolve(module, qualname)).parameters[parameter]
    assert param.default is inspect.Parameter.empty


@pytest.mark.parametrize("module, name, value", CONSTANTS, ids=map(_id, CONSTANTS))
def test_constant_keeps_the_removed_default(module, name, value):
    assert getattr(importlib.import_module(module), name) == value
