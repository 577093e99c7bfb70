"""Ablation experiments for the repo's own design choices.

The paper leaves several decisions open (Θ aggregation mode, server
update rule, distillation subset size), and this repo adds extensions
(compression, robustness).  Each runner here
measures one of those choices the same way the paper's tables measure
its components, declaring its grid once as a label → :class:`~repro.
experiments.runner.RunSpec` mapping and running it through the shared
cached :func:`repro.experiments.runner.run_tree` where it trains.

Grids (one per ablation bench; :data:`repro.experiments.run_all.ARTEFACTS`
runs each through :func:`~repro.experiments.runner.run_tree`):

* :func:`theta_mode_grid`   — Θ deltas summed (paper Eq. 15 verbatim)
  vs averaged (this repo's default);
* :func:`server_optimizer_grid` — plain delta application vs
  FedAvgM/FedAdam/FedYogi pseudo-gradient rules;
* :func:`compression_grid`  — upload codecs vs accuracy and volume;
* :func:`kd_subset_grid`    — RESKD's |V_kd| sweep (cost/benefit of the
  paper's subsampling);
* :func:`arch_comparison_grid` — NCF / LightGCN / GMF under HeteFedRec
  and the strongest homogeneous baseline;
* :func:`robustness_grid`   — the poisoning quadrants (clean/attacked ×
  undefended/defended);
* :func:`privacy_grid`      — upload protection ladder (none / clip /
  clip+noise / clip+noise behind secure aggregation) with the end-to-end
  (ε, δ) spend from :mod:`repro.federated.accounting`.

and one analytic runner, :func:`run_systems` — round wall-clock per
method under a bandwidth-constrained device fleet.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.compression.codecs import CompressionConfig
from repro.core.distillation import DistillationConfig
from repro.data.splitting import train_test_split_per_user
from repro.data.synthetic import load_benchmark_dataset
from repro.experiments.profiles import get_profile
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult, RunSpec
from repro.federated.aggregation import AggregationConfig
from repro.federated.privacy import PrivacyConfig
from repro.federated.secure_agg import SecureAggregationConfig
from repro.federated.server_optim import ServerOptimizerConfig
from repro.robustness.attacks import AttackConfig
from repro.robustness.defenses import RobustAggregationConfig

DATASET = "ml"  # ablations probe design choices; one dataset and one base model suffice


# ----------------------------------------------------------------------
# Θ aggregation mode
# ----------------------------------------------------------------------
def theta_mode_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """HeteFedRec with Θ averaged (default) vs summed (Eq. 15 verbatim)."""
    return {
        # No override for the default arm — it shares the Table II cache entry.
        "theta mean (default)": RunSpec(DATASET, "hetefedrec", profile=profile),
        "theta sum (paper)": RunSpec(
            DATASET, "hetefedrec", profile=profile,
            config_overrides={"aggregation": AggregationConfig(theta_mode="sum")},
        ),
    }


def format_theta_mode(results: Dict[str, RunResult]) -> str:
    rows = [[label, r.recall, r.ndcg] for label, r in results.items()]
    return format_table(
        ["Θ aggregation", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: Θ update combination (mean vs the paper's Eq. 15 sum)",
    )


# ----------------------------------------------------------------------
# Server optimiser
# ----------------------------------------------------------------------
_SERVER_RULES: Tuple[Tuple[str, object], ...] = (
    ("direct (paper)", None),
    ("fedavgm", ServerOptimizerConfig(kind="fedavgm", lr=1.0, momentum=0.5)),
    ("fedadam", ServerOptimizerConfig(kind="fedadam", lr=0.02)),
    ("fedyogi", ServerOptimizerConfig(kind="fedyogi", lr=0.02)),
)


def server_optimizer_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """Aggregated deltas applied directly vs through adaptive server rules."""
    return {
        label: RunSpec(
            DATASET, "hetefedrec", profile=profile,
            config_overrides=None if rule is None else {"server_optimizer": rule},
        )
        for label, rule in _SERVER_RULES
    }


def format_server_optimizer(results: Dict[str, RunResult]) -> str:
    rows = [[label, r.recall, r.ndcg] for label, r in results.items()]
    return format_table(
        ["Server rule", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: server-side optimiser (FedOpt family)",
    )


# ----------------------------------------------------------------------
# Compression
# ----------------------------------------------------------------------
_CODECS: Tuple[Tuple[str, object], ...] = (
    ("dense", None),
    ("topk 10% + EF", CompressionConfig(kind="topk", ratio=0.1, error_feedback=True)),
    ("topk 10%, no EF", CompressionConfig(kind="topk", ratio=0.1, error_feedback=False)),
    ("quantize 8-bit", CompressionConfig(kind="quantize", bits=8)),
    ("quantize 4-bit", CompressionConfig(kind="quantize", bits=4)),
)


def compression_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """Upload codecs: ranking quality vs bytes on the wire."""
    return {
        label: RunSpec(
            DATASET, "hetefedrec", profile=profile,
            config_overrides=None if codec is None else {"compression": codec},
        )
        for label, codec in _CODECS
    }


def format_compression(results: Dict[str, RunResult]) -> str:
    baseline = results["dense"].communication_total or 1
    rows = [
        [label, f"{r.communication_total / baseline:.2f}x", r.recall, r.ndcg]
        for label, r in results.items()
    ]
    return format_table(
        ["Codec", "Comm. vol.", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: upload compression (extension)",
    )


# ----------------------------------------------------------------------
# RESKD subset size
# ----------------------------------------------------------------------
KD_SIZES = (8, 32, 128)


def kd_subset_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """|V_kd| sweep: the paper subsamples 'to avoid heavy computation'."""
    default_size = DistillationConfig().num_items
    return {
        f"|V_kd| = {size}": RunSpec(
            DATASET, "hetefedrec", profile=profile,
            config_overrides=(
                None  # the default size shares the Table II cache entry
                if size == default_size
                else {"distillation": DistillationConfig(num_items=size)}
            ),
        )
        for size in KD_SIZES
    }


def format_kd_subset(results: Dict[str, RunResult]) -> str:
    rows = [[label, r.recall, r.ndcg] for label, r in results.items()]
    return format_table(
        ["Distillation subset", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: RESKD subset size",
    )


# ----------------------------------------------------------------------
# Architecture generality (NCF / LightGCN / GMF)
# ----------------------------------------------------------------------
#: The dataset where the bench profile's epoch budget sits at every
#: method's convergence point, so the architecture comparison is not
#: confounded by differential overtraining (on the ML analogue every
#: method peaks by epoch 4–8 and decays after; see
#: ``results/fig7_convergence.txt``).
ARCH_DATASET = "anime"


def arch_comparison_grid(
    profile: str = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn", "mf"),
) -> Dict[str, Dict[str, RunSpec]]:
    """HeteFedRec vs the strongest homogeneous baseline per architecture."""
    return {
        arch: {
            method: RunSpec(ARCH_DATASET, method, arch=arch, profile=profile)
            for method in ("all_small", "hetefedrec")
        }
        for arch in archs
    }


def format_arch_comparison(results: Dict[str, Dict[str, RunResult]]) -> str:
    rows = []
    for arch, methods in results.items():
        for method, r in methods.items():
            rows.append([arch, method, r.recall, r.ndcg])
    return format_table(
        ["Arch", "Method", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: base-model generality (incl. GMF extension)",
    )


# ----------------------------------------------------------------------
# Privacy ladder (+ end-to-end accounting)
# ----------------------------------------------------------------------
_PRIVACY_ARMS: Tuple[Tuple[str, Optional[PrivacyConfig], bool], ...] = (
    ("no protection", None, False),
    ("clip C=2", PrivacyConfig(clip_norm=2.0), False),
    ("clip C=2, σ=0.1", PrivacyConfig(clip_norm=2.0, noise_std=0.1), False),
    ("clip C=2, σ=0.2", PrivacyConfig(clip_norm=2.0, noise_std=0.2), False),
    (
        "clip C=2, σ=0.1 + secure agg",
        PrivacyConfig(clip_norm=2.0, noise_std=0.1),
        True,
    ),
)


def privacy_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """Upload-protection ladder with its measured (ε, δ) spend.

    The noised arms report the accountant's end-to-end guarantee (the
    min of basic and advanced composition over all training rounds); the
    secure-aggregation arm additionally pays the honest protocol wire
    cost, visible in the communication column.
    """
    specs: Dict[str, RunSpec] = {}
    for label, privacy, secure in _PRIVACY_ARMS:
        overrides: Dict[str, object] = {}
        if privacy is not None:
            overrides["privacy"] = privacy
        if secure:
            overrides["secure_aggregation"] = SecureAggregationConfig()
        specs[label] = RunSpec(
            DATASET, "hetefedrec", profile=profile,
            # The unprotected arm shares the Table II cache entry.
            config_overrides=overrides or None,
        )
    return specs


def format_privacy(results: Dict[str, RunResult]) -> str:
    rows = []
    for label, r in results.items():
        if r.epsilon is None:
            eps = "∞ (no DP)"
        else:
            eps = f"({r.epsilon:.2f}, {r.delta:.0e})"
        rows.append([label, eps, f"{r.communication_total:,.0f}", r.recall, r.ndcg])
    return format_table(
        ["Protection", "(ε, δ)", "Comm. total", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: upload privacy ladder with end-to-end accounting",
    )


# ----------------------------------------------------------------------
# Robustness quadrants
# ----------------------------------------------------------------------
_ATTACK = AttackConfig(kind="signflip", fraction=0.2, scale=25.0, seed=7)
_DEFENSE = RobustAggregationConfig(kind="clip", clip_headroom=2.0)
_QUADRANTS: Tuple[Tuple[str, Optional[dict]], ...] = (
    # The clean, undefended arm shares the Table II cache entry.
    ("clean / undefended", None),
    ("clean / defended", {"defense": _DEFENSE}),
    ("attacked / undefended", {"attack": _ATTACK}),
    ("attacked / defended", {"attack": _ATTACK, "defense": _DEFENSE}),
)


def robustness_grid(profile: str = "bench") -> Dict[str, RunSpec]:
    """{clean, attacked} × {undefended, defended}.

    An attacked run scores its honest clients only (the trainer's
    ``evaluate_with`` under ``config.attack``).
    """
    return {
        label: RunSpec(
            DATASET, "hetefedrec", profile=profile, config_overrides=overrides,
        )
        for label, overrides in _QUADRANTS
    }


def format_robustness(results: Dict[str, RunResult]) -> str:
    rows = [[label, r.recall, r.ndcg] for label, r in results.items()]
    return format_table(
        ["Scenario", "Recall@20", "NDCG@20"],
        rows,
        title="Ablation: poisoning quadrants (honest clients only)",
    )


# ----------------------------------------------------------------------
# Systems wall-clock (analytic — no training)
# ----------------------------------------------------------------------
SYSTEMS_METHODS = ("all_small", "all_large", "hetefedrec")


def run_systems(profile: str = "bench") -> Dict[str, Dict[str, float]]:
    """Round wall-clock per method under a bandwidth-constrained fleet.

    Analytic (seconds to run): converts Table III payloads plus per-client
    training work into synchronous round times over a log-normal device
    population — the systems restatement of the communication argument.
    """
    from repro.core.grouping import divide_clients
    from repro.federated.systems import (
        SystemProfile,
        round_time_summary,
        simulate_round_times,
    )

    prof = get_profile(profile)
    data = load_benchmark_dataset(DATASET, prof.synthetic_config())
    clients = train_test_split_per_user(data, seed=prof.seed)
    group_of = divide_clients(clients, (5, 3, 2))
    train_sizes = {c.user_id: c.num_train for c in clients}
    dims = {"s": 8, "m": 16, "l": 32}
    fleet = SystemProfile(seed=prof.seed, median_bandwidth=2e4, bandwidth_sigma=1.0)

    results: Dict[str, Dict[str, float]] = {}
    for method in SYSTEMS_METHODS:
        times = simulate_round_times(
            method, group_of, train_sizes, data.num_items, dims, fleet,
            clients_per_round=min(prof.clients_per_round, len(clients)),
            num_rounds=60,
        )
        results[method] = round_time_summary(times)
    return results


def format_systems(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        [method, summary["median"], summary["p95"], summary["mean"]]
        for method, summary in results.items()
    ]
    return format_table(
        ["Method", "Median round (s)", "p95 (s)", "Mean (s)"],
        rows,
        title="Ablation: round wall-clock under a 20 kB/s-median fleet",
        float_format="{:.1f}",
    )
