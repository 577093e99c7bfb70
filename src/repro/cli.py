"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run`` (alias ``train``)
    Train one method on one dataset and print Recall@20 / NDCG@20.
    ``--checkpoint PATH`` autosaves full training state every
    ``--checkpoint-every`` epochs; ``--resume PATH`` restores a
    checkpointed run and continues it bitwise-identically.
``experiments``
    Regenerate paper artefacts (delegates to
    :mod:`repro.experiments.run_all`).
``methods``
    List every registered method with its Table II display name.
``stats``
    Print Table I-style statistics for a (synthetic or on-disk) dataset.
``search``
    Successive-halving search over division ratios and model sizes.
``simulate``
    Run a named fault-injection scenario from :mod:`repro.sim` against
    the population-scale surrogate fleet and print its deterministic
    accounting (rounds applied/short/skipped, wire bytes, drops).
``serve``
    Serve a trained checkpoint over HTTP: ``repro serve ckpt.npz``
    warm-loads every group's model and answers
    ``GET /v1/recommend?user=ID&k=K`` with coalesced blocked scoring,
    hot top-k caching and zero-downtime ``POST /v1/swap``.

Flag conventions, uniform across subcommands where they apply:
``--checkpoint PATH`` (training state in/out), ``--jobs N`` (worker
parallelism), ``--json`` (machine-readable output).  Every subcommand
is a thin shell over :mod:`repro.api` — anything the CLI does is one
import away in a notebook.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines.registry import DISPLAY_NAMES, METHODS, build_method
from repro.core.config import HeteFedRecConfig
from repro.core.size_search import successive_halving
from repro.data.movielens import load_movielens
from repro.data.stats import dataset_statistics
from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset
from repro.data.splitting import train_test_split_per_user
from repro.eval.evaluator import Evaluator

DATASETS = ("ml", "anime", "douban")


def _load_dataset(args: argparse.Namespace):
    """Dataset from --ratings (real dump) or --dataset (synthetic analogue)."""
    if getattr(args, "ratings", None):
        return load_movielens(args.ratings)
    return load_benchmark_dataset(
        args.dataset, SyntheticConfig(scale=args.scale, seed=args.seed)
    )


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=DATASETS, default="ml",
        help="synthetic benchmark analogue to generate (default: ml)",
    )
    parser.add_argument(
        "--ratings", default=None, metavar="PATH",
        help="path to a real MovieLens-format ratings file (overrides --dataset)",
    )
    parser.add_argument("--scale", type=float, default=0.04,
                        help="user-count scale of the synthetic analogue")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import resume

    dataset = _load_dataset(args)
    clients = train_test_split_per_user(dataset, seed=args.seed)
    checkpoint_path = args.checkpoint or args.resume
    privacy = None
    if args.clip_norm > 0:
        from repro.federated.privacy import PrivacyConfig

        privacy = PrivacyConfig(clip_norm=args.clip_norm, noise_std=args.noise_std)
    secure = None
    if args.secure_agg:
        from repro.federated.secure_agg import SecureAggregationConfig

        secure = SecureAggregationConfig()
    config = HeteFedRecConfig(
        arch=args.arch,
        epochs=args.epochs,
        clients_per_round=args.clients_per_round,
        seed=args.seed,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every if checkpoint_path else 0,
        privacy=privacy,
        secure_aggregation=secure,
    )
    trainer = build_method(args.method, dataset.num_items, clients, config)
    evaluator = Evaluator(clients, k=args.k)
    if not args.json:
        print(f"training {DISPLAY_NAMES.get(args.method, args.method)} "
              f"({args.arch}) on {dataset.name}: "
              f"{dataset.num_users} users, {dataset.num_items} items")
    if args.resume:
        resume(trainer, args.resume)
        if not args.json:
            print(f"resumed from {args.resume} at epoch {trainer.epochs_completed}")
    trainer.fit()
    result = trainer.evaluate_with(evaluator)
    comm = trainer.meter.per_client_round()
    privacy_spent = getattr(trainer, "privacy_spent", lambda: None)
    spent = privacy_spent()
    if args.json:
        import json

        payload = {
            "method": args.method,
            "arch": args.arch,
            "dataset": dataset.name,
            "epochs": trainer.epochs_completed,
            "k": result.k,
            "recall": result.recall,
            "ndcg": result.ndcg,
            "comm_scalars_per_client_round": comm,
        }
        if spent is not None:
            payload["privacy"] = {
                "epsilon": spent.epsilon,
                "delta": spent.delta,
                "rounds": spent.rounds,
                "mechanism": spent.mechanism,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result)
    print(f"communication: {comm:,.0f} scalars per client-round")
    if spent is not None:
        print(f"privacy: ({spent.epsilon:.4f}, {spent.delta:.2e})-DP "
              f"over {spent.rounds} rounds ({spent.mechanism} composition)")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_all

    written = run_all(profile=args.profile, out_dir=args.out,
                      archs=tuple(args.archs), jobs=args.jobs)
    if args.json:
        import json

        print(json.dumps(
            {"out_dir": args.out, "artefacts": sorted(map(str, written))},
            indent=2,
        ))
    else:
        print(f"wrote {len(written)} artefacts to {args.out}/")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import serve
    from repro.serving import ResilienceConfig

    resilience = ResilienceConfig(
        admission_capacity=args.admission_capacity,
        default_deadline_ms=args.deadline_ms,
    )
    serve(
        args.checkpoint,
        host=args.host,
        port=args.port,
        k=args.k,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        resilience=resilience,
        watch=args.watch,
        watch_interval_s=args.watch_interval,
        request_timeout_s=args.request_timeout,
    )
    return 0


def _cmd_methods(_: argparse.Namespace) -> int:
    width = max(len(name) for name in METHODS)
    for name in METHODS:
        print(f"{name:<{width}}  {DISPLAY_NAMES.get(name, '')}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    dataset = _load_dataset(args)
    stats = asdict(dataset_statistics(dataset))
    print(f"dataset: {dataset.name}")
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"  {key:<18} {value:,.2f}")
        elif isinstance(value, int):
            print(f"  {key:<18} {value:,}")
        else:
            print(f"  {key:<18} {value}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    clients = train_test_split_per_user(dataset, seed=args.seed)
    config = HeteFedRecConfig(
        arch=args.arch, clients_per_round=args.clients_per_round, seed=args.seed
    )
    result = successive_halving(
        dataset.num_items, clients, config, epochs_per_rung=args.epochs_per_rung
    )
    for record in result.rungs:
        print(f"rung {record.rung}: {len(record.scores)} candidates")
        for candidate, score in sorted(record.scores, key=lambda p: -p[1]):
            print(f"  NDCG={score:.5f}  {candidate.describe()}")
    print(f"winner: {result.best.describe()} "
          f"({result.total_epochs_trained} pilot epochs spent)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from repro.sim import SimulationConfig
    from repro.sim.scenarios import run_scenario

    if args.scenario == "serving_chaos":
        # The serving fault storm drives the online stack, not the
        # surrogate fleet, so it takes its own config shape.
        from repro.sim.scenarios import serving_chaos

        config = serving_chaos.build(seed=args.seed, requests=args.requests)
        result = serving_chaos.run(config, workdir=args.store_dir)
        if args.json:
            print(json.dumps(result.fingerprint(), indent=2, sort_keys=True))
        else:
            for line in result.summary_lines():
                print(line)
        return 0

    base = SimulationConfig(
        num_clients=args.clients,
        num_items=args.items,
        dim=args.dim,
        epochs=args.epochs,
        clients_per_round=args.clients_per_round,
        seed=args.seed,
    )
    result = run_scenario(args.scenario, base)
    if args.json:
        print(json.dumps(result.fingerprint(), indent=2, sort_keys=True))
    else:
        for line in result.summary_lines():
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HeteFedRec reproduction (ICDE 2024) command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", aliases=["train"], help="train one method and evaluate"
    )
    _add_data_arguments(run_parser)
    run_parser.add_argument("--method", choices=sorted(METHODS), default="hetefedrec")
    run_parser.add_argument("--arch", choices=("ncf", "lightgcn", "mf"), default="ncf")
    run_parser.add_argument("--epochs", type=int, default=5)
    run_parser.add_argument("--clients-per-round", type=int, default=256)
    run_parser.add_argument("--k", type=int, default=20)
    run_parser.add_argument(
        "--clip-norm", type=float, default=0.0, metavar="C",
        help="L2-clip each upload to C (0 disables; enables the privacy "
        "path together with --noise-std)",
    )
    run_parser.add_argument(
        "--noise-std", type=float, default=0.0, metavar="SIGMA",
        help="Gaussian noise multiplier relative to the clip norm; with "
        "--clip-norm > 0 the run reports its accumulated (ε, δ)",
    )
    run_parser.add_argument(
        "--secure-agg", action="store_true",
        help="aggregate through the phased masking protocol "
        "(advertise → shares → masked input → unmask)",
    )
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="autosave full training state to PATH every --checkpoint-every "
        "epochs (atomic writes; resumable with --resume PATH)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="epochs between autosaves when checkpointing (default: 1)",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="restore full training state from PATH before training and "
        "continue the run bitwise-identically (keeps autosaving there)",
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="print the evaluation as machine-readable JSON",
    )
    run_parser.set_defaults(func=_cmd_run)

    exp_parser = subparsers.add_parser(
        "experiments", help="regenerate every paper table and figure"
    )
    exp_parser.add_argument("--profile", default="bench")
    exp_parser.add_argument("--out", default="results")
    exp_parser.add_argument(
        "--archs", nargs="+", default=["ncf"],
        help="base models of the artefacts that sweep them (the ablations "
        "and fig7_lightgcn fix their own; the committed results/ use ncf)",
    )
    exp_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the deduped training grid "
        "(default: serial; cache misses fan out over N processes)",
    )
    exp_parser.add_argument(
        "--json", action="store_true",
        help="print the written artefact list as machine-readable JSON",
    )
    exp_parser.set_defaults(func=_cmd_experiments)

    methods_parser = subparsers.add_parser("methods", help="list available methods")
    methods_parser.set_defaults(func=_cmd_methods)

    stats_parser = subparsers.add_parser("stats", help="Table I statistics")
    _add_data_arguments(stats_parser)
    stats_parser.set_defaults(func=_cmd_stats)

    search_parser = subparsers.add_parser(
        "search", help="successive-halving ratio/size search"
    )
    _add_data_arguments(search_parser)
    search_parser.add_argument("--arch", choices=("ncf", "lightgcn", "mf"), default="ncf")
    search_parser.add_argument("--clients-per-round", type=int, default=64)
    search_parser.add_argument("--epochs-per-rung", type=int, default=1)
    search_parser.set_defaults(func=_cmd_search)

    sim_parser = subparsers.add_parser(
        "simulate", help="run a fault-injection scenario (repro.sim)"
    )
    sim_parser.add_argument(
        "scenario",
        help="catalogue name: baseline, dropout_storm, straggler_flood, "
        "duplicate_uploads, flapping, poisoning, secure_dropout, "
        "serving_chaos",
    )
    sim_parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="serving_chaos only: how many requests to drive "
        "(scales the fault window and recovery tail with it)",
    )
    sim_parser.add_argument("--clients", type=int, default=1000)
    sim_parser.add_argument("--items", type=int, default=500)
    sim_parser.add_argument("--dim", type=int, default=8)
    sim_parser.add_argument("--epochs", type=int, default=1)
    sim_parser.add_argument("--clients-per-round", type=int, default=64)
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="serving_chaos only: work directory for its checkpoints and "
        "swap candidates (default: .repro_cache/serving_chaos)",
    )
    sim_parser.add_argument(
        "--json", action="store_true",
        help="print the full deterministic fingerprint as JSON",
    )
    sim_parser.set_defaults(func=_cmd_simulate)

    serve_parser = subparsers.add_parser(
        "serve", help="serve a trained checkpoint over HTTP (JSON API)"
    )
    serve_parser.add_argument(
        "checkpoint", metavar="CHECKPOINT",
        help="the .npz training checkpoint to warm-load and serve",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8777)
    serve_parser.add_argument("--k", type=int, default=20,
                              help="default top-k cut-off (default: 20)")
    serve_parser.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="hot top-k cache capacity; 0 disables caching (default: 4096)",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=32, metavar="B",
        help="coalescer size trigger: flush once B queries are parked "
        "(default: 32)",
    )
    serve_parser.add_argument(
        "--admission-capacity", type=int, default=256, metavar="N",
        help="max concurrently executing requests before arrivals queue "
        "and then shed with 503 + Retry-After (default: 256)",
    )
    serve_parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="default per-request deadline budget; un-meetable requests "
        "shed immediately, overruns return 504 (default: none)",
    )
    serve_parser.add_argument(
        "--watch", default=None, metavar="PATH",
        help="poll PATH and hot-swap whenever a new valid checkpoint "
        "lands there (corrupt candidates are quarantined as *.corrupt)",
    )
    serve_parser.add_argument(
        "--watch-interval", type=float, default=2.0, metavar="S",
        help="seconds between checkpoint-watcher polls (default: 2)",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="per-connection socket timeout so a stalled client cannot "
        "pin a handler thread (default: 30)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    lint_parser = subparsers.add_parser(
        "lint",
        help="AST-based contract checks (determinism, sparse hot paths, "
        "atomic writes, lock discipline, RNG registration, facade)",
    )
    from repro.analysis.cli import add_lint_arguments, run_lint

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=run_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
