"""The federated training loop (paper Section III-A, Algorithm 1 skeleton).

:class:`FederatedTrainer` implements the complete homogeneous/heterogeneous
FedRec protocol with overridable hooks; the concrete methods of the paper
plug in as subclasses:

==========================  =====================================================
Method                      Subclass / configuration
==========================  =====================================================
All Small / All Large       single group with dim N_s / N_l (``repro.baselines``)
All Large / Exclusive       + ``excluded_uploaders`` (updates dropped server-side)
Directly Aggregate          heterogeneous groups + this base class unchanged
Clustered FedRec            overrides embedding aggregation to within-group
Standalone                  per-client models (``_client_states``), no aggregation
HeteFedRec                  overrides ``trained_head_groups`` (UDL),
                            ``fused_objective`` + ``presample_ddr_rows`` (DDR)
                            and ``post_aggregate`` (RESKD)
Any method under attack     + ``config.attack`` (poisoned uploads) and/or
                            ``config.defense`` (robust aggregation)
==========================  =====================================================

Local training always runs on the vectorized round engine
(:mod:`repro.federated.round_engine`): a subclass shapes the local
objective only through the hooks above, never by replacing the session.

Round semantics follow the paper (Section V-D): at the start of an epoch
the server shuffles the client queue, then traverses it in rounds of
``clients_per_round`` clients; every client in a round trains from the
same global snapshot and updates are aggregated at the end of the round.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.dataset import ClientData
from repro.eval.evaluator import Evaluator
from repro.federated.aggregation import (
    AggregationConfig,
    aggregate_head_updates,
    mean_over_head_contributors,
    padded_embedding_aggregate,
)
from repro.federated.client import ClientRuntime
from repro.federated.communication import CommunicationMeter, head_parameter_count
from repro.federated.history import TrainingHistory
from repro.federated.availability import (
    AvailabilityConfig,
    StragglerBuffer,
    merge_duplicate_users,
    split_round,
)
from repro.federated.payload import ClientUpdate, state_size
from repro.federated.accounting import PrivacyAccountant, PrivacySpent
from repro.federated.privacy import PrivacyConfig, protect_update
from repro.federated.round_engine import VectorizedRoundEngine
from repro.federated.secure_agg import SecureAggregationConfig
from repro.federated.secure_protocol import SecureRoundReport, run_secure_round
from repro.federated.server_optim import ServerOptimizer, ServerOptimizerConfig
from repro.federated.user_table import UserTable
from repro.robustness.attacks import AttackConfig, choose_malicious, poison_update
from repro.robustness.defenses import (
    ROW_KINDS,
    RobustAggregationConfig,
    krum_select,
    robust_embedding_aggregate,
    server_clip_updates,
)
from repro.compression.client import ClientCompressor
from repro.compression.codecs import CompressionConfig
from repro.models.factory import build_model
from repro.nn import init as nn_init
from repro import parallel


@dataclass
class FederatedConfig:
    """Hyper-parameters of a federated training run.

    Defaults follow the paper's Section V-D: Adam with lr 0.001, negative
    ratio 1:4, dims {8, 16, 32}, 256 clients per round, heads [2N, 8, 8].
    """

    arch: str = "ncf"
    dims: Dict[str, int] = field(default_factory=lambda: {"s": 8, "m": 16, "l": 32})
    hidden: Tuple[int, ...] = (8, 8)
    epochs: int = 20
    clients_per_round: int = 256
    local_epochs: int = 4
    lr: float = 0.01
    negative_ratio: int = 4
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    seed: int = 0
    eval_every: int = 1
    #: Optional upload protection (clipping / LDP noise);
    #: see :mod:`repro.federated.privacy`.  ``None`` = no protection.
    privacy: Optional["PrivacyConfig"] = None
    #: Optional secure aggregation: every round runs the full phased
    #: masking protocol (:mod:`repro.federated.secure_protocol` — key
    #: advertisement, Shamir shares, double-masked input, unmasking with
    #: dropout recovery), so the server only ever sees per-round sums.
    secure_aggregation: Optional["SecureAggregationConfig"] = None
    #: Optional update compression applied to every upload; see
    #: :mod:`repro.compression`.  ``None`` = dense uploads.
    compression: Optional["CompressionConfig"] = None
    #: Optional server-side optimiser for applying aggregated deltas
    #: (FedAvgM / FedAdam / FedYogi); ``None`` = the aggregate is applied unscaled.
    server_optimizer: Optional["ServerOptimizerConfig"] = None
    #: Optional poisoning: a fraction of clients uploads poisoned deltas;
    #: see :mod:`repro.robustness.attacks`.  ``None`` = every client honest.
    attack: Optional["AttackConfig"] = None
    #: Optional robust aggregation on the server; see
    #: :mod:`repro.robustness.defenses`.  ``None`` = the plain padded sum.
    defense: Optional["RobustAggregationConfig"] = None
    #: Optional offline/straggler simulation; see
    #: :mod:`repro.federated.availability`.  ``None`` = everyone on time.
    availability: Optional["AvailabilityConfig"] = None
    #: Floating dtype of model/user parameters (``"float64"`` or
    #: ``"float32"``).  Sweeps opt into float32 for speed/memory; the
    #: default stays float64 so gradient checking is unaffected.
    dtype: str = "float64"
    #: Full-state autosave target for :meth:`FederatedTrainer.fit`: when
    #: set (and ``checkpoint_every > 0``), the trainer writes an atomic
    #: checkpoint here every ``checkpoint_every`` epochs so an
    #: interrupted run can resume bitwise-identically — see
    #: :mod:`repro.federated.checkpoint`.  ``None`` disables autosave.
    checkpoint_path: Optional[str] = None
    #: Epoch interval between autosaves; 0 disables them.
    checkpoint_every: int = 0

    def copy_with(self, **overrides) -> "FederatedConfig":
        """Functional update (used heavily by the experiment sweeps)."""
        from dataclasses import replace

        return replace(self, **overrides)


class FederatedTrainer:
    """Simulated central server plus the fleet of client runtimes."""

    method_name = "federated"

    #: Per-client personal models ``{user: model state_dict}`` of a trainer
    #: whose clients never exchange parameters (Standalone).  ``None``: every
    #: client trains from the shared global models and uploads deltas.
    _client_states: Optional[Dict[int, Dict[str, np.ndarray]]] = None

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        group_of: Mapping[int, str],
        config: FederatedConfig,
        excluded_uploaders: Optional[Set[int]] = None,
    ) -> None:
        self.num_items = num_items
        self.clients = list(clients)
        self.group_of = dict(group_of)
        self.config = config
        self.excluded_uploaders = excluded_uploaders or set()
        self.meter = CommunicationMeter()
        self.history = TrainingHistory()
        self._rng = np.random.default_rng(config.seed)
        self._round_counter = 0
        self._epochs_done = 0
        self._compressor = (
            ClientCompressor(config.compression)
            if config.compression is not None and config.compression.kind != "none"
            else None
        )
        self._server_opt = (
            ServerOptimizer(config.server_optimizer)
            if config.server_optimizer is not None
            else None
        )
        self._straggler_buffer = (
            StragglerBuffer()
            if config.availability is not None and config.availability.enabled
            else None
        )
        #: Fault-injection seam for the secure-aggregation protocol: a
        #: callable ``(round_id, participant_ids) -> Optional[FaultPlan]``
        #: deciding which clients drop/duplicate at which phase.  ``None``
        #: (the default) runs every secure round clean; the protocol
        #: tests plug in here (the simulator's ``secure_dropout`` scenario
        #: does not: it drives the protocol through
        #: :class:`repro.sim.secure.SecureAggregatingBackend`).
        self._secure_fault_plan = None
        #: Differential-privacy accountant — only meaningful when the
        #: clipped-noise mechanism is actually active (clip + noise).
        self._accountant = (
            PrivacyAccountant(config.privacy.noise_std)
            if config.privacy is not None
            and config.privacy.clip_norm > 0
            and config.privacy.noise_std > 0
            else None
        )
        #: The malicious sub-population and its poison stream, drawn once
        #: per malicious client per round.
        self.malicious: Set[int] = set()
        if config.attack is not None:
            self.malicious = choose_malicious(
                self.clients, config.attack.fraction, seed=config.attack.seed
            )
            self._attack_rng = np.random.default_rng(config.attack.seed + 101)
        if config.secure_aggregation is not None and config.defense is not None:
            raise ValueError(
                "robust aggregation needs plaintext uploads; it cannot run "
                "under secure aggregation (the server only sees sums there)"
            )
        if type(self).aggregate_embeddings is not FederatedTrainer.aggregate_embeddings:
            if config.secure_aggregation is not None:
                raise ValueError(
                    "secure aggregation implements the padded-sum path and cannot "
                    f"honour {type(self).__name__}'s custom embedding aggregation"
                )
            if config.defense is not None and config.defense.kind in ROW_KINDS:
                raise ValueError(
                    f"a {config.defense.kind} defense replaces the padded sum and "
                    f"cannot honour {type(self).__name__}'s custom embedding "
                    "aggregation"
                )

        missing = [c.user_id for c in self.clients if c.user_id not in self.group_of]
        if missing:
            raise KeyError(f"clients without group assignment: {missing[:5]}...")

        if config.dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported dtype {config.dtype!r}")

        self.groups: List[str] = sorted(
            set(self.group_of.values()), key=lambda g: config.dims[g]
        )
        self._build_models()
        self._build_runtimes()
        self._engine = VectorizedRoundEngine(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_models(self) -> None:
        """One model per group, item tables initialised with shared prefixes.

        Shared-prefix initialisation realises the paper's Eq. 10
        precondition; for a single homogeneous group it degenerates to a
        plain Gaussian init.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        dims = {g: cfg.dims[g] for g in self.groups}
        tables = nn_init.nested_embedding_tables(self.num_items, list(dims.values()), rng=rng)
        self.models = {}
        for group in self.groups:
            self.models[group] = build_model(
                cfg.arch,
                num_items=self.num_items,
                dim=dims[group],
                hidden=cfg.hidden,
                rng=rng,
                item_weight=tables[dims[group]],
            )
        if cfg.dtype != "float64":
            # Parameters are initialised in float64 for RNG-stream
            # stability, then cast once so every session runs in the
            # configured precision end to end.
            target = np.dtype(cfg.dtype)
            for model in self.models.values():
                for param in model.parameters():
                    param.data = param.data.astype(target)

    def _build_runtimes(self) -> None:
        """One runtime per client, then one :class:`UserTable` per group,
        assembled from the runtimes' own initial draws (their RNG streams
        are untouched); every member is re-pointed at its group's table,
        the only copy from here on."""
        cfg = self.config
        dtype = np.dtype(cfg.dtype)
        self.runtimes: Dict[int, ClientRuntime] = {}
        for client in self.clients:
            group = self.group_of[client.user_id]
            self.runtimes[client.user_id] = ClientRuntime(
                data=client,
                embedding_dim=cfg.dims[group],
                num_items=self.num_items,
                seed=cfg.seed,
                dtype=dtype,
            )
        self.user_tables: Dict[str, UserTable] = {}
        for group in self.groups:
            members = sorted(u for u in self.runtimes if self.group_of[u] == group)
            dim = cfg.dims[group]
            # ``group_of`` may name a group none of ``clients`` is in.
            rows = [self.runtimes[u].table.values for u in members] or [
                np.empty((0, dim), dtype)
            ]
            table = UserTable(
                np.array(members, dtype=np.int64), np.concatenate(rows), dim, dtype
            )
            for user in members:
                self.runtimes[user].table = table
            self.user_tables[group] = table

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def trained_head_groups(self, group: str) -> List[str]:
        """Which Θ heads a client of ``group`` downloads and trains.

        Base protocol: only its own.  HeteFedRec overrides this to every
        head of width ≤ its own (dual-task requirement).
        """
        return [group]

    def fused_objective(self) -> float:
        """Weight α of the decorrelation term (Eq. 13) in the local objective.

        The round engine trains every client on the per-width BCE tasks
        of :meth:`trained_head_groups` plus ``α ·`` the penalty over the
        rows :meth:`presample_ddr_rows` draws.  The base protocol has no
        such term; HeteFedRec returns its ``alpha`` when DDR is enabled.
        """
        return 0.0

    def presample_ddr_rows(self, user_ids: Sequence[int]):
        """Pre-draw each client's DDR row subset for one round.

        The round engine calls this once at the start of a round, in
        round order, making it the single site that consumes the shared
        DDR RNG.  The base protocol has no decorrelation term, hence no
        draws.
        """
        return {}

    def accept_update(self, update: ClientUpdate) -> bool:
        """Server-side filter — All Large/Exclusive drops weak clients here."""
        return update.user_id not in self.excluded_uploaders

    def aggregate_embeddings(self, updates: Sequence[ClientUpdate]) -> Dict[str, np.ndarray]:
        """Default: the paper's padding aggregation (Eq. 8); a median or
        trimmed-mean defense takes its per-row robust statistic instead."""
        dims = {g: self.config.dims[g] for g in self.groups}
        defense = self.config.defense
        if defense is not None and defense.kind in ROW_KINDS:
            return robust_embedding_aggregate(updates, dims, kind=defense.kind)
        return padded_embedding_aggregate(updates, dims)

    def post_aggregate(self, epoch: int) -> None:
        """Server-side step after aggregation — HeteFedRec runs RESKD here."""

    # ------------------------------------------------------------------
    # Upload tail
    # ------------------------------------------------------------------
    def _finish_upload(self, update: ClientUpdate, rng: np.random.Generator) -> ClientUpdate:
        """Protect → compress → meter, the client-side tail of every upload;
        applied in the round's client order (the codec RNG may be shared)."""
        cfg = self.config
        group = update.group
        embedding_size = self.num_items * cfg.dims[group]
        heads_size = sum(state_size(delta) for delta in update.head_deltas.values())
        if cfg.privacy is not None and cfg.privacy.enabled:
            # Protection happens on the client, before anything leaves it.
            update = protect_update(update, cfg.privacy, rng)
        if self._compressor is not None:
            # Compression is the last client-side transform; the server
            # aggregates the lossy reconstruction it would decode.
            update = self._compressor.apply(update)
        # The download always ships the dense public parameters; the upload
        # is whatever actually leaves the client (compressed if configured).
        self.meter.record(
            group, download=embedding_size + heads_size, upload=int(update.upload_size)
        )
        return update

    # ------------------------------------------------------------------
    # Server-side aggregation
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Sequence[ClientUpdate]) -> None:
        defense = self.config.defense
        if defense is not None:
            # Upload-level defences run before anything is aggregated.
            if defense.kind == "clip":
                updates = server_clip_updates(updates, defense.clip_headroom)
            elif defense.kind == "krum":
                dims = {g: self.config.dims[g] for g in self.groups}
                updates = krum_select(updates, dims)
        accepted = [u for u in updates if self.accept_update(u)]
        if not accepted:
            return
        self._round_counter += 1

        if self.config.secure_aggregation is not None:
            secure = self._secure_aggregate(accepted)
            if secure is None:
                # Below-threshold abort: the round released nothing; the
                # updates were rerouted into the availability path.
                return
            embedding_deltas, head_deltas = secure
        else:
            embedding_deltas = self.aggregate_embeddings(accepted)
            head_deltas = aggregate_head_updates(
                accepted, mode=self.config.aggregation.theta_mode
            )
        if self._accountant is not None:
            # One successful aggregation = one released noisy query.
            self._accountant.record_round()

        for group, delta in embedding_deltas.items():
            self.models[group].item_embedding.weight.data += self._server_step(
                f"V:{group}", delta
            )
        for head_group, delta in head_deltas.items():
            head = self.models[head_group].head
            for name, param in head.named_parameters():
                param.data += self._server_step(
                    f"Theta:{head_group}:{name}", delta[name]
                )

    def _server_step(self, key: str, delta: np.ndarray) -> np.ndarray:
        """Aggregated delta → parameter step, via the server optimiser if set.

        Both paths are elementwise in the delta, so prefix-consistent
        per-group deltas produce prefix-consistent steps and the Eq. 10
        nesting invariant survives any server optimiser.
        """
        if self._server_opt is not None:
            return self._server_opt.step(key, delta)
        return delta

    def _secure_aggregate(
        self, accepted: Sequence[ClientUpdate]
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Dict[str, np.ndarray]]]]:
        """One full secure-protocol round (see ``secure_protocol``).

        Drives every phase — key advertisement, Shamir shares, masked
        input, unmasking — under the optional fault plan, meters the true
        per-phase wire costs, and returns the decoded sums over the
        round's *survivors*.  A below-threshold abort reroutes the
        updates into the straggler buffer and returns ``None``.

        Θ's mean mode is reproduced from public metadata: the server knows
        which group every surviving uploader belongs to, hence the
        per-head contributor counts, without seeing any plaintext values.
        """
        cfg = self.config
        dims = {g: cfg.dims[g] for g in self.groups}

        faults = None
        if self._secure_fault_plan is not None:
            faults = self._secure_fault_plan(
                self._round_counter, [int(u.user_id) for u in accepted]
            )
        embeddings, heads, report = run_secure_round(
            accepted,
            dims,
            cfg.secure_aggregation,
            round_id=self._round_counter,
            faults=faults,
        )
        self._meter_secure_round(accepted, report)
        if report.aborted:
            self._secure_abort_fallback(accepted, report)
            return None

        survivor_ids = set(report.survivors)
        surviving = [u for u in accepted if int(u.user_id) in survivor_ids]
        if cfg.aggregation.theta_mode == "mean":
            mean_over_head_contributors(surviving, heads)
        return embeddings, heads

    def _meter_secure_round(
        self, accepted: Sequence[ClientUpdate], report: SecureRoundReport
    ) -> None:
        """True wire accounting for one secure round (Table III honesty).

        Each survivor's upload is a *dense* masked vector over its own
        model's prefix of the round layout — the sparse ``upload_size``
        recorded at training time is a fiction under secure aggregation,
        so it is replaced by the client's masked length.  Clients that
        dropped before delivering masked input never uploaded at all;
        their sparse record is removed.
        Key/share/MAC/unmask traffic lands in the meter's per-phase
        protocol ledger.  Aborted rounds correct nothing: the buffered
        updates keep their sparse ``upload_size`` and the correction
        happens in the retry round that finally delivers them (the
        wasted masked vectors are already in the protocol ledger).
        """
        for phase, cost in report.phase_wire.items():
            if cost:
                self.meter.record_protocol(phase, cost)
        self.meter.saturated_scalars += int(report.saturated_scalars)
        if report.aborted:
            return
        survivor_ids = set(report.survivors)
        for update in accepted:
            group = update.group
            if int(update.user_id) in survivor_ids:
                masked = report.masked_lengths[int(update.user_id)]
                correction = masked - int(update.upload_size)
            else:
                correction = -int(update.upload_size)
            self.meter.uploads[group] = (
                self.meter.uploads.get(group, 0) + correction
            )

    def _secure_abort_fallback(
        self, accepted: Sequence[ClientUpdate], report: SecureRoundReport
    ) -> None:
        """Route an aborted round's updates into the availability path.

        With a straggler buffer the updates are re-queued unscaled (they
        are not stale — the round simply failed) and ride into the next
        aggregation; without one they are dropped and counted, exactly
        like a buffered update that aged out.
        """
        if self._straggler_buffer is not None:
            self._straggler_buffer.add(list(accepted), weight=1.0)
            return
        self.meter.dropped_updates += len(accepted)
        warnings.warn(
            f"secure round {report.round_id} aborted at phase "
            f"{report.abort_phase!r} with no straggler buffer configured; "
            f"{len(accepted)} update(s) dropped",
            RuntimeWarning,
            stacklevel=3,
        )

    def privacy_spent(self) -> Optional[PrivacySpent]:
        """Cumulative (ε, δ) of the clipped-noise mechanism, or ``None``."""
        if self._accountant is None:
            return None
        return self._accountant.spent()

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def participation_rounds(self, epoch: int) -> List[List[int]]:
        """The per-round client cohorts of one epoch, in traversal order.

        The single site that consumes the permutation RNG: the default
        source shuffles the client queue once and chunks it into rounds
        of ``clients_per_round`` (Section V-D).  Both consumers —
        ``run_epoch`` and the simulator's
        :class:`~repro.sim.async_server.TrainerBackend` — read the
        schedule here.
        """
        queue = self._rng.permutation([c.user_id for c in self.clients])
        step = self.config.clients_per_round
        return [
            [int(u) for u in queue[start : start + step]]
            for start in range(0, len(queue), step)
        ]

    def run_epoch(self, epoch: int) -> float:
        """One traversal of the shuffled client queue; returns mean loss.

        With availability simulation enabled, offline clients never train
        this round and stragglers' updates land (down-weighted) in the
        *next* round's aggregation — or are evicted unapplied once they
        age past ``buffer_max_age_rounds``, counted in
        ``meter.dropped_updates`` — see :mod:`repro.federated.availability`.
        """
        losses: List[float] = []
        for round_index, round_users in enumerate(self.participation_rounds(epoch)):
            if self._straggler_buffer is not None:
                on_time, stragglers, _offline = split_round(
                    self.config.availability, epoch, round_index, round_users
                )
            else:
                on_time, stragglers = round_users, []

            updates = self._train_clients(on_time)
            late = self._train_clients(stragglers)
            losses.extend(u.train_loss for u in updates)

            if self._straggler_buffer is not None:
                evicted = self._straggler_buffer.tick()
                self.meter.dropped_updates += len(evicted)
                updates = merge_duplicate_users(
                    self._straggler_buffer.drain() + updates
                )
                self._straggler_buffer.add(late)
            self.apply_updates(updates)
        self.post_aggregate(epoch)
        return float(np.mean(losses)) if losses else 0.0

    def _train_clients(self, users: Sequence[int]) -> List[ClientUpdate]:
        """Local-training phase for one round's client list: every client's
        upload, in list order, from the round engine.

        Under an attack a malicious client's finished upload is then
        poisoned — a pure post-transform, so local training stays on the
        engine — and list order fixes the poison stream's draw order.
        """
        if not users:
            return []
        updates = self._engine.train_round(users)
        attack = self.config.attack
        if attack is None:
            return updates
        return [
            poison_update(update, attack, self._attack_rng)
            if update.user_id in self.malicious
            else update
            for update in updates
        ]

    def fit(self, evaluator: Optional[Evaluator] = None) -> TrainingHistory:
        """Run the full federated schedule, logging history per epoch.

        Resume-aware: epochs already completed (a freshly built trainer
        has none; one restored via
        :func:`repro.api.resume` continues
        where the checkpoint stopped) are skipped, and with
        ``config.checkpoint_path`` + ``checkpoint_every`` set, a
        full-state checkpoint is autosaved atomically every
        ``checkpoint_every`` epochs — the interrupt/resume stream is
        bitwise-identical to an uninterrupted run.
        """
        cfg = self.config
        autosave = cfg.checkpoint_path is not None and cfg.checkpoint_every > 0
        for epoch in range(self._epochs_done + 1, cfg.epochs + 1):
            mean_loss = self.run_epoch(epoch)
            recall = ndcg = None
            if evaluator is not None and (
                epoch % cfg.eval_every == 0 or epoch == cfg.epochs
            ):
                result = self.evaluate_with(evaluator)
                recall, ndcg = result.recall, result.ndcg
            epsilon = delta = None
            spent = self.privacy_spent()
            if spent is not None:
                epsilon, delta = spent.epsilon, spent.delta
            self.history.log(
                epoch, mean_loss, recall=recall, ndcg=ndcg,
                epsilon=epsilon, delta=delta,
            )
            self._epochs_done = epoch
            # The final epoch always saves: the checkpoint doubles as the
            # deploy artefact, so it must never trail the finished run.
            if autosave and (
                epoch % cfg.checkpoint_every == 0 or epoch == cfg.epochs
            ):
                from repro.federated.checkpoint import save_checkpoint_impl

                save_checkpoint_impl(self, cfg.checkpoint_path)
        return self.history

    @property
    def epochs_completed(self) -> int:
        """Epochs :meth:`fit` has finished (survives checkpoint/resume)."""
        return self._epochs_done

    def evaluate_with(self, evaluator: Evaluator, user_subset=None):
        """Run ``evaluator`` over this trainer's block scorer; under an
        attack, over the honest clients unless ``user_subset`` says otherwise."""
        if user_subset is None and self.config.attack is not None:
            user_subset = self.honest_clients()
        return evaluator.evaluate(self.score_item_matrix, user_subset=user_subset)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def score_item_matrix(self, clients: Sequence[ClientData]) -> np.ndarray:
        """Scores of every catalogue item for a block of users at once.

        Gathers each dim-group's rows from its user table and runs the
        group model's batched :meth:`~repro.models.base.BaseRecommender.score_matrix`
        once; :meth:`Evaluator.evaluate` and the checkpoint's served
        scores read it.  Each client's local graph rides along for
        architectures whose scoring propagates over it.  The groups are
        scored concurrently (:func:`~repro.parallel.run_groups`), each
        task writing its own rows; a group's call is the serial one, so
        the block is bitwise the same on any number of cores.
        """
        scores = np.empty((len(clients), self.num_items))

        def score_rows(group: str, positions: List[int], slot: int) -> None:
            scores[positions] = self.models[group].score_matrix(
                self.user_tables[group].take([clients[i].user_id for i in positions]),
                train_items=[clients[i].train_items for i in positions],
            )

        by_group: Dict[str, List[int]] = {}
        for i, client in enumerate(clients):
            by_group.setdefault(self.group_of[client.user_id], []).append(i)
        present = [group for group in self.groups if group in by_group]
        parallel.run_groups(
            [partial(score_rows, group, by_group[group]) for group in present],
            [len(by_group[group]) * self.num_items for group in present],
            parallel.SERIAL_CELLS,
        )
        return scores

    # ------------------------------------------------------------------
    # Checkpointing hooks (see :mod:`repro.federated.checkpoint`)
    # ------------------------------------------------------------------
    def _checkpoint_rngs(self) -> Dict[str, np.random.Generator]:
        """Named server-side RNG streams a resume must replay exactly.

        The base protocol draws from the permutation RNG (plus the shared
        codec RNG when compression is configured — random-k sparsification
        consumes it every upload); subclasses with extra streams
        (HeteFedRec's KD/DDR generators) extend the mapping.  Per-client
        streams (``runtime.rng``, the negative sampler) are handled
        separately by the checkpoint layer.
        """
        rngs = {"trainer": self._rng}
        if self._compressor is not None:
            rngs["codec"] = self._compressor.codec._rng
        if self.config.attack is not None:
            # Without it a resumed attack run replays fresh poison noise.
            rngs["attack"] = self._attack_rng
        return rngs

    def _checkpoint_extra_state(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` of subclass state beyond the base protocol.

        ``arrays`` joins the checkpoint's ``.npz`` payload (keys must not
        collide with the base layout); ``meta`` must be JSON-serialisable
        and lands under the manifest's ``"extra"`` section.  The base
        trainer carries nothing extra; Standalone persists its per-client
        model copies here and the unlearning trainer its ledger.
        """
        return {}, {}

    def _restore_checkpoint_extra_state(self, archive, meta: dict) -> None:
        """Inverse of :meth:`_checkpoint_extra_state` (no-op by default).
        ``archive`` maps member names to arrays.  Runs after every other
        check and before any write: an override checks, then writes."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def honest_clients(self) -> List[int]:
        """Every client outside the malicious sub-population, in order."""
        return [c.user_id for c in self.clients if c.user_id not in self.malicious]

    def group_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for user, group in self.group_of.items():
            sizes[group] = sizes.get(group, 0) + 1
        return sizes

    def public_parameter_counts(self) -> Dict[str, int]:
        """Per-group public parameter totals (Table III context)."""
        return {
            group: self.num_items * self.config.dims[group]
            + head_parameter_count(self.config.dims[group], self.config.hidden)
            for group in self.groups
        }
