"""Vectorized round execution: train every client of a dim-group at once.

The reference protocol (``FederatedTrainer.train_client``) runs each
client's local session through its own small autodiff graph — correct,
but a 256-client round then pays Python/tape overhead 256 times per local
epoch.  Because every client in a round trains *from the same global
snapshot* and the server only sees the resulting deltas, the sessions are
mutually independent; this engine exploits that to run all of a
dim-group's sessions as one fused batched graph per local epoch.

Padding / mask scheme
---------------------
Clients of one group share an embedding width ``d`` but differ in batch
length and in which item rows they touch, so both axes are padded:

* **Item rows.**  Each client ``b`` only ever reads/writes the rows named
  in its local batches (plus, under DDR, its sampled regulariser rows).
  The union of those rows, ``uniq_b``, is copied out of the global table
  into a per-client working table; the stacked working tables form ``W``
  of shape ``(B, S, d)`` where ``S = max_b |uniq_b|``.  Rows past
  ``|uniq_b|`` are zero padding that no index ever references, so they
  receive zero gradient and never feed back.
* **Batch positions.**  Per-epoch batches are right-padded to ``L = max_b
  L_b`` with local index 0 and label 0; a weight matrix carrying
  ``1/L_b`` on real positions and ``0`` on padding reproduces each
  client's *own* BCE mean while zeroing every padded position's gradient.
* **Private/user state.**  User embeddings stack into ``(B, d)``; every
  head a client trains is replicated per client into ``(B, ...)``
  stacks, because each reference session trains its own head copy before
  the server aggregates the deltas.

Multi-width dual-task fusion
----------------------------
HeteFedRec's unified dual-task loss (paper Eq. 11) scores the *same*
batch through every nested width ``w ≤ d``: prefix slices of the stacked
user/item tensors feed that width's replicated head, each width's
per-client BCE mean lands in the same tape, and one backward pass pushes
coherent gradients into every nested prefix at once — exactly the
reference's ``dual_task_loss``, over all clients simultaneously.  The
α-weighted decorrelation penalty (Eq. 13) batches the same way: the
per-client DDR row sample becomes one more ``batched_gather`` and the
column-standardised correlation norm is computed per batch slice
(:func:`batched_decorrelation_penalty`).  The DDR row subsets are drawn
*up front* through ``trainer.presample_ddr_rows`` in round order, so the
shared DDR RNG stream matches the per-client reference exactly.

One shared :class:`~repro.nn.optim.Adam` instance over the stacked
parameters is *exactly* B independent per-client Adams: the update is
elementwise and every client steps at the same local-epoch boundaries.
Likewise the dense per-row moments of the stacked working tables evolve
exactly as the touched rows of the reference's full-table moments (rows
with zero gradient keep zero moments).  The engine is therefore
numerically equivalent to the per-client reference path up to
floating-point summation order; ``tests/test_round_engine.py`` pins this
to 1e-8 over multi-epoch runs, for base and full-HeteFedRec objectives.

Updates are emitted row-sparse (:class:`~repro.federated.payload.
SparseRowDelta`): the engine already knows each client's touched row
set, so the upload is built in O(touched rows) with no per-client
full-table materialisation.

LightGCN local-graph propagation
--------------------------------
LightGCN's forward runs one star-graph propagation step before scoring:
the user row absorbs the degree-normalized average of its interacted
item rows, and interacted item rows mix with the user row.  Per client
that is a sparse row vector (``1/|N(u)|`` over the neighbour rows)
times its working table — so the bucket's propagation stacks the
per-client normalized adjacency rows into one padded CSR layout
(``(B, E)`` local indices + coefficients) and runs a single batched
sparse–dense matmul (:func:`~repro.autograd.ops.batched_sparse_matmul`)
per epoch, inside the tape.  The item-side mix is an ``ops.where`` over
the precomputed interacted mask.  Propagation is coordinatewise in the
embedding, so the full-width propagated tensors feed the zero-padded
dual-task heads with the same exactness argument as NCF/MF
(``model.fused_propagation()`` is the model-layer hook describing this
stage; ``None`` means score the gathered embeddings directly).

The reference path remains the correctness oracle and the fallback for
subclasses that override the local-training hooks (``client_loss``,
``trained_head_groups``, ``train_client``) without describing their
objective via ``fused_objective``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.data.sampling import TrainingBatch
from repro.federated.payload import (
    ClientUpdate,
    SparseRowDelta,
    state_delta,
    touched_rows,
)
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import Adam

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federated.trainer import FederatedTrainer


#: Architectures whose *training* graph the engine knows how to fuse
#: (``_fused_logits`` reproduces the ScoringHead MLP+GMF structure, and
#: LightGCN's local-graph propagation batches via the model's
#: ``fused_propagation`` descriptor).  Inference-time ``score_matrix``
#: support is not enough: a new architecture needs an engine forward of
#: its own, not just scoring.
BATCHABLE_ARCHS = ("ncf", "mf", "lightgcn")

#: Marks a client with no DDR term this round (distinct from ``None``,
#: which is a drawn full-table subset).
_NO_DDR = object()


@dataclass(frozen=True)
class FusedObjective:
    """What a trainer's ``client_loss`` looks like, engine-readably.

    The per-width BCE task list always comes from
    ``trainer.trained_head_groups`` (one task per head group, narrowest
    first — a single own-group task for the base protocol); the only
    extra degree of freedom the engine models is the decorrelation term.

    ``ddr_alpha``:
        Weight of the Eq. 13 penalty added to eligible clients' losses
        (0 disables).  Which clients are eligible, and which rows each
        samples per epoch, is answered by ``trainer.presample_ddr_rows``.
    """

    ddr_alpha: float = 0.0


def engine_supports(trainer: "FederatedTrainer") -> bool:
    """Whether ``trainer`` can be driven by the vectorized round engine.

    True when the stock ``train_client`` body runs an objective the
    trainer can describe as a :class:`FusedObjective` — the base
    protocol's own-group BCE, and every HeteFedRec configuration
    (dual-task on or off, with or without decorrelation; RESKD is
    server-side and irrelevant).  Subclasses that override
    ``train_client`` or whose hooks the engine cannot express
    (``fused_objective`` returning ``None``) keep the reference path;
    a subclass that only post-processes finished uploads overrides
    ``_train_clients`` instead (the adversarial harness) and is fused.
    """
    from repro.federated.trainer import FederatedTrainer

    return (
        trainer.config.arch in BATCHABLE_ARCHS
        and type(trainer).train_client is FederatedTrainer.train_client
        and trainer.fused_objective() is not None
    )


def _pad_head_value(
    name: str, value: np.ndarray, width: int, dim: int, dtype
) -> np.ndarray:
    """Zero-pad one width-``width`` head parameter to group width ``dim``.

    Only the width-dependent parameters change shape: the GMF weight
    grows ``(w, 1) → (d, 1)`` and the first FFN layer's ``[u, v]``
    weight grows ``(2w, h) → (2d, h)`` with the user/item blocks placed
    at offsets 0 and ``d``.  The padding is exact, not approximate: a
    zero weight row annihilates the ``≥ w`` coordinates of full-width
    operands, so the padded head computes the narrow head's logits (and
    real-region gradients) verbatim.
    """
    if width == dim:
        return np.ascontiguousarray(value, dtype=dtype)
    if name == "gmf.weight":
        padded = np.zeros((dim, 1), dtype=dtype)
        padded[:width] = value
        return padded
    if name == "ffn.layer0.weight":
        hidden = value.shape[1]
        padded = np.zeros((2 * dim, hidden), dtype=dtype)
        padded[:width] = value[:width]
        padded[dim : dim + width] = value[width:]
        return padded
    return np.ascontiguousarray(value, dtype=dtype)


def _unpad_head_value(
    name: str, padded: np.ndarray, width: int, dim: int
) -> np.ndarray:
    """Inverse of :func:`_pad_head_value`: slice the real weight region."""
    if width == dim:
        return padded
    if name == "gmf.weight":
        return padded[:width]
    if name == "ffn.layer0.weight":
        return np.concatenate([padded[:width], padded[dim : dim + width]])
    return padded


def batched_decorrelation_penalty(stack: Tensor, eps: float = 1e-8) -> Tensor:
    """Eq. 13 per batch slice: ``(B, M, d) → (B,)`` penalties.

    Matches :func:`repro.core.decorrelation.decorrelation_penalty`
    applied to each ``(M, d)`` slice — same standardisation, same
    in-norm diagonal, same ``eps`` placement — so the fused dual-task
    loss reproduces the reference DDR term to summation order.
    """
    _, m, d = stack.shape
    centred = stack - stack.mean(axis=1, keepdims=True)
    variance = (centred * centred).mean(axis=1, keepdims=True)
    z = centred / ((variance + eps) ** 0.5)
    corr = z.transpose((0, 2, 1)).matmul(z) / float(m)
    return ((corr * corr).sum(axis=(1, 2)) + eps) ** 0.5 / float(d)


def _length_buckets(
    lengths: np.ndarray,
    dim: int,
    waste: float = 1.35,
    area_cap: int = 16_000_000,
) -> List[np.ndarray]:
    """Partition clients into padding-friendly buckets by batch length.

    Within a bucket every batch is right-padded to the bucket maximum.
    Walking clients in ascending length order, a bucket is closed when
    admitting the next client would push the bucket's *padded* area
    ``(B+1)·L_max`` beyond ``waste``× its real area ``Σ L_b`` — so padded
    positions stay under ~35% while near-uniform rounds fuse into a
    single graph — or when the padded activation area ``B·L·d`` would
    pass ``area_cap`` elements (bounds peak memory for huge rounds).
    Interaction counts are heavy-tailed, so without this the whole
    group would pad to its one chattiest client.
    """
    order = np.argsort(lengths, kind="stable")
    buckets: List[np.ndarray] = []
    current: List[int] = []
    real_area = 0
    for position in order:
        length = max(int(lengths[position]), 1)
        padded_area = (len(current) + 1) * length
        if current and (
            padded_area > waste * (real_area + length)
            or padded_area * dim > area_cap
        ):
            buckets.append(np.asarray(current, dtype=np.int64))
            current = []
            real_area = 0
        current.append(int(position))
        real_area += length
    if current:
        buckets.append(np.asarray(current, dtype=np.int64))
    return buckets


class VectorizedRoundEngine:
    """Batched executor for one round's local-training phase."""

    def __init__(self, trainer: "FederatedTrainer") -> None:
        if not engine_supports(trainer):
            raise ValueError(
                f"{type(trainer).__name__} (arch={trainer.config.arch!r}) "
                "is not supported by the vectorized round engine"
            )
        self.trainer = trainer
        self.objective: FusedObjective = trainer.fused_objective()

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def train_round(self, user_ids: Sequence[int]) -> List[ClientUpdate]:
        """Train every listed client and return updates in input order."""
        trainer = self.trainer
        user_ids = [int(u) for u in user_ids]

        # DDR row subsets come from a trainer-shared RNG that the
        # reference path consumes in round order; draw them all first.
        ddr_rows = trainer.presample_ddr_rows(user_ids)

        by_group: Dict[str, List[int]] = {}
        for user in user_ids:
            by_group.setdefault(trainer.group_of[user], []).append(user)

        raw: Dict[int, ClientUpdate] = {}
        for group in trainer.groups:
            members = by_group.get(group)
            if members:
                for update in self._train_group(group, members, ddr_rows):
                    raw[update.user_id] = update

        # Scope the presampled subsets to this round (mirrors the
        # reference branch of ``_train_clients``).
        trainer.presample_ddr_rows([])

        # In the round's client order, not bucket order: the compressor may
        # hold a shared codec RNG and must match the reference path's draws.
        return [
            trainer._finish_upload(raw[user], trainer.runtimes[user].rng)
            for user in user_ids
        ]

    # ------------------------------------------------------------------
    # One dim-group
    # ------------------------------------------------------------------
    def _train_group(
        self, group: str, users: List[int], ddr_rows: Dict[int, Optional[np.ndarray]]
    ) -> List[ClientUpdate]:
        trainer = self.trainer
        cfg = trainer.config
        runtimes = [trainer.runtimes[user] for user in users]

        # Pre-draw every local epoch's batch.  Each client's sampler and
        # shuffle RNG are private, so drawing a client's epochs back to
        # back consumes its streams in exactly the reference order.
        epoch_batches: List[List[TrainingBatch]] = [
            [runtime.sample_batch(cfg.negative_ratio) for _ in range(cfg.local_epochs)]
            for runtime in runtimes
        ]

        # Interaction counts are heavy-tailed, so padding the whole group
        # to its longest batch would drown the win in padded work; bucket
        # clients by batch length and fuse each bucket separately.
        lengths = np.array([len(batches[0]) if batches else 0 for batches in epoch_batches])
        updates: List[ClientUpdate] = []
        for bucket in _length_buckets(lengths, cfg.dims[group]):
            updates.extend(
                self._train_bucket(
                    group,
                    [users[i] for i in bucket],
                    [runtimes[i] for i in bucket],
                    [epoch_batches[i] for i in bucket],
                    [ddr_rows.get(users[i], _NO_DDR) for i in bucket],
                )
            )
        return updates

    def _train_bucket(
        self,
        group: str,
        users: List[int],
        runtimes,
        epoch_batches: List[List[TrainingBatch]],
        ddr_rows: List[object],
    ) -> List[ClientUpdate]:
        trainer = self.trainer
        cfg = trainer.config
        model = trainer.models[group]
        num_clients = len(users)
        dim = cfg.dims[group]
        table = model.item_embedding.weight.data  # global V, read-only here
        dtype = table.dtype
        num_items = table.shape[0]

        # DDR eligibility is uniform within a group: the stock trainers
        # (the only ones `fused_objective` admits — overriding
        # presample_ddr_rows falls back to the reference path) pre-draw
        # a subset for all of a group's clients or for none.  Ineligible
        # users carry the ``_NO_DDR`` sentinel, a drawn ``None`` means
        # the full table.
        eligible = [subset is not _NO_DDR for subset in ddr_rows]
        ddr_active = self.objective.ddr_alpha > 0 and all(eligible)
        if any(eligible) != all(eligible):
            raise ValueError(
                f"non-uniform DDR eligibility within group {group!r}: the "
                "fused round engine requires presample_ddr_rows to cover "
                "all of a group's clients or none"
            )
        ddr_subsets = [
            (
                subset
                if subset is not None
                else np.arange(num_items, dtype=np.int64)
            )
            for subset in (ddr_rows if ddr_active else [])
        ]
        local_epochs = cfg.local_epochs

        # Per-client local row sets: batch items, the local graph's
        # neighbour rows when the model propagates, plus the round's
        # DDR-sampled rows.
        propagation = model.fused_propagation()
        neighbour_ids: List[np.ndarray] = []
        uniq_rows: List[np.ndarray] = []
        local_idx: List[List[np.ndarray]] = []
        ddr_local_idx: List[np.ndarray] = []
        for b, batches in enumerate(epoch_batches):
            parts = [batch.items for batch in batches]
            if propagation is not None:
                # Neighbour rows are read (and written, through the
                # propagation gradient) every epoch; they are the batch
                # positives, so this is normally a no-op union.
                neighbour_ids.append(
                    np.asarray(runtimes[b].data.train_items, dtype=np.int64)
                )
                parts.append(neighbour_ids[-1])
            if ddr_active:
                parts.append(ddr_subsets[b])
            items = (
                np.concatenate(parts) if parts else np.empty(0, np.int64)
            )
            uniq = np.unique(items)
            if uniq.size == 0:
                uniq = np.zeros(1, dtype=np.int64)
            uniq_rows.append(uniq)
            local_idx.append(
                [np.searchsorted(uniq, batch.items) for batch in batches]
            )
            if ddr_active:
                ddr_local_idx.append(np.searchsorted(uniq, ddr_subsets[b]))

        batch_lengths = np.array(
            [len(batches[0]) if batches else 0 for batches in epoch_batches]
        )
        max_len = max(int(batch_lengths.max()), 1)
        max_rows = max(len(uniq) for uniq in uniq_rows)

        # Padded CSR layout of the stacked star graphs: one normalized
        # adjacency row per client over its working table, shared by
        # every epoch's propagation matmul.  Clients with empty local
        # graphs get an all-zero coefficient row plus a ``where`` that
        # keeps their user embedding unpropagated (the reference's
        # empty-neighbourhood limit).
        nbr_idx = nbr_coeffs = has_neighbours = None
        if propagation is not None:
            nbr_counts = np.array([ids.size for ids in neighbour_ids])
            max_nbr = max(int(nbr_counts.max()), 1)
            nbr_idx = np.zeros((num_clients, max_nbr), dtype=np.int64)
            nbr_coeffs = np.zeros((num_clients, max_nbr), dtype=dtype)
            for b, ids in enumerate(neighbour_ids):
                if ids.size:
                    nbr_idx[b, : ids.size] = np.searchsorted(uniq_rows[b], ids)
                    nbr_coeffs[b, : ids.size] = 1.0 / ids.size
            if not nbr_counts.all():
                has_neighbours = (nbr_counts > 0).reshape(num_clients, 1)

        # Stacked working tables, user matrix and replicated heads.  The
        # dual-task widths fuse into one (T, B, ...) head stack with
        # narrower heads zero-padded to the group width: a zero weight
        # row kills the >w coordinates of the full-width user/item
        # operands exactly, so every task's logits — and the gradients
        # into the real weight regions, the user prefix and the item
        # prefix — are bit-equal to the per-width sliced computation,
        # while the whole multi-width loss runs as single (T, B, L, ·)
        # kernels.  The padded regions do accumulate (isolated,
        # elementwise) Adam state; emission slices them away.
        work_table = np.zeros((num_clients, max_rows, dim), dtype=dtype)
        for b, uniq in enumerate(uniq_rows):
            work_table[b, : uniq.size] = table[uniq]
        table_param = Parameter(work_table, name=f"V[{group}]xB")
        user_param = Parameter(
            trainer.user_tables[group].take(users), name=f"U[{group}]xB"
        )
        task_groups = trainer.trained_head_groups(group)
        widths = [cfg.dims[tg] for tg in task_groups]
        heads_before: Dict[str, Dict[str, np.ndarray]] = {
            tg: trainer.models[tg].head.state_dict() for tg in task_groups
        }
        head_stacks: Dict[str, Parameter] = {
            name: Parameter(
                np.stack(
                    [
                        np.repeat(
                            _pad_head_value(
                                name, heads_before[tg][name], width, dim, dtype
                            )[np.newaxis],
                            num_clients,
                            axis=0,
                        )
                        for tg, width in zip(task_groups, widths)
                    ]
                ),
                name=f"{name}xTxB",
            )
            for name in heads_before[task_groups[0]]
        }

        # The padding invariant — padded head regions identically zero —
        # must survive every optimizer step, but those regions *receive*
        # gradient (the full-width operands are nonzero there).  Masking
        # the gradient to the real regions keeps their Adam moments and
        # values at exact zero across epochs; the real regions see the
        # same elementwise updates as unpadded training.
        pad_masks: Dict[str, np.ndarray] = {}
        if any(width < dim for width in widths):
            for name in ("gmf.weight", "ffn.layer0.weight"):
                if name not in head_stacks:
                    continue
                mask = np.ones_like(head_stacks[name].data[:, :1])
                for ti, width in enumerate(widths):
                    if width == dim:
                        continue
                    if name == "gmf.weight":
                        mask[ti, :, width:] = 0.0
                    else:
                        mask[ti, :, width:dim] = 0.0
                        mask[ti, :, dim + width :] = 0.0
                pad_masks[name] = mask

        optimizer = Adam(
            [user_param, table_param, *head_stacks.values()], lr=cfg.lr
        )

        # The round's DDR subset is fixed across epochs — one stacked
        # index matrix serves every epoch's penalty gather.
        ddr_idx = np.stack(ddr_local_idx) if ddr_active else None

        # Padded per-epoch index / label / weight tensors.
        per_client_loss = np.zeros(num_clients)
        for epoch in range(local_epochs):
            idx = np.zeros((num_clients, max_len), dtype=np.int64)
            labels = np.zeros((num_clients, max_len), dtype=dtype)
            weights = np.zeros((num_clients, max_len), dtype=dtype)
            interacted = (
                np.zeros((num_clients, max_len), dtype=bool)
                if propagation is not None
                else None
            )
            for b, batches in enumerate(epoch_batches):
                if not batches:
                    continue
                length = len(batches[epoch])
                idx[b, :length] = local_idx[b][epoch]
                labels[b, :length] = batches[epoch].labels
                weights[b, :length] = 1.0 / max(length, 1)
                if interacted is not None:
                    interacted[b, :length] = np.isin(
                        batches[epoch].items, neighbour_ids[b]
                    )

            optimizer.zero_grad()
            item_vecs = ops.batched_gather(table_param, idx)
            mask = weights > 0
            if propagation is not None:
                user_vecs, item_vecs = self._propagate(
                    table_param,
                    user_param,
                    item_vecs,
                    nbr_idx,
                    nbr_coeffs,
                    has_neighbours,
                    interacted,
                )
            else:
                user_vecs = user_param

            elementwise = ops.bce_with_logits(
                self._fused_logits(model, user_vecs, item_vecs, head_stacks, dim),
                labels,
                reduction="none",
            )
            # weights broadcast over the task axis: summing every task's
            # per-client BCE mean into one scalar tape output.
            loss = (elementwise * weights).sum()
            epoch_loss = (elementwise.data * mask).sum(axis=(0, 2)) / np.maximum(
                batch_lengths, 1
            )

            if ddr_active and dim >= 2:
                penalties = batched_decorrelation_penalty(
                    ops.batched_gather(table_param, ddr_idx)
                )
                loss = loss + self.objective.ddr_alpha * penalties.sum()
                epoch_loss += self.objective.ddr_alpha * penalties.data

            loss.backward()
            for name, mask in pad_masks.items():
                if head_stacks[name].grad is not None:  # mf trains no FFN
                    head_stacks[name].grad *= mask
            optimizer.step()
            per_client_loss = epoch_loss

        return self._emit_updates(
            group,
            users,
            uniq_rows,
            table,
            table_param,
            user_param,
            task_groups,
            widths,
            heads_before,
            head_stacks,
            batch_lengths,
            per_client_loss,
        )

    def _propagate(
        self,
        table_param: Parameter,
        user_param: Parameter,
        item_vecs,
        nbr_idx: np.ndarray,
        nbr_coeffs: np.ndarray,
        has_neighbours: Optional[np.ndarray],
        interacted: np.ndarray,
    ):
        """One star-graph propagation step for the whole bucket.

        The batched form of ``LightGCN._score``'s local propagation:
        every user row absorbs its degree-normalized neighbourhood
        average through a single padded sparse–dense matmul over the
        stacked working tables, and interacted batch positions mix with
        their client's (un-propagated) user row.  Runs inside the tape,
        so gradients flow back through the neighbourhood average into
        the item rows exactly as in the per-client reference.
        """
        num_clients, dim = user_param.shape
        nbr_mean = ops.batched_sparse_matmul(table_param, nbr_idx, nbr_coeffs)
        user_vecs = (user_param + nbr_mean) * 0.5
        if has_neighbours is not None:
            user_vecs = ops.where(has_neighbours, user_vecs, user_param)
        user_rows = user_param.reshape(num_clients, 1, dim)
        item_prop = ops.where(
            interacted[:, :, None], (item_vecs + user_rows) * 0.5, item_vecs
        )
        return user_vecs, item_prop

    def _fused_logits(
        self,
        model,
        user_vecs,
        item_vecs,
        head_stacks: Dict[str, Parameter],
        dim: int,
    ):
        """All dual-task widths' logits at once → (T, B, L) for the bucket.

        ``head_stacks`` replicates every task's head per client, zero-
        padded to the group width ``dim`` (see ``_pad_head_value``), so
        the full-width user/item operands drive every width's exact
        logits through single broadcasted kernels.  ``user_vecs`` is the
        stacked user parameter (or, for LightGCN, its propagated form);
        it is kept as a (1, B, d, 1) operand throughout — the GMF weight
        is folded into it (``(u⊙v)·w = v·(u⊙w)``) and the first FFN
        layer's ``[u, v]`` GEMM is split into a user term and an item
        term — so no (B, L, d) user broadcast or (B, L, 2d) concat is
        ever materialised.
        """
        num_clients, max_len = item_vecs.shape[0], item_vecs.shape[1]
        num_tasks = head_stacks["gmf.weight"].shape[0]
        user_col = user_vecs.reshape(1, num_clients, dim, 1)

        gmf_weight = user_col * head_stacks["gmf.weight"]
        logits = item_vecs.matmul(gmf_weight).reshape(
            num_tasks, num_clients, max_len
        )
        if model.arch == "mf":
            return logits

        z = None
        for position, layer in enumerate(model.head.ffn):
            if isinstance(layer, Linear):
                weight = head_stacks[f"ffn.layer{position}.weight"]
                if z is None:
                    user_term = user_vecs.reshape(1, num_clients, 1, dim).matmul(
                        weight[:, :, :dim, :]
                    )
                    z = item_vecs.matmul(weight[:, :, dim:, :]) + user_term
                else:
                    z = z.matmul(weight)
                if layer.has_bias:
                    bias = head_stacks[f"ffn.layer{position}.bias"]
                    z = z + bias.reshape(num_tasks, num_clients, 1, -1)
            else:
                z = z.relu()
        return logits + z.reshape(num_tasks, num_clients, max_len)

    # ------------------------------------------------------------------
    # Update emission (mirrors the tail of ``train_client``)
    # ------------------------------------------------------------------
    def _emit_updates(
        self,
        group: str,
        users: List[int],
        uniq_rows: List[np.ndarray],
        table: np.ndarray,
        table_param: Parameter,
        user_param: Parameter,
        task_groups: List[str],
        widths: List[int],
        heads_before: Dict[str, Dict[str, np.ndarray]],
        head_stacks: Dict[str, Parameter],
        batch_lengths: np.ndarray,
        per_client_loss: np.ndarray,
    ) -> List[ClientUpdate]:
        num_items = table.shape[0]
        dim = table.shape[1]
        self.trainer.user_tables[group].put(users, user_param.data)
        updates: List[ClientUpdate] = []
        for b, user in enumerate(users):
            # Row-sparse emission: O(touched rows), never O(catalogue).
            # Rows the session referenced but did not move (possible only
            # in degenerate cases) are dropped, matching the reference
            # path's nonzero-row encoding.
            uniq = uniq_rows[b]
            values = table_param.data[b, : uniq.size] - table[uniq]
            moved = touched_rows(values)
            embedding_delta = SparseRowDelta(num_items, uniq[moved], values[moved])

            head_deltas = {
                tg: state_delta(
                    {
                        name: _unpad_head_value(
                            name, head_stacks[name].data[ti, b], width, dim
                        )
                        for name in heads_before[tg]
                    },
                    heads_before[tg],
                )
                for ti, (tg, width) in enumerate(zip(task_groups, widths))
            }
            updates.append(
                ClientUpdate(
                    user_id=user,
                    group=group,
                    embedding_delta=embedding_delta,
                    head_deltas=head_deltas,
                    num_examples=int(batch_lengths[b]),
                    train_loss=float(per_client_loss[b]),
                )
            )
        return updates
