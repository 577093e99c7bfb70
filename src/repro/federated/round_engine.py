"""Vectorized round execution: train every client of a dim-group at once.

This engine is the trainers' only local-training path.  Every client in
a round trains *from the same global snapshot* and the server only sees
the resulting deltas, so the sessions are mutually independent; instead
of paying Python/autodiff overhead once per client per local epoch, the
engine runs all of a dim-group's sessions as one stacked computation per
local epoch.

The objective is differentiated in closed form, not on the tape
--------------------------------------------------------------------
Every client the engine admits minimises one member of a closed family:
BCE through every nested head width up to its own (the unified dual-task
loss, Eq. 11), plus the optional α-weighted decorrelation penalty
(Eq. 13), over {ncf, mf, lightgcn} heads in float32 or float64.  So the
whole local objective of a bucket is one operation with one hand-derived
backward (:class:`BucketObjective`): explicit numpy for the gathers, the
padded-head logits, the BCE gradient, the MLP/GMF backward, LightGCN's
star-graph propagation and the DDR penalty.  Its gradient buffers are
allocated once per bucket, reused across local epochs and written
straight into the stacked parameters' ``.grad``; the stock
:class:`~repro.nn.optim.Adam` then steps them.  No tape node is built.

Padding / mask scheme
---------------------
Clients of one group share an embedding width ``d`` but differ in batch
length and in which item rows they touch, so both axes are padded:

* **Item rows.**  Each client ``b`` only ever reads/writes the rows named
  in its local batches (plus its local graph's neighbours and its DDR
  rows).  The union of those rows, ``uniq_b``, is copied out of the
  global table into a per-client working table; the stacked working
  tables form ``W`` of shape ``(B, S, d)`` where ``S = max_b |uniq_b|``.
  Rows past ``|uniq_b|`` are zero padding that no index references.
* **Batch positions.**  Per-epoch batches are right-padded to ``L = max_b
  L_b`` with local index 0 and label 0; a weight matrix carrying
  ``1/L_b`` on real positions and ``0`` on padding reproduces each
  client's *own* BCE mean while zeroing every padded position's gradient.
* **Private/user state.**  User embeddings stack into ``(B, d)``; every
  head a client trains is replicated per client into ``(B, ...)``
  stacks, because each reference session trains its own head copy.
* **Head widths.**  The dual-task widths fuse into one ``(T, B, ...)``
  head stack with narrower heads zero-padded to the group width (see
  :func:`_pad_head_value`): a zero weight row annihilates the ``≥ w``
  coordinates of the full-width operands, so every task's logits and
  real-region gradients equal the per-width sliced computation.

Gradients reach the working tables through planned scatters
(:class:`SegmentPlan`: one stable sort of the touched slots, then one
fancy-index add per duplicate rank), planned once per epoch for the
batch rows and once per round for the neighbour and DDR rows.
The DDR row subsets are drawn *up front* through
``trainer.presample_ddr_rows`` in round order, so the shared DDR RNG
stream is consumed as a per-client loop over the round would consume it.

Each bucket has its own stacked parameters and its own Adam, and one
Adam over a bucket's stacks is *exactly* B independent per-client Adams:
the update is elementwise and every client steps at the same local-epoch
boundaries (rows with zero gradient keep zero moments).  Buckets share
nothing mutable — each reads the round's global snapshot and writes only
its own clients' user rows, uploads or personal models — so a round's
buckets are :func:`~repro.parallel.run_groups` tasks, trained one thread
per core, and the round is bitwise the same whichever thread advances
which bucket.  A bucket trains on the stacked parameters of the slot
``run_groups`` hands it, and yields each Adam step back to the calling
thread.  Batches are all drawn, and every Adam step is taken, there.
The engine is numerically equivalent to one tape session per
client up to floating-point summation order; ``tests/reference_trainer.py``
keeps that per-client session as the oracle and
``tests/test_round_engine.py`` pins the two to 1e-8 over multi-epoch
runs.  ``tests/engine_oracle.py`` keeps the tape form of the bucket
objective, which the closed form replays operation by operation: in
float64 its gradients are bitwise the tape's
(``tests/test_engine_closed_form.py``).

Updates are emitted row-sparse (:class:`~repro.federated.payload.
SparseRowDelta`) in O(touched rows), with no per-client full-table
materialisation.

Personal models
---------------
A trainer whose clients never exchange parameters (Standalone) keeps
one model copy per client in ``trainer._client_states``.  The engine
then seeds each client's working rows and head from its own copy instead
of the global models, writes the trained values back there, and returns
empty updates that skip the upload tail: nothing is protected,
compressed or metered, because nothing leaves the client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.sampling import TrainingBatch
from repro.federated.payload import ClientUpdate, SparseRowDelta, touched_rows
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro import parallel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federated.trainer import FederatedTrainer


#: Architectures whose *training* objective the engine differentiates
#: (:class:`BucketObjective` reproduces the ScoringHead MLP+GMF structure;
#: for ``lightgcn`` it also runs the star-graph propagation over each
#: client's local graph).  Inference-time ``score_matrix`` support is not
#: enough: a new architecture needs an engine forward and backward of its
#: own, not just scoring.
BATCHABLE_ARCHS = ("ncf", "mf", "lightgcn")

#: Marks a client with no DDR term this round (distinct from ``None``,
#: which is a drawn full-table subset).
_NO_DDR = object()

#: What a stacked parameter holds between buckets.
_EMPTY = np.zeros(0)

#: Summed padded size (clients x longest batch x width) from which a
#: round's buckets train on worker threads too.  A smaller round is
#: mostly Python under the GIL, which a worker only contends for.  On a
#: 2-core box, rounds under 6e4 took 14-37 % longer on two threads than on
#: one and rounds over 3e5 took 7-22 % less; in between, the change ran
#: from 8 % slower to 22 % faster, and the gate sits there.
_THREADED_SIZE = 1 << 17


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


#: A length bucket closes before its padded area passes ``BUCKET_WASTE``×
#: its real area, or its padded activations ``BUCKET_AREA_CAP`` elements.
BUCKET_WASTE = 1.35
BUCKET_AREA_CAP = 16_000_000


def _length_buckets(lengths: np.ndarray, dim: int) -> List[np.ndarray]:
    """Partition clients into padding-friendly buckets by batch length.

    Within a bucket every batch is right-padded to the bucket maximum.
    Walking clients in ascending length order, a bucket is closed when
    admitting the next client would push the bucket's *padded* area
    ``(B+1)·L_max`` beyond ``BUCKET_WASTE``× its real area ``Σ L_b`` — so
    padded positions stay under ~35% while near-uniform rounds fuse into a
    single bucket — or when the padded activation area ``B·L·d`` would
    pass ``BUCKET_AREA_CAP`` elements (bounds peak memory for huge rounds).
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
            padded_area > BUCKET_WASTE * (real_area + length)
            or padded_area * dim > BUCKET_AREA_CAP
        ):
            buckets.append(np.asarray(current, dtype=np.int64))
            current = []
            real_area = 0
        current.append(int(position))
        real_area += length
    if current:
        buckets.append(np.asarray(current, dtype=np.int64))
    return buckets


class SegmentPlan:
    """A scatter-add ``out[slots[i]] += rows[sources[i]]``, planned once.

    ``np.add.at`` re-derives the duplicate structure of its index on
    every call.  The plan sorts ``slots`` once (stably; pass ``order``
    when a stable argsort is already at hand) and splits the sorted
    entries by their rank within their slot: pass ``k`` adds every
    slot's ``k``-th entry with one fancy-index add (its slots are
    distinct).  Each slot therefore sums its entries in source order,
    onto whatever ``out`` already holds — bitwise what ``np.add.at``
    computes.  (``np.add.reduceat`` would not be: it does not sum a
    segment of three or more rows in order.)
    """

    def __init__(
        self,
        slots: np.ndarray,
        sources: np.ndarray,
        order: Optional[np.ndarray] = None,
    ) -> None:
        if order is None:
            order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        ordered_sources = sources[order]
        head = np.ones(sorted_slots.size, dtype=bool)
        head[1:] = sorted_slots[1:] != sorted_slots[:-1]
        starts = np.flatnonzero(head)
        rank = np.arange(sorted_slots.size) - np.repeat(
            starts, np.diff(starts, append=sorted_slots.size)
        )
        self._passes = [
            (sorted_slots[rank == k], ordered_sources[rank == k])
            for k in range(int(rank.max(initial=-1)) + 1)
        ]

    def add_to(self, out: np.ndarray, rows: np.ndarray) -> None:
        """Scatter-add ``rows`` (indexed by source) into ``out`` (by slot)."""
        for slots, sources in self._passes:
            out[slots] += rows[sources]


def _sum_mid(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-2, keepdims=True)``, bitwise.

    numpy reduces a middle axis row by row, in order, but slowly;
    ``einsum`` runs the same in-order sum several times faster.  With a
    trailing axis of one the reduced axis is contiguous and numpy sums
    it pairwise, so ``sum`` stays there.
    """
    if x.shape[-1] == 1:
        return x.sum(axis=-2, keepdims=True)
    return np.einsum("...ij->...j", x)[..., None, :]


#: Eq. 13's guard against a zero variance or norm, where the tape form puts it.
DDR_EPS = 1e-8


def _decorrelation_backward(stack: np.ndarray, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 13 per batch slice and its gradient: ``(B, M, d) → (B,), (B, M, d)``.

    The same standardisation, in-norm diagonal and ``DDR_EPS`` placement as
    Eq. 13's tape form (``decorrelation_penalty`` in
    ``tests/engine_oracle.py``) on each ``(M, d)`` slice; returns the
    penalties and the gradient of ``alpha · Σ_b penalty_b`` with respect
    to ``stack``.  Each step
    replays the tape's arithmetic for the same expression (operands,
    reductions and accumulation order), so float64 results are bitwise
    the tape's.
    """
    _, rows, dim = stack.shape
    centred = stack - _sum_mid(stack) / float(rows)
    variance = _sum_mid(centred * centred) / float(rows) + DDR_EPS
    scale = variance**0.5
    z = centred / scale
    corr = np.matmul(z.transpose(0, 2, 1), z) / float(rows)
    total = (corr * corr).sum(axis=(1, 2)) + DDR_EPS
    penalty = total**0.5 / float(dim)

    d_square = (alpha / float(dim) * 0.5 * total ** (-0.5))[:, None, None]
    d_corr = d_square * corr
    d_corr += d_square * corr  # corr · corr: one term per operand
    d_corr = d_corr / float(rows)
    # zᵀz: z's own operand first, then its transpose's.
    d_z = np.matmul(z, d_corr)
    d_z += np.matmul(d_corr, z.swapaxes(-1, -2)).transpose(0, 2, 1)
    d_scale = _sum_mid(-d_z * centred / (scale**2))
    d_square_sum = d_scale * 0.5 * variance ** (-0.5) / float(rows)
    d_centred = d_z / scale
    d_centred += d_square_sum * centred  # centred · centred: twice
    d_centred += d_square_sum * centred
    return penalty, d_centred - _sum_mid(d_centred) / float(rows)


class BucketObjective:
    """One bucket's whole local objective as one operation.

    ``params`` maps ``"U"`` (``(B, d)`` user rows), ``"V"`` (``(B, S, d)``
    working tables) and the ``ScoringHead.state_dict`` names (``(T, B,
    ...)`` padded head stacks) to the stacked parameters.  A call runs one
    local epoch's forward — the padded-head logits of every task, the
    BCE, the DDR penalty — and its hand-derived backward, writing the
    gradient of ``Σ_tasks Σ_b mean_l BCE + α Σ_b penalty_b`` into each
    trained parameter's ``.grad`` (allocated here, once per bucket, and
    overwritten every epoch).  Untrained parameters (mf's FFN) keep
    ``grad = None``.

    ``ffn`` lists the head's FFN as ``("linear", position)`` /
    ``("relu", None)`` steps (empty for mf).  ``graph`` is LightGCN's
    padded star graph ``(indices, coeffs, has_neighbours, plan)`` and
    ``ddr`` the round's ``(indices, plan, alpha)``; either may be ``None``.
    """

    def __init__(
        self,
        params: Dict[str, Parameter],
        ffn: Sequence[Tuple[str, Optional[int]]],
        graph=None,
        ddr=None,
    ) -> None:
        self.params = params
        self.ffn = list(ffn)
        self.graph = graph
        self.ddr = ddr
        trained = {"U", "V", "gmf.weight"}
        if self.ffn:  # mf scores around its FFN, which gets no gradient
            trained.update(name for name in params if name.startswith("ffn."))
        for name, param in params.items():
            param.grad = np.zeros_like(param.data) if name in trained else None
        self._rows = np.arange(params["U"].shape[0])[:, None]

    def __call__(
        self,
        idx: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        plan: SegmentPlan,
        interacted: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One epoch: fill every ``.grad``; return each client's summed
        BCE over its tasks and its α-weighted DDR penalty (or ``None``).

        Every step replays the arithmetic the tape runs for the same
        objective — the same operands and reductions, and the tape's
        order wherever three or more gradient terms meet — so float64
        gradients are bitwise the tape's, not merely close.
        """
        params, rows = self.params, self._rows
        table, user = params["V"].data, params["U"].data
        gmf = params["gmf.weight"].data
        num_tasks, num_clients, dim = gmf.shape[:3]
        length = idx.shape[1]

        # ---- forward -------------------------------------------------
        items = table[rows, idx]  # (B, L, d)
        if self.graph is not None:
            nbr_idx, coeffs, has_neighbours, nbr_plan = self.graph
            nbr_mean = np.matmul(coeffs[:, None, :], table[rows, nbr_idx])[:, 0, :]
            users = (user + nbr_mean) * 0.5
            if has_neighbours is not None:
                users = np.where(has_neighbours, users, user)
            mixed = interacted[:, :, None]
            items = np.where(mixed, (items + user[:, None, :]) * 0.5, items)
        else:
            users = user
        user_col = users.reshape(1, num_clients, dim, 1)
        gmf_weight = user_col * gmf  # (u ⊙ v)·w = v·(u ⊙ w)
        logits = np.matmul(items, gmf_weight).reshape(num_tasks, num_clients, length)

        # The first FFN layer's [u, v] GEMM splits into a user and an item
        # term; each later Linear keeps its input, each ReLU its mask.
        inputs: List[np.ndarray] = []
        masks: List[np.ndarray] = []
        z = None
        for kind, position in self.ffn:
            if kind == "relu":
                masks.append(z > 0)
                z *= masks[-1]
                continue
            weight = params[f"ffn.layer{position}.weight"].data
            if z is None:
                z = np.matmul(items, weight[:, :, dim:])
                z += np.matmul(users.reshape(1, num_clients, 1, dim), weight[:, :, :dim])
            else:
                inputs.append(z)
                z = np.matmul(z, weight)
            bias = params.get(f"ffn.layer{position}.bias")
            if bias is not None:
                z += bias.data.reshape(num_tasks, num_clients, 1, -1)
        if z is not None:
            logits += z.reshape(num_tasks, num_clients, length)

        bce = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
        loss = (bce * (weights > 0)).sum(axis=(0, 2))

        # ---- backward: d loss / d logits = w · (σ(z) − r) --------------
        grad = np.clip(logits, -500, 500)
        np.negative(grad, out=grad)
        np.exp(grad, out=grad)
        grad += 1.0
        np.divide(1.0, grad, out=grad)
        grad -= labels
        grad *= weights
        upstream = grad.reshape(num_tasks, num_clients, length, 1)

        items_t = items.swapaxes(1, 2)  # (B, d, L)
        d_gmf_weight = np.matmul(items_t, upstream)  # (T, B, d, 1)
        np.multiply(d_gmf_weight, user_col, out=params["gmf.weight"].grad)
        d_users = (d_gmf_weight * gmf).sum(axis=0)[:, :, 0]
        # Per-task terms summed over tasks in order (the tape's axis-0 sum).
        gmf_weight_t = gmf_weight.swapaxes(-1, -2)
        d_items = upstream[0] * gmf_weight_t[0]
        for task in range(1, num_tasks):
            d_items += upstream[task] * gmf_weight_t[task]

        if self.ffn:
            linears = [position for kind, position in self.ffn if kind == "linear"]
            delta = upstream
            for step in range(len(linears) - 1, 0, -1):
                name = f"ffn.layer{linears[step]}"
                layer = params[f"{name}.weight"]
                np.matmul(inputs[step - 1].swapaxes(-1, -2), delta, out=layer.grad)
                if f"{name}.bias" in params:
                    params[f"{name}.bias"].grad[...] = _sum_mid(delta)[:, :, 0]
                weight_t = layer.data.swapaxes(-1, -2)
                # A one-wide layer's backward GEMM is an outer product.
                delta = delta * weight_t if delta.shape[-1] == 1 else np.matmul(delta, weight_t)
                delta *= masks[step - 1]
            first = params["ffn.layer0.weight"]
            d_user_term = _sum_mid(delta)  # (T, B, 1, h): also the first bias's grad
            if "ffn.layer0.bias" in params:
                params["ffn.layer0.bias"].grad[...] = d_user_term[:, :, 0]
            first.grad[:, :, dim:] = np.matmul(items_t, delta)
            np.multiply(user_col, d_user_term, out=first.grad[:, :, :dim])
            d_users += np.matmul(d_user_term, first.data[:, :, :dim].swapaxes(-1, -2)).sum(
                axis=0
            )[:, 0, :]
            item_weight_t = first.data[:, :, dim:].swapaxes(-1, -2)
            d_ffn_items = np.matmul(delta[0], item_weight_t[0])
            for task in range(1, num_tasks):
                d_ffn_items += np.matmul(delta[task], item_weight_t[task])
            d_items += d_ffn_items
            del delta, d_ffn_items
        # Only d_items and d_users go on: let the forward's activations go
        # before the scatters and the DDR term allocate their own.
        del items, items_t, inputs, masks

        table_grad = params["V"].grad
        table_grad.fill(0.0)
        flat_grad = table_grad.reshape(-1, dim)
        user_grad = params["U"].grad
        if self.graph is not None:
            # Interacted positions took (item + user)/2, the user row
            # (user + neighbourhood mean)/2 where a neighbourhood exists.
            d_mix = d_items * mixed * 0.5
            user_grad[...] = _sum_mid(d_mix)[:, 0, :]
            d_items = d_items * ~mixed
            d_items += d_mix
            if has_neighbours is None:
                d_mean = d_users * 0.5
            else:
                user_grad += d_users * ~has_neighbours
                d_mean = d_users * has_neighbours * 0.5
            user_grad += d_mean
        else:
            user_grad[...] = d_users
        plan.add_to(flat_grad, d_items.reshape(-1, dim))
        if self.graph is not None:
            nbr_plan.add_to(flat_grad, (coeffs[:, :, None] * d_mean[:, None, :]).reshape(-1, dim))

        if self.ddr is not None:
            ddr_idx, ddr_plan, alpha = self.ddr
            penalty, d_rows = _decorrelation_backward(table[rows, ddr_idx], alpha)
            ddr_plan.add_to(flat_grad, d_rows.reshape(-1, dim))
            return loss, alpha * penalty
        return loss, None


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


#: Per-client hooks the trainers no longer call.  A subclass defining one
#: expects a training path that does not exist, so it is refused rather
#: than silently ignored.
REMOVED_HOOKS = ("train_client", "client_loss")


class VectorizedRoundEngine:
    """Batched executor for one round's local-training phase."""

    def __init__(self, trainer: "FederatedTrainer") -> None:
        for hook in REMOVED_HOOKS:
            if hasattr(type(trainer), hook):
                raise ValueError(
                    f"{type(trainer).__name__} defines {hook}(), which is never "
                    "called: every client trains on the round engine, whose "
                    "objective is set by trained_head_groups, fused_objective "
                    "and presample_ddr_rows"
                )
        if trainer.config.arch not in BATCHABLE_ARCHS:
            raise ValueError(
                f"arch {trainer.config.arch!r} has no round-engine objective; "
                f"the engine trains {', '.join(BATCHABLE_ARCHS)}"
            )
        self.trainer = trainer
        self.ddr_alpha = trainer.fused_objective()
        # One set of stacked parameters per run_groups slot, rebound to each
        # bucket holding the slot: training builds no tape nodes.
        self._names = ["U", "V", *trainer.models[trainer.groups[0]].head.state_dict()]
        self._param_sets: Dict[int, Dict[str, Parameter]] = {}
        for slot in range(parallel.cpu_count()):
            self._slot_params(slot)

    def _slot_params(self, slot: int) -> Dict[str, Parameter]:
        """``slot``'s stacked parameters; no two buckets in flight share it."""
        if slot not in self._param_sets:
            self._param_sets[slot] = {
                name: Parameter(np.zeros(0), name=f"{name}xB") for name in self._names
            }
        return self._param_sets[slot]

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def train_round(self, user_ids: Sequence[int]) -> List[ClientUpdate]:
        """Train every listed client and return updates in input order."""
        trainer = self.trainer
        user_ids = [int(u) for u in user_ids]

        # DDR row subsets come from a trainer-shared RNG that a per-client
        # loop would consume in round order; draw them all first.
        ddr_rows = trainer.presample_ddr_rows(user_ids)

        by_group: Dict[str, List[int]] = {}
        for user in user_ids:
            by_group.setdefault(trainer.group_of[user], []).append(user)

        # Every group's batches are drawn here, on this thread and in
        # group order, before any bucket trains.
        buckets: List[Tuple[int, tuple]] = []
        for group in trainer.groups:
            members = by_group.get(group)
            if members:
                buckets.extend(self._group_buckets(group, members, ddr_rows))

        raw: Dict[int, ClientUpdate] = {}
        for updates in parallel.run_groups(
            [self._bucket_task(arguments) for _, arguments in buckets],
            [size for size, _ in buckets],
            _THREADED_SIZE,
        ):
            for update in updates:
                raw[update.user_id] = update

        if trainer._client_states is not None:
            return [raw[user] for user in user_ids]
        # In the round's client order, not bucket order: the compressor may
        # hold a shared codec RNG whose draws follow the round order.
        return [
            trainer._finish_upload(raw[user], trainer.runtimes[user].rng)
            for user in user_ids
        ]

    def _bucket_task(self, arguments: tuple) -> Callable[[int], Generator]:
        """A bucket as a run_groups task, on its slot's stacked parameters."""
        return lambda slot: self._train_bucket(self._slot_params(slot), *arguments)

    # ------------------------------------------------------------------
    # One dim-group
    # ------------------------------------------------------------------
    def _group_buckets(
        self, group: str, users: List[int], ddr_rows: Dict[int, Optional[np.ndarray]]
    ) -> List[Tuple[int, tuple]]:
        """Draw a group's batches and split its clients into length
        buckets: ``(padded size, _train_bucket arguments)`` per bucket."""
        trainer = self.trainer
        cfg = trainer.config
        dim = cfg.dims[group]
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
        buckets = []
        for bucket in _length_buckets(lengths, dim):
            size = bucket.size * max(int(lengths[bucket].max()), 1) * dim
            buckets.append((size, (
                group,
                [users[i] for i in bucket],
                [runtimes[i] for i in bucket],
                [epoch_batches[i] for i in bucket],
                [ddr_rows.get(users[i], _NO_DDR) for i in bucket],
            )))
        return buckets

    def _train_bucket(
        self,
        params: Dict[str, Parameter],
        group: str,
        users: List[int],
        runtimes,
        epoch_batches: List[List[TrainingBatch]],
        ddr_rows: List[object],
    ) -> Generator[Callable[[], None], None, List[ClientUpdate]]:
        """Train one bucket: a generator that yields its Adam's ``step``
        whenever a step is due, for :func:`~repro.parallel.run_groups` to
        take on the calling thread, and returns the bucket's updates."""
        trainer = self.trainer
        cfg = trainer.config
        model = trainer.models[group]
        num_clients = len(users)
        dim = cfg.dims[group]
        table = model.item_embedding.weight.data  # global V, read-only here
        personal = trainer._client_states
        dtype = table.dtype
        num_items = table.shape[0]
        local_epochs = cfg.local_epochs

        # DDR eligibility must be uniform within a group: the stock
        # trainers pre-draw a subset for all of a group's clients or for
        # none.  Ineligible users carry the ``_NO_DDR`` sentinel, a drawn
        # ``None`` means the full table.
        eligible = [subset is not _NO_DDR for subset in ddr_rows]
        if any(eligible) != all(eligible):
            raise ValueError(
                f"non-uniform DDR eligibility within group {group!r}: the "
                "fused round engine requires presample_ddr_rows to cover "
                "all of a group's clients or none"
            )
        ddr_active = self.ddr_alpha > 0 and all(eligible) and dim >= 2
        propagates = model.arch == "lightgcn"

        # Every row a client touches this round, keyed ``b·|V| + item``:
        # each epoch's batch, then the local graph's neighbours (read and
        # written every epoch), then the round's DDR sample.  One stable
        # sort of the keys yields the working-table layout and every
        # scatter plan of the round.
        clients = np.arange(num_clients)
        parts: List[Tuple[np.ndarray, np.ndarray]] = []  # (item ids, lengths)
        for epoch in range(local_epochs):
            parts.append(self._part([batches[epoch].items for batches in epoch_batches]))
        if propagates:
            parts.append(self._part([runtime.data.train_items for runtime in runtimes]))
        if ddr_active:
            parts.append(self._part([
                np.arange(num_items) if subset is None else subset for subset in ddr_rows
            ]))
        owners = [np.repeat(clients, sizes) for _, sizes in parts]
        keys = _concat([owner * num_items + items for (items, _), owner in zip(parts, owners)])
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        head = np.ones(keys.size, dtype=bool)
        head[1:] = sorted_keys[1:] != sorted_keys[:-1]
        uniq_keys = sorted_keys[head]
        local = np.empty(keys.size, dtype=np.int64)
        local[order] = np.cumsum(head) - 1
        uniq_owner = uniq_keys // num_items
        counts = np.bincount(uniq_owner, minlength=num_clients)
        first = np.cumsum(counts) - counts
        max_rows = max(int(counts.max(initial=0)), 1)
        uniq_slots = uniq_owner * max_rows + np.arange(uniq_keys.size) - first[uniq_owner]
        uniq_items = uniq_keys - uniq_owner * num_items
        slots = uniq_slots[local]
        # The bucket's frame lives across its steps: keep only the layout.
        del keys, sorted_keys, head, local, uniq_keys

        work_table = np.zeros((num_clients * max_rows, dim), dtype=dtype)
        # Keys sort by owner, so client ``b``'s rows are ``bounds[b]:bounds[b+1]``.
        bounds = np.searchsorted(uniq_owner, np.arange(num_clients + 1))
        if personal is None:
            work_table[uniq_slots] = table[uniq_items]
        else:
            for b, user in enumerate(users):
                own = slice(bounds[b], bounds[b + 1])
                work_table[uniq_slots[own]] = personal[user]["item_embedding.weight"][
                    uniq_items[own]
                ]
        is_neighbour = None

        def padded(part: int, width: int):
            """A part's positions in its padded ``(B, width)`` layout, its
            slots, and the stable order of those slots."""
            lo = sum(items.size for items, _ in parts[:part])
            hi = lo + parts[part][0].size
            sizes = parts[part][1]
            starts = np.cumsum(sizes) - sizes
            owner = owners[part]
            positions = owner * width + np.arange(hi - lo) - starts[owner]
            within = order[(order >= lo) & (order < hi)] - lo
            return positions, slots[lo:hi], within

        # Padded CSR layout of the stacked star graphs: one normalized
        # adjacency row per client over its working table.  Clients with
        # empty local graphs get an all-zero coefficient row and keep
        # their user embedding unpropagated (the reference's
        # empty-neighbourhood limit).
        graph = None
        if propagates:
            nbr_counts = parts[local_epochs][1]
            width = max(int(nbr_counts.max(initial=0)), 1)
            positions, nbr_slots, within = padded(local_epochs, width)
            nbr_idx = np.zeros(num_clients * width, dtype=np.int64)
            nbr_idx[positions] = nbr_slots - owners[local_epochs] * max_rows
            coeffs = np.zeros(num_clients * width, dtype=dtype)
            coeffs[positions] = (1.0 / np.maximum(nbr_counts, 1))[owners[local_epochs]]
            has_neighbours = (nbr_counts > 0).reshape(num_clients, 1)
            graph = (
                nbr_idx.reshape(num_clients, width),
                coeffs.reshape(num_clients, width),
                None if has_neighbours.all() else has_neighbours,
                SegmentPlan(nbr_slots, positions, within),
            )
            is_neighbour = np.zeros(num_clients * max_rows, dtype=bool)
            is_neighbour[nbr_slots] = True

        ddr = None
        if ddr_active:
            part = len(parts) - 1
            sample = int(parts[part][1][0])
            positions, ddr_slots, within = padded(part, sample)
            ddr_idx = (ddr_slots - owners[part] * max_rows).reshape(num_clients, sample)
            ddr = (ddr_idx, SegmentPlan(ddr_slots, positions, within), self.ddr_alpha)

        # Stacked user rows and zero-padded ``(T, B, ...)`` head stacks:
        # the global heads replicated per client, or each client's own.
        task_groups = trainer.trained_head_groups(group)
        widths = [cfg.dims[tg] for tg in task_groups]
        params["U"].data = trainer.user_tables[group].take(users)
        params["V"].data = work_table.reshape(num_clients, max_rows, dim)
        head_names = [name for name, _ in model.head.named_parameters()]
        padded_before: Dict[str, np.ndarray] = {}
        if personal is None:
            heads = [trainer.models[tg].head.state_dict() for tg in task_groups]
            for name in head_names:
                padded_before[name] = np.stack([
                    _pad_head_value(name, state[name], width, dim, dtype)
                    for state, width in zip(heads, widths)
                ])[:, None]
        else:  # a personal model trains only its own head
            for name in head_names:
                padded_before[name] = np.stack(
                    [personal[user][f"head.{name}"] for user in users]
                )[None]
        for name, before in padded_before.items():
            params[name].data = np.repeat(before, num_clients // before.shape[1], axis=1)

        # The padding invariant — padded head regions identically zero —
        # must survive every optimizer step, but those regions *receive*
        # gradient (the full-width operands are nonzero there).  Masking
        # the gradient to the real regions keeps their Adam moments and
        # values at exact zero across epochs.
        pad_masks: Dict[str, np.ndarray] = {}
        if any(width < dim for width in widths):
            for name in ("gmf.weight", "ffn.layer0.weight"):
                mask = np.ones_like(params[name].data[:, :1])
                for ti, width in enumerate(widths):
                    if width < dim:
                        mask[ti, :, width:dim] = 0.0
                        mask[ti, :, dim + width :] = 0.0
                pad_masks[name] = mask

        ffn: List[Tuple[str, Optional[int]]] = []
        if model.arch != "mf":
            ffn = [
                ("linear", position) if isinstance(layer, Linear) else ("relu", None)
                for position, layer in enumerate(model.head.ffn)
            ]
        objective = BucketObjective(params, ffn, graph, ddr)
        optimizer = Adam(
            [param for param in params.values() if param.grad is not None], lr=cfg.lr
        )

        batch_lengths = parts[0][1] if local_epochs else np.zeros(num_clients, np.int64)
        max_len = max(int(batch_lengths.max(initial=0)), 1)
        per_client_loss = np.zeros(num_clients)
        for epoch in range(local_epochs):
            positions, epoch_slots, within = padded(epoch, max_len)
            owner = owners[epoch]
            idx = np.zeros(num_clients * max_len, dtype=np.int64)
            idx[positions] = epoch_slots - owner * max_rows
            labels = np.zeros(num_clients * max_len, dtype=dtype)
            labels[positions] = np.concatenate([batches[epoch].labels for batches in epoch_batches])
            weights = np.zeros(num_clients * max_len, dtype=dtype)
            weights[positions] = (1.0 / np.maximum(parts[epoch][1], 1)).astype(dtype)[owner]
            interacted = None
            if is_neighbour is not None:
                interacted = np.zeros(num_clients * max_len, dtype=bool)
                interacted[positions] = is_neighbour[epoch_slots]
                interacted = interacted.reshape(num_clients, max_len)
            shape = (num_clients, max_len)
            loss, penalty = objective(
                idx.reshape(shape),
                labels.reshape(shape),
                weights.reshape(shape),
                SegmentPlan(epoch_slots, positions, within),
                interacted,
            )
            for name, mask in pad_masks.items():
                if params[name].grad is not None:  # mf trains no FFN
                    params[name].grad *= mask
            yield optimizer.step
            per_client_loss = loss / np.maximum(batch_lengths, 1)
            if penalty is not None:
                per_client_loss += penalty

        updates = self._emit_updates(
            params, group, users, uniq_slots, uniq_items, bounds, table,
            task_groups, widths, padded_before, batch_lengths, per_client_loss,
        )
        # Let go of this bucket's arrays before the thread's next one.
        for param in params.values():
            param.data, param.grad = _EMPTY, None
        return updates

    @staticmethod
    def _part(arrays: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        sizes = np.array([array.size for array in arrays], dtype=np.int64)
        return _concat([np.asarray(array, dtype=np.int64) for array in arrays]), sizes

    # ------------------------------------------------------------------
    # Update emission
    # ------------------------------------------------------------------
    def _emit_updates(
        self,
        params: Dict[str, Parameter],
        group: str,
        users: List[int],
        uniq_slots: np.ndarray,
        uniq_items: np.ndarray,
        bounds: np.ndarray,
        table: np.ndarray,
        task_groups: List[str],
        widths: List[int],
        padded_before: Dict[str, np.ndarray],
        batch_lengths: np.ndarray,
        per_client_loss: np.ndarray,
    ) -> List[ClientUpdate]:
        num_items, dim = table.shape
        self.trainer.user_tables[group].put(users, params["U"].data)
        trained = params["V"].data.reshape(-1, dim)[uniq_slots]
        personal = self.trainer._client_states
        if personal is not None:
            # The personal models keep the trained values; nothing travels.
            kept = []
            for b, user in enumerate(users):
                own = slice(bounds[b], bounds[b + 1])
                state = personal[user]
                state["item_embedding.weight"][uniq_items[own]] = trained[own]
                for name in padded_before:
                    state[f"head.{name}"] = params[name].data[0, b].copy()
                kept.append(
                    ClientUpdate(
                        user_id=user,
                        group=group,
                        embedding_delta=np.zeros((0, 0)),
                        head_deltas={},
                        num_examples=int(batch_lengths[b]),
                        train_loss=float(per_client_loss[b]),
                    )
                )
            return kept

        # Row-sparse emission: O(touched rows), never O(catalogue).  Rows
        # the session referenced but did not move are dropped, as a dense
        # delta's nonzero-row encoding would drop them.
        values = trained - table[uniq_items]
        moved = touched_rows(values)
        rows, values = uniq_items[moved], values[moved]
        moved_bounds = np.searchsorted(moved, bounds)
        head_deltas = {name: params[name].data - before for name, before in padded_before.items()}

        updates: List[ClientUpdate] = []
        for b, user in enumerate(users):
            lo, hi = moved_bounds[b], moved_bounds[b + 1]
            updates.append(
                ClientUpdate(
                    user_id=user,
                    group=group,
                    embedding_delta=SparseRowDelta(num_items, rows[lo:hi], values[lo:hi]),
                    head_deltas={
                        tg: {
                            name: _unpad_head_value(name, head_deltas[name][ti, b], width, dim)
                            for name in padded_before
                        }
                        for ti, (tg, width) in enumerate(zip(task_groups, widths))
                    },
                    num_examples=int(batch_lengths[b]),
                    train_loss=float(per_client_loss[b]),
                )
            )
        return updates
