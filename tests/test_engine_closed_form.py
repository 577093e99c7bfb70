"""The round engine's closed-form objective, scatter plan and in-place Adam.

``BucketObjective`` differentiates one bucket's local objective by hand;
here its loss and every gradient are checked against the tape form of
the same objective (``tests/engine_oracle.py``) on identical inputs, over
ncf / mf / lightgcn × dual task on / off × DDR sampled / full-table /
off.  ``SegmentPlan`` is checked against ``np.add.at`` and ``Adam.step``
against the textbook update.
"""

import numpy as np
import pytest
from engine_oracle import tape_objective
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.round_engine import BucketObjective, SegmentPlan
from repro.nn.module import Parameter
from repro.nn import optim
from repro.nn.optim import Adam

ATOL = 1e-6

NCF_FFN = [("linear", 0), ("relu", None), ("linear", 2), ("relu", None), ("linear", 4)]


def make_bucket(arch, udl, ddr, seed=0):
    """A three-client bucket whose batch lengths differ, with duplicate
    items, padded positions and (for lightgcn) one client whose local
    graph is empty."""
    rng = np.random.default_rng(seed)
    num_clients, rows, dim, hidden = 3, 7, 6, (4, 3)
    widths = [2, 4, 6] if udl else [6]
    tasks = len(widths)
    lengths = np.array([5, 3, 4])
    max_len = int(lengths.max())

    values = {
        "U": rng.normal(size=(num_clients, dim)),
        "V": rng.normal(size=(num_clients, rows, dim)),
        "gmf.weight": rng.normal(size=(tasks, num_clients, dim, 1)),
        "ffn.layer0.weight": rng.normal(size=(tasks, num_clients, 2 * dim, hidden[0])),
        "ffn.layer0.bias": rng.normal(size=(tasks, num_clients, hidden[0])),
        "ffn.layer2.weight": rng.normal(size=(tasks, num_clients, hidden[0], hidden[1])),
        "ffn.layer2.bias": rng.normal(size=(tasks, num_clients, hidden[1])),
        "ffn.layer4.weight": rng.normal(size=(tasks, num_clients, hidden[1], 1)),
        "ffn.layer4.bias": rng.normal(size=(tasks, num_clients, 1)),
    }
    idx = np.zeros((num_clients, max_len), dtype=np.int64)
    labels = np.zeros((num_clients, max_len))
    weights = np.zeros((num_clients, max_len))
    idx[0, :5] = [1, 3, 3, 0, 6]  # a duplicated item
    idx[1, :3] = [2, 5, 4]
    idx[2, :4] = [6, 6, 1, 1]
    for b, length in enumerate(lengths):
        labels[b, :length] = rng.integers(0, 2, size=length)
        weights[b, :length] = 1.0 / length
    real = weights > 0
    positions = np.flatnonzero(real)
    plan = SegmentPlan((np.arange(num_clients)[:, None] * rows + idx)[real], positions)

    graph = interacted = tape_graph = None
    if arch == "lightgcn":
        neighbours = [np.array([1, 3, 6]), np.array([], dtype=np.int64), np.array([1])]
        width = 3
        nbr_idx = np.zeros((num_clients, width), dtype=np.int64)
        coeffs = np.zeros((num_clients, width))
        for b, ids in enumerate(neighbours):
            nbr_idx[b, : ids.size] = ids
            coeffs[b, : ids.size] = 1.0 / max(ids.size, 1)
        has_neighbours = np.array([[True], [False], [True]])
        nbr_real = coeffs > 0
        graph = (
            nbr_idx,
            coeffs,
            has_neighbours,
            SegmentPlan(
                (np.arange(num_clients)[:, None] * rows + nbr_idx)[nbr_real],
                np.flatnonzero(nbr_real),
            ),
        )
        tape_graph = graph[:3]
        interacted = np.zeros((num_clients, max_len), dtype=bool)
        for b, ids in enumerate(neighbours):
            interacted[b] = np.isin(idx[b], ids) & real[b]

    ddr_spec = tape_ddr = None
    if ddr != "off":
        alpha = 0.7
        if ddr == "sampled":
            ddr_idx = np.stack([rng.choice(rows, size=4, replace=False) for _ in range(num_clients)])
        else:
            ddr_idx = np.tile(np.arange(rows), (num_clients, 1))
        ddr_plan = SegmentPlan(
            (np.arange(num_clients)[:, None] * rows + ddr_idx).ravel(),
            np.arange(ddr_idx.size),
        )
        ddr_spec = (ddr_idx, ddr_plan, alpha)
        tape_ddr = (ddr_idx, alpha)

    ffn = [] if arch == "mf" else NCF_FFN
    return dict(
        values=values, ffn=ffn, idx=idx, labels=labels, weights=weights,
        lengths=lengths, plan=plan, graph=graph, tape_graph=tape_graph,
        interacted=interacted, ddr=ddr_spec, tape_ddr=tape_ddr,
    )


def closed_and_tape(case):
    """Run the closed form and the tape oracle on one bucket: the closed
    form's total loss and parameters, the tape's loss and parameters."""
    params = {
        name: Parameter(value.copy(), name=name) for name, value in case["values"].items()
    }
    objective = BucketObjective(params, case["ffn"], case["graph"], case["ddr"])
    bce, penalty = objective(
        case["idx"], case["labels"], case["weights"], case["plan"], case["interacted"]
    )
    closed_loss = float((bce / case["lengths"]).sum())
    if penalty is not None:
        closed_loss += float(penalty.sum())

    loss, tape_params = tape_objective(
        case["values"], case["ffn"], case["idx"], case["labels"], case["weights"],
        graph=case["tape_graph"], interacted=case["interacted"], ddr=case["tape_ddr"],
    )
    loss.backward()
    return closed_loss, params, float(loss.data), tape_params


BUCKETS = pytest.mark.parametrize(
    "arch, udl, ddr",
    [
        (arch, udl, ddr)
        for arch in ("ncf", "mf", "lightgcn")
        for udl in (True, False)
        for ddr in ("sampled", "full", "off")
    ],
)


@BUCKETS
def test_closed_form_matches_tape(arch, udl, ddr):
    closed_loss, params, tape_loss, tape_params = closed_and_tape(make_bucket(arch, udl, ddr))
    assert closed_loss == pytest.approx(tape_loss, abs=ATOL)
    for name, param in params.items():
        expected = tape_params[name].grad
        if expected is None:
            assert param.grad is None, name
            continue
        np.testing.assert_allclose(param.grad, expected, atol=ATOL, err_msg=name)


@BUCKETS
def test_closed_form_is_bitwise_the_tape(arch, udl, ddr):
    """In float64 the closed form replays the tape's arithmetic exactly,
    which is what keeps every trained artefact byte-identical."""
    _, params, _, tape_params = closed_and_tape(make_bucket(arch, udl, ddr, seed=1))
    for name, param in params.items():
        if tape_params[name].grad is not None:
            np.testing.assert_array_equal(param.grad, tape_params[name].grad, err_msg=name)


def test_gradient_buffers_are_reused_across_epochs():
    """The objective writes into the buffers it allocated, every call."""
    case = make_bucket("lightgcn", True, "sampled")
    params = {name: Parameter(value, name=name) for name, value in case["values"].items()}
    objective = BucketObjective(params, case["ffn"], case["graph"], case["ddr"])
    buffers = {name: param.grad for name, param in params.items()}
    for _ in range(2):
        objective(case["idx"], case["labels"], case["weights"], case["plan"], case["interacted"])
        for name, param in params.items():
            assert param.grad is buffers[name], name


@st.composite
def scatter_cases(draw):
    clients = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(0, width), min_size=clients, max_size=clients))
    idx = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, rows - 1), min_size=width, max_size=width),
                min_size=clients,
                max_size=clients,
            )
        ),
        dtype=np.int64,
    ).reshape(clients, width)
    real = np.arange(width)[None, :] < np.array(lengths)[:, None]
    seed = draw(st.integers(0, 2**16))
    return clients, rows, dim, idx, real, seed


@settings(max_examples=200, deadline=None)
@given(scatter_cases(), st.booleans())
def test_segment_plan_equals_add_at(case, zero_start):
    """Bitwise, on index matrices with duplicates, empty rows and padding,
    onto a zero or a filled buffer."""
    clients, rows, dim, idx, real, seed = case
    rng = np.random.default_rng(seed)
    grads = rng.normal(size=(idx.size, dim))
    slots = (np.arange(clients)[:, None] * rows + idx)[real]
    positions = np.flatnonzero(real)
    start = np.zeros((clients * rows, dim)) if zero_start else rng.normal(size=(clients * rows, dim))

    expected = start.copy()
    np.add.at(expected, slots, grads[positions])
    out = start.copy()
    SegmentPlan(slots, positions).add_to(out, grads)
    np.testing.assert_array_equal(out, expected)


def test_segment_plan_accepts_a_given_order():
    slots = np.array([4, 1, 4, 0, 1, 4])
    rows = np.arange(12, dtype=np.float64).reshape(6, 2)
    out_sorted, out_given = np.zeros((5, 2)), np.zeros((5, 2))
    SegmentPlan(slots, np.arange(6)).add_to(out_sorted, rows)
    SegmentPlan(slots, np.arange(6), np.argsort(slots, kind="stable")).add_to(out_given, rows)
    np.testing.assert_array_equal(out_sorted, out_given)
    np.testing.assert_array_equal(out_sorted[4], rows[0] + rows[2] + rows[5])


def test_adam_matches_textbook_update():
    """Five float64 steps against Kingma & Ba's per-step formula; a
    parameter whose grad is None is neither moved nor given state."""
    rng = np.random.default_rng(0)
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    assert (optim.BETA1, optim.BETA2, optim.EPS) == (beta1, beta2, eps)
    trained = Parameter(rng.normal(size=(3, 2)))
    frozen = Parameter(rng.normal(size=(4,)))
    frozen_before = frozen.data.copy()
    optimizer = Adam([trained, frozen], lr=lr)

    value = trained.data.copy()
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t in range(1, 6):
        grad = rng.normal(size=value.shape)
        trained.grad = grad.copy()
        frozen.grad = None
        optimizer.step()

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        textbook = value - lr * m_hat / (np.sqrt(v_hat) + eps)
        # The implementation's per-element order: (m̂ / (√v̂ + ε)) · lr.
        value = value - (m_hat / (np.sqrt(v_hat) + eps)) * lr
        np.testing.assert_allclose(trained.data, textbook, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(trained.data, value)
        np.testing.assert_array_equal(trained.grad, grad)
    np.testing.assert_array_equal(frozen.data, frozen_before)
    assert id(frozen) not in optimizer._m
