"""Tests for SGD and Adam: exact step math and convergence behaviour."""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.module import Parameter
from repro.nn import optim
from repro.nn.optim import BETA1, BETA2, EPS, SGD, Adam


def quadratic_step(optimizer, param, target):
    optimizer.zero_grad()
    loss = ((param - Tensor(target)) ** 2).sum()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_single_step_math(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self, monkeypatch):
        monkeypatch.setattr(optim, "MOMENTUM", 0.9)
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0)
        p.grad = np.array([1.0])
        opt.step()  # velocity = 1 → p = -1
        p.grad = np.array([1.0])
        opt.step()  # velocity = 1.9 → p = -2.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay(self, monkeypatch):
        monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.5)
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert np.allclose(p.data, [10.0 - 0.1 * 0.5 * 10.0])

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.1)
        target = np.array([1.0, 2.0])
        for _ in range(200):
            quadratic_step(opt, p, target)
        assert np.allclose(p.data, target, atol=1e-4)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is lr * sign(grad).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        assert np.allclose(p.data, [-0.01], atol=1e-6)

    def test_two_steps_match_reference(self):
        # Hand-computed two steps of Adam on a constant gradient of 1.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        assert (BETA1, BETA2, EPS) == (b1, b2, eps)
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=lr)
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            p.grad = np.array([g])
            opt.step()
        assert np.allclose(p.data, [x], atol=1e-10)

    def test_per_parameter_state(self):
        a = Parameter(np.array([0.0]))
        b = Parameter(np.array([0.0]))
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        opt.step()  # only a has grad → only a moves
        assert a.data[0] != 0.0
        assert b.data[0] == 0.0

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.05)
        target = np.array([1.0, 2.0])
        for _ in range(500):
            quadratic_step(opt, p, target)
        assert np.allclose(p.data, target, atol=1e-3)


class UnblockedAdam(Adam):
    """The whole-parameter in-place step Adam took before it walked
    blocks: two parameter-sized scratch arrays per parameter."""

    def step(self):
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            key = id(param)
            if key not in self._m:
                self._m[key] = np.zeros_like(param.data)
                self._v[key] = np.zeros_like(param.data)
                self._scratch[key] = (np.empty_like(param.data), np.empty_like(param.data))
            m, v = self._m[key], self._v[key]
            work, step = self._scratch[key]
            t = self._t.get(key, 0) + 1
            self._t[key] = t
            m *= BETA1
            np.multiply(grad, 1.0 - BETA1, out=work)
            m += work
            v *= BETA2
            np.multiply(grad, grad, out=work)
            work *= 1.0 - BETA2
            v += work
            np.divide(v, 1.0 - BETA2**t, out=work)
            np.sqrt(work, out=work)
            work += EPS
            np.divide(m, 1.0 - BETA1**t, out=step)
            step /= work
            step *= self.lr
            param.data -= step


BLOCK = Adam.BLOCK


class TestBlockedAdam:
    """Adam walks each parameter in ``Adam.BLOCK``-element blocks; every
    element must see exactly the unblocked step's arithmetic."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [
            (1000,), (BLOCK,), (3 * BLOCK + 5,),
            (8, 125), (256, BLOCK // 256), (3, BLOCK + 7),
            (10, 10, 10), (32, 32, BLOCK // 1024), (5, 7, 1000),
        ],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_bitwise_equal_to_the_unblocked_step(self, shape, dtype):
        rng = np.random.default_rng(0)
        start = rng.normal(size=shape).astype(dtype)
        blocked, unblocked = Parameter(start.copy()), Parameter(start.copy())
        # A second, small parameter shares each optimizer's scratch.
        small = [Parameter(np.ones(3, dtype=dtype)) for _ in range(2)]
        optimizers = [
            cls([param, extra], lr=0.01)
            for cls, param, extra in ((Adam, blocked, small[0]), (UnblockedAdam, unblocked, small[1]))
        ]
        for _ in range(5):
            grad = rng.normal(size=shape).astype(dtype)
            grad.flat[::7] = 0.0  # untouched coordinates, as in a sparse step
            extra = rng.normal(size=3).astype(dtype)
            for optimizer, param, other in zip(optimizers, (blocked, unblocked), small):
                param.grad, other.grad = grad.copy(), extra.copy()
                optimizer.step()
            assert blocked.data.dtype == dtype
            np.testing.assert_array_equal(blocked.data, unblocked.data)
            np.testing.assert_array_equal(small[0].data, small[1].data)

    def test_non_contiguous_parameter_is_updated_in_place(self):
        rng = np.random.default_rng(1)
        start = rng.normal(size=(300, 200)).T  # F-ordered data
        blocked, unblocked = Parameter(start), Parameter(start.copy(order="F"))
        held = blocked.data
        opt_blocked, opt_unblocked = Adam([blocked], lr=0.1), UnblockedAdam([unblocked], lr=0.1)
        for _ in range(3):
            grad = rng.normal(size=start.shape)
            blocked.grad, unblocked.grad = grad, grad.copy()
            opt_blocked.step()
            opt_unblocked.step()
        assert blocked.data is held
        np.testing.assert_array_equal(blocked.data, unblocked.data)

    def test_a_step_allocates_nothing_parameter_sized(self):
        param = Parameter(np.zeros(1_000_000))
        param.grad = np.full(param.data.shape, 0.5)
        optimizer = Adam([param], lr=0.01)
        tracemalloc.start()
        try:
            optimizer.step()  # allocates the two moment arrays and the scratch
            held, first = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            optimizer.step()
            later = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        nbytes = param.data.nbytes
        assert first < 2 * nbytes + nbytes // 4, first
        assert later < nbytes // 4, later
        scratch = sum(a.nbytes for pair in optimizer._scratch.values() for a in pair)
        assert scratch == 2 * BLOCK * param.data.itemsize


class TestOptimizerValidation:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
