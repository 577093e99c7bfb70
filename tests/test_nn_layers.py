"""Tests for Linear, Embedding, Sequential and activations."""

import numpy as np
import pytest
from tape_models import Sigmoid, Tanh, forward

from repro.autograd import Tensor
from repro.nn import Embedding, Linear, ReLU, Sequential


class TestLinear:
    def test_shapes(self):
        layer = Linear(3, 5)
        assert forward(layer, Tensor(np.ones((7, 3)))).shape == (7, 5)

    def test_no_bias(self):
        layer = Linear(3, 5, bias=False)
        names = {name for name, _ in layer.named_parameters()}
        assert names == {"weight"}
        out = forward(layer, Tensor(np.zeros((2, 3))))
        assert np.allclose(out.data, 0.0)

    def test_affine_math(self):
        layer = Linear(2, 1)
        layer.weight.data[...] = [[2.0], [3.0]]
        layer.bias.data[...] = [1.0]
        out = forward(layer, Tensor([[1.0, 1.0]]))
        assert np.allclose(out.data, [[6.0]])

    def test_gradients_reach_weights(self):
        layer = Linear(2, 2)
        forward(layer, Tensor(np.ones((3, 2)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert np.allclose(layer.bias.grad, [3.0, 3.0])

    def test_seeded_init_is_deterministic(self):
        a = Linear(4, 4, rng=np.random.default_rng(5))
        b = Linear(4, 4, rng=np.random.default_rng(5))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_repr(self):
        assert "Linear(3, 5" in repr(Linear(3, 5))


class TestEmbedding:
    def test_lookup(self):
        table = Embedding(4, 2, weight=np.arange(8.0).reshape(4, 2))
        out = forward(table, [2, 0])
        assert np.allclose(out.data, [[4, 5], [0, 1]])

    def test_explicit_weight_shape_check(self):
        with pytest.raises(ValueError):
            Embedding(4, 2, weight=np.zeros((3, 2)))

    def test_sparse_gradient(self):
        table = Embedding(5, 3)
        forward(table, [1, 1, 4]).sum().backward()
        grad = table.weight.grad
        assert np.allclose(grad[1], 2.0)
        assert np.allclose(grad[4], 1.0)
        assert np.allclose(grad[[0, 2, 3]], 0.0)

    def test_repr(self):
        assert repr(Embedding(10, 4)) == "Embedding(10, 4)"


class TestActivationModules:
    @pytest.mark.parametrize(
        "module,fn",
        [
            (ReLU(), lambda x: np.maximum(x, 0)),
            (Sigmoid(), lambda x: 1 / (1 + np.exp(-x))),
            (Tanh(), np.tanh),
        ],
        ids=["relu", "sigmoid", "tanh"],
    )
    def test_matches_numpy(self, module, fn):
        x = np.linspace(-2, 2, 9)
        assert np.allclose(forward(module, Tensor(x)).data, fn(x))


class TestSequential:
    def test_empty_forward_is_identity(self):
        model = Sequential()
        x = Tensor([1.0, 2.0])
        assert forward(model, x) is x

    def test_order_matters(self):
        relu_then_neg = Sequential(ReLU())
        x = Tensor([-1.0, 1.0])
        assert np.allclose(forward(relu_then_neg, x).data, [0.0, 1.0])

    def test_len_and_iter(self):
        model = Sequential(Linear(2, 2), ReLU(), Linear(2, 1))
        assert len(model) == 3
        assert sum(1 for _ in model) == 3

    def test_parameters_from_submodules(self):
        model = Sequential(Linear(2, 2), ReLU(), Linear(2, 1))
        assert model.parameter_count() == (2 * 2 + 2) + (2 * 1 + 1)
