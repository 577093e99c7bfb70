"""Tests for Module/Parameter containers and state-dict exchange."""

import numpy as np
import pytest
from tape_models import forward

from repro.nn import Linear, Sequential, ReLU
from repro.nn.module import Module, Parameter


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(3, 4)
        self.second = Linear(4, 2)
        self.scale = Parameter(np.ones(1), name="scale")


class TestParameterDiscovery:
    def test_named_parameters_cover_tree(self):
        model = TwoLayer()
        names = {name for name, _ in model.named_parameters()}
        assert names == {
            "scale",
            "first.weight",
            "first.bias",
            "second.weight",
            "second.bias",
        }

    def test_parameters_are_trainable(self):
        model = TwoLayer()
        assert all(p.requires_grad for p in model.parameters())

    def test_parameter_count(self):
        model = TwoLayer()
        assert model.parameter_count() == (3 * 4 + 4) + (4 * 2 + 2) + 1

    def test_zero_grad_clears_all(self):
        model = TwoLayer()
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a, b = TwoLayer(), TwoLayer()
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_state_dict_copies(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"][0] = 99.0
        assert model.scale.data[0] == 1.0

    def test_load_preserves_parameter_identity(self):
        model = TwoLayer()
        param = model.first.weight
        model.load_state_dict(model.state_dict())
        assert model.first.weight is param  # in-place load, same object

    def test_strict_load_rejects_missing(self):
        model = TwoLayer()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_strict_load_rejects_unexpected(self):
        model = TwoLayer()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestInvocation:
    def test_forward_required(self):
        with pytest.raises(NotImplementedError):
            forward(Module(), 1)

    def test_sequential_call(self):
        from repro.autograd import Tensor

        model = Sequential(Linear(2, 3), ReLU(), Linear(3, 1))
        out = forward(model, Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)
