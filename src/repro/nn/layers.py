"""Layers: Linear, Embedding, Sequential and ReLU.

Parameter containers only: the models read their weights in plain numpy
(``ScoringHead.logits_matrix``, the round engine's closed form).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine layer ``y = x W + b`` with Xavier-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng=rng), name="weight"
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.has_bias})"


class Embedding(Module):
    """An item table: one row per id."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        weight: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        if weight is not None:
            if weight.shape != (num_embeddings, embedding_dim):
                raise ValueError(
                    f"explicit weight shape {weight.shape} does not match "
                    f"({num_embeddings}, {embedding_dim})"
                )
            # One copy, in the table's own precision when it is float32
            # or float64 (a float32 table is not detoured via float64).
            keep = weight.dtype in (np.float32, np.float64)
            values = np.array(weight, dtype=weight.dtype if keep else np.float64)
        else:
            values = init.normal(
                (num_embeddings, embedding_dim), std=init.EMBEDDING_STD, rng=rng
            )
        self.weight = Parameter(values, name="embedding")

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class ReLU(Module):
    """Marks a rectifier between two :class:`Linear` layers."""

    def __repr__(self) -> str:
        return "ReLU()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self) -> Iterable[Module]:
        return iter(getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        inner = ", ".join(repr(getattr(self, name)) for name in self._order)
        return f"Sequential({inner})"
