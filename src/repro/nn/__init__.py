"""Minimal neural-network containers: modules, initialisers, optimisers.

Provides the parameter containers of the base recommenders (NCF,
LightGCN, GMF) and the optimisers the round engine and RESKD step with.
Forward passes are plain numpy on the models themselves
(``score_matrix``) and in the round engine's closed form.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear, ReLU, Sequential
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Sequential",
    "ReLU",
    "Optimizer",
    "SGD",
    "Adam",
    "init",
]
