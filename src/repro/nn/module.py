"""Module / Parameter containers, in the spirit of ``torch.nn.Module``.

Parameters are discovered by attribute reflection: assigning a
:class:`Parameter` or a :class:`Module` to an attribute registers it, and
:meth:`Module.named_parameters` walks the tree.  State is exported and
imported as plain numpy dictionaries, which is what the federated layer
ships between clients and the server.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is always trainable and owned by a module.

    Its value takes the tape's default coercion (float64, with float32
    arrays passed through — see ``repro.autograd.tensor._as_array``).
    """

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and sub-:class:`Module` attributes
    in ``__init__``; a module holds parameters, it has no forward pass.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_count(self) -> int:
        """Total number of scalar parameters (used for Table III accounting)."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # State exchange (the federated transport format)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameters into a plain ``{name: ndarray}`` mapping."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place from a ``state_dict`` mapping
        naming exactly this module's parameters."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            param = own[name]
            if param.data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"model {param.data.shape} vs state {values.shape}"
                )
            param.data[...] = values
