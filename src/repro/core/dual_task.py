"""Unified dual-task learning (paper Eq. 11, Fig. 5).

The mismatch problem: under naive padding aggregation, the prefix columns
of a large client's update were computed to reduce the *large* model's
loss, so adding them into the small model's table is incoherent.  UDL
fixes this by having every client optimise the recommendation loss of
*each prefix width simultaneously*:

* ``L_s = L(u, V_s, Θ_s)``
* ``L_m = L(u[:Ns], V_m[:, :Ns], Θ_s) + L(u, V_m, Θ_m)``
* ``L_l = L(u[:Ns], V_l[:, :Ns], Θ_s) + L(u[:Nm], V_l[:, :Nm], Θ_m) + L(u, V_l, Θ_l)``

The prefix terms slice the *same* tensors, so one backward pass pushes
coherent gradients into every nested width at once.  The round engine
computes all of a client's terms as one fused multi-width objective
(:mod:`repro.federated.round_engine`); this module names the tasks.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.core.grouping import GROUP_ORDER


def widths_up_to(group: str, dims: Mapping[str, int]) -> List[str]:
    """Groups whose table width is ≤ the given group's, narrowest first.

    For group 'l' with the canonical dims this is ['s', 'm', 'l'] — the
    set of prediction tasks a large client optimises under Eq. 11.
    """
    if group not in dims:
        raise KeyError(f"group {group!r} has no dimension assignment")
    own = dims[group]
    return [g for g in GROUP_ORDER if g in dims and dims[g] <= own]
