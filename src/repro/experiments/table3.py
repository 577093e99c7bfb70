"""Table III — per-client-type one-time communication cost.

Fully analytic (no training): evaluates the paper's size formulas with
this repo's actual parameter-count accounting, for a given catalogue size
and dimension setting, and reports the HeteFedRec overhead over the
homogeneous baselines — the "negligible extra cost" claim.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.reporting import format_table
from repro.data.synthetic import catalogue_size
from repro.federated.communication import head_parameter_count, transmission_cost

#: The paper's {N_s, N_m, N_l} and the heads' hidden widths.
DIMS = {"s": 8, "m": 16, "l": 32}
HIDDEN = (8, 8)


def run_table3(
    profile: str | ExperimentProfile = "bench", dataset: str = "ml"
) -> Dict[str, Dict[str, int]]:
    """``costs[client_group][method]`` in scalar parameters.

    Fully analytic: only the catalogue size enters the size formulas, so
    it is read off the dataset spec under the profile's scaling instead
    of generating interactions nobody looks at.
    """
    prof = profile if isinstance(profile, ExperimentProfile) else get_profile(profile)
    num_items = catalogue_size(dataset, prof.synthetic_config())
    costs: Dict[str, Dict[str, int]] = {}
    for group in ("s", "m", "l"):
        costs[group] = {
            method: transmission_cost(method, group, num_items, DIMS, HIDDEN)
            for method in ("all_small", "all_large", "hetefedrec")
        }
    return costs


def format_table3(costs: Dict[str, Dict[str, int]]) -> str:
    headers = ["Client Type", "All Small", "All Large", "HeteFedRec", "Overhead vs best"]
    rows: List[list] = []
    for group, per_method in costs.items():
        hete = per_method["hetefedrec"]
        overhead = hete - min(per_method["all_small"], hete)
        rows.append(
            [
                f"U_{group}",
                per_method["all_small"],
                per_method["all_large"],
                hete,
                f"+{overhead} params vs All Small" if overhead >= 0 else "n/a",
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Table III: one-time client⇄server transmission cost (scalar parameters)",
    )
    extra = hetefedrec_extra_head_cost()
    return (
        f"{table}\n\nHeteFedRec extra head cost: U_m +{extra['m']} params, "
        f"U_l +{extra['l']} params (the paper's 'negligible' overhead)"
    )


def hetefedrec_extra_head_cost() -> Dict[str, int]:
    """The *only* extra cost HeteFedRec incurs: smaller heads for U_m / U_l.

    Paper: "the only additional costs ... are size(Θ_s) for clients in U_m
    and size(Θ_{s,m}) for users in U_l", argued to be negligible next to
    the embedding tables.
    """
    return {
        "m": head_parameter_count(DIMS["s"], HIDDEN),
        "l": head_parameter_count(DIMS["s"], HIDDEN) + head_parameter_count(DIMS["m"], HIDDEN),
    }
