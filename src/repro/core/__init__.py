"""HeteFedRec: the paper's primary contribution (Section IV).

Four pieces compose the framework:

* :mod:`repro.core.grouping` — divide clients into U_s/U_m/U_l by data size;
* :mod:`repro.core.dual_task` — unified dual-task learning (Eq. 11);
* :mod:`repro.core.decorrelation` — dimensional decorrelation (Eq. 12–14);
* :mod:`repro.core.distillation` — relation-based ensemble self-KD (Eq. 16–17);
* :mod:`repro.core.hetefedrec` — Algorithm 1, tying them into the trainer.
"""

from repro.core.config import HeteFedRecConfig
from repro.core.grouping import GROUP_ORDER, divide_clients, group_boundaries
from repro.core.decorrelation import singular_value_variance
from repro.core.distillation import DistillationConfig, relation_distillation_step
from repro.core.hetefedrec import HeteFedRec
from repro.core.size_search import (
    Candidate,
    HalvingResult,
    default_candidate_grid,
    halving_schedule,
    successive_halving,
)

__all__ = [
    "HeteFedRecConfig",
    "GROUP_ORDER",
    "divide_clients",
    "group_boundaries",
    "singular_value_variance",
    "DistillationConfig",
    "relation_distillation_step",
    "HeteFedRec",
    "Candidate",
    "HalvingResult",
    "default_candidate_grid",
    "halving_schedule",
    "successive_halving",
]
