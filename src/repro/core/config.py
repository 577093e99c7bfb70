"""HeteFedRec configuration: the base federated config plus the paper's knobs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Tuple

from repro.core.distillation import DistillationConfig
from repro.federated.trainer import FederatedConfig


@dataclass
class HeteFedRecConfig(FederatedConfig):
    """Everything :class:`FederatedConfig` has, plus HeteFedRec's components.

    ``alpha`` is the decorrelation weight of Eq. 14 (the paper sweeps it
    in Fig. 8; a single α is shared by the medium and large groups).  The
    three ``enable_*`` flags drive the ablation of Table IV — with all
    three off, the trainer degrades to exactly the Directly Aggregate
    baseline.
    """

    ratios: Tuple[float, float, float] = (5, 3, 2)
    alpha: float = 0.25
    enable_udl: bool = True
    enable_ddr: bool = True
    enable_reskd: bool = True
    distillation: DistillationConfig = field(default_factory=DistillationConfig)

    @classmethod
    def widen(cls, config: FederatedConfig) -> "HeteFedRecConfig":
        """``config`` as a HeteFedRec config: every field it has carried
        over, the paper's knobs at their defaults (itself if already one)."""
        if isinstance(config, cls):
            return config
        return cls(**{f.name: getattr(config, f.name) for f in fields(config)})

    def ablation_name(self) -> str:
        """Human-readable variant label used in Table IV reports."""
        removed = []
        if not self.enable_reskd:
            removed.append("RESKD")
        if not self.enable_ddr:
            removed.append("DDR")
        if not self.enable_udl:
            removed.append("UDL")
        if not removed:
            return "HeteFedRec"
        return "HeteFedRec - " + ",".join(removed)
