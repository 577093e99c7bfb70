"""Online serving over trained checkpoints.

Warm-loads a checkpoint into an immutable :class:`ModelSnapshot`,
answers top-k queries through the same blocked scorer the evaluator
uses, coalesces concurrent queries into single blocked matmuls, caches
hot answers per model version, and hot-swaps newer checkpoints with
zero downtime.  The HTTP front end lives in :mod:`repro.serving.http_api`
and is imported only on demand (``python -m repro serve``).
"""

from repro.serving.cache import TopKCache
from repro.serving.coalescer import RequestCoalescer
from repro.serving.resilience import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    HealthMonitor,
    ResilienceConfig,
    ResilientService,
    ShedError,
)
from repro.serving.service import (
    ModelSnapshot,
    QueryRequest,
    Recommendation,
    RecommendationService,
    UnknownUserError,
    delivered,
    load_snapshot,
)

__all__ = [
    "RecommendationService",
    "Recommendation",
    "QueryRequest",
    "ModelSnapshot",
    "load_snapshot",
    "RequestCoalescer",
    "TopKCache",
    "UnknownUserError",
    "delivered",
    "ResilientService",
    "ResilienceConfig",
    "AdmissionQueue",
    "CircuitBreaker",
    "HealthMonitor",
    "ShedError",
    "DeadlineExceededError",
    "CircuitOpenError",
]
