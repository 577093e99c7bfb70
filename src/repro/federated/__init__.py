"""Federated-learning simulation substrate.

Implements the paper's FedRec protocol (Section III-A): a central server
holds public parameters (item table ``V`` and predictor ``Θ``), samples a
batch of clients each round, ships them the public parameters, receives
their updates, and aggregates.  User embeddings never leave their client.

The simulation is in-process and sequential but state-faithful: every
client in a round trains from the same global snapshot, exactly as
parallel devices would.
"""

from repro.federated.payload import (
    ClientUpdate,
    SparseRowDelta,
    state_delta,
    state_size,
)
from repro.federated.aggregation import (
    AggregationConfig,
    aggregate_head_updates,
    pad_columns,
    padded_embedding_aggregate,
)
from repro.federated.communication import CommunicationMeter, transmission_cost
from repro.federated.history import TrainingHistory
from repro.federated.client import ClientRuntime
from repro.federated.availability import (
    AvailabilityConfig,
    StragglerBuffer,
    client_fate,
    merge_duplicate_users,
    split_round,
)
from repro.federated.systems import (
    SystemProfile,
    round_time_summary,
    simulate_round_times,
    time_to_accuracy,
)
# NB: repro.federated.unlearning is intentionally NOT imported here — it
# builds on repro.core (HeteFedRec) and importing it from the package
# __init__ would be circular.  Import it directly:
#   from repro.federated.unlearning import UnlearningHeteFedRec
from repro.federated.secure_agg import SecureAggregationConfig
from repro.federated.secure_protocol import (
    FaultPlan,
    SecureAggregationClient,
    SecureAggregationServer,
    SecureRoundAbort,
    SecureRoundReport,
    run_secure_round,
)
from repro.federated.accounting import (
    PrivacyAccountant,
    PrivacySpent,
)
from repro.federated.server_optim import ServerOptimizer, ServerOptimizerConfig
from repro.federated.trainer import FederatedConfig, FederatedTrainer
from repro.federated.round_engine import (
    FusedObjective,
    VectorizedRoundEngine,
    engine_supports,
)

__all__ = [
    "ClientUpdate",
    "SparseRowDelta",
    "state_delta",
    "state_size",
    "AggregationConfig",
    "pad_columns",
    "padded_embedding_aggregate",
    "aggregate_head_updates",
    "CommunicationMeter",
    "transmission_cost",
    "TrainingHistory",
    "ClientRuntime",
    "AvailabilityConfig",
    "StragglerBuffer",
    "client_fate",
    "merge_duplicate_users",
    "split_round",
    "SystemProfile",
    "simulate_round_times",
    "time_to_accuracy",
    "round_time_summary",
    "SecureAggregationConfig",
    "FaultPlan",
    "SecureAggregationClient",
    "SecureAggregationServer",
    "SecureRoundAbort",
    "SecureRoundReport",
    "run_secure_round",
    "PrivacyAccountant",
    "PrivacySpent",
    "ServerOptimizer",
    "ServerOptimizerConfig",
    "FederatedConfig",
    "FederatedTrainer",
    "FusedObjective",
    "VectorizedRoundEngine",
    "engine_supports",
]
