"""Federated-learning simulation substrate.

Implements the paper's FedRec protocol (Section III-A): a central server
holds public parameters (item table ``V`` and predictor ``Θ``), samples a
batch of clients each round, ships them the public parameters, receives
their updates, and aggregates.  User embeddings never leave their client.

The simulation is in-process and sequential but state-faithful: every
client in a round trains from the same global snapshot, exactly as
parallel devices would.
"""
