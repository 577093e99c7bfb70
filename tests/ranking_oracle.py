"""Per-user reference for the blocked evaluator.

Ranks one score row at a time with :func:`repro.eval.metrics.rank_items`
and scores it with :func:`recall_at_k` / :func:`ndcg_at_k` — the plain
definition of the full-ranking protocol that
:meth:`repro.eval.evaluator.Evaluator.evaluate` vectorises.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import ndcg_at_k, rank_items, recall_at_k


def held_out_and_masked(client, split):
    """The ``(ranked-for, masked)`` item sets of ``client`` on ``split``."""
    if split == "test":
        return client.test_items, client.known_items()
    return client.valid_items, client.train_items


def oracle_metrics(clients, score_row, k, split="test", user_subset=None):
    """``(user_ids, recall, ndcg)`` arrays, one entry per evaluated user.

    ``score_row(client)`` returns that client's full score row; users
    outside ``user_subset`` or without held-out items are skipped.
    """
    users, recalls, ndcgs = [], [], []
    for client in clients:
        if user_subset is not None and client.user_id not in set(user_subset):
            continue
        relevant, masked = held_out_and_masked(client, split)
        if relevant.size == 0:
            continue
        ranked = rank_items(score_row(client), exclude=masked, k=k)
        users.append(client.user_id)
        recalls.append(recall_at_k(ranked, relevant, k=k))
        ndcgs.append(ndcg_at_k(ranked, relevant, k=k))
    return np.asarray(users, dtype=int), np.asarray(recalls), np.asarray(ndcgs)


def assert_matches_oracle(result, oracle, atol=1e-12):
    """``result`` (an ``EvaluationResult``) equals the oracle per user."""
    users, recalls, ndcgs = oracle
    assert result.evaluated_users.tolist() == users.tolist()
    np.testing.assert_allclose(result.per_user_recall, recalls, rtol=0, atol=atol)
    np.testing.assert_allclose(result.per_user_ndcg, ndcgs, rtol=0, atol=atol)
