"""No production path builds an autodiff tape.

Training runs on the round engine's closed form and RESKD's closed-form
step; evaluation, Standalone's personal models and serving score through
``score_matrix``.  The tape is the tests' gradient-checking oracle.  This
pin counts every ``Tensor`` constructed that is not a ``Parameter`` (a
module's weight holder) and every ``backward`` call across a HeteFedRec
fit with RESKD and DDR on, its blocked evaluation, a Standalone
evaluation and a served query batch: both counts must stay zero.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.baselines.registry import build_method
from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.eval.evaluator import Evaluator
from repro.federated.checkpoint import save_checkpoint_impl
from repro.nn.module import Parameter
from repro.serving.service import QueryRequest, RecommendationService, delivered

CONFIG = dict(
    dims={"s": 4, "m": 6, "l": 8}, epochs=2, clients_per_round=16, local_epochs=1, seed=0
)


@pytest.fixture()
def tape_counts(monkeypatch):
    """Count non-``Parameter`` tensors and ``backward`` calls."""
    counts = {"tensors": 0, "backward": 0}
    init, backward = Tensor.__init__, Tensor.backward

    def counting_init(self, *args, **kwargs):
        if not isinstance(self, Parameter):
            counts["tensors"] += 1
        init(self, *args, **kwargs)

    def counting_backward(self, *args, **kwargs):
        counts["backward"] += 1
        backward(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Tensor, "backward", counting_backward)
    return counts


class TestNoTape:
    def test_production_paths_build_no_tape(
        self, tape_counts, tiny_dataset, tiny_clients, tmp_path
    ):
        config = HeteFedRecConfig(**CONFIG)
        assert config.enable_reskd and config.enable_ddr and config.alpha > 0
        evaluator = Evaluator(tiny_clients, k=10)

        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        trainer.fit(evaluator)
        trainer.evaluate_with(evaluator)

        standalone = build_method(
            "standalone", tiny_dataset.num_items, tiny_clients, config
        )
        standalone.run_epoch(1)
        standalone.evaluate_with(evaluator)

        path = str(tmp_path / "served.npz")
        save_checkpoint_impl(trainer, path)
        service = RecommendationService(path, k=5, cache_size=0)
        users = [client.user_id for client in tiny_clients[:8]]
        answers = service.query_batch([QueryRequest(user) for user in users])
        assert [len(delivered(slot).items) for slot in answers] == [5] * len(users)

        assert tape_counts == {"tensors": 0, "backward": 0}
        # The counters are live: one tape tensor registers.
        Tensor(np.zeros(1))
        assert tape_counts["tensors"] == 1
