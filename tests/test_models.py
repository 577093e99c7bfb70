"""Tests for NCF, LightGCN, the scoring head and the model factory."""

import numpy as np
import pytest
from tape_models import forward, logits, tile_user

from repro.autograd import Tensor
from repro.models import NCF, LightGCN, ScoringHead, build_model
from repro.nn.module import Parameter


RNG = np.random.default_rng(0)


def user_vec(dim, requires_grad=True, seed=0):
    values = np.random.default_rng(seed).normal(0, 0.1, dim)
    return Parameter(values) if requires_grad else Tensor(values)


class TestScoringHead:
    def test_output_shape(self):
        head = ScoringHead(8, rng=np.random.default_rng(0))
        out = forward(head, Tensor(np.ones((5, 8))), Tensor(np.ones((5, 8))))
        assert out.shape == (5,)

    def test_gmf_initialised_to_inner_product(self):
        """At init the GMF path contributes exactly u·v."""
        head = ScoringHead(4, rng=np.random.default_rng(0))
        assert np.allclose(head.gmf.weight.data, 1.0)

    def test_hidden_widths_respected(self):
        head = ScoringHead(8, hidden=(6, 3), rng=np.random.default_rng(0))
        layers = list(head.ffn)
        assert layers[0].weight.shape == (16, 6)
        assert layers[2].weight.shape == (6, 3)
        assert layers[4].weight.shape == (3, 1)


class TestTileUser:
    def test_broadcast_and_gradient(self):
        u = Parameter(np.array([1.0, 2.0]))
        tiled = tile_user(u, 3)
        assert tiled.shape == (3, 2)
        tiled.sum().backward()
        assert np.allclose(u.grad, [3.0, 3.0])


class TestNCF:
    def test_logits_shape(self):
        model = NCF(num_items=20, dim=8, rng=np.random.default_rng(0))
        out = logits(model, user_vec(8), np.array([0, 5, 19]))
        assert out.shape == (3,)

    def test_prefix_scoring_uses_prefix_columns_only(self):
        model = NCF(num_items=10, dim=8, rng=np.random.default_rng(0))
        small_head = ScoringHead(4, rng=np.random.default_rng(1))
        u = user_vec(8)
        out = logits(model, u, np.array([1, 2]), width=4, head=small_head)
        out.sum().backward()
        grad = model.item_embedding.weight.grad
        # Gradient exists in prefix columns of touched rows, zero elsewhere.
        assert np.abs(grad[[1, 2], :4]).sum() > 0
        assert np.abs(grad[:, 4:]).sum() == 0
        assert np.abs(grad[[0, 3, 9]]).sum() == 0
        # The private user embedding receives gradient only on its prefix.
        assert np.abs(u.grad[:4]).sum() > 0
        assert np.abs(u.grad[4:]).sum() == 0

    def test_width_exceeding_dim_rejected(self):
        model = NCF(num_items=10, dim=4, rng=np.random.default_rng(0))
        big_head = ScoringHead(8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            logits(model, user_vec(8), np.array([0]), width=8, head=big_head)

    def test_head_width_mismatch_rejected(self):
        model = NCF(num_items=10, dim=8, rng=np.random.default_rng(0))
        wrong_head = ScoringHead(4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            logits(model, user_vec(8), np.array([0]), head=wrong_head)

    def test_ignores_local_graph(self):
        model = NCF(num_items=10, dim=4, rng=np.random.default_rng(0))
        u = user_vec(4, requires_grad=False)
        a = logits(model, u, np.array([0, 1]), train_item_ids=np.array([5]))
        b = logits(model, u, np.array([0, 1]), train_item_ids=None)
        assert np.allclose(a.data, b.data)


class TestLightGCN:
    def test_propagation_math(self):
        """Hand-check the star-graph propagation for one user."""
        model = LightGCN(num_items=4, dim=2, rng=np.random.default_rng(0))
        V = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [4.0, 0.0]])
        model.item_embedding.weight.data[...] = V
        u = np.array([1.0, 1.0])
        train = np.array([0, 1])

        scores = logits(model, Tensor(u), np.array([0, 2]), train_item_ids=train)

        u_prop = (u + V[[0, 1]].mean(axis=0)) / 2            # (1.5, 1.5)/... → (0.75,0.75)+...
        expected_u = (u + np.array([0.5, 0.5])) / 2
        expected_item0 = (V[0] + u) / 2   # interacted
        expected_item2 = V[2]             # not interacted

        head = model.head
        x0 = np.concatenate([expected_u, expected_item0])
        x2 = np.concatenate([expected_u, expected_item2])

        def head_forward(x_pair, u_vec, v_vec):
            h = x_pair
            for layer in head.ffn:
                if hasattr(layer, "weight"):
                    h = h @ layer.weight.data + layer.bias.data
                else:
                    h = np.maximum(h, 0)
            return h[0] + (u_vec * v_vec) @ head.gmf.weight.data[:, 0]

        assert scores.data[0] == pytest.approx(
            head_forward(x0, expected_u, expected_item0)
        )
        assert scores.data[1] == pytest.approx(
            head_forward(x2, expected_u, expected_item2)
        )

    def test_empty_local_graph_degenerates(self):
        model = LightGCN(num_items=5, dim=3, rng=np.random.default_rng(0))
        u = user_vec(3, requires_grad=False)
        out = logits(model, u, np.array([0, 1]), train_item_ids=np.array([]))
        assert out.shape == (2,)

    def test_gradient_flows_through_neighbourhood(self):
        """Scoring a *non-interacted* item still sends gradient into the
        user's train items through the propagation average."""
        model = LightGCN(num_items=6, dim=3, rng=np.random.default_rng(0))
        u = user_vec(3)
        out = logits(model, u, np.array([5]), train_item_ids=np.array([0, 1]))
        out.sum().backward()
        grad = model.item_embedding.weight.grad
        assert np.abs(grad[[0, 1]]).sum() > 0

    def test_prefix_scoring(self):
        model = LightGCN(num_items=6, dim=8, rng=np.random.default_rng(0))
        head = ScoringHead(4, rng=np.random.default_rng(1))
        out = logits(
            model, user_vec(8), np.array([0, 2]), train_item_ids=np.array([1]),
            width=4, head=head,
        )
        assert out.shape == (2,)


class TestLightGCNBlockedScoring:
    """The batched ``score_matrix`` path must match per-user ``logits``."""

    def _block_setup(self, dim=6, num_items=12, num_users=5, seed=0):
        rng = np.random.default_rng(seed)
        model = LightGCN(num_items=num_items, dim=dim, rng=rng)
        user_mat = rng.normal(0, 0.1, (num_users, dim))
        train_items = [
            np.sort(rng.choice(num_items, size=size, replace=False))
            for size in (3, 1, 0, 5, 2)
        ]
        return model, user_mat, train_items

    def test_matches_per_user_logits(self):
        model, user_mat, train_items = self._block_setup()
        scores = model.score_matrix(user_mat, train_items=train_items)
        all_items = np.arange(model.num_items)
        for row, (u, train) in enumerate(zip(user_mat, train_items)):
            ref = logits(model, Tensor(u), all_items, train_item_ids=train)
            assert np.allclose(scores[row], ref.data, atol=1e-12), row

    def test_no_graph_degenerates_to_plain_block(self):
        model, user_mat, _ = self._block_setup()
        bare = model.score_matrix(user_mat)
        empty = model.score_matrix(
            user_mat, train_items=[np.array([], dtype=np.int64)] * len(user_mat)
        )
        assert np.array_equal(bare, empty)
        assert bare.shape == (len(user_mat), model.num_items)

    def test_row_count_mismatch_rejected(self):
        model, user_mat, train_items = self._block_setup()
        with pytest.raises(ValueError):
            model.score_matrix(user_mat, train_items=train_items[:-1])


class TestHeadLayout:
    """``score_matrix`` (the hidden-major ``logits_matrix`` block, plus
    LightGCN's edge correction) pinned row by row against the two
    reference paths: ``logits_pairs`` over every item and the per-user
    ``logits`` tape."""

    NUM_ITEMS = 17

    @staticmethod
    def _randomise(module, dtype, rng):
        # Non-zero biases and non-unit GMF weights: every term is exercised.
        for param in module.parameters():
            param.data = rng.normal(0, 0.5, param.data.shape).astype(dtype)

    def _setup(self, arch, hidden, dtype, num_users, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        model = build_model(arch, self.NUM_ITEMS, dim, hidden=hidden, rng=rng)
        self._randomise(model, dtype, rng)
        user_mat = rng.normal(0, 0.5, (num_users, dim)).astype(dtype)
        train_items = [
            np.sort(rng.choice(self.NUM_ITEMS, size=(3, 0, 5, 1)[row % 4], replace=False))
            for row in range(num_users)
        ]
        return model, user_mat, train_items

    @staticmethod
    def _pairs_reference(model, head, width, user, train):
        """One user's full row through ``logits_pairs``; LightGCN's star
        propagation is applied by hand to the aligned rows."""
        items = model.item_embedding.weight.data[:, :width]
        user = user[:width]
        if model.arch == "lightgcn" and train.size:
            items = items.copy()
            pulled = (user + items[train].mean(axis=0)) * 0.5
            items[train] = (items[train] + user) * 0.5
            user = pulled
        return head.logits_pairs(np.tile(user, (len(items), 1)), items)

    def _check(self, model, user_mat, train_items, dtype):
        scores = model.score_matrix(user_mat, train_items=train_items)
        assert scores.shape == (len(user_mat), self.NUM_ITEMS)
        assert scores.dtype == dtype  # no silent upcast
        width, head = model.dim, model.head
        all_items = np.arange(self.NUM_ITEMS)
        for row, (user, train) in enumerate(zip(user_mat, train_items)):
            tape = logits(
                model, Tensor(user), all_items, train_item_ids=train, width=width, head=head
            ).data
            pairs = self._pairs_reference(model, head, width, user, train)
            for reference in (pairs, tape):
                if dtype == np.float64:
                    np.testing.assert_allclose(scores[row], reference, rtol=0, atol=1e-12)
                else:
                    # rtol=1e-5 of the row's scale: float32 cancellation
                    # near zero is relative to the terms, not the result.
                    atol = 1e-5 * np.abs(reference).max()
                    np.testing.assert_allclose(scores[row], reference, rtol=1e-5, atol=atol)

    @pytest.mark.parametrize("num_users", [1, 3, 11])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("hidden", [(), (8,), (8, 8), (16, 8, 4)], ids=str)
    @pytest.mark.parametrize("arch", ["ncf", "lightgcn"])
    def test_block_matches_reference_paths(self, arch, hidden, dtype, num_users):
        model, user_mat, train_items = self._setup(arch, hidden, dtype, num_users)
        self._check(model, user_mat, train_items, dtype)



class TestFactory:
    def test_build_by_name(self):
        assert isinstance(build_model("ncf", 10, 4), NCF)
        assert isinstance(build_model("LIGHTGCN", 10, 4), LightGCN)

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            build_model("bert", 10, 4)

    def test_explicit_item_weight(self):
        weight = np.full((10, 4), 0.5)
        model = build_model("ncf", 10, 4, item_weight=weight)
        assert np.allclose(model.item_embedding.weight.data, 0.5)

    def test_parameter_partition(self):
        model = build_model("ncf", 10, 4)
        assert model.embedding_key() == "item_embedding.weight"
        head_keys = set(model.head_state())
        assert all(k.startswith("head.") for k in head_keys)
