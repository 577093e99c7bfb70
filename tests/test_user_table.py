"""Tests for :class:`repro.federated.user_table.UserTable`.

The table replaces a ``Dict[int, ndarray]`` of user vectors in the
trainer, the checkpoint and the serving snapshot, so the dict is the
oracle: any sequence of ``take`` / ``put`` over any id set, in any query
order, with repeats, must read back what the dict would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.user_table import UserTable

DIM = 3


def table_of(ids, dtype=np.float64):
    ids = np.array(sorted(ids), dtype=np.int64)
    values = (ids[:, None] * 10.0 + np.arange(DIM)).astype(dtype)
    return UserTable(ids, values, DIM, dtype)


id_sets = st.sets(st.integers(min_value=-50, max_value=10_000), min_size=1, max_size=40)


class TestAgainstDictOracle:
    @settings(max_examples=80, deadline=None)
    @given(ids=id_sets, data=st.data())
    def test_take_put_round_trip(self, ids, data):
        table = table_of(ids)
        oracle = {int(u): table.values[i].copy() for i, u in enumerate(table.ids)}
        members = sorted(ids)

        query = data.draw(st.lists(st.sampled_from(members), max_size=60))
        taken = table.take(query)
        assert taken.shape == (len(query), DIM)
        for row, user in zip(taken, query):
            assert np.array_equal(row, oracle[user])

        # A write through the table is a write to the dict, id by id
        # (distinct ids: the value a repeated id keeps is unspecified).
        targets = data.draw(st.lists(st.sampled_from(members), unique=True, max_size=40))
        new_rows = np.arange(len(targets) * DIM, dtype=np.float64).reshape(-1, DIM) - 7.0
        table.put(targets, new_rows)
        for user, row in zip(targets, new_rows):
            oracle[user] = row
        for user in members:
            assert np.array_equal(table.take([user])[0], oracle[user])

    @settings(max_examples=40, deadline=None)
    @given(ids=id_sets, probe=st.integers(min_value=-60, max_value=10_010))
    def test_find_agrees_with_membership(self, ids, probe):
        table = table_of(ids)
        positions, held = table.find([probe, min(ids)])
        assert bool(held[0]) == (probe in ids)
        assert held[1] and table.ids[positions[1]] == min(ids)

    def test_take_returns_a_copy(self):
        table = table_of({1, 2, 3})
        table.take([2])[...] = 99.0
        assert np.array_equal(table.take([2])[0], [20.0, 21.0, 22.0])


class TestUnknownIds:
    @pytest.mark.parametrize("missing", [-1, 4, 10**6])
    def test_unknown_id_is_named(self, missing):
        table = table_of({0, 3, 5, 9})
        with pytest.raises(KeyError, match=str(missing)):
            table.rows([3, missing, 9])
        with pytest.raises(KeyError, match=str(missing)):
            table.take([missing])
        with pytest.raises(KeyError, match=str(missing)):
            table.put([missing], np.zeros((1, DIM)))

    def test_empty_table_holds_nobody(self):
        table = UserTable(np.empty(0, np.int64), np.empty((0, DIM)), DIM, np.float64)
        assert len(table) == 0
        assert table.take([]).shape == (0, DIM)
        with pytest.raises(KeyError, match="7"):
            table.rows([7])


class TestConstructorIsTheDoor:
    def test_rejects_unsorted_ids(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            UserTable(np.array([3, 1, 2]), np.zeros((3, DIM)), DIM, np.float64)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            UserTable(np.array([1, 2, 2]), np.zeros((3, DIM)), DIM, np.float64)

    @pytest.mark.parametrize(
        "values",
        [np.zeros((2, DIM)), np.zeros((3, DIM + 1)), np.zeros(3 * DIM), np.zeros((3, DIM, 1))],
        ids=["short", "wide", "flat", "3d"],
    )
    def test_rejects_ragged_matrix(self, values):
        with pytest.raises(ValueError, match="shape"):
            UserTable(np.array([1, 2, 3]), values, DIM, np.float64)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            UserTable(np.array([1]), np.zeros((1, DIM), np.float32), DIM, np.float64)

    @pytest.mark.parametrize(
        "ids", [np.array([1.0, 2.0]), np.array([[1, 2]]), np.array(["1", "2"])],
        ids=["float", "2d", "str"],
    )
    def test_rejects_non_integer_or_non_flat_ids(self, ids):
        with pytest.raises(ValueError, match="integer"):
            UserTable(ids, np.zeros((2, DIM)), DIM, np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_trained_dtype(self, dtype):
        table = table_of({4, 8}, dtype)
        assert table.values.dtype == dtype and table.ids.dtype == np.int64
        assert table.take([8]).dtype == dtype
        assert table.values.flags.c_contiguous


class TestPutAndDrop:
    def test_put_is_shape_checked(self):
        table = table_of({1, 2, 3})
        with pytest.raises(ValueError, match="shape"):
            table.put([1, 2], np.zeros((2, DIM + 1)))
        with pytest.raises(ValueError, match="shape"):
            table.put([1, 2], np.zeros((3, DIM)))

    def test_drop_removes_id_and_row_only(self):
        table = table_of({1, 4, 6, 9})
        before = {user: table.take([user])[0] for user in (1, 6, 9)}
        table.drop(4)
        assert table.ids.tolist() == [1, 6, 9]
        assert table.values.shape == (3, DIM) and table.values.flags.c_contiguous
        for user, row in before.items():
            assert np.array_equal(table.take([user])[0], row)
        with pytest.raises(KeyError, match="4"):
            table.take([4])
        with pytest.raises(KeyError, match="4"):
            table.drop(4)
