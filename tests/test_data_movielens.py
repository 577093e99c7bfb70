"""Tests for the MovieLens ratings.dat parser and writer."""

import numpy as np
import pytest

from repro.data import movielens
from repro.data.movielens import load_movielens, parse_ratings_line, save_ratings
from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset


class TestParseLine:
    def test_standard_line(self):
        assert parse_ratings_line("1::1193::5::978300760") == (1, 1193)

    def test_blank_and_malformed(self):
        assert parse_ratings_line("") is None
        assert parse_ratings_line("   ") is None
        assert parse_ratings_line("1::2") is None  # missing rating column
        assert parse_ratings_line("a::b::c") is None

    def test_custom_separator(self, monkeypatch):
        monkeypatch.setattr(movielens, "SEPARATOR", ",")
        assert parse_ratings_line("3,7,4,0") == (3, 7)


class TestLoad:
    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_movielens("/nonexistent/ratings.dat")

    def test_load_small_file(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text(
            "10::100::5::0\n"
            "10::200::3::0\n"
            "20::100::1::0\n"
            "\n"
            "garbage line\n"
            "30::300::4::0\n"
        )
        ds = load_movielens(str(path))
        # Dense re-index in order of first appearance: 10→0, 20→1, 30→2.
        assert ds.num_users == 3
        assert ds.num_items == 3
        assert ds.user_items[0].tolist() == [0, 1]  # items 100, 200
        assert ds.user_items[1].tolist() == [0]

    def test_all_ratings_binarised(self, tmp_path):
        """Rating values (1 and 5) both become implicit positives."""
        path = tmp_path / "ratings.dat"
        path.write_text("1::1::5::0\n1::2::1::0\n")
        ds = load_movielens(str(path))
        assert ds.user_items[0].size == 2

    def test_min_interactions_filter(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1::5::0\n1::2::5::0\n2::1::5::0\n")
        ds = load_movielens(str(path), min_interactions=2)
        assert ds.num_users == 1


class TestRoundTrip:
    def test_save_and_reload(self, tmp_path):
        original = load_benchmark_dataset(
            "ml", SyntheticConfig(scale=0.01, item_scale=0.03, seed=3)
        )
        path = tmp_path / "export.dat"
        save_ratings(original, str(path))
        reloaded = load_movielens(str(path))
        assert reloaded.num_interactions == original.num_interactions
        # User 0's item set survives the round trip (ids are re-indexed in
        # appearance order, which for a dense export equals identity for
        # the first user's items' *count*).
        assert reloaded.user_items[0].size == original.user_items[0].size
