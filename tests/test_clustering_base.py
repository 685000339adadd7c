"""Unit tests for clustering-function abstractions (Definition 3.1 interface)."""

import numpy as np
import pytest

from repro.clustering.base import (
    CenterBasedClustering,
    GaussianMixtureClustering,
    ModeBasedClustering,
    PredicateClustering,
    nearest_center,
    nearest_mode,
    subsample_indices,
)
from repro.clustering.encode import IdentityEncoder

from helpers import make_dataset


class TestNearestCenter:
    def test_exact_assignment(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, -0.1]])
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert nearest_center(pts, centers).tolist() == [0, 1, 0]

    def test_blockwise_matches_direct(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(500, 4))
        centers = rng.normal(size=(7, 4))
        got = nearest_center(pts, centers)
        direct = np.argmin(
            ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(got, direct)


def _nearest_mode_oracle(codes, modes):
    """Broadcast reference: the full n x k x d mismatch tensor."""
    return np.argmin((codes[:, None, :] != modes[None]).sum(2), 1)


class TestNearestMode:
    def test_exact_assignment(self):
        codes = np.array([[0, 1, 2], [3, 3, 3]])
        modes = np.array([[0, 1, 0], [3, 3, 2]])
        assert nearest_mode(codes.T, modes).tolist() == [0, 1]

    def test_blockwise_matches_direct(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(300, 5))
        modes = rng.integers(0, 4, size=(6, 5))
        got = nearest_mode(codes.T, modes)
        direct = np.argmin(
            (codes[:, None, :] != modes[None]).sum(axis=2), axis=1
        )
        assert np.array_equal(got, direct)

    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("d", [1, 3, 40])
    def test_matches_broadcast_oracle_with_forced_ties(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        # Two-value codes make equal mismatch counts common, and duplicated
        # modes force exact ties that must go to the lower mode index.
        codes = rng.integers(0, 2, size=(500, d))
        modes = rng.integers(0, 2, size=(k, d))
        if k > 1:
            modes[-1] = modes[0]
        got = nearest_mode(list(codes.T), modes)
        want = _nearest_mode_oracle(codes, modes)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        if k > 1:
            assert not np.any(got == k - 1)

    def test_rows_tied_on_every_mode_go_to_mode_zero(self):
        codes = np.zeros((4, 3), dtype=np.int64)
        modes = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert nearest_mode(codes.T, modes).tolist() == [0, 0, 0, 0]

    def test_row_matrix_instead_of_columns_is_rejected(self):
        codes = np.zeros((5, 3), dtype=np.int64)  # (n, d), not (d, n)
        with pytest.raises(ValueError):
            nearest_mode(codes, np.zeros((2, 3), dtype=np.int64))


class TestCenterBasedClustering:
    def test_is_function_of_values(self):
        # Identical tuples must get identical labels (f : dom(R) -> C).
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]]))
        labels = f.assign(d)
        assert labels[0] == labels[6]  # rows 0 and 6 are both ("red","S","no")

    def test_cluster_sizes_sum_to_n(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0, 0], [2.0, 3, 1]]))
        assert int(f.cluster_sizes(d).sum()) == len(d)

    def test_partition_masks_disjoint_and_cover(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.array([[0.0, 0, 0], [2.0, 3, 1]]))
        masks = f.partition_masks(d)
        stacked = np.stack(masks)
        assert (stacked.sum(axis=0) == 1).all()  # exactly one cluster per tuple

    def test_empty_dataset(self):
        from repro.dataset import Dataset

        d = make_dataset()
        empty = d.subset(np.zeros(len(d), dtype=bool))
        enc = IdentityEncoder.fit(d)
        f = CenterBasedClustering(enc, np.zeros((2, 3)))
        assert f.assign(empty).shape == (0,)


class TestGaussianMixtureClustering:
    def test_assigns_to_closest_component(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        means = np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]])
        f = GaussianMixtureClustering(
            enc, means, np.ones_like(means), np.log(np.array([0.5, 0.5]))
        )
        labels = f.assign(d)
        assert labels[0] == 0  # ("red","S","no") = (0,0,0)
        assert labels[5] == 1  # ("blue","XL","yes") = (2,3,1)

    def test_weights_break_ties(self):
        d = make_dataset([("red", "S", "no")])
        enc = IdentityEncoder.fit(d)
        means = np.zeros((2, 3))
        f = GaussianMixtureClustering(
            enc, means, np.ones((2, 3)), np.log(np.array([0.9, 0.1]))
        )
        assert f.assign(d)[0] == 0


class TestPredicateClustering:
    def test_first_match_wins_with_default_bucket(self):
        d = make_dataset()
        f = PredicateClustering(
            names=("color", "size", "flag"),
            predicates=(
                lambda row: row["color"] == "red",
                lambda row: row["flag"] == "yes",
            ),
        )
        labels = f.assign(d)
        assert f.n_clusters == 3
        assert labels[0] == 0  # red
        assert labels[2] == 1  # green + yes
        assert labels[3] == 2  # green + no -> default


class TestSubsample:
    def test_no_subsample_when_small(self):
        idx = subsample_indices(10, 20, np.random.default_rng(0))
        assert np.array_equal(idx, np.arange(10))

    def test_subsample_size_and_uniqueness(self):
        idx = subsample_indices(1000, 50, np.random.default_rng(0))
        assert len(idx) == 50
        assert len(set(idx.tolist())) == 50
        assert np.array_equal(idx, np.sort(idx))
