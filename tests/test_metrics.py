import math
import re

import numpy as np
import pytest

from dppcluster import DegenerateData, ShapeMismatch, ari, rn
from oracles import ari_pair_oracle


class TestAri:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert ari(labels, labels) == 1.0
        assert ari(labels, (labels + 1) % 3) == 1.0  # relabeling

    def test_one_cluster_vs_singletons(self):
        # chance-level agreement under the hypergeometric adjustment
        assert ari([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            a = rng.integers(0, int(rng.integers(2, 8)), size=n)
            b = rng.integers(0, int(rng.integers(2, 8)), size=n)
            assert ari(a, b) == ari_pair_oracle(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=50)
        b = rng.integers(0, 3, size=50)
        assert ari(a, b) == ari(b, a)

    def test_permutation_of_labels_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 4, size=40)
        b = rng.integers(0, 4, size=40)
        perm = rng.permutation(4)
        assert ari(a, b) == ari(perm[a], b)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 3, size=30)
            assert ari(a, b) <= 1.0

    def test_both_single_cluster(self):
        assert ari([0, 0, 0], [5, 5, 5]) == 1.0

    def test_both_all_singletons(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0

    def test_large_n_exact_integer_arithmetic(self):
        # products of pair counts overflow 32-bit well below this size
        rng = np.random.default_rng(4)
        a = rng.integers(0, 5, size=1500)
        b = rng.integers(0, 5, size=1500)
        assert ari(a, b) == ari_pair_oracle(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ari([0, 1], [0, 1, 2])

    def test_lengths_differ_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(150,\) and \(149,\)"):
            ari(np.zeros(150, dtype=int), np.zeros(149, dtype=int))

    @pytest.mark.parametrize("shape", [(150, 2), (300, 1), (1, 300)])
    def test_labels_not_one_dimensional(self, shape):
        # raveled, a (150, 2) array has 300 labels and scored 1.0 against them
        labels = np.arange(300) % 3
        table = labels.reshape(shape)
        with pytest.raises(ShapeMismatch, match=rf"{re.escape(str(shape))} and \(300,\)"):
            ari(table, labels)
        with pytest.raises(ShapeMismatch, match=rf"\(300,\) and {re.escape(str(shape))}"):
            ari(labels, table)
        with pytest.raises(ShapeMismatch):
            ari(table, table)

    def test_cross_tabulated_pair_counts(self):
        # table [[1, 1], [0, 2]]: 1 pair shared, 2 pairs in the first
        # labeling (row sums 2, 2) and 3 in the second (column sums 1, 3)
        # of 6; 2 * 3 / 6 = 1 shared pair expected by chance, so ARI is 0
        a, b = [0, 0, 1, 1], [0, 1, 1, 1]
        assert ari(a, b) == ari_pair_oracle(a, b) == 0.0
        assert ari(a, [1, 0, 0, 0]) == 0.0

    @pytest.mark.parametrize("labels", [[], [3]])
    def test_fewer_than_two_observations(self, labels):
        with pytest.raises(DegenerateData):
            ari(labels, labels)

    def test_string_labels_accepted(self):
        assert ari(["a", "a", "b"], [0, 0, 1]) == 1.0


class TestRn:
    def test_equal_counts(self):
        assert rn(3, 3) == 0.0

    def test_four_vs_one(self):
        assert rn(4, 1) == 1.0

    def test_two_vs_eight_exact_surds(self):
        assert rn(2, 8) == pytest.approx(-0.5, abs=1e-15)

    def test_sign_tracks_direction(self):
        assert rn(5, 3) > 0
        assert rn(2, 3) < 0
        assert math.copysign(1, rn(9, 4)) == 1.0
