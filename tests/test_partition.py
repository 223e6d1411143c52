import numpy as np
import pytest

from dppcluster import (
    Clustering,
    ConfigError,
    GeneratorSet,
    Partition,
    ShapeMismatch,
    ari,
    lloyd_kmeans,
    voronoi_assign,
)
from dppcluster.kernel import pairwise_sq_dists
from dppcluster.partition import compact_labels
from oracles import wcss


class TestVoronoiAssign:
    def test_generators_own_their_cells(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 2))
        gens = GeneratorSet((3, 7, 11), "uniform")
        part = voronoi_assign(x, gens)
        # zero self-distance: each generator lands in its own, distinct cell
        assert len({part.labels[3], part.labels[7], part.labels[11]}) == 3

    def test_nearest_generator_1d(self):
        x = np.array([0.0, 1.0, 10.0])
        part = voronoi_assign(x, GeneratorSet((0, 2), "uniform"))
        assert part.labels.tolist() == [0, 0, 1]
        assert part.k == 2

    def test_tie_breaks_toward_earlier_generator(self):
        # point 1 sits exactly between generators 0 and 2
        x = np.array([0.0, 1.0, 2.0])
        part = voronoi_assign(x, GeneratorSet((0, 2), "uniform"))
        assert part.labels[1] == part.labels[0]
        part_rev = voronoi_assign(x, GeneratorSet((2, 0), "uniform"))
        assert part_rev.labels[1] == part_rev.labels[2]

    def test_shared_distance_matrix_matches_direct(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        d2 = pairwise_sq_dists(x)
        gens = GeneratorSet((1, 5, 9), "uniform")
        a = voronoi_assign(x, gens)
        b = voronoi_assign(x, gens, sq_dists=d2)
        assert np.array_equal(a.labels, b.labels)

    def test_grid_ties_match_first_nearest_loop(self):
        # integer grid points tie constantly; both distance paths must give
        # each point the first generator at its smallest distance
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(60, 2)).astype(float)
        d2 = pairwise_sq_dists(x)
        for _ in range(20):
            idx = rng.choice(60, size=6, replace=False)
            first = [min(range(6), key=lambda g: (d2[i, idx[g]], g)) for i in range(60)]
            expected, _ = compact_labels(first)
            for part in (voronoi_assign(x, idx), voronoi_assign(x, idx, sq_dists=d2)):
                assert np.array_equal(part.labels, expected)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        a = voronoi_assign(x, GeneratorSet((0, 10, 20), "uniform"))
        b = voronoi_assign(x, GeneratorSet((20, 0, 10), "uniform"))
        assert ari(a.labels, b.labels) == 1.0

    def test_duplicate_generator_point_empties_cell(self):
        # two generators at identical coordinates: the later one gets nothing
        x = np.array([[0.0], [0.0], [5.0]])
        part = voronoi_assign(x, GeneratorSet((0, 1, 2), "uniform"))
        assert part.k == 2


class TestLloydKmeans:
    def test_fixed_point_converges_immediately(self, blob_data):
        x, truth = blob_data
        centers = np.vstack([x[:50].mean(axis=0), x[50:].mean(axis=0)])
        part = lloyd_kmeans(x, centers)
        assert ari(part.labels, truth) == 1.0

    def test_single_center(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 2))
        part = lloyd_kmeans(x, x.mean(axis=0))
        assert part.k == 1
        assert np.all(part.labels == 0)

    def test_wcss_non_increasing_across_iterations(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        init = x[rng.choice(100, size=5, replace=False)]
        values = [wcss(x, lloyd_kmeans(x, init, max_iter=t).labels) for t in range(1, 12)]
        assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(values, values[1:]))

    def test_zero_tolerance_terminates(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 2))
        init = x[rng.choice(60, size=4, replace=False)]
        part = lloyd_kmeans(x, init, max_iter=10_000, tol=0.0)
        assert part.k >= 1

    def test_empty_cluster_dropped(self):
        # third center sits far from every point and attracts nothing
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        part = lloyd_kmeans(x, np.array([[0.0], [10.0], [1e6]]))
        assert part.k == 2

    def test_bad_center_count_rejected(self):
        with pytest.raises(ConfigError):
            lloyd_kmeans(np.zeros((3, 1)), np.zeros((5, 1)))


class TestPartitionType:
    def test_contiguity_enforced(self):
        with pytest.raises(ConfigError):
            Partition(np.array([0, 2, 2]), 3)  # id 1 empty

    def test_valid_partition(self):
        p = Partition(np.array([1, 0, 1]), 2)
        assert p.n == 3

    @pytest.mark.parametrize("cls", [Partition, Clustering])
    @pytest.mark.parametrize(
        "labels, k, error",
        [
            ([0, -1, 1], 2, ConfigError),
            ([0, 2, 1], 2, ConfigError),
            ([0, 0], 2, ConfigError),
            ([[0, 1], [1, 0]], 2, ShapeMismatch),
        ],
        ids=["negative-id", "id-not-below-k", "empty-id", "2-d"],
    )
    def test_bad_labels_raise_package_errors(self, cls, labels, k, error):
        with pytest.raises(error):
            cls(np.array(labels), k)
