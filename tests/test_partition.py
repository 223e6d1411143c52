import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppcluster import (
    Clustering,
    ConfigError,
    GeneratorSet,
    KernelMatrix,
    Partition,
    ShapeMismatch,
    ari,
    lloyd_kmeans,
    voronoi_assign,
)
from dppcluster.kernel import pairwise_sq_dists, sq_dists_between
from dppcluster.partition import compact_labels
from oracles import lloyd_oracle, wcss


class TestVoronoiAssign:
    def test_generators_own_their_cells(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 2))
        gens = GeneratorSet((3, 7, 11))
        part = voronoi_assign(x, gens)
        # zero self-distance: each generator lands in its own, distinct cell
        assert len({part.labels[3], part.labels[7], part.labels[11]}) == 3

    def test_nearest_generator_1d(self):
        x = np.array([0.0, 1.0, 10.0])
        part = voronoi_assign(x, GeneratorSet((0, 2)))
        assert part.labels.tolist() == [0, 0, 1]
        assert part.k == 2

    def test_tie_breaks_toward_earlier_generator(self):
        # point 1 sits exactly between generators 0 and 2
        x = np.array([0.0, 1.0, 2.0])
        part = voronoi_assign(x, GeneratorSet((0, 2)))
        assert part.labels[1] == part.labels[0]
        part_rev = voronoi_assign(x, GeneratorSet((2, 0)))
        assert part_rev.labels[1] == part_rev.labels[2]

    def test_shared_distance_matrix_matches_direct(self):
        # the labels of the distance matrix's generator rows
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        d2 = pairwise_sq_dists(x)
        gens = GeneratorSet((1, 5, 9))
        expected, k = compact_labels(np.argmin(d2[list(gens.indices)], axis=0))
        part = voronoi_assign(x, gens)
        assert np.array_equal(part.labels, expected) and part.k == k

    def test_grid_ties_match_first_nearest_loop(self):
        # integer grid points tie constantly; each point must get the first
        # generator at its smallest distance
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(60, 2)).astype(float)
        d2 = pairwise_sq_dists(x)
        for _ in range(20):
            idx = rng.choice(60, size=6, replace=False)
            first = [min(range(6), key=lambda g: (d2[i, idx[g]], g)) for i in range(60)]
            expected, _ = compact_labels(first)
            assert np.array_equal(voronoi_assign(x, idx).labels, expected)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        a = voronoi_assign(x, GeneratorSet((0, 10, 20)))
        b = voronoi_assign(x, GeneratorSet((20, 0, 10)))
        assert ari(a.labels, b.labels) == 1.0

    @pytest.mark.parametrize("listed", [False, True])
    @pytest.mark.parametrize("idx", [(0, -1), (0, 5), (-6, 1)])
    def test_index_outside_the_points_is_rejected(self, listed, idx):
        # n = 5: a negative index does not wrap to the last point, whether
        # the indices come as a list or an array, and one past n is a
        # ShapeMismatch too
        x = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ShapeMismatch, match="out of range"):
            voronoi_assign(x, list(idx) if listed else np.array(idx))

    def test_duplicate_generator_point_empties_cell(self):
        # two generators at identical coordinates: the later one gets nothing
        x = np.array([[0.0], [0.0], [5.0]])
        part = voronoi_assign(x, GeneratorSet((0, 1, 2)))
        assert part.k == 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 60),
        p=st.integers(1, 6),
        grid=st.booleans(),
        copies=st.booleans(),
        offset=st.sampled_from([0.0, 1e6]),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_exact_first_on_ties_argmin(self, n, p, grid, copies, offset, k, seed):
        # integer grids put points equidistant from two generators, copied
        # rows put generators at equal coordinates, and the offset leaves the
        # matrix-product keys of uncentred data no correct digit
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(n, p)).astype(float) if grid else rng.normal(size=(n, p))
        if copies:
            x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
        x += offset
        idx = rng.choice(n, size=min(k, n), replace=False)
        expected, k_expected = compact_labels(np.argmin(sq_dists_between(x[idx], x), axis=0))
        # on the data, and on a kernel's shared centred rows
        for data in (x, KernelMatrix(x, -1.0)):
            part = voronoi_assign(data, idx)
            assert np.array_equal(part.labels, expected) and part.k == k_expected

    def test_equidistant_points_and_coinciding_generators(self):
        # point 2 is equidistant from generators 0 and 4, generators 1 and 3
        # share coordinates: ties go to the earliest generator listed
        x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [2.0, 2.0]]) + 1e6
        for data in (x, KernelMatrix(x, -1.0)):
            part = voronoi_assign(data, GeneratorSet((4, 3, 0, 1)))
            assert part.labels.tolist() == [2, 1, 0, 1, 0]
            assert part.k == 3


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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sums_added_in_row_order(self, order):
        # the one-bincount cluster sums add each bin's terms in increasing
        # row order, so labels match row-by-row sums exactly, also when
        # clusters empty out along the way
        rng = np.random.default_rng(11)
        for trial in range(12):
            n, p, k = 80 + 7 * trial, 1 + trial % 5, 2 + trial % 9
            x = np.asarray(rng.normal(size=(n, p)) * rng.uniform(0.1, 50.0, size=p), order=order)
            init = x[rng.choice(n, size=k, replace=False)]
            init[-1] += 1e3  # far away: drops out after the first assignment
            labels, _ = compact_labels(lloyd_oracle(x, init))
            assert np.array_equal(lloyd_kmeans(x, init).labels, labels)

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

    def test_labels_copied_not_frozen(self):
        lab = np.arange(3)
        p = Partition(lab, 3)
        assert lab.flags.writeable
        lab[0] = 2
        assert p.labels[0] == 0
        assert not p.labels.flags.writeable

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
