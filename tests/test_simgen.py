import numpy as np
import pytest
from scipy.stats import norm

from dppcluster import (
    ConfigError,
    MixtureModel,
    RngStream,
    ScenarioSpec,
    estimate_overlap,
    generate_mixture,
    generate_mixture_fixed,
    scenario_grid,
)
from dppcluster.simgen import K_RANGES, P_RANGES, parse_scenario_id


class TestScenarioGrid:
    def test_twenty_four_cells(self):
        grid = scenario_grid()
        assert len(grid) == 24

    def test_excluded_cell_absent(self):
        for spec in scenario_grid():
            assert not (spec.n == 150 and spec.k_level == "large")
        with pytest.raises(ConfigError):
            ScenarioSpec(150, "low", "large")

    @pytest.mark.parametrize("replicas", [0, 1.5])
    def test_replicas_must_be_a_positive_whole_number(self, replicas):
        # 1.5 used to pass here and end the benchmark in a TypeError
        with pytest.raises(ConfigError, match="replicas"):
            ScenarioSpec(150, "low", "low", replicas=replicas)

    def test_level_ranges(self):
        for lo, hi in P_RANGES.values():
            assert 2 <= lo <= hi <= 20
        assert K_RANGES["low"] == (2, 5)
        assert K_RANGES["medium"] == (6, 10)
        assert K_RANGES["large"] == (11, 20)

    def test_scenario_id_round_trip(self):
        for spec in scenario_grid():
            parsed = parse_scenario_id(spec.scenario_id)
            assert (parsed.n, parsed.p_level, parsed.k_level) == (
                spec.n,
                spec.p_level,
                spec.k_level,
            )

    def test_bad_ids_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_id("t150-pmedium-klow")
        with pytest.raises(ConfigError):
            parse_scenario_id("n151-pmedium-klow")


class TestEstimateOverlap:
    def test_identical_components_overlap_one(self):
        cov = np.eye(2)[None].repeat(2, axis=0)
        model = MixtureModel(np.zeros((2, 2)), cov, np.array([0.5, 0.5]))
        est = estimate_overlap(model, 0, 1, m=20_000, rng=RngStream(0, 0))
        assert est == pytest.approx(1.0, abs=0.02)

    def test_far_separated_components_overlap_zero(self):
        means = np.array([[0.0, 0.0], [100.0, 100.0]])
        cov = np.eye(2)[None].repeat(2, axis=0)
        model = MixtureModel(means, cov, np.array([0.5, 0.5]))
        assert estimate_overlap(model, 0, 1, m=10_000, rng=RngStream(1, 0)) == 0.0

    def test_1d_equal_variance_closed_form(self):
        # equal weights and spheres: overlap = 2 Phi(-delta / (2 sigma))
        delta = 1.0
        expected = 2.0 * norm.cdf(-delta / 2.0)
        means = np.array([[0.0], [delta]])
        cov = np.ones((2, 1, 1))
        model = MixtureModel(means, cov, np.array([0.5, 0.5]))
        m = 200_000
        est = estimate_overlap(model, 0, 1, m=m, rng=RngStream(2, 0))
        se = np.sqrt(2 * expected / 2 * (1 - expected / 2) / m)
        assert abs(est - expected) <= 3 * se

    def test_same_component_rejected(self):
        model = MixtureModel(np.zeros((2, 1)), np.ones((2, 1, 1)), np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            estimate_overlap(model, 1, 1, rng=RngStream(0, 0))
        with pytest.raises(ConfigError):
            estimate_overlap(model, 0, 1, m=100, rng=RngStream(0, 0))


class TestGenerateMixture:
    def test_single_component_degenerate_request(self):
        ds = generate_mixture_fixed(100, 3, 1, RngStream(0, 0))
        assert ds.k == 1
        assert np.all(ds.true_labels == 0)
        assert ds.data.shape == (100, 3)

    def test_injected_even_weights_give_binomial_counts(self):
        # weights (1/2, 1/2), n=1000: counts inside the 99.9% binomial band
        from dppcluster.simgen import _draw_counts

        counts = _draw_counts(1000, np.array([0.5, 0.5]), 1, RngStream(3, 0).generator)
        assert counts is not None
        assert counts.sum() == 1000
        half_width = 3.2905 * np.sqrt(1000 * 0.25)
        assert abs(counts[0] - 500) <= half_width

    def test_well_separated_model_needs_no_repair(self):
        from dppcluster.simgen import _repair_overlap

        means = np.array([[0.0, 0.0], [50.0, 50.0]])
        cov = (0.01 * np.eye(2))[None].repeat(2, axis=0)
        model = MixtureModel(means, cov, np.array([0.5, 0.5]))
        est = estimate_overlap(model, 0, 1, m=10_000, rng=RngStream(4, 0))
        assert est == pytest.approx(0.0, abs=1e-12)
        repaired = _repair_overlap(model, 0.01, 10_000, RngStream(4, 1).generator)
        assert np.array_equal(repaired.covariances, model.covariances)

    def test_scenario_dataset_respects_design(self):
        spec = ScenarioSpec(150, "low", "low")
        ds = generate_mixture(spec, RngStream(5, 0))
        assert ds.n == 150
        assert P_RANGES["low"][0] <= ds.p <= P_RANGES["low"][1]
        assert K_RANGES["low"][0] <= ds.k <= K_RANGES["low"][1]
        # balance gate: every component holds at least ceil(sqrt(n)) + 2
        assert np.bincount(ds.true_labels).min() >= int(np.ceil(np.sqrt(150))) + 2

    def test_overlap_bound_holds_under_reestimation(self):
        spec = ScenarioSpec(150, "low", "low")
        ds = generate_mixture(spec, RngStream(6, 0))
        m = 10_000
        slack = 3 * np.sqrt(2 * 0.01 * 0.99 / m)
        for a in range(ds.k):
            for b in range(a + 1, ds.k):
                est = estimate_overlap(ds.model, a, b, m=m, rng=RngStream(7, (a, b)))
                assert est <= spec.max_pairwise_overlap + slack

    def test_covariances_positive_definite(self):
        ds = generate_mixture(ScenarioSpec(150, "low", "low"), RngStream(8, 0))
        for cov in ds.model.covariances:
            np.linalg.cholesky(cov)  # raises if not PD

    def test_determinism_byte_identical(self):
        spec = ScenarioSpec(150, "low", "low")
        a = generate_mixture(spec, RngStream(9, (3, 1)))
        b = generate_mixture(spec, RngStream(9, (3, 1)))
        assert a.data.tobytes() == b.data.tobytes()
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_weights_on_simplex(self):
        ds = generate_mixture(ScenarioSpec(150, "low", "low"), RngStream(10, 0))
        assert ds.model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (ds.model.weights > 0).all()


class TestMixtureModelType:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ConfigError):
            MixtureModel(np.zeros((2, 3)), np.ones((2, 2, 2)), np.array([0.5, 0.5]))

    def test_bad_weights_rejected(self):
        cov = np.eye(2)[None].repeat(2, axis=0)
        with pytest.raises(ConfigError):
            MixtureModel(np.zeros((2, 2)), cov, np.array([0.7, 0.7]))

    def test_indefinite_covariance_rejected(self):
        cov = np.array([[[1.0, 2.0], [2.0, 1.0]]]).repeat(2, axis=0)
        with pytest.raises(np.linalg.LinAlgError):
            MixtureModel(np.zeros((2, 2)), cov, np.array([0.5, 0.5]))
