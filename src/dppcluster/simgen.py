"""Synthetic Gaussian-mixture benchmark generator.

Datasets come from p-variate Gaussian mixtures with means on the unit
hypercube, Wishart covariances, and Dirichlet weights.  Generation enforces
two quality gates: an upper bound on the pairwise overlap between any two
components (estimated by Monte Carlo misclassification), and a minimum
component count so the consensus merging stage is never forced by the
generator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GenerationExhausted, checked_int
from .rng import as_generator

__all__ = [
    "ScenarioSpec",
    "MixtureModel",
    "LabeledDataset",
    "N_LEVELS",
    "P_RANGES",
    "K_RANGES",
    "scenario_grid",
    "parse_scenario_id",
    "estimate_overlap",
    "generate_mixture",
    "generate_mixture_fixed",
]

N_LEVELS = (150, 500, 1500)
P_RANGES = {"low": (2, 7), "medium": (8, 12), "large": (13, 20)}
K_RANGES = {"low": (2, 5), "medium": (6, 10), "large": (11, 20)}

_MODEL_ATTEMPTS = 200
_SHRINK_STEPS = 200
_SHRINK_FACTOR = 0.9
_COUNT_BATCH = 1000
_WEIGHT_ATTEMPTS = 50
_OVERLAP_DRAWS = 10_000
# shrink iterations probe at reduced precision; acceptance always re-verifies
# every pair at the full draw count
_REPAIR_DRAWS = 2_000


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the factorial simulation design."""

    n: int
    p_level: str
    k_level: str
    max_pairwise_overlap: float = 0.01
    replicas: int = 10

    def __post_init__(self):
        if self.n not in N_LEVELS:
            raise ConfigError(f"n must be one of {N_LEVELS}, got {self.n}")
        if self.p_level not in P_RANGES:
            raise ConfigError(f"unknown p_level {self.p_level!r}")
        if self.k_level not in K_RANGES:
            raise ConfigError(f"unknown k_level {self.k_level!r}")
        if self.n == 150 and self.k_level == "large":
            raise ConfigError(
                "the (n=150, k_level=large) cell is excluded: balanced clusters "
                "of that count cannot fit in 150 observations"
            )
        if not 0.0 < self.max_pairwise_overlap < 1.0:
            raise ConfigError("max_pairwise_overlap must lie in (0, 1)")
        object.__setattr__(self, "replicas", checked_int("replicas", self.replicas, 1))

    @property
    def scenario_id(self) -> str:
        return f"n{self.n}-p{self.p_level}-k{self.k_level}"


def scenario_grid() -> list[ScenarioSpec]:
    """The 24-cell design: 3 sizes x 3 dimension levels x 3 cluster levels,
    minus the three excluded (n=150, large clusters) cells."""
    grid = []
    for n in N_LEVELS:
        for p_level in P_RANGES:
            for k_level in K_RANGES:
                if n == 150 and k_level == "large":
                    continue
                grid.append(ScenarioSpec(n, p_level, k_level))
    return grid


def parse_scenario_id(text: str) -> ScenarioSpec:
    """Parse ids of the form ``n150-pmedium-klow``."""
    parts = text.strip().split("-")
    if len(parts) != 3 or not parts[0].startswith("n") or not parts[1].startswith("p") or not parts[2].startswith("k"):
        raise ConfigError(f"malformed scenario id {text!r}; expected e.g. n150-pmedium-klow")
    try:
        n = int(parts[0][1:])
    except ValueError as exc:
        raise ConfigError(f"malformed scenario id {text!r}") from exc
    return ScenarioSpec(n, parts[1][1:], parts[2][1:])


@dataclass(frozen=True)
class MixtureModel:
    """Gaussian mixture: means on the unit hypercube, PD covariances,
    weights on the simplex."""

    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        k, p = means.shape
        if covs.shape != (k, p, p) or w.shape != (k,):
            raise ConfigError("mixture component shapes are inconsistent")
        if abs(w.sum() - 1.0) > 1e-12 or (w <= 0).any():
            raise ConfigError("weights must be positive and sum to 1")
        for c in covs:  # PD check: Cholesky must succeed
            np.linalg.cholesky(c)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class LabeledDataset:
    """Simulated observations with their ground-truth component labels."""

    data: np.ndarray
    true_labels: np.ndarray
    model: MixtureModel

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def k(self) -> int:
        return self.model.k


def _mvn_logpdf(x: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    from scipy.linalg import solve_triangular  # deferred: scipy adds ~0.4 s to import

    p = mean.size
    z = solve_triangular(chol, (x - mean).T, lower=True)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (p * math.log(2.0 * math.pi) + logdet + (z * z).sum(axis=0))


def _overlap_one_way(model: MixtureModel, k: int, l: int, m: int, g: np.random.Generator) -> float:
    # fraction of draws from component l that component k claims; exact
    # density ties split evenly (identical components overlap by symmetry)
    chol_l = np.linalg.cholesky(model.covariances[l])
    chol_k = np.linalg.cholesky(model.covariances[k])
    x = g.standard_normal((m, model.p)) @ chol_l.T + model.means[l]
    log_k = math.log(model.weights[k]) + _mvn_logpdf(x, model.means[k], chol_k)
    log_l = math.log(model.weights[l]) + _mvn_logpdf(x, model.means[l], chol_l)
    return float(np.mean(log_k > log_l) + 0.5 * np.mean(log_k == log_l))


def estimate_overlap(model: MixtureModel, k: int, l: int, m: int = _OVERLAP_DRAWS, rng=None) -> float:
    """Monte-Carlo pairwise overlap between components k and l.

    Sum of the two misclassification fractions: draws from one component
    assigned higher weighted density by the other, and vice versa.
    """
    if k == l:
        raise ConfigError("overlap is defined for two distinct components")
    if m < 1000:
        raise ConfigError("need at least 1000 Monte-Carlo draws")
    g = as_generator(rng)
    return _overlap_one_way(model, k, l, m, g) + _overlap_one_way(model, l, k, m, g)


def _repair_overlap(
    model: MixtureModel, bound: float, m: int, g: np.random.Generator
) -> MixtureModel | None:
    """Shrink all covariances by a common factor until every pairwise overlap
    fits the bound; None when the step budget runs out.

    Shrinking reduces every overlap monotonically, so the loop probes only
    the currently violating pair (at reduced precision) and then verifies
    every pair at the full draw count before accepting.
    """
    if model.k == 1:
        return model
    pairs = [(a, b) for a in range(model.k) for b in range(a + 1, model.k)]
    m_probe = min(m, _REPAIR_DRAWS)
    steps = 0

    def shrink(mdl):
        return replace(mdl, covariances=mdl.covariances * _SHRINK_FACTOR)

    while True:
        for a, b in pairs:
            while estimate_overlap(model, a, b, m_probe, g) > bound:
                if steps >= _SHRINK_STEPS:
                    return None
                model = shrink(model)
                steps += 1
        # acceptance sweep at full precision; one more shrink on any miss
        clean = True
        for a, b in pairs:
            if estimate_overlap(model, a, b, m, g) > bound:
                if steps >= _SHRINK_STEPS:
                    return None
                model = shrink(model)
                steps += 1
                clean = False
                break
        if clean:
            return model


def _draw_counts(
    n: int, weights: np.ndarray, min_count: int, g: np.random.Generator
) -> np.ndarray | None:
    draws = g.multinomial(n, weights, size=_COUNT_BATCH)
    ok = np.flatnonzero((draws >= min_count).all(axis=1))
    if ok.size == 0:
        return None
    return draws[int(ok[0])]


def _sample_points(model: MixtureModel, counts: np.ndarray, g: np.random.Generator):
    parts = []
    for comp in range(model.k):
        chol = np.linalg.cholesky(model.covariances[comp])
        z = g.standard_normal((int(counts[comp]), model.p))
        parts.append(z @ chol.T + model.means[comp])
    data = np.vstack(parts)
    labels = np.repeat(np.arange(model.k), counts)
    return data, labels


def _wishart_standard(p: int, k: int, g: np.random.Generator) -> np.ndarray:
    from scipy.stats import wishart  # deferred: scipy.stats adds ~0.75 s to import

    # standard Wishart, identity scale, p + 1 degrees of freedom
    draws = wishart.rvs(df=p + 1, scale=np.eye(p), size=k, random_state=g)
    return np.asarray(draws, dtype=float).reshape(k, p, p)


# Compactness gate: the misclassification overlap alone tolerates components
# that interpenetrate in Euclidean distance (density shapes can separate what
# distances cannot), and center-based partitioning is meaningless on such
# mixtures.  Components are therefore shrunk until the expected squared
# diameter of every component, 2 tr(V_k), is at most this fraction of the
# smallest squared center separation; the overlap bound is verified after.
_COMPACTNESS_RATIO = 0.1


def _compact_covariances(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    k = means.shape[0]
    if k == 1:
        return covs
    sep2 = min(
        float(((means[a] - means[b]) ** 2).sum()) for a in range(k) for b in range(a + 1, k)
    )
    if sep2 <= 0.0:
        return covs  # coincident centers: leave it to the overlap repair
    worst = max(2.0 * float(np.trace(c)) for c in covs)
    target = _COMPACTNESS_RATIO * sep2
    if worst <= target:
        return covs
    steps = math.ceil(math.log(target / worst) / math.log(_SHRINK_FACTOR))
    return covs * _SHRINK_FACTOR**steps


def _try_generate(
    n: int, p: int, k: int, bound: float, g: np.random.Generator
) -> LabeledDataset | None:
    means = g.random((k, p))
    covs = _compact_covariances(means, _wishart_standard(p, k, g))
    weights = g.dirichlet(np.ones(k))
    min_count = math.ceil(math.sqrt(n)) + 2 if k > 1 else 1
    for _ in range(_WEIGHT_ATTEMPTS):
        model = _repair_overlap(MixtureModel(means, covs, weights), bound, _OVERLAP_DRAWS, g)
        if model is None:
            return None
        counts = _draw_counts(n, model.weights, min_count, g)
        if counts is not None:
            data, labels = _sample_points(model, counts, g)
            return LabeledDataset(data, labels, model)
        # rebalance and re-verify the overlap under the new weights
        weights = g.dirichlet(np.ones(k))
        covs = model.covariances
    return None


def generate_mixture_fixed(
    n: int, p: int, k: int, rng, max_pairwise_overlap: float = 0.01
) -> LabeledDataset:
    """Generate one dataset with explicit dimension and component count."""
    if n < 2 or p < 1 or k < 1:
        raise ConfigError("need n >= 2, p >= 1, k >= 1")
    g = as_generator(rng)
    for _ in range(_MODEL_ATTEMPTS):
        ds = _try_generate(n, p, k, max_pairwise_overlap, g)
        if ds is not None:
            return ds
    raise GenerationExhausted(
        f"no admissible mixture after {_MODEL_ATTEMPTS} model attempts "
        f"(n={n}, p={p}, k={k}, overlap<={max_pairwise_overlap})"
    )


def generate_mixture(spec: ScenarioSpec, rng) -> LabeledDataset:
    """Generate one dataset for a scenario, drawing the dimension and the
    component count uniformly within the scenario's level ranges.

    Both are redrawn on every model attempt, so a count that cannot satisfy
    the balance gate at this sample size does not stall generation.
    """
    g = as_generator(rng)
    plo, phi = P_RANGES[spec.p_level]
    klo, khi = K_RANGES[spec.k_level]
    for _ in range(_MODEL_ATTEMPTS):
        p = int(g.integers(plo, phi + 1))
        k = int(g.integers(klo, khi + 1))
        ds = _try_generate(spec.n, p, k, spec.max_pairwise_overlap, g)
        if ds is not None:
            return ds
    raise GenerationExhausted(
        f"scenario {spec.scenario_id}: no admissible mixture after "
        f"{_MODEL_ATTEMPTS} model attempts"
    )
