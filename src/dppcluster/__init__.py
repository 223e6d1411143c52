"""Determinantal consensus clustering.

Builds consensus clusterings from many Voronoi partitions whose generator
points are sampled by a determinantal point process over a Gaussian-kernel
similarity matrix; includes uniform and k-means++ baselines, kernel-based
model selection, external quality metrics, and a Gaussian-mixture benchmark
generator.

Every process pays for what ``import dppcluster`` loads.  It loads every
submodule but ``io`` and ``cli``, and no process pool: ``pipeline``
imports the pool, and with it ``multiprocessing``, ``socket`` and
``logging``, only when a run asks for two or more workers.  ``bench`` and
``simgen`` load here although a clustering run never calls them: the
benchmark's tracer (``perfbench/tracing.py``) wraps only the modules
loaded before it starts, and its sweep reads a scenario id inside the
timed call.
"""

from .bench import BenchmarkResult, benchmark, diversity_series
from .consensus import (
    Clustering,
    ConsensusConfig,
    ConsensusMatrix,
    accumulate,
    candidate_clusterings,
    merge_small,
    spanning_tree,
    threshold_components,
)
from .errors import (
    ClusterError,
    ConfigError,
    CsvFormatError,
    DataError,
    DegenerateData,
    DegenerateScatter,
    GenerationExhausted,
    NoCandidates,
    NumericalError,
    NumericalFailure,
    ResampleExhausted,
    ShapeMismatch,
    SingletonClusterWarning,
)
from .kernel import (
    KernelMatrix,
    SpectralDecomposition,
    build_rbf_kernel,
    eigendecompose,
    estimate_bandwidth,
    pairwise_sq_dists,
)
from .metrics import ari, rn
from .partition import Partition, lloyd_kmeans, voronoi_assign
from .pipeline import (
    KernelArtifacts,
    PipelineConfig,
    RunReport,
    build_artifacts,
    ensemble_runs,
    run_pipeline,
    select_clustering,
)
from .preprocess import boxcox_transform, standardize
from .rng import RngStream
from .sampling import (
    GeneratorSet,
    default_k_max,
    dpp_log_likelihood,
    sample_dpp,
    sample_uniform,
)
from .simgen import (
    LabeledDataset,
    MixtureModel,
    ScenarioSpec,
    estimate_overlap,
    generate_mixture,
    generate_mixture_fixed,
    scenario_grid,
)
from .validation import (
    ScatterReport,
    SelectionResult,
    kvi,
    scatter,
    similarity_ratio,
)

__version__ = "0.1.0"
