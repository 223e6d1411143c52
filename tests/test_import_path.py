"""The package, its CLI and the clustering path import only what they run:
no scipy module until Box-Cox preprocessing or dataset generation asks for
one, and no process pool until a run asks for two or more workers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dppcluster

SRC = str(Path(dppcluster.__file__).resolve().parent.parent)
DATA = Path(__file__).resolve().parent / "data"

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["dppcluster", "dppcluster.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # scipy.stats costs ~0.75 s of import; only Box-Cox preprocessing and
    # dataset generation use it, and they import it on first use
    assert _run(f"import sys, {module}; print('scipy.stats' in sys.modules)") == "False"


@pytest.mark.parametrize("module", ["dppcluster", "dppcluster.cli"])
def test_import_leaves_scipy_unloaded(module):
    # scipy itself costs ~0.4 s of import
    assert _run(f"import sys, {module}; print({SCIPY_MODULES})") == "[]"


RUN_PATH = f"""
import sys
from dppcluster import ConsensusConfig, PipelineConfig, run_pipeline
from dppcluster.bench import diversity_series
from dppcluster.io import read_data_csv, read_labels_csv

x = read_data_csv({str(DATA / "iris.csv")!r})
truth = read_labels_csv({str(DATA / "iris_labels.csv")!r})
for method in ("dpp", "uniform", "kmeans"):
    cfg = PipelineConfig(method=method, consensus=ConsensusConfig(runs=20))
    assert run_pipeline(x, cfg, truth=truth).k_hat >= 2
assert len(diversity_series(x, PipelineConfig(consensus=ConsensusConfig(runs=10)))) == 20
print({SCIPY_MODULES})
"""


def test_clustering_path_leaves_scipy_unloaded():
    # the whole path runs: distances, kernel, factor, draws, Voronoi and
    # Lloyd partitions, consensus, selection and the diversity rows
    assert _run(RUN_PATH) == "[]"


FIRST_USE = {
    "boxcox": (
        f"""
from dppcluster import ConsensusConfig, PipelineConfig, run_pipeline
from dppcluster.io import read_data_csv

x = read_data_csv({str(DATA / "iris.csv")!r})
cfg = PipelineConfig(preprocessing="boxcox", consensus=ConsensusConfig(runs=10))
assert run_pipeline(x, cfg).labels.size == x.shape[0]
""",
        {"scipy.special", "scipy.stats"},
    ),
    "generation": (
        """
from dppcluster import RngStream
from dppcluster.simgen import generate_mixture, parse_scenario_id

ds = generate_mixture(parse_scenario_id("n150-plow-klow"), RngStream(0, (0, 0)))
assert ds.data.shape[0] == 150
""",
        {"scipy.linalg", "scipy.stats"},
    ),
}


@pytest.mark.parametrize("use", sorted(FIRST_USE))
def test_scipy_imported_on_first_use(use):
    # Box-Cox preprocessing and dataset generation still work, and they
    # import the scipy modules they need when they first run
    body, needed = FIRST_USE[use]
    code = f"import json, sys\nbefore = {SCIPY_MODULES}\n{body}\nprint(json.dumps([before, {SCIPY_MODULES}]))"
    before, after = json.loads(_run(code))
    assert before == [] and needed <= set(after)


PACKAGE = Path(dppcluster.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_relative_imports(source: str) -> list[str]:
    """Names bound by a relative ``from .x import ...`` that the module never
    reads, counting a name listed in ``__all__`` as read (a re-export)."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name
        for node in ast.walk(tree)  # also inside functions and ``if TYPE_CHECKING:``
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_relative_imports(path):
    # a deletion must take the imports it leaves unread with it
    assert _unused_relative_imports(path.read_text(encoding="utf-8")) == []


def test_unused_relative_import_detected():
    source = "from .errors import ConfigError, ShapeMismatch\n__all__ = []\nConfigError\n"
    assert _unused_relative_imports(source) == ["ShapeMismatch"]


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    from .errors import ConfigError, ShapeMismatch\n    return ConfigError\n",
        "if TYPE_CHECKING:\n    from .errors import ConfigError, ShapeMismatch\nx: ConfigError\n",
    ],
    ids=["in-function", "type-checking"],
)
def test_unused_nested_relative_import_detected(source):
    assert _unused_relative_imports(source) == ["ShapeMismatch"]


def _private_names(tree: ast.AST) -> set[str]:
    """Underscore names a module binds anywhere: functions, classes and
    their members, variables and attributes it assigns; dunders excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def _foreign_private_reads(source: str, foreign: set[str]) -> list[str]:
    """Underscore names that ``source`` imports from the package, or reads
    as an attribute of anything, when only another module binds them."""
    tree = ast.parse(source)
    unowned = foreign - _private_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "dppcluster"
        ):
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in unowned:
            found.append(node.attr)
    return found


PRIVATE = {
    path: _private_names(ast.parse(path.read_text(encoding="utf-8")))
    for path in PACKAGE.glob("*.py")
}


@pytest.mark.parametrize("path", sorted(PRIVATE), ids=lambda p: p.stem)
def test_no_private_name_of_another_module_read(path):
    # a module reaches another only through its public names, so a private
    # helper can change with its own module
    foreign = set().union(*(names for other, names in PRIVATE.items() if other != path))
    assert _foreign_private_reads(path.read_text(encoding="utf-8"), foreign) == []


def test_foreign_private_read_detected():
    source = (
        "from .kernel import KernelMatrix, _feature_sq_dists\n"
        "from dppcluster.kernel import _CHUNK\n"
        "def f(L):\n    return L._features, L._mine\n"
        "class A:\n    def _mine(self):\n        pass\n"
    )
    assert _foreign_private_reads(source, {"_features", "_mine"}) == [
        "_feature_sq_dists", "_CHUNK", "_features"
    ]


# Loaded on first use only: the process pool stack, which only a pool of
# two or more workers uses; the file formats and the CLI, which the package
# never imports; and numpy.ma, which a plain np.unique imports.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")
DEFERRED_MODULES = (*POOL_MODULES, "dppcluster.io", "dppcluster.cli", "numpy.ma")
LOADED = "sorted(m for m in {modules!r} if m in sys.modules)"


def test_run_at_one_worker_loads_no_deferred_module():
    # the pool stack (multiprocessing, socket, selectors, logging) adds
    # about 1.9 MB of RSS and 20 ms to an import, numpy.ma 1.25 MB and 10 ms
    code = f"""
import sys
import numpy as np
import dppcluster

x = np.loadtxt({str(DATA / "iris.csv")!r}, delimiter=",")
truth = np.loadtxt({str(DATA / "iris_labels.csv")!r}, dtype=np.int64)
cfg = dppcluster.PipelineConfig(workers=1, consensus=dppcluster.ConsensusConfig(runs=20))
assert dppcluster.run_pipeline(x, cfg, truth=truth).k_hat >= 2
assert len(dppcluster.diversity_series(x, cfg)) == 40
print({LOADED.format(modules=DEFERRED_MODULES)})
"""
    assert _run(code) == "[]"


def test_cluster_command_leaves_the_pool_unloaded():
    # the CLI's own imports, then a run at its default of one worker
    code = f"""
import sys
from dppcluster.cli import main

main(["cluster", {str(DATA / "iris.csv")!r}, "--runs", "10"], standalone_mode=False)
print({LOADED.format(modules=POOL_MODULES)})
"""
    assert _run(code) == "[]"


def test_benchmark_opens_its_pool_in_a_fresh_interpreter():
    # the pool stack loads when the first pool opens, and the pooled
    # outcomes are the serial ones
    loaded = LOADED.format(modules=POOL_MODULES)
    code = f"""
import json, sys
from dppcluster import ConsensusConfig, PipelineConfig, benchmark
from dppcluster.simgen import parse_scenario_id

spec = parse_scenario_id("n150-pmedium-klow")

def outcomes(workers):
    cfg = PipelineConfig(seed=2, workers=workers, consensus=ConsensusConfig(runs=20))
    result = benchmark([spec], ["dpp", "uniform"], cfg, replicas=1, checkpoints=(10,))
    return [
        [o.method, o.error, o.k_hat, o.ari, o.trajectory[10], o.subset_sizes.tolist()]
        for o in result.outcomes
    ]

serial = outcomes(1)
before = {loaded}
pooled = outcomes(2)
print(json.dumps([before, {loaded}, serial == pooled, [o[1] for o in serial]]))
"""
    assert json.loads(_run(code)) == [[], sorted(POOL_MODULES), True, [None, None]]


# The names ``from dppcluster import *`` binds.
STAR_NAMES = [
    "BenchmarkResult", "ClusterError", "Clustering", "ConfigError", "ConsensusConfig",
    "ConsensusMatrix", "CsvFormatError", "DataError", "DegenerateData", "DegenerateScatter",
    "GenerationExhausted", "GeneratorSet", "KernelArtifacts", "KernelMatrix", "LabeledDataset",
    "MixtureModel", "NoCandidates", "NumericalError", "NumericalFailure", "Partition",
    "PipelineConfig", "ResampleExhausted", "RngStream", "RunReport", "ScatterReport",
    "ScenarioSpec", "SelectionResult", "ShapeMismatch", "SingletonClusterWarning",
    "SpectralDecomposition", "accumulate", "ari", "bench", "benchmark", "boxcox_transform",
    "build_artifacts", "build_rbf_kernel", "candidate_clusterings", "consensus",
    "default_k_max", "diversity_series", "dpp_log_likelihood", "eigendecompose",
    "ensemble_runs", "errors", "estimate_bandwidth", "estimate_overlap", "generate_mixture",
    "generate_mixture_fixed", "kernel", "kvi", "lloyd_kmeans", "merge_small", "metrics",
    "pairwise_sq_dists", "partition", "pipeline", "preprocess", "rn", "rng", "run_pipeline",
    "sample_dpp", "sample_uniform", "sampling", "scatter", "scenario_grid",
    "select_clustering", "simgen", "similarity_ratio", "spanning_tree", "standardize",
    "threshold_components", "validation", "voronoi_assign",
]


def test_star_import_binds_every_exported_name():
    code = """
import json

names = {}
exec("from dppcluster import *", names)
print(json.dumps(sorted(k for k in names if k != "__builtins__")))
"""
    assert json.loads(_run(code)) == sorted(STAR_NAMES)
