"""The package, its CLI and the clustering path import only what they run:
no scipy module until Box-Cox preprocessing or dataset generation asks for
one."""

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
        for node in tree.body
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
