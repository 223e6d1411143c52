"""The package and its CLI import only what the clustering path runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dppcluster

SRC = str(Path(dppcluster.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module", ["dppcluster", "dppcluster.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # scipy.stats costs ~0.75 s of import; only Box-Cox preprocessing and
    # dataset generation use it, and they import it on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
