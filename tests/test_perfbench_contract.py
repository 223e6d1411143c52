"""The names the benchmark's tracer (``perfbench/tracing.py``) reads from
the package.  The tracer wraps functions by name and binds their arguments,
so a rename here would only show when the benchmark runs."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from dppcluster import PipelineConfig, build_artifacts
from dppcluster.pipeline import KernelArtifacts

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """The tracer module, executed from its source without importing it
    as a file, so nothing is written next to it."""
    source = TRACING.read_text()
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(source, str(TRACING), "exec"), namespace)
    return namespace, ast.parse(source)


def resolve(span):
    module, func = span.split(".")
    return getattr(importlib.import_module(f"dppcluster.{module}"), func)


def test_every_span_is_a_package_function(tracing):
    namespace, _ = tracing
    for span in namespace["SPANS"]:
        fn = resolve(span)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == f"dppcluster.{span.split('.')[0]}", span


def test_hook_arguments_are_parameters(tracing):
    # a hook reads a["name"] from the bound arguments of its span
    _, tree = tracing
    hooks = next(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "HOOKS"
    )
    checked = 0
    for key, hook in zip(hooks.keys, hooks.values):
        params = inspect.signature(resolve(key.value)).parameters
        for node in ast.walk(hook):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "a":
                assert node.slice.value in params, (key.value, node.slice.value)
                checked += 1
    assert checked >= 3  # artifacts and cfg on ensemble_runs, components on merge_small


def test_pool_payload_fields_exist(tracing):
    namespace, tree = tracing
    fn = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "pool_payload_bytes"
    )
    read = {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "artifacts"
    }
    names = {f.name for f in dataclasses.fields(KernelArtifacts)} | {"n"}
    assert read and read <= names
    arts = build_artifacts(np.random.default_rng(0).normal(size=(6, 2)))
    assert namespace["pool_payload_bytes"](arts, PipelineConfig(workers=2), None) > 0
