"""Every layer function the benchmark's traced runs wrap is still bound.

``bench/run.py --trace 1`` replaces each ``(module, attr)`` that a workload's
``patches()`` lists with a timing wrapper, so a refactor that renames or
unbinds one of them breaks only traced runs. Building the workloads here
catches that in the fast test loop. Nothing under ``bench/`` is modified.
"""

import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "module_name, class_name",
    [("case_studies", "CaseStudies"), ("campaign", "Campaign"), ("cluster_scan", "ClusterScan")],
)
def test_traced_names_resolve(monkeypatch, module_name, class_name):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracer = importlib.import_module("tracing").Tracer()
    workload = getattr(importlib.import_module(module_name), class_name)(0, tracer)
    patches = workload.patches()
    assert patches
    for module, attr, *_ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
