"""Every layer function the benchmark's traced runs wrap is still bound.

``bench/run.py --trace 1`` replaces each ``(module, attr)`` that a workload's
``patches()`` lists with a timing wrapper, so a refactor that renames or
unbinds one of them breaks only traced runs. Building the workloads here
catches that in the fast test loop. Nothing under ``bench/`` is modified.

Wrapping a name on ``dofuse.pipeline`` only times the calls that
``run_pipeline`` makes through that module's globals, so the test below also
checks that the cluster stage still reaches its layer functions there.
"""

import importlib
from pathlib import Path

import pytest

from dofuse import parse_distribution, pipeline

import fixtures as fx

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


def test_cluster_stage_calls_through_pipeline_globals(monkeypatch):
    calls = dict.fromkeys(
        ("cluster_inputs", "apply_cluster", "check_single_layer", "verify_inputs"), 0
    )
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    inputs = [parse_distribution(s) for s in fx.CLUSTER_CASES["iii"]]
    result = pipeline.run_pipeline(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY)
    assert result.status == "non_identifiable" and len(result.clusters) == 2
    assert all(calls.values()), calls
