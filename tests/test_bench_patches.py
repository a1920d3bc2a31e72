"""Every layer function the benchmark's traced runs wrap is still bound.

``bench/run.py --trace 1`` replaces each ``(module, attr)`` that a workload's
``patches()`` lists with a timing wrapper, so a refactor that renames or
unbinds one of them breaks only traced runs. Building the workloads here
catches that in the fast test loop. Nothing under ``bench/`` is modified.

Wrapping a name on ``dofuse.pipeline`` only times the calls made through
that module's globals, so the test below also checks that the cluster stage
still reaches its layer functions there from each of its callers:
``run_pipeline``, the simulation campaign and ``dofuse invariance``.
"""

import importlib
from pathlib import Path

import pytest

from dofuse import ProblemFile, SearchBudget, parse_distribution, pipeline
from dofuse.cli import main
from dofuse.simulate import simulate_instance

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


def _run_pipeline(tmp_path):
    inputs = [parse_distribution(s) for s in fx.CLUSTER_CASES["iii"]]
    result = pipeline.run_pipeline(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY)
    assert result.status == "non_identifiable" and len(result.clusters) == 2


def _simulate_instance(tmp_path):
    # the first seed of the campaign benchmark's window whose record is B or C
    assert simulate_instance(150, budget=SearchBudget(3000, 20)).setting in ("B", "C")


def _cli_invariance(tmp_path):
    inputs = tuple(parse_distribution(s) for s in ("p(X,Z1,Z2)", "p(Y,Z1,Z2)"))
    path = tmp_path / "counter.txt"
    path.write_text(ProblemFile(fx.COUNTER_GRAPH, inputs, fx.COUNTER_QUERY).render())
    assert main(["invariance", "-f", str(path), "--cluster", "Z=Z1,Z2"]) == 2


@pytest.mark.parametrize(
    "caller",
    [_run_pipeline, _simulate_instance, _cli_invariance],
    ids=["run_pipeline", "simulate_instance", "cli_invariance"],
)
def test_cluster_stage_calls_through_pipeline_globals(monkeypatch, tmp_path, caller):
    calls = dict.fromkeys(
        ("cluster_inputs", "apply_cluster", "check_single_layer", "verify_inputs"), 0
    )
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    caller(tmp_path)
    assert all(calls.values()), calls


def test_auto_clustering_enumerates_only_clusters_that_avoid_the_query(monkeypatch):
    calls = []
    enumerate_all = pipeline.enumerate_transit_clusters

    def counted(*args, **kwargs):
        calls.append(kwargs.get("avoid"))
        return enumerate_all(*args, **kwargs)

    monkeypatch.setattr(pipeline, "enumerate_transit_clusters", counted)
    inputs = [parse_distribution(s) for s in fx.CLUSTER_CASES["iii"]]
    result = pipeline.run_pipeline(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY)
    assert calls == [result.prune.query.x | result.prune.query.y]
    assert len(result.clusters) == 2
