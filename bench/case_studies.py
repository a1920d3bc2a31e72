"""Workload ``case-studies``: one ``dofuse identify -f ... --json`` per problem file.

Each operation calls ``dofuse.cli.main`` in-process on one of the problem
files under ``bench/problems/`` and captures what it prints. A round is one
pass over all 17 files, always in the same order, so that runs with
different seeds time the same sequence; the seed draws the models of the
checks. Every verdict must equal the one written in
``definitions.CASE_STUDIES``; every identified functional must match
truncated factorization on random models drawn from the seed, and form a
distribution over y.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import partial

import numpy as np

import definitions as defs
import truth

MODELS_PER_CHECK = 3
WARM_UP = "front-door"


class CaseStudies:
    def __init__(self, seed: int, tracer):
        from dofuse import cli, pipeline

        self.cli, self.pipeline = cli, pipeline
        self.seed = seed
        self.tracer = tracer
        self.names = list(defs.CASE_STUDIES)
        self.argv = {}
        for name in self.names:
            path = defs.problem_path(name)
            if not path.is_file():
                raise SystemExit(f"error: missing problem file {path}")
            self.argv[name] = ["identify", "-f", str(path), "--json"]

    def run_query(self, name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv[name])
        return code, buf.getvalue()

    def warm_up(self):
        self.run_query(WARM_UP)

    def ops(self):
        return [(name, partial(self.run_query, name)) for name in self.names]

    def patches(self):
        cli, pl = self.cli, self.pipeline
        return [
            (cli, "load_problem", "cli.parse_s"),
            (cli, "to_json", "cli.render_s"),
            (cli, "render", "cli.render_s"),
            (cli.json, "dumps", "cli.render_s"),
            (cli, "run_pipeline", "pipeline.other_s"),
            (pl, "prune_all", "pruning.prune_s"),
            (pl, "enumerate_transit_clusters", "clustering.enumerate_s"),
            (pl, "cluster_inputs", "distributions.cluster_inputs_s"),
            (pl, "apply_cluster", "clustering.apply_s"),
            (pl, "identify", "identify.search_s"),
            (pl, "lift_functional_clustering", "identify.lift_s"),
            (pl, "lift_functional_pruning", "identify.lift_s"),
            (pl, "check_single_layer", "invariance.verify_s"),
            (pl, "verify_inputs", "invariance.verify_s"),
        ]

    def signature(self, out):
        return out

    def check(self, name, out):
        from dofuse import CausalGraph, Query, evaluate_functional
        from dofuse.functional import from_json

        code, text = out
        graph_text, _, query, expect = defs.CASE_STUDIES[name]
        try:
            result = json.loads(text)
        except ValueError:
            return [f"exit {code} without JSON output"]
        if result["status"] != expect:
            return [f"verdict {result['status']} (exit {code}), expected {expect}"]
        if code != 0:
            return [f"exit {code} for the decided verdict {expect}"]
        if expect != defs.IDENTIFIED:
            return []
        y, x = defs.parse_query(query)
        structure = defs.parse_structure(graph_text)
        graph = CausalGraph(*structure)
        functional = from_json(result["functional"])
        q = Query(frozenset(y), frozenset(x))
        rng = np.random.default_rng([self.seed, self.names.index(name)])
        return truth.functional_problems(
            lambda scm: self.tracer.timed("scm.evaluate_s", evaluate_functional, functional, scm, q),
            structure, graph, y, x, rng, MODELS_PER_CHECK,
        )

    def check_run(self, rounds, traced):
        return []
