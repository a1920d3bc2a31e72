"""Workload ``campaign``: ``simulate_instance(seed, SIM_BUDGET)`` over a fixed window.

A round simulates every instance seed of ``WINDOW`` once, in order, one at a
time (the campaign's ``workers=1`` path). The window does not depend on the
benchmark seed, which only draws the random models of the checks, so every
run attempts the same instances.

Checks, per record:

- its graph size and input count repeat when the instance is generated
  again, and its setting repeats when the clustered search and the input
  verification are run again on it;
- it is discarded exactly when the clustered search stops at the term cap,
  never because of the wall clock;
- for an A record, the clustered functional lifted through the mapping from
  ``cluster_inputs`` matches truncated factorization on the expanded graph.

Per round, the A/B/C shares must lie within the band of the campaign's
acceptance criterion. A traced run also sees the unclustered search of each
instance: no B record may have one that identifies, and no A record one
that exhausts without identifying.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import truth

# seeds 150-209 hold 177, one of the instances whose lifted functional is
# wrong (see CHANGES.md), so the fault stays in view; 60 instances take about
# 30 s on one core
WINDOW = range(150, 210)
MODELS_PER_CHECK = 3
BAND = {"A": 27.2, "B": 37.5, "C": 35.3}
BAND_WIDTH = 15.0


class Campaign:
    def __init__(self, seed: int, tracer):
        from dofuse import simulate

        self.simulate = simulate
        self.seed = seed
        self.tracer = tracer
        self.seeds = list(WINDOW)
        self.unclustered = {}  # instance seed -> unclustered search status, traced rounds
        self._current = None

    def run_instance(self, s):
        return self.simulate.simulate_instance(s, budget=self.simulate.SIM_BUDGET)

    def warm_up(self):
        self.run_instance(WINDOW[0])

    def ops(self):
        return [(s, partial(self.run_instance, s)) for s in self.seeds]

    def patches(self):
        sim = self.simulate
        return [
            (sim, "generate_instance", "simulate.generate_s", self._note_instance),
            (sim, "identify", "identify.search_s", self._note_search),
            (sim, "enumerate_transit_clusters", "clustering.enumerate_s"),
            (sim, "verify_inputs", "invariance.verify_s"),
        ]

    def _note_instance(self, inst, s, *rest):
        self._current = s

    def _note_search(self, result, *args):
        # simulate_instance searches the expanded, unclustered graph first
        if self._current is not None:
            self.unclustered[self._current] = result.status
            self._current = None

    def signature(self, record):
        return (record.seed, record.graph_size, record.n_inputs, record.setting,
                record.discarded, record.t1_capped)

    def expected(self, s):
        """(graph size, input count, setting or None when discarded, clustered search, instance)."""
        from dofuse import identify, verify_inputs

        inst = self.simulate.generate_instance(s)
        search = identify(
            inst.clustered_graph, inst.clustered_inputs, inst.query, self.simulate.SIM_BUDGET
        )
        if search.status == "budget_exceeded":
            setting = None
        elif search.identified:
            setting = "A"
        else:
            ok = verify_inputs(inst.clustered_graph, inst.clustered_inputs, inst.cluster_vertex).ok
            setting = "B" if ok else "C"
        return len(inst.graph.names), len(inst.inputs), setting, search, inst

    def check(self, s, record):
        from dofuse import cluster_inputs, evaluate_functional, lift_functional_clustering

        size, n_inputs, setting, search, inst = self.expected(s)
        problems = []
        if (record.graph_size, record.n_inputs) != (size, n_inputs):
            problems.append(
                f"size/inputs {record.graph_size}/{record.n_inputs}, regenerated {size}/{n_inputs}"
            )
        if record.discarded != (setting is None):
            problems.append(
                f"discarded={record.discarded} but the clustered search ended {search.status}"
            )
        elif record.setting != setting:
            problems.append(f"setting {record.setting}, recomputed {setting}")
        if problems or setting != "A":
            return problems
        mapping = cluster_inputs(inst.inputs, inst.cluster_members, inst.cluster_vertex, inst.graph)
        if not mapping.compatible:
            return [f"inputs incompatible with the cluster: {mapping.reason}"]
        lifted = lift_functional_clustering(search.functional, mapping.mapping)
        g = inst.graph
        structure = (g.observed, g.edge_list(), g.latent_children_map())
        y, x = tuple(sorted(inst.query.y)), tuple(sorted(inst.query.x))
        rng = np.random.default_rng([self.seed, s])
        return truth.functional_problems(
            lambda scm: self.tracer.timed("scm.evaluate_s", evaluate_functional, lifted, scm, inst.query),
            structure, g, y, x, rng, MODELS_PER_CHECK,
        )

    def check_run(self, rounds, traced):
        problems = []
        for results in rounds:
            live = [rec for _, _, rec in results if not rec.discarded]
            for setting, centre in BAND.items():
                share = 100.0 * sum(r.setting == setting for r in live) / len(live)
                if abs(share - centre) > BAND_WIDTH:
                    problems.append(f"share of {setting} is {share:.1f}%, band {centre}±{BAND_WIDTH}")
        if traced:
            settings = {rec.seed: rec.setting for _, _, rec in rounds[0]}
            for s, status in sorted(self.unclustered.items()):
                if settings[s] == "B" and status == "identified":
                    problems.append(f"seed {s}: B record but the unclustered search identifies")
                if settings[s] == "A" and status == "exhausted_not_identified":
                    problems.append(f"seed {s}: A record but the unclustered search exhausts")
        return sorted(set(problems))
