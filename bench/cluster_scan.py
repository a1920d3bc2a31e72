"""Workload ``cluster-scan``: pruning, cluster enumeration and certificates, no search.

One operation takes one graph with its inputs and query and does what
``dofuse prune``, ``dofuse clusters`` and the certificate half of
``dofuse invariance`` do:

1. ``prune_all``;
2. ``enumerate_transit_clusters`` on the whole graph;
3. for every cluster that avoids the query, ``cluster_inputs``, and when the
   inputs are compatible also ``apply_cluster``, ``check_single_layer`` and
   ``verify_inputs``.

A round is one pass over ``4 + len(RANDOM_SIZES)`` graphs: the paper's
tobacco, clustering-showcase, expanded-atherosclerosis and pruning-showcase
graphs, and random connected graphs with latents and 1-3 random inputs.
The random graphs are drawn from ``GRAPH_SEED``, not from the run's seed:
enumeration time depends on each graph's structure as well as its size, and
run-to-run differences in the workload would widen the spread the
benchmark's bounds must hold. The run's seed draws the d-separation trials
of the checks.

Checks, per graph:

- pruning removes nothing in the query or in the do or conditioning set of
  an input it keeps, and on the pruning showcase it removes {Z4,Z5},
  {Z1,Z2,Z3} and {Z6,Z7}, one set per operation, in that order;
- the clustering showcase yields {R,S1,S2,E1,E2} and {T1,T2}, and applying
  both gives the paper's clustered graph;
- up to ``LITERAL_LIMIT`` vertices, the enumerated clusters, with their
  receivers and emitters, equal those of ``truth.transit_clusters``;
- for every applied cluster, d-separation among random disjoint sets of
  non-members agrees between the graph and the clustered graph.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import definitions as defs
import truth

# (observed, latent) vertex counts of the random graphs
RANDOM_SIZES = ((9, 1), (9, 2), (10, 1), (10, 2), (11, 1), (11, 2), (12, 1), (12, 2), (13, 1), (14, 1))
EDGE_PROBABILITY = 0.3
GRAPH_SEED = 2505
LITERAL_LIMIT = 12
DSEP_TRIALS = 8


class Item:
    """One graph of the scan with its inputs, query and the structure they came from."""

    def __init__(self, name, structure, inputs, query_text):
        from dofuse import CausalGraph, parse_distribution, parse_query

        self.name = name
        self.structure = structure
        self.graph = CausalGraph(*structure)
        self.inputs = tuple(parse_distribution(s) for s in inputs)
        self.query = parse_query(query_text)
        self.cluster_name = "T"
        while self.graph.has_vertex(self.cluster_name):
            self.cluster_name += "_"


def _connected(observed, edges, latents):
    names, parents, children = truth.adjacency(observed, edges, latents)
    nbr = {v: parents[v] | children[v] for v in names}
    return len(truth.reach({names[0]}, nbr, set(names))) == len(names)


def _distribution_text(a, b, c):
    tail = [f"do({','.join(b)})"] if b else []
    tail += [",".join(c)] if c else []
    return f"p({','.join(a)}" + (f" | {', '.join(tail)})" if tail else ")")


def random_item(rng, index, n_obs, n_lat):
    names = [f"V{i}" for i in range(n_obs)]
    while True:
        order = [names[i] for i in rng.permutation(n_obs)]
        edges = [
            (order[i], order[j])
            for i in range(n_obs)
            for j in range(i + 1, n_obs)
            if rng.random() < EDGE_PROBABILITY
        ]
        latents = {
            f"L{k}": tuple(sorted(str(v) for v in rng.choice(names, size=int(rng.integers(2, 4)), replace=False)))
            for k in range(n_lat)
        }
        if _connected(names, edges, latents):
            break
    _, parents, _ = truth.adjacency(names, edges, {})
    y = order[-1]
    ancestors = truth.reach({y}, parents, set(names)) - {y}
    pool = sorted(ancestors) or [v for v in names if v != y]
    x = pool[int(rng.integers(len(pool)))]
    inputs = []
    n_inputs = int(rng.integers(1, 4))
    while len(inputs) < n_inputs:
        roles = rng.random(n_obs)
        a = sorted(v for v, r in zip(names, roles) if r < 0.4)
        b = sorted(v for v, r in zip(names, roles) if 0.4 <= r < 0.5)
        c = sorted(v for v, r in zip(names, roles) if 0.5 <= r < 0.6)
        if a:
            inputs.append(_distribution_text(a, b, c))
    return Item(f"random-{index}", (names, edges, latents), inputs, f"p({y} | do({x}))")


class ClusterScan:
    def __init__(self, seed: int, tracer):
        from dofuse import clustering, distributions, invariance, pruning

        self.clustering, self.distributions = clustering, distributions
        self.invariance, self.pruning = invariance, pruning
        self.seed = seed
        self.tracer = tracer
        self.items = [
            Item(name, defs.parse_structure(graph), inputs, query)
            for name, (graph, inputs, query) in defs.SCAN_PAPER_GRAPHS.items()
        ]
        self.items += [
            random_item(np.random.default_rng([GRAPH_SEED, i]), i, *size)
            for i, size in enumerate(RANDOM_SIZES)
        ]
        self.by_name = {item.name: item for item in self.items}

    def scan(self, item):
        g, inputs, query = item.graph, item.inputs, item.query
        pruned = self.pruning.prune_all(g, inputs, query)
        clusters = self.clustering.enumerate_transit_clusters(g)
        applied = []
        for c in clusters:
            if c.members & (query.x | query.y):
                continue
            ci = self.distributions.cluster_inputs(inputs, c.members, item.cluster_name, g)
            if not ci.compatible:
                applied.append((c.members, None, None, None))
                continue
            g2 = self.clustering.apply_cluster(g, c.members, item.cluster_name)
            single = self.clustering.check_single_layer(g, c.members)
            verified = self.invariance.verify_inputs(g2, ci.inputs, item.cluster_name)
            applied.append((c.members, g2, single, verified.ok))
        return pruned, clusters, applied

    def warm_up(self):
        self.scan(min(self.items, key=lambda item: len(item.graph.names)))

    def ops(self):
        return [(item.name, partial(self.scan, item)) for item in self.items]

    def patches(self):
        cl, dist, inv, pr = self.clustering, self.distributions, self.invariance, self.pruning
        return [
            (pr, "prune_all", "pruning.prune_s"),
            (cl, "enumerate_transit_clusters", "clustering.enumerate_s"),
            (dist, "cluster_inputs", "distributions.cluster_inputs_s"),
            (cl, "apply_cluster", "clustering.apply_s"),
            (cl, "check_single_layer", "invariance.verify_s"),
            (inv, "verify_inputs", "invariance.verify_s"),
        ]

    def signature(self, out):
        pruned, clusters, applied = out
        steps = tuple((s.theorem, s.applied, s.removed) for s in pruned.steps)
        found = tuple((c.members, c.receivers, c.emitters) for c in clusters)
        return pruned.removed, steps, found, tuple(applied)

    def check(self, name, out):
        item = self.by_name[name]
        pruned, clusters, applied = out
        problems = []
        # pruning drops an input once its measured set is gone, and the query's
        # do set keeps only ancestors of the outcome; the rest must survive
        q = pruned.query
        used = set(item.query.y | q.x).union(*(d.b | d.c for d in pruned.inputs))
        if pruned.removed & used:
            problems.append(f"pruning removed {sorted(pruned.removed & used)}")
        if name == "prune-showcase":
            stages = tuple(tuple(sorted(s.removed)) for s in pruned.steps if s.removed)
            if stages != defs.PRUNE_STAGES:
                problems.append(f"pruning stages {stages}, expected {defs.PRUNE_STAGES}")
        if name == "cluster-showcase":
            problems += self._check_showcase(item, clusters)
        names, parents, children = truth.adjacency(*item.structure)
        if len(names) <= LITERAL_LIMIT:
            want = truth.transit_clusters(names, parents, children)
            got = {c.members for c in clusters}
            if got != want:
                problems.append(
                    f"enumerated clusters differ: extra {sorted(map(sorted, got - want))}, "
                    f"missing {sorted(map(sorted, want - got))}"
                )
            for c in clusters:
                rec = {v for v in c.members if parents[v] - c.members}
                em = {v for v in c.members if children[v] - c.members}
                if (c.receivers, c.emitters) != (rec, em):
                    problems.append(f"receivers/emitters of {sorted(c.members)}")
        rng = np.random.default_rng([self.seed, self.items.index(item)])
        for members, g2, _, _ in applied:
            if g2 is not None:
                problems += self._check_dsep(item, members, g2, parents, rng)
        return problems

    def _check_showcase(self, item, clusters):
        s, t = frozenset(defs.CLUSTER_S), frozenset(defs.CLUSTER_T)
        found = {c.members for c in clusters}
        if not {s, t} <= found:
            return [f"showcase clusters {sorted(map(sorted, {s, t} - found))} not found"]
        g2 = self.clustering.apply_cluster(
            self.clustering.apply_cluster(item.graph, s, "S"), t, "T"
        )
        if tuple(g2.edge_list()) != defs.CLUSTERED_EDGES or g2.latents:
            return [f"clustered showcase has edges {g2.edge_list()}"]
        return []

    def _check_dsep(self, item, members, g2, parents, rng):
        _, parents2, _ = truth.adjacency(g2.observed, g2.edge_list(), g2.latent_children_map())
        outside = sorted(set(item.graph.observed) - members)
        if len(outside) < 2:
            return []
        for _ in range(DSEP_TRIALS):
            picks = [outside[i] for i in rng.permutation(len(outside))]
            k = int(rng.integers(0, min(3, len(outside) - 2) + 1))
            x, y, z = {picks[0]}, {picks[1]}, set(picks[2:2 + k])
            if truth.d_separated(parents, x, y, z) != truth.d_separated(parents2, x, y, z):
                return [f"d-separation of {x} and {y} given {sorted(z)} changes on clustering {sorted(members)}"]
        return []

    def check_run(self, rounds, traced):
        return []

