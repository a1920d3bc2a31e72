"""Cross-cutting property checks beyond the acceptance property suites."""

import numpy as np

from dofuse import (
    InputDistribution,
    Query,
    cluster_inputs,
    d_separated,
    edge_cut,
    parse_distribution,
    prune_all,
    restrict_inputs,
    verify_inputs,
)
from dofuse.clustering import apply_cluster

import oracles
import fixtures as fx


def test_restrict_intersection_containment():
    rng = np.random.default_rng(77)
    names = [f"V{i}" for i in range(8)]
    for _ in range(300):
        inputs = []
        for _ in range(int(rng.integers(1, 4))):
            roles = rng.integers(0, 4, size=8)
            a = {names[i] for i in range(8) if roles[i] == 0}
            if not a:
                continue
            b = {names[i] for i in range(8) if roles[i] == 1}
            c = {names[i] for i in range(8) if roles[i] == 2}
            inputs.append(InputDistribution(a, b, c))
        w1 = {n for n in names if rng.random() < 0.7}
        w2 = {n for n in names if rng.random() < 0.7}
        both = restrict_inputs(inputs, w1 & w2)
        staged = restrict_inputs(restrict_inputs(inputs, w1), w2)
        assert both == staged


def test_prune_all_restricts_original_inputs_once():
    """The steps restrict inputs to nested vertex sets; prune_all's inputs
    and indices are one restriction of the original inputs to the survivors."""
    rng = np.random.default_rng(78)
    for _ in range(300):
        g = oracles.random_dag(rng, int(rng.integers(4, 11)), 0.35, int(rng.integers(0, 3)))
        obs = sorted(g.observed)
        inputs = []
        for _ in range(int(rng.integers(0, 4))):
            roles = rng.choice(4, size=len(obs), p=[0.5, 0.05, 0.05, 0.4])
            a = {v for v, r in zip(obs, roles) if r == 0}
            if a:
                b = {v for v, r in zip(obs, roles) if r == 1}
                inputs.append(InputDistribution(a, b, {v for v, r in zip(obs, roles) if r == 2}))
        y = obs[int(rng.integers(len(obs)))]
        x = {v for v in obs if v != y and rng.random() < 0.25}
        res = prune_all(g, inputs, Query({y}, x))
        w = res.graph.observed
        once = [(i, d) for i, d in enumerate(inputs) if d.a & w and d.b | d.c <= w]
        assert res.input_indices == tuple(i for i, _ in once)
        assert res.inputs == tuple(InputDistribution(d.a & w, d.b, d.c) for _, d in once)
        removing = [s for s in res.steps if s.applied and s.removed]
        assert res.inputs == (removing[-1].inputs if removing else tuple(inputs))


def test_dsep_guard_primitive_on_cut_fixture_graphs():
    """The search's rule guards are edge-cut d-separations; spot-verify the
    primitive against the path-enumeration oracle on the fixture graphs."""
    rng = np.random.default_rng(13)
    for g in (fx.PRUNE_GRAPH, fx.CLUSTER_GRAPH, fx.TOBACCO_GRAPH):
        obs = sorted(g.observed)
        for _ in range(60):
            cut_in = {v for v in obs if rng.random() < 0.15}
            cut_out = {v for v in obs if rng.random() < 0.1 and v not in cut_in}
            cut = edge_cut(g, cut_in, cut_out)
            picks = [obs[i] for i in rng.choice(len(obs), size=4, replace=False)]
            x, y, z = {picks[0]}, {picks[1]}, set(picks[2:])
            got = d_separated(cut, x, y, z)
            want = oracles.dsep_paths_oracle(cut, x, y, z)
            assert got == want, (cut_in, cut_out, x, y, z)


def test_verify_inputs_repeated_calls_agree():
    g2 = apply_cluster(fx.COUNTER_GRAPH, fx.COUNTER_CLUSTER, "Z")
    inputs = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y,Z1,Z2)"))
    cc = cluster_inputs(inputs, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    first = verify_inputs(g2, cc.inputs, "Z")
    for _ in range(5):
        again = verify_inputs(g2, cc.inputs, "Z")
        assert again == first
