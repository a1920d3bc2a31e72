import numpy as np
import pytest

from dofuse import (
    CausalGraph,
    GraphError,
    Query,
    d_separated,
    edge_cut,
    induced_subgraph,
    is_transit_cluster,
    parse_graph,
    relations,
)
from dofuse.distributions import DistributionError
from dofuse.graph import cut_masks, dsep_masks, reach
from dofuse.identify import _Engine

import oracles
import fixtures as fx


def test_parse_bidirected_sugar():
    g = parse_graph("X -> Y\nX <-> Y")
    assert g.observed == {"X", "Y"}
    assert len(g.latents) == 1
    (u,) = g.latents
    assert g.latent_children_map()[u] == {"X", "Y"}
    assert g.edge_list() == [("X", "Y")]


def test_parse_cluster_showcase_counts():
    g = fx.CLUSTER_GRAPH
    assert len(g.observed) == 11
    assert len(g.latents) == 0
    assert len(g.edge_list()) == 17


def test_parse_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        parse_graph("X -> Y\nY -> X")


def test_parse_latent_needs_two_children():
    with pytest.raises(GraphError, match="two children"):
        parse_graph("latent U : A")
    with pytest.raises(GraphError, match="two children"):
        parse_graph("latent U : A A")


def test_parse_duplicate_vertex_id():
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph("U -> Y\nlatent U : A B")
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph("latent U : A B\nlatent U : C D")


def test_parse_comments_and_explicit_latents():
    g = parse_graph("# a comment\nA -> B  # trailing\n\nlatent U : A B C\n")
    assert g.observed == {"A", "B", "C"}
    assert g.latent_children_map() == {"U": {"A", "B", "C"}}


def test_relations_ancestors_of_outcome():
    assert relations(fx.PRUNE_GRAPH, {"Y"}, "ancestors") == {
        "X1", "X2", "W1", "W2", "Z1", "Z2", "Z3", "Z6", "Z7"
    }


def test_relations_empty_set():
    assert relations(fx.PRUNE_GRAPH, set(), "ancestors") == frozenset()
    assert relations(fx.PRUNE_GRAPH, set(), "parents") == frozenset()


def test_relations_unknown_vertex():
    with pytest.raises(GraphError, match="unknown"):
        relations(fx.PRUNE_GRAPH, {"nope"}, "parents")


def test_relations_latent_filtering():
    with_lat = relations(fx.PRUNE_GRAPH, {"Y"}, "parents", include_latents=True)
    without = relations(fx.PRUNE_GRAPH, {"Y"}, "parents")
    assert without == {"W1", "W2"}
    assert len(with_lat - without) == 1  # the X1-Y confounder


def test_relations_match_reachability_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        g = oracles.random_dag(rng, 8, 0.35, n_latents=int(rng.integers(0, 3)))
        pick = [g.names[i] for i in rng.choice(len(g.names), size=2, replace=False)]
        for which in ("ancestors", "descendants"):
            got = relations(g, pick, which, include_latents=True)
            assert got == frozenset(oracles.reach_oracle(g, pick, which))


def test_edge_cut_removes_latent_edges_into_cut_vertices():
    cut = edge_cut(fx.PRUNE_GRAPH, {"X1", "X2"}, set())
    assert relations(cut, {"X1"}, "parents", include_latents=True) == frozenset()
    assert relations(cut, {"X2"}, "parents", include_latents=True) == frozenset()
    # vertex set unchanged even though latents lose children
    assert cut.observed == fx.PRUNE_GRAPH.observed
    assert cut.latents == fx.PRUNE_GRAPH.latents


def test_edge_cut_identity():
    assert edge_cut(fx.PRUNE_GRAPH, set(), set()) == fx.PRUNE_GRAPH


def test_edge_cut_matches_edge_filter():
    rng = np.random.default_rng(1)
    for _ in range(40):
        g = oracles.random_dag(rng, 7, 0.4, n_latents=1)
        cut_in = {g.names[i] for i in rng.choice(7, size=2, replace=False)}
        cut = edge_cut(g, cut_in, set())
        expect = [(p, c) for p, c in g.edge_list() if c not in cut_in]
        assert cut.edge_list() == sorted(expect)
        cut_all = edge_cut(g, g.observed, set())
        assert cut_all.edge_list() == []


def test_edge_cut_rejects_latents():
    (u,) = fx.LATENT_EMITTER_GRAPH.latents
    with pytest.raises(GraphError, match="observed"):
        edge_cut(fx.LATENT_EMITTER_GRAPH, {u}, set())


def test_induced_subgraph_drops_only_nonancestors():
    g = fx.ILLUSTRATION_GRAPH
    keep = relations(g, {"Y"}, "ancestors", include_latents=True) | {"Y"}
    sub = induced_subgraph(g, keep)
    assert frozenset(g.observed) - sub.observed == {"Z6"}


def test_induced_subgraph_identity():
    g = fx.PRUNE_GRAPH
    assert induced_subgraph(g, g.observed | g.latents) == g


def test_induced_subgraph_matches_literal_filter():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = oracles.random_dag(rng, 7, 0.4, n_latents=2)
        size = int(rng.integers(1, 7))
        w = {g.names[i] for i in rng.choice(len(g.names), size=size, replace=False)}
        sub = induced_subgraph(g, w)
        expect_edges = sorted((p, c) for p, c in g.edge_list() if p in w and c in w)
        assert sub.edge_list() == expect_edges
        for u, kids in sub.latent_children_map().items():
            assert u in w and len(kids) >= 2
            assert kids == {k for k in g.latent_children_map()[u] if k in w}


def test_dsep_showcase_after_cut():
    cut = edge_cut(fx.PRUNE_GRAPH, {"X1", "X2"}, set())
    assert d_separated(cut, {"Z1", "Z2", "Z3"}, {"Y"}, {"X1", "X2"})
    assert not d_separated(fx.PRUNE_GRAPH, {"Z1"}, {"Y"}, set())


def test_dsep_isolated_vertices():
    g = CausalGraph(["A", "B"], [])
    assert d_separated(g, {"A"}, {"B"}, set())


def test_dsep_symmetry_and_collider_sanity():
    g = parse_graph("X -> M\nY -> M")
    assert d_separated(g, {"X"}, {"Y"}, set())
    assert not d_separated(g, {"X"}, {"Y"}, {"M"})
    rng = np.random.default_rng(5)
    for _ in range(40):
        h = oracles.random_dag(rng, 6, 0.4, n_latents=1)
        obs = sorted(h.observed)
        picks = rng.choice(len(obs), size=3, replace=False)
        x, y, z = ({obs[i]} for i in picks)
        assert d_separated(h, x, y, z) == d_separated(h, y, x, z)


def test_dsep_overlap_rejected():
    g = parse_graph("X -> Y")
    with pytest.raises(GraphError, match="disjoint"):
        d_separated(g, {"X"}, {"X"}, set())


def test_dsep_latents_need_flag():
    g = fx.LATENT_EMITTER_GRAPH
    (u,) = g.latents
    with pytest.raises(GraphError, match="allow_latents"):
        d_separated(g, {u}, {"Y"}, set())
    assert not d_separated(g, {u}, {"Y"}, set(), allow_latents=True)


def test_dsep_exhaustive_on_small_fixtures():
    for g in (fx.ILLUSTRATION_GRAPH, fx.COUNTER_GRAPH, fx.FLAT_GRAPH, fx.COLLIDER_Z_GRAPH):
        obs = sorted(g.observed)
        for xi in range(len(obs)):
            for yi in range(xi + 1, len(obs)):
                rest = [v for v in obs if v not in (obs[xi], obs[yi])]
                zsets = [set()] + [{r} for r in rest]
                zsets += [{a, b} for i, a in enumerate(rest) for b in rest[i + 1:]]
                for z in zsets:
                    got = d_separated(g, {obs[xi]}, {obs[yi]}, z)
                    want = oracles.dsep_paths_oracle(g, {obs[xi]}, {obs[yi]}, z)
                    assert got == want, (obs[xi], obs[yi], z)


def _random_bits(rng, pool, k):
    return [1 << int(i) for i in rng.choice(pool, size=k, replace=False)]


def test_kernel_dsep_on_cuts_matches_paths_oracle():
    """The search's memo and ``dsep_masks`` against literal path blocking."""
    rng = np.random.default_rng(11)
    checks = separated = 0
    for _ in range(250):
        g = oracles.random_dag(rng, 7, 0.4, n_latents=int(rng.integers(0, 3)))
        cin = sum(_random_bits(rng, 7, int(rng.integers(0, 3))))
        cout = sum(_random_bits(rng, 7, int(rng.integers(0, 3))))
        cut = edge_cut(g, g.names_of(cin), g.names_of(cout))
        par, ch = cut_masks(g.parent_masks, g.child_masks, cin, cout)
        assert (tuple(par), tuple(ch)) == (cut.parent_masks, cut.child_masks)
        eng = _Engine(g)
        for _ in range(8):
            bits = _random_bits(rng, 7, int(rng.integers(2, 7)))
            i = int(rng.integers(1, len(bits)))
            j = int(rng.integers(i + 1, len(bits) + 1))
            x, y, z = sum(bits[:i]), sum(bits[i:j]), sum(bits[j:])
            want = oracles.dsep_paths_oracle(
                cut, g.names_of(x), g.names_of(y), g.names_of(z)
            )
            assert dsep_masks(par, ch, x, y, z) == want, (g, cin, cout, x, y, z)
            assert eng.dsep(cin, cout, x, y, z) == want, (g, cin, cout, x, y, z)
            assert eng.dsep(cin, cout, y, x, z) == want
            checks += 1
            separated += want
    assert checks == 2000
    assert 300 < separated < 1700  # both verdicts well represented


def test_kernel_reach_is_the_active_path_set():
    """``up | down`` is the active-path set; each side is checked on its own.

    For v outside cond: v is reached iff it is d-connected to src given
    cond; it is entered from a parent iff it is reached and has a parent
    outside cond; when v has no conditioned descendant it is entered from a
    child iff it is d-connected to src with its own incoming edges cut
    (otherwise the ball bounces back up to it). For v in cond: it is
    reached iff d-connected given the rest of cond, and entered from a
    parent iff that holds with its outgoing edges cut.
    """
    rng = np.random.default_rng(12)
    sides = {"up": 0, "down": 0}
    for _ in range(150):
        g = oracles.random_dag(rng, 7, 0.4, n_latents=int(rng.integers(0, 3)))
        parents, _ = oracles.full_adjacency(g)
        bits = _random_bits(rng, len(g.names), int(rng.integers(1, 5)))
        src, cond = bits[0], sum(bits[1:]) & g.observed_mask
        x, z = g.names_of(src), g.names_of(cond)
        an_z = oracles.reach_oracle(g, z, "ancestors")
        up, down = reach(g.parent_masks, g.child_masks, src, cond)
        assert up & src == src
        want = src
        for v in range(len(g.names)):
            vb, name = 1 << v, g.names[v]
            if vb & src:
                continue
            if vb & cond:
                rest = z - {name}
                seen = not oracles.dsep_paths_oracle(g, x, {name}, rest)
                cut = edge_cut(g, (), {name})
                assert bool(vb & down) == (not oracles.dsep_paths_oracle(cut, x, {name}, rest))
                assert bool(vb & (up | down)) == seen, (g, src, cond, name)
                continue
            seen = not oracles.dsep_paths_oracle(g, x, {name}, z)
            want |= vb * seen
            assert bool(vb & down) == (seen and bool(parents[name] - z)), (g, src, cond, name)
            if name in an_z:
                assert bool(vb & up) == seen
            else:
                cut = g if vb & g.latent_mask else edge_cut(g, {name}, ())
                assert bool(vb & up) == (not oracles.dsep_paths_oracle(cut, x, {name}, z))
            sides["up"] += bool(vb & up & ~down)
            sides["down"] += bool(vb & down & ~up)
        assert (up | down) & ~cond == want, (g, src, cond)
        for stop in _random_bits(rng, len(g.names), 2):
            if not stop & cond:
                hit = reach(g.parent_masks, g.child_masks, src, cond, stop)
                assert bool((hit[0] | hit[1]) & stop) == bool(want & stop)
    assert min(sides.values()) > 50, sides  # both sides reached alone, often


def test_graph_equality_is_structural():
    g1 = parse_graph("A -> B\nA <-> B")
    g2 = parse_graph("A -> B\nlatent U9 : A B")
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_topological_order():
    order = fx.ILLUSTRATION_GRAPH.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for p, c in fx.ILLUSTRATION_GRAPH.edge_list():
        assert pos[p] < pos[c]


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: CausalGraph(["X", "Y"], [("X", "Z")]), GraphError, "unknown vertex in edge X -> Z"),
        (
            lambda: CausalGraph(["X", "Y"], [("U", "X")], {"U": ["X", "Y"]}),
            GraphError,
            "latent vertex in explicit edge U -> X",
        ),
        (lambda: CausalGraph(["X"], [("X", "X")]), GraphError, "self-loop on X"),
        (
            lambda: CausalGraph(["X", "Y"], [], {"U": ["X"]}),
            GraphError,
            "latent U has fewer than two children",
        ),
        (
            lambda: CausalGraph(["X", "Y"], [], {"U": ["X", "V"], "V": ["X", "Y"]}),
            GraphError,
            "latent U has non-observed child V",
        ),
        (lambda: Query(set(), {"X"}), DistributionError, "outcome set must be nonempty"),
        (
            lambda: Query({"Y"}, {"X", "Y"}),
            DistributionError,
            "outcome and intervention sets must be disjoint",
        ),
        (lambda: is_transit_cluster(fx.CLUSTER_GRAPH, ()), GraphError, "cluster must be nonempty"),
        (
            lambda: is_transit_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_GRAPH.names),
            GraphError,
            "cluster must be a proper subset of the vertices",
        ),
    ],
    ids=[
        "unknown-vertex", "latent-in-edge", "self-loop", "lone-latent-child",
        "latent-child-not-observed", "empty-outcome", "outcome-meets-intervention",
        "empty-cluster", "whole-graph-cluster",
    ],
)
def test_declared_refusals(make, error, message):
    # refusals of graphs, queries and clusters built through the API, where
    # no parser stands in front of them
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message
