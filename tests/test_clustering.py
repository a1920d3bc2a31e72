import numpy as np
import pytest

from dofuse import (
    CausalGraph,
    GraphError,
    SearchBudget,
    apply_cluster,
    check_single_layer,
    cluster_inputs,
    enumerate_transit_clusters,
    is_transit_cluster,
    parse_distribution,
    parse_graph,
    parse_query,
    prune_all,
    receivers_emitters,
    run_pipeline,
)

import oracles
import fixtures as fx


def test_showcase_cluster_verifies():
    assert is_transit_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S).ok
    assert is_transit_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_T).ok
    rec, em = receivers_emitters(fx.CLUSTER_GRAPH, fx.CLUSTER_S)
    assert rec == {"R"} and em == {"E1", "E2"}
    rec, em = receivers_emitters(fx.CLUSTER_GRAPH, fx.CLUSTER_T)
    assert rec == frozenset() and em == {"T1", "T2"}


def test_singleton_cluster():
    g = parse_graph("A -> W\nW -> B")
    v = is_transit_cluster(g, {"W"})
    assert v.ok
    assert receivers_emitters(g, {"W"}) == ({"W"}, {"W"})


def test_illustration_cluster():
    assert is_transit_cluster(fx.ILLUSTRATION_PRUNED, {"Z1", "Z2", "Z3"}).ok


def test_condition_a_failure():
    g = parse_graph("P1 -> R1\nP2 -> R2\nR1 -> E\nR2 -> E\nE -> C")
    v = is_transit_cluster(g, {"R1", "R2", "E"})
    assert not v.ok and v.failed_condition == "a"


CONDITION_B_GRAPH = parse_graph("P -> R\nR -> E1\nR -> E2\nE1 -> C1\nE2 -> C2")
CONDITION_B_SET = {"R", "E1", "E2"}


def test_condition_b_failure():
    v = is_transit_cluster(CONDITION_B_GRAPH, CONDITION_B_SET)
    assert not v.ok and v.failed_condition == "b"


@pytest.mark.parametrize(
    "operation",
    [
        lambda g, t: apply_cluster(g, t, "T"),
        check_single_layer,
        lambda g, t: cluster_inputs((), t, "T", g),
    ],
    ids=["apply_cluster", "check_single_layer", "cluster_inputs"],
)
def test_cluster_operations_name_failed_condition(operation):
    with pytest.raises(GraphError, match=r"is not a transit cluster \(condition b\)"):
        operation(CONDITION_B_GRAPH, CONDITION_B_SET)


def test_condition_c_failure():
    # M only touches the receiver's sealed incoming side, so it strands
    g = parse_graph("P -> R\nR -> E\nE -> C\nM -> R")
    v = is_transit_cluster(g, {"R", "E", "M"})
    assert not v.ok and v.failed_condition == "c"
    assert v.witness == ("M",)


def test_condition_d_failure():
    # R2 reaches no emitter
    g = parse_graph("P -> R1\nP -> R2\nR1 -> E\nE -> C\nE -> R2")
    v = is_transit_cluster(g, {"R1", "R2", "E"})
    assert not v.ok
    assert v.failed_condition in ("d", "e")


def test_condition_e_failure():
    # E2 descends from no receiver
    g = parse_graph("P -> R\nR -> M\nM -> E1\nE1 -> C\nE2 -> C")
    v = is_transit_cluster(g, {"R", "M", "E1", "E2"})
    assert not v.ok and v.failed_condition == "e"
    assert v.witness == ("E2",)


def test_disconnected_graph_rejected():
    g = CausalGraph(["A", "B"], [])
    with pytest.raises(GraphError, match="connected"):
        is_transit_cluster(g, {"A"})
    with pytest.raises(GraphError, match="connected"):
        enumerate_transit_clusters(g)


def test_enumerate_showcase():
    found = enumerate_transit_clusters(fx.CLUSTER_GRAPH)
    members = {tuple(sorted(c.members)) for c in found}
    assert tuple(sorted(fx.CLUSTER_S)) in members
    assert tuple(sorted(fx.CLUSTER_T)) in members
    keys = [tuple(sorted(c.members)) for c in found]
    assert keys == sorted(keys)
    for c in found:
        assert is_transit_cluster(fx.CLUSTER_GRAPH, c.members).ok


def test_enumerate_flat_graph():
    found = enumerate_transit_clusters(fx.FLAT_GRAPH)
    assert any(c.members == fx.FLAT_CLUSTER for c in found)


def test_enumerate_matches_subset_loop():
    from itertools import combinations

    rng = np.random.default_rng(8)
    with_latent_member = 0
    for i in range(15):
        g = oracles.random_connected_dag(rng, 5 + i % 2, 0.45, n_latents=1 + i % 2)
        found = [(c.members, c.receivers, c.emitters) for c in enumerate_transit_clusters(g)]
        brute = []
        names = sorted(g.names)
        for k in range(1, len(names)):
            for combo in combinations(names, k):
                ok, rec, em = oracles.transit_cluster_oracle(g, combo)
                assert is_transit_cluster(g, combo).ok == ok, combo
                if ok and k > 1:
                    brute.append((frozenset(combo), rec, em))
        assert found == sorted(brute, key=lambda c: sorted(c[0]))
        with_latent_member += sum(bool(c[0] & g.latents) for c in found)
    assert with_latent_member


def test_enumeration_guard():
    big = CausalGraph(
        [f"V{i}" for i in range(40)], [(f"V{i}", f"V{i+1}") for i in range(39)]
    )
    with pytest.raises(GraphError, match="budget"):
        enumerate_transit_clusters(big)
    # forcing with a small max size stays within reach
    found = enumerate_transit_clusters(big, max_size=2, force=True)
    assert found


CHAIN_23 = CausalGraph([f"V{i:02}" for i in range(23)], [(f"V{i:02}", f"V{i+1:02}") for i in range(22)])


@pytest.mark.parametrize(
    "g, inputs, query",
    [
        (parse_graph("X -> Y\nA -> B"), ("p(X,Y)", "p(A,B)"), "p(Y | do(X))"),
        (CHAIN_23, ("p(" + ",".join(sorted(CHAIN_23.observed)) + ")",), "p(V22 | do(V00))"),
    ],
    ids=["disconnected", "over-the-enumeration-guard"],
)
def test_auto_clustering_falls_back_when_enumeration_refuses(g, inputs, query):
    # enumeration refuses a disconnected graph and one of 23 vertices, so
    # the automatic stage applies no cluster and the verdict is the
    # unclustered one
    with pytest.raises(GraphError):
        enumerate_transit_clusters(g)
    inputs = tuple(parse_distribution(s) for s in inputs)
    query = parse_query(query)
    budget = SearchBudget(max_terms=300)
    auto = run_pipeline(g, inputs, query, budget, prune=False)
    plain = run_pipeline(g, inputs, query, budget, prune=False, cluster=False)
    assert auto.clusters == ()
    assert (auto.status, auto.search, auto.functional) == (plain.status, plain.search, plain.functional)


def test_apply_cluster_showcase():
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    g2 = apply_cluster(g1, fx.CLUSTER_T, "T")
    assert g2 == fx.CLUSTERED_GRAPH_EXPECTED
    n = len(fx.CLUSTER_GRAPH.names)
    assert len(g1.names) == n - len(fx.CLUSTER_S) + 1
    assert len(g2.names) == n - len(fx.CLUSTER_S) - len(fx.CLUSTER_T) + 2


def test_apply_cluster_singleton_renames():
    g = parse_graph("A -> W\nW -> B")
    out = apply_cluster(g, {"W"}, "T")
    assert out == parse_graph("A -> T\nT -> B")


def test_apply_cluster_illustration():
    out = apply_cluster(fx.ILLUSTRATION_PRUNED, {"Z1", "Z2", "Z3"}, "T")
    assert out == parse_graph("Z4 -> Y\nZ4 -> T\nT -> X\nX -> Y")


def test_apply_cluster_name_collision():
    with pytest.raises(GraphError, match="collides"):
        apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "X")


def test_apply_cluster_requires_cluster():
    with pytest.raises(GraphError, match="not a transit cluster"):
        apply_cluster(fx.CLUSTER_GRAPH, {"R", "W2"}, "T")


def test_apply_cluster_with_latent_member():
    g = fx.LATENT_EMITTER_GRAPH
    (u,) = g.latents
    assert is_transit_cluster(g, {"Z", u}).ok
    out = apply_cluster(g, {"Z", u}, "T")
    assert out == parse_graph("X -> Y\nT -> X\nT -> Y")
    assert "T" in out.observed


def test_apply_cluster_all_latent():
    # two latents over the same pair are a transit cluster with no observed
    # member, so the contraction must add the cluster vertex itself
    g = parse_graph("A -> C\nlatent U1 : A B\nlatent U2 : A B")
    (c,) = [c for c in enumerate_transit_clusters(g) if c.members == {"U1", "U2"}]
    assert c.receivers == frozenset() and c.emitters == {"U1", "U2"}
    out = apply_cluster(g, {"U1", "U2"}, "T")
    assert out.names == ("A", "B", "C", "T")
    assert out.edge_list() == [("A", "C"), ("T", "A"), ("T", "B")]
    assert not out.latents


def test_check_single_layer():
    assert check_single_layer(fx.FLAT_GRAPH, fx.FLAT_CLUSTER)
    chain = parse_graph("P -> R\nR -> M\nM -> E\nE -> C")
    assert not check_single_layer(chain, {"R", "M", "E"})


def test_check_single_layer_tobacco_cluster():
    res = prune_all(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, parse_query("p(S|do(R))"))
    assert is_transit_cluster(res.graph, {"E", "M"}).ok
    assert check_single_layer(res.graph, {"E", "M"})
