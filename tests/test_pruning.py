import numpy as np
import pytest

from dofuse import (
    GraphError,
    Query,
    oracle_interventional,
    parse_distribution,
    parse_graph,
    parse_query,
    prune_all,
    prune_isolated,
    prune_non_ancestors,
    prune_post_intervention,
    random_scm,
)

import fixtures as fx


def test_non_ancestors_removes_z4_z5():
    step = prune_non_ancestors(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    assert step.applied
    assert step.removed == {"Z4", "Z5"}
    assert step.query == fx.PRUNE_QUERY  # X1, X2 are ancestors of Y
    assert [d.render() for d in step.inputs] == [
        "p(Y,Z3 | do(W1),W2)",
        "p(W1,Z1,Z2,Z7 | do(X1,X2),W2)",
        "p(W2,Z6,Z7)",
    ]


def test_non_ancestors_noop_when_all_ancestral():
    g = parse_graph("X -> Y")
    step = prune_non_ancestors(g, (), parse_query("p(Y|do(X))"))
    assert step.applied and not step.removed


def test_non_ancestors_shrinks_query_interventions():
    g = parse_graph("X -> Y\nX -> Z\nW -> Z")
    step = prune_non_ancestors(g, (), Query({"Y"}, {"X", "W"}))
    assert step.removed == {"Z", "W"}
    assert step.query.x == {"X"}


def test_non_ancestors_refusal_on_conditioned_nonancestor():
    inputs = (parse_distribution("p(Z)"), parse_distribution("p(X,Y|Z)"))
    step = prune_non_ancestors(fx.COLLIDER_Z_GRAPH, inputs, parse_query("p(Y|do(X))"))
    assert not step.applied
    assert "Z" in step.refusal
    assert step.graph == fx.COLLIDER_Z_GRAPH


def test_post_intervention_removes_z1_z2_z3():
    first = prune_non_ancestors(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    step = prune_post_intervention(first.graph, first.inputs, first.query)
    assert step.applied
    assert step.removed == {"Z1", "Z2", "Z3"}
    conds = {c.condition: c.holds for c in step.checked}
    assert conds["c_confounder_cover"]


def test_post_intervention_noop_when_nothing_separates():
    g = parse_graph("X -> Y\nW -> X\nW -> Y")
    step = prune_post_intervention(g, (), parse_query("p(Y|do(X))"))
    assert step.applied and not step.removed


def test_post_intervention_refuses_without_covering_latent():
    # same layout with the X1-X2 confounder deleted: the error terms of
    # Z1..Z3 reach both intervention vertices but nothing covers the pair
    g = parse_graph(
        """
        X1 -> W1
        X2 -> W1
        W1 -> Y
        W2 -> Y
        W2 -> X1
        W2 -> W1
        Z3 -> X1
        Z2 -> Z3
        Z2 -> Z1
        Z1 -> X1
        Z1 -> X2
        X1 <-> Y
        X1 <-> W1
        """
    )
    step = prune_post_intervention(g, (), fx.PRUNE_QUERY)
    assert not step.applied
    assert "X1" in step.refusal and "X2" in step.refusal


def test_post_intervention_requires_ancestral_graph():
    with pytest.raises(GraphError, match="ancestors"):
        prune_post_intervention(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)


def test_isolated_removes_z6_z7_through_w2():
    first = prune_non_ancestors(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    second = prune_post_intervention(first.graph, first.inputs, first.query)
    step = prune_isolated(second.graph, second.inputs, second.query)
    assert step.applied
    assert step.removed == {"Z6", "Z7"}
    assert any("W2" in c.witness for c in step.checked)


def test_isolated_noop_without_articulation():
    g = parse_graph("X -> Y\nX -> Z\nZ -> Y")
    step = prune_isolated(g, (), parse_query("p(Y|do(X))"))
    assert step.applied and not step.removed


def test_isolated_tobacco_w_through_r():
    q = parse_query("p(G|do(C))")
    first = prune_non_ancestors(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, q)
    assert first.removed == {"J", "N", "B", "I", "H", "A"}
    step = prune_isolated(first.graph, first.inputs, first.query)
    assert step.removed == {"W"}
    assert any("R" in c.witness for c in step.checked)


def test_isolated_respects_input_variables():
    g = parse_graph("Z -> W\nW -> X\nX -> Y")
    q = parse_query("p(Y|do(X))")
    # the intervention vertex itself may articulate, taking both ancestors
    free = prune_isolated(g, (), q)
    assert free.removed == {"Z", "W"}
    held = prune_isolated(g, (parse_distribution("p(Y|Z)"),), q)
    assert not held.removed
    partial = prune_isolated(g, (parse_distribution("p(Y|W)"),), q)
    assert partial.removed == {"Z"}


def test_prune_all_showcase():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    assert res.removed == {"Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7"}
    assert res.graph == fx.PRUNED_GRAPH_EXPECTED
    assert len(res.graph.observed) == 5 and len(res.graph.latents) == 3
    assert [d.render() for d in res.inputs] == [
        "p(Y | do(W1),W2)",
        "p(W1 | do(X1,X2),W2)",
        "p(W2)",
    ]
    assert res.input_indices == (0, 1, 2)
    by_theorem = {}
    for s in res.steps:
        if s.removed:
            by_theorem.setdefault(s.theorem, set()).update(s.removed)
    assert by_theorem == {
        "non_ancestors": {"Z4", "Z5"},
        "post_intervention": {"Z1", "Z2", "Z3"},
        "isolated": {"Z6", "Z7"},
    }


def test_prune_all_idempotent():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    again = prune_all(res.graph, res.inputs, res.query)
    assert not again.removed
    assert again.graph == res.graph
    assert again.inputs == res.inputs


def test_prune_all_identity_on_minimal_graph():
    g = parse_graph("X -> Y\nX <-> Y")
    res = prune_all(g, (parse_distribution("p(X,Y)"),), parse_query("p(Y|do(X))"))
    assert not res.removed
    assert res.graph == g


def test_prune_all_tobacco_sdo_r():
    q = parse_query("p(S|do(R))")
    res = prune_all(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, q)
    assert res.removed == {"J", "N", "B", "I", "D", "G", "H", "A", "W"}
    assert [d.render() for d in res.inputs] == ["p(C,E,M,O,R)", "p(C,S | do(O))"]


def test_prune_never_removes_protected_vertices():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    protected = res.query.y | res.query.x
    for d in res.inputs:
        protected |= d.b | d.c
    assert not res.removed & protected
    # pruned graph is an induced subgraph of the original on the survivors
    survivors = res.graph.observed
    expect = [
        (p, c) for p, c in fx.PRUNE_GRAPH.edge_list() if p in survivors and c in survivors
    ]
    assert res.graph.edge_list() == sorted(expect)


def test_illustration_pipeline_matches_figure():
    res = prune_all(fx.ILLUSTRATION_GRAPH, (), fx.ILLUSTRATION_QUERY)
    assert res.removed == {"Z5", "Z6"}
    assert res.graph == fx.ILLUSTRATION_PRUNED


def test_effect_preserved_on_showcase():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    rng = np.random.default_rng(23)
    for _ in range(5):
        scm = random_scm(fx.PRUNE_GRAPH, rng)
        base = oracle_interventional(scm, fx.PRUNE_QUERY)
        # intervening additionally on the post-intervention prune set must
        # not move the effect, which is the identity the removal relies on
        extra = oracle_interventional(
            scm, Query(fx.PRUNE_QUERY.y, fx.PRUNE_QUERY.x | {"Z1", "Z2", "Z3"})
        )
        assert base.shape == (2, 2, 2)
        # all slices across the extra interventions agree with the base table
        axes = sorted(fx.PRUNE_QUERY.x | {"Z1", "Z2", "Z3"})
        for z1 in range(2):
            for z2 in range(2):
                for z3 in range(2):
                    idx = {"Z1": z1, "Z2": z2, "Z3": z3}
                    sel = tuple(
                        slice(None) if n in fx.PRUNE_QUERY.x else idx[n] for n in axes
                    )
                    assert np.allclose(extra[(slice(None),) + sel], base, atol=1e-9)


def _showcase_after_non_ancestors(extra):
    first = prune_non_ancestors(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    return prune_post_intervention(first.graph, first.inputs + extra, first.query)


# the layout of test_post_intervention_refuses_without_covering_latent
UNCOVERED = (
    "X1 -> W1\nX2 -> W1\nW1 -> Y\nW2 -> Y\nW2 -> X1\nW2 -> W1\nZ3 -> X1\n"
    "Z2 -> Z3\nZ2 -> Z1\nZ1 -> X1\nZ1 -> X2\nX1 <-> Y\nX1 <-> W1"
)


@pytest.mark.parametrize(
    "theorem, run, refusal, checked",
    [
        (
            "non_ancestors",
            lambda: prune_non_ancestors(
                fx.COLLIDER_Z_GRAPH,
                (parse_distribution("p(Z)"), parse_distribution("p(X,Y|Z)")),
                parse_query("p(Y|do(X))"),
            ),
            "input 1 (p(X,Y | Z)) intervenes or conditions on non-ancestor Z",
            [
                ("inputs_within_ancestors", True, "input 0"),
                ("inputs_within_ancestors", False, "input 1 uses ['Z']"),
            ],
        ),
        (
            "post_intervention",
            lambda: prune_post_intervention(
                parse_graph("X1 -> Z\nZ -> X2\nX2 -> Y"), (), parse_query("p(Y|do(X1,X2))")
            ),
            "candidate Z descends from the intervention",
            [("a_no_descendants_of_x", False, "['Z']")],
        ),
        (
            "post_intervention",
            lambda: _showcase_after_non_ancestors((parse_distribution("p(W2 | Z1)"),)),
            "input 3 (p(W2 | Z1)) intervenes or conditions on Z1",
            [("a_no_descendants_of_x", True, "")]
            + [("b_inputs_outside_pruned", True, f"input {i}") for i in range(3)]
            + [("b_inputs_outside_pruned", False, "input 3 uses ['Z1']")],
        ),
        (
            "post_intervention",
            lambda: _showcase_after_non_ancestors((parse_distribution("p(W2 | do(Z1))"),)),
            "input 3 (p(W2 | do(Z1))) intervenes or conditions on Z1",
            [("a_no_descendants_of_x", True, "")]
            + [("b_inputs_outside_pruned", True, f"input {i}") for i in range(3)]
            + [("b_inputs_outside_pruned", False, "input 3 uses ['Z1']")],
        ),
        (
            "post_intervention",
            lambda: prune_post_intervention(parse_graph(UNCOVERED), (), fx.PRUNE_QUERY),
            "no latent covers ['X1', 'X2'] reached from error term of Z1",
            [
                ("a_no_descendants_of_x", True, ""),
                (
                    "c_confounder_cover", False,
                    "no latent covers ['X1', 'X2'] reached from error term of Z1",
                ),
            ],
        ),
    ],
    ids=["non_ancestor", "post_a", "post_b", "post_b_do", "post_c"],
)
def test_refusal_pinned(theorem, run, refusal, checked):
    assert run().to_json() == {
        "theorem": theorem,
        "applied": False,
        "removed": [],
        "refusal": refusal,
        "checked": [{"condition": c, "holds": h, "witness": w} for c, h, w in checked],
    }
