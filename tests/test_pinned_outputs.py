"""Pinned pipeline outputs on the cheap fixture queries.

Status, search term count, search depth and the rendered lifted functional
of each query, recorded once and compared byte for byte, so a refactor of
the d-separation kernel, the search or the lifting that changes any of them
fails here. The automatically selected clusters (names, members and order)
are pinned too. Also checks that ``functional.transform`` maps a shared subterm
once.
"""

import pytest

from dofuse import (
    identify,
    lift_functional_pruning,
    parse_distribution,
    parse_graph,
    parse_query,
    render,
)
from dofuse.functional import (
    InputRef,
    Quotient,
    _children,
    node_count,
    transform,
    with_children,
)
from dofuse.pipeline import run_pipeline
from dofuse.pruning import PruneResult

import fixtures as fx

FRONT_DOOR = parse_graph("X -> M\nM -> Y\nX <-> Y")
BOW = parse_graph("X -> Y\nX <-> Y")

PROBLEMS = {
    "tobacco-s": (fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, "p(S | do(R))"),
    "athero-row1": (fx.ATHERO_GRAPH, ("p(Y,L,H,S,M | B)",), "p(Y | do(L))"),
    "athero-row2": (fx.ATHERO_GRAPH, ("p(Y,L,H,S,M,B)",), "p(Y | do(L))"),
    "athero-row3": (fx.ATHERO_GRAPH, ("p(B,M,S,Y)", "p(B,H,M,S)"), "p(Y | do(H))"),
    "athero-row4": (
        fx.ATHERO_REFINED_M, ("p(B,M1,M2,S,Y)", "p(B,H,M1,M2,S)"), "p(Y | do(H))"
    ),
    "prune-showcase": (fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY),
    **{
        f"cluster-{case}": (fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY)
        for case, inputs in fx.CLUSTER_CASES.items()
    },
    "front-door": (FRONT_DOOR, ("p(X,M,Y)",), "p(Y | do(X))"),
    "bow": (BOW, ("p(X,Y)",), "p(Y | do(X))"),
    "athero-row2-expanded": (
        fx.ATHERO_EXPANDED, ("p(Y,L,H1,H2,S,M1,M2,B1,B2)",), "p(Y | do(L))"
    ),
}

# (pipeline status, search terms, search depth, render of the functional)
PINNED = {
    "tobacco-s": (
        "identified", 1885, 8,
        (
            "sum_{C} sum_{O} ([p(C,S|do(O)) / sum_{S'} p(C,S'|do(O))]) * (sum_{E,"
            "M} ([[[p(C,E,M,O,R) / sum_{C',O',R'} p(C',E,M,O',R')] / sum_{C',O'} "
            "[p(C',E,M,O',R) / sum_{C'',O'',R'} p(C'',E,M,O'',R')]] / sum_{C'} [["
            "p(C',E,M,O,R) / sum_{C'',O',R'} p(C'',E,M,O',R')] / sum_{C'',O'} [p("
            "C'',E,M,O',R) / sum_{C''',O'',R'} p(C''',E,M,O'',R')]]]) * (sum_{C'}"
            " sum_{R'} p(C',E,M,O,R')))"
        ),
    ),
    "athero-row1": ("non_identifiable", 1622, 10, None),
    "athero-row2": (
        "identified", 2697, 8,
        (
            "sum_{B} ([sum_{H} [sum_{M} sum_{S} p(B,H,L,M,S,Y) / sum_{B',H',Y'} s"
            "um_{M} sum_{S} p(B',H',L,M,S,Y')] / sum_{Y'} sum_{H} [sum_{M} sum_{S"
            "} p(B,H,L,M,S,Y') / sum_{B',H',Y''} sum_{M} sum_{S} p(B',H',L,M,S,Y'"
            "')]]) * (sum_{H} sum_{L'} sum_{M} sum_{S} sum_{Y'} p(B,H,L',M,S,Y'))"
        ),
    ),
    "athero-row3": ("non_identifiable", 429, 9, None),
    "athero-row4": ("undetermined", 429, 9, None),
    "prune-showcase": (
        "identified", 102, 5,
        "sum_{W1} sum_{W2} p(Y|do(W1),W2) * p(W1|do(X1,X2),W2) * p(W2)",
    ),
    "cluster-i": (
        "identified", 294, 6,
        (
            "sum_{E1,E2,R,S1} sum_{T1,T2} ([[p(E1,E2,T1,T2,Y) / sum_{E1',E2',Y'} "
            "p(E1',E2',T1,T2,Y')] / sum_{Y'} [p(E1,E2,T1,T2,Y') / sum_{E1',E2',Y'"
            "'} p(E1',E2',T1,T2,Y'')]]) * ([p(E1,E2,R,S1,X) / sum_{E1',E2',R',S1'"
            "} p(E1',E2',R',S1',X)]) * (sum_{E1',E2'} sum_{Y'} p(E1',E2',T1,T2,Y'"
            '))'
        ),
    ),
    "cluster-ii": ("non_identifiable", 925, 11, None),
    "cluster-iii": ("non_identifiable", 263, 6, None),
    "cluster-iv": ("non_identifiable", 240, 6, None),
    "front-door": (
        "identified", 36, 9,
        (
            "sum_{M} (sum_{X'} ([[p(M,X',Y) / sum_{M',Y'} p(M',X',Y')] / sum_{Y'}"
            " [p(M,X',Y') / sum_{M',Y''} p(M',X',Y'')]]) * (sum_{M'} sum_{Y'} p(M"
            "',X',Y'))) * ([sum_{Y'} p(M,X,Y') / sum_{M'} sum_{Y'} p(M',X,Y')])"
        ),
    ),
    "bow": ("non_identifiable", 6, 2, None),

}


# (name, members) of the automatically selected clusters, in order of application
PINNED_CLUSTERS = {
    "cluster-i": [("T3", {"E1", "E2", "R", "S1", "S2"}), ("T4", {"T1", "T2"})],
    "cluster-iii": [("T3", {"E1", "E2", "R", "S1", "S2"}), ("T4", {"T1", "T2"})],
    "athero-row2-expanded": [("T1", {"H1", "H2"}), ("T2", {"M1", "M2"})],
    "tobacco-s": [("T1", {"E", "M"})],
}


def _pipeline(name):
    g, inputs, query = PROBLEMS[name]
    inputs = [parse_distribution(d) if isinstance(d, str) else d for d in inputs]
    query = parse_query(query) if isinstance(query, str) else query
    return run_pipeline(g, inputs, query)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_output_pinned(name):
    result = _pipeline(name)
    rendered = render(result.functional) if result.functional is not None else None
    assert (result.status, result.search.terms, result.search.depth, rendered) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_CLUSTERS))
def test_auto_clusters_pinned(name):
    clusters = [(ac.t_name, set(ac.members)) for ac in _pipeline(name).clusters]
    assert clusters == PINNED_CLUSTERS[name]


def test_transform_maps_shared_subterms_once():
    query = parse_query("p(Y | do(X))")
    f = identify(FRONT_DOOR, [parse_distribution("p(X,M,Y)")], query).functional
    calls = []

    def copy(node, kids):
        calls.append(node)
        return with_children(node, kids)

    copied = transform(f, copy)
    assert len(calls) == node_count(f) == node_count(copied)
    assert render(copied) == render(f)

    twice = Quotient(f, f)
    lifted = lift_functional_pruning(twice, PruneResult(FRONT_DOOR, (), query, (), (3,)))
    assert lifted.num is lifted.den
    assert node_count(lifted) == node_count(twice) == node_count(f) + 1
    assert render(lifted) == render(twice)
    assert {ref.index for ref in _refs(lifted)} == {3}


def _refs(node):
    if isinstance(node, InputRef):
        return [node]
    return [r for kid in _children(node) for r in _refs(kid)]
