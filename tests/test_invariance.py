import itertools

import numpy as np
import pytest

from dofuse import (
    GraphError,
    apply_cluster,
    cluster_inputs,
    decide_invariance,
    identify,
    input_table,
    oracle_interventional,
    parse_distribution,
    parse_query,
    random_scm,
    verify_inputs,
)
from dofuse.invariance import IDENTIFIABLE, NON_IDENTIFIABLE, UNDETERMINED

import fixtures as fx

Q_YX = parse_query("p(Y | do(X))")


def _clustered_case(case):
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES[case])
    c1 = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert c1.compatible
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    c2 = cluster_inputs(c1.inputs, fx.CLUSTER_T, "T", g1)
    if c2.compatible:
        g2 = apply_cluster(g1, fx.CLUSTER_T, "T")
        return g2, c2.inputs
    return g1, c1.inputs


def test_verify_true_for_cases_ii_iii_iv():
    for case in ("ii", "iii", "iv"):
        g, inputs = _clustered_case(case)
        res = verify_inputs(g, inputs, "S")
        assert res.ok, case
        assert identify(g, inputs, Q_YX).status == "exhausted_not_identified"


def test_verify_line2_for_parentless_cluster():
    g, inputs = _clustered_case("iii")
    res = verify_inputs(g, inputs, "T")
    assert res.ok
    assert res.trace == res.trace  # deterministic structure
    assert res.trace[0].line == 2


def test_verify_case_iv_line_usage():
    g, inputs = _clustered_case("iv")
    res = verify_inputs(g, inputs, "S")
    lines = {t.input_index: t.line for t in res.trace}
    assert lines[1] == 8   # cluster vertex intervened
    assert lines[2] == 15  # companion input with do(S)


def test_verify_counterexample_lines():
    g2 = apply_cluster(fx.COUNTER_GRAPH, fx.COUNTER_CLUSTER, "Z")
    joint = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y,Z1,Z2)"))
    cc = cluster_inputs(joint, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    res = verify_inputs(g2, cc.inputs, "Z")
    assert not res.ok and res.failing_input == 1 and res.failing_line == 7

    cond = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y|Z1,Z2)"))
    cc = cluster_inputs(cond, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    res = verify_inputs(g2, cc.inputs, "Z")
    assert not res.ok and res.failing_input == 1 and res.failing_line == 9


def test_verify_line5_conditioning_on_descendant():
    g2 = apply_cluster(fx.COUNTER_GRAPH, fx.COUNTER_CLUSTER, "Z")
    inputs = (parse_distribution("p(X,Z1,Z2|Y)"),)
    cc = cluster_inputs(inputs, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    res = verify_inputs(g2, cc.inputs, "Z")
    assert not res.ok and res.failing_line == 5


def test_verify_order_insensitive():
    g, inputs = _clustered_case("iv")
    for perm in itertools.permutations(range(len(inputs))):
        res = verify_inputs(g, tuple(inputs[i] for i in perm), "S")
        assert res.ok


def test_verify_unknown_vertex():
    with pytest.raises(GraphError, match="not in graph"):
        verify_inputs(fx.CLUSTER_GRAPH, (), "nope")


def test_decide_invariance_identifiable_transfers():
    verdict = decide_invariance(
        fx.CLUSTER_GRAPH,
        tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["i"]),
        fx.CLUSTER_S,
        Q_YX,
        clustered_identifiable=True,
        t_name="S",
    )
    assert verdict.status == IDENTIFIABLE


def test_decide_invariance_single_layer():
    inputs = (parse_distribution("p(X,T1,T2,T3,Y)"),)
    verdict = decide_invariance(
        fx.FLAT_GRAPH, inputs, fx.FLAT_CLUSTER, Q_YX, clustered_identifiable=False
    )
    assert verdict.status == NON_IDENTIFIABLE and verdict.basis == "single_layer"


def test_decide_invariance_rejects_query_overlap():
    with pytest.raises(GraphError, match="query"):
        decide_invariance(
            fx.FLAT_GRAPH,
            (),
            fx.FLAT_CLUSTER | {"X"},
            Q_YX,
            clustered_identifiable=False,
        )


def test_decide_invariance_renames_a_taken_cluster_name():
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["ii"])
    fresh = decide_invariance(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_S, Q_YX, False, t_name="S")
    assert (fresh.status, fresh.basis) == (NON_IDENTIFIABLE, "verified_inputs")
    for taken in ("X", "R"):  # a vertex outside the cluster, and a member
        assert decide_invariance(
            fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_S, Q_YX, False, t_name=taken
        ) == fresh


def test_decide_invariance_refuses_incompatible_inputs():
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["ii"])
    with pytest.raises(GraphError) as info:
        decide_invariance(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_T, Q_YX, False)
    assert str(info.value) == (
        "inputs are not compatible with the cluster: "
        "no input contains the emitters of the cluster"
    )


def test_atherosclerosis_row1():
    q = parse_query("p(Y|do(L))")
    inputs = (parse_distribution("p(Y,L,H,S,M|B)"),)
    assert identify(fx.ATHERO_GRAPH, inputs, q).status == "exhausted_not_identified"
    for t in ("B", "H", "M"):
        assert verify_inputs(fx.ATHERO_GRAPH, inputs, t).ok, t

    # through the verdict operation, with two-vertex internals for the groups
    expanded_inputs = (parse_distribution("p(Y,L,H1,H2,S,M1,M2|B1,B2)"),)
    m_pre = fx.ATHERO_REFINED_M
    m_inputs = (parse_distribution("p(Y,L,H,S,M1,M2|B)"),)
    verdict = decide_invariance(
        m_pre, m_inputs, fx.ATHERO_M, q, clustered_identifiable=False, t_name="M"
    )
    assert verdict.status == NON_IDENTIFIABLE and verdict.basis == "verified_inputs"
    b_pre = apply_cluster(
        apply_cluster(fx.ATHERO_EXPANDED, fx.ATHERO_H, "H"), fx.ATHERO_M, "M"
    )
    verdict = decide_invariance(
        b_pre, expanded_inputs_with(("H", fx.ATHERO_H), ("M", fx.ATHERO_M)),
        fx.ATHERO_B, q, clustered_identifiable=False, t_name="B",
    )
    assert verdict.status == NON_IDENTIFIABLE


def expanded_inputs_with(*collapsed):
    """The row-1 expanded input with some groups already collapsed."""
    a = {"Y", "L", "H1", "H2", "S", "M1", "M2"}
    c = {"B1", "B2"}
    for name, members in collapsed:
        a = (a - members) | ({name} if a & members else set())
        c = (c - members) | ({name} if c & members else set())
    from dofuse import InputDistribution

    return (InputDistribution(a, frozenset(), c),)


def test_atherosclerosis_row3():
    q = parse_query("p(Y|do(H))")
    inputs = (parse_distribution("p(B,M,S,Y)"), parse_distribution("p(B,H,M,S)"))
    assert identify(fx.ATHERO_GRAPH, inputs, q).status == "exhausted_not_identified"
    assert verify_inputs(fx.ATHERO_GRAPH, inputs, "B").ok
    res = verify_inputs(fx.ATHERO_GRAPH, inputs, "M")
    assert not res.ok and res.failing_line == 7 and res.failing_input == 0

    m_inputs = (
        parse_distribution("p(B,M1,M2,S,Y)"),
        parse_distribution("p(B,H,M1,M2,S)"),
    )
    verdict = decide_invariance(
        fx.ATHERO_REFINED_M, m_inputs, fx.ATHERO_M, q,
        clustered_identifiable=False, t_name="M",
    )
    assert verdict.status == UNDETERMINED and verdict.basis == "verify_inputs_false"


def test_soundness_spot_check_reported(capsys):
    """Randomized two-model search on a certified non-identifiable fixture.

    Existence is guaranteed in theory; random sampling rarely lands on a
    pair that agrees on the inputs, so the outcome is reported, never
    asserted.
    """
    g, inputs_clustered = _clustered_case("iii")
    original = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["iii"])
    rng = np.random.default_rng(99)
    found = False
    for _ in range(60):
        m1 = random_scm(fx.CLUSTER_GRAPH, rng)
        m2 = random_scm(fx.CLUSTER_GRAPH, rng)
        agree = all(
            np.allclose(
                input_table(m1, d.a, d.b, d.c), input_table(m2, d.a, d.b, d.c), atol=1e-6
            )
            for d in original
        )
        if not agree:
            continue
        e1 = oracle_interventional(m1, Q_YX)
        e2 = oracle_interventional(m2, Q_YX)
        if float(abs(e1 - e2).max()) > 1e-3:
            found = True
            break
    print(f"soundness spot check: counterexample pair {'found' if found else 'not found'} within budget")
