import warnings

import numpy as np
import pytest

from dofuse import (
    InputDistribution,
    SearchBudget,
    cluster_inputs,
    parse_distribution,
    parse_graph,
    parse_query,
    restrict_inputs,
    run_pipeline,
)
from dofuse.distributions import DistributionError, dedup_inputs

import fixtures as fx


@pytest.mark.parametrize(
    "text,a,b,c",
    [
        ("p(X)", {"X"}, set(), set()),
        ("p(X, Y)", {"X", "Y"}, set(), set()),
        ("p(Y | X)", {"Y"}, set(), {"X"}),
        ("p(Y | do(X))", {"Y"}, {"X"}, set()),
        ("p(Y,Z | do(X1, X2), W)", {"Y", "Z"}, {"X1", "X2"}, {"W"}),
        ("p( Y | W , do(X) )", {"Y"}, {"X"}, {"W"}),
    ],
)
def test_parse_distribution(text, a, b, c):
    d = parse_distribution(text)
    assert (set(d.a), set(d.b), set(d.c)) == (a, b, c)


def test_parse_rejects_bad_forms():
    with pytest.raises(DistributionError):
        parse_distribution("q(X)")
    with pytest.raises(DistributionError):
        parse_distribution("p(X | do(Y), do(Z))")
    with pytest.raises(DistributionError):
        parse_distribution("p( | X)")
    with pytest.raises(DistributionError):
        parse_distribution("p(X | X)")
    # read as names, a nested group would render as a different input
    with pytest.raises(DistributionError):
        parse_distribution("p(A | do(B,a(b,X,do))")
    # an id that holds an arrow or is the latent keyword reads differently
    # at the two ends of an edge line, so no text accepts it
    for text in ("p(A->B)", "p(latent)", "p(Y | do(latent))"):
        with pytest.raises(DistributionError):
            parse_distribution(text)


def test_parse_query():
    q = parse_query("p(Y | do(X))")
    assert (set(q.y), set(q.x)) == ({"Y"}, {"X"})
    with pytest.raises(DistributionError):
        parse_query("p(Y)")
    with pytest.raises(DistributionError):
        parse_query("p(Y | do(X), Z)")


def test_render_round_trip():
    for text in ("p(X)", "p(X,Y | do(Z))", "p(Y | do(X1,X2),W1,W2)"):
        d = parse_distribution(text)
        assert parse_distribution(d.render()) == d


def test_restrict_drops_underivable_inputs():
    i1 = (parse_distribution("p(X)"), parse_distribution("p(Y|X)"))
    i2 = (parse_distribution("p(X|Y)"), parse_distribution("p(Y)"))
    i3 = (parse_distribution("p(X,Y)"),)
    assert restrict_inputs(i1, {"Y"}) == ()
    assert restrict_inputs(i2, {"Y"}) == (parse_distribution("p(Y)"),)
    assert restrict_inputs(i3, {"Y"}) == (parse_distribution("p(Y)"),)


def test_restrict_identity_on_full_set():
    w = fx.PRUNE_GRAPH.observed
    assert restrict_inputs(fx.PRUNE_INPUTS, w) == fx.PRUNE_INPUTS


def test_restrict_idempotent_and_matches_filter():
    rng = np.random.default_rng(17)
    names = [f"V{i}" for i in range(8)]
    for _ in range(200):
        inputs = []
        for _ in range(int(rng.integers(1, 4))):
            roles = rng.integers(0, 4, size=8)
            a = {names[i] for i in range(8) if roles[i] == 0}
            b = {names[i] for i in range(8) if roles[i] == 1}
            c = {names[i] for i in range(8) if roles[i] == 2}
            if not a:
                continue
            inputs.append(InputDistribution(a, b, c))
        w = {names[i] for i in range(8) if rng.random() < 0.6}
        got = restrict_inputs(inputs, w)
        assert restrict_inputs(got, w) == got
        expect = tuple(
            InputDistribution(d.a & w, d.b, d.c)
            for d in inputs
            if d.a & w and d.b | d.c <= w
        )
        assert got == expect


def test_cluster_inputs_case_i():
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["i"])
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert res.compatible
    assert [d.render() for d in res.inputs] == ["p(S,X)", "p(S,T1,T2,Y)"]
    assert res.mapping.subsets == (
        frozenset({"E1", "E2", "S1", "R"}),
        frozenset({"E1", "E2"}),
    )
    assert len(res.inputs) == len(inputs)


def test_cluster_inputs_untouched_input_is_condition_d():
    inputs = (parse_distribution("p(X,W1)"), parse_distribution("p(Y,E1,E2)"))
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert res.compatible
    assert res.inputs[0] == inputs[0]
    assert res.mapping.slots == ("", "a")


def test_cluster_inputs_latent_emitter_rejected():
    res = cluster_inputs(
        (parse_distribution("p(X,Y,Z)"),), {"Z", "U"}, "T", fx.LATENT_EMITTER_GRAPH
    )
    assert not res.compatible
    assert res.failing_condition == "latent_emitter"


def test_cluster_inputs_split_rejected():
    inputs = (parse_distribution("p(E1, X | E2)"),)
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert not res.compatible
    assert res.failing_input == 0


def test_cluster_inputs_partial_emitters_rejected():
    inputs = (parse_distribution("p(E1, X)"),)
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert not res.compatible


def test_cluster_inputs_sink_cluster_refuses_conditioning():
    # {V1, V3} has no emitter: p(V5 | V3) conditions on V3, which informs V5
    # through V0, while p(V5 | T) would hold p(V5); clustered, the query
    # p(V5 | do(V2)) = p(V5) was identified though the original is not
    g = parse_graph("V0 -> V1\nV0 -> V4\nV0 -> V5\nV1 -> V3\nV4 -> V2")
    measured = (parse_distribution("p(V0,V1)"), parse_distribution("p(V5 | do(V3))"))
    assert cluster_inputs(measured, {"V1", "V3"}, "T", g).compatible
    conditioned = (parse_distribution("p(V0,V1)"), parse_distribution("p(V5 | V3)"))
    res = cluster_inputs(conditioned, {"V1", "V3"}, "T", g)
    assert not res.compatible
    assert (res.failing_input, res.failing_condition) == (1, "none")
    query = parse_query("p(V5 | do(V2))")
    assert run_pipeline(g, conditioned, query, SearchBudget(3000, 25)).status == "non_identifiable"


def test_cluster_inputs_requires_some_presence():
    inputs = (parse_distribution("p(X, W1)"),)
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert not res.compatible
    assert res.failing_condition == "absent"


def test_cluster_inputs_mapping_is_bijection():
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["iv"])
    res = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    assert res.compatible
    assert len(res.inputs) == len(inputs)
    assert len(res.mapping.subsets) == len(inputs)
    for dist, new, subset, slot in zip(
        inputs, res.inputs, res.mapping.subsets, res.mapping.slots
    ):
        if not slot:
            assert new == dist
            continue
        w_old = getattr(dist, slot)
        w_new = getattr(new, slot)
        assert "S" in w_new
        assert (w_new - {"S"}) | subset == w_old


def test_dedup_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dedup_inputs((parse_distribution("p(X)"), parse_distribution("p(X)")))
    assert out == (parse_distribution("p(X)"),)
    assert any("duplicate" in str(w.message) for w in caught)


def test_invalid_input_distribution():
    with pytest.raises(DistributionError):
        InputDistribution(frozenset(), frozenset({"X"}))
    with pytest.raises(DistributionError):
        InputDistribution({"X"}, {"X"})
