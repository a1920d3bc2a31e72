import hashlib
import sys

import numpy as np
import pytest

from dofuse import (
    GraphError,
    Query,
    SearchBudget,
    canonicalize,
    evaluate_functional,
    identify,
    lift_functional_clustering,
    lift_functional_pruning,
    oracle_interventional,
    parse_distribution,
    parse_graph,
    parse_query,
    prune_all,
    random_scm,
    render,
)
from dofuse.distributions import cluster_inputs
from dofuse.clustering import apply_cluster
from dofuse.distributions import InputDistribution
from dofuse.functional import (
    InputRef,
    Pinned,
    Product,
    Quotient,
    SumOver,
    free_variables,
    from_json,
    to_json,
    transform,
)
from dofuse.graph import CausalGraph, _iter_bits, edge_cut
from dofuse.identify import _build, _Engine
from dofuse.pipeline import _cluster, run_pipeline
from dofuse.simulate import SIM_BUDGET, generate_instance

import oracles
import fixtures as fx


def equivalent(f, g, graph, query, n=20, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        scm = random_scm(graph, rng)
        a = evaluate_functional(f, scm, query)
        b = evaluate_functional(g, scm, query)
        if float(abs(a - b).max()) > tol:
            return False
    return True


def matches_oracle(f, graph, query, n=20, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        scm = random_scm(graph, rng)
        want = oracle_interventional(scm, query)
        got = evaluate_functional(f, scm, query)
        worst = max(worst, float(abs(want - got).max()))
    return worst <= tol, worst


def test_query_in_inputs_is_identity():
    g = parse_graph("X -> Y")
    q = parse_query("p(Y|do(X))")
    r = identify(g, (parse_distribution("p(Y|do(X))"),), q)
    assert r.identified and r.depth == 0
    assert isinstance(r.functional, InputRef)
    assert r.functional.index == 0


def test_showcase_functional_matches_reference_form():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    r = identify(res.graph, res.inputs, res.query)
    assert r.identified
    assert (
        render(canonicalize(r.functional))
        == "sum_{W1,W2} p(W1|do(X1,X2),W2) * p(W2) * p(Y|do(W1),W2)"
    )
    expected = SumOver(
        ("W1", "W2"),
        Product(
            (
                InputRef(0, ("Y",), ("W1",), ("W2",)),
                InputRef(1, ("W1",), ("X1", "X2"), ("W2",)),
                InputRef(2, ("W2",)),
            )
        ),
    )
    assert equivalent(r.functional, expected, res.graph, res.query)


def test_clustered_case_i_functional():
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    g2 = apply_cluster(g1, fx.CLUSTER_T, "T")
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["i"])
    c1 = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    c2 = cluster_inputs(c1.inputs, fx.CLUSTER_T, "T", g1)
    r = identify(g2, c2.inputs, fx.CLUSTER_QUERY)
    assert r.identified
    # reference form: sum_{s,t} p(s|x) p(t) p(y|s,t)
    expected = SumOver(
        ("S", "T"),
        Product(
            (
                InputRef(0, ("S",), (), ("X",)),
                InputRef(1, ("T",)),
                InputRef(1, ("Y",), (), ("S", "T")),
            )
        ),
    )
    assert equivalent(r.functional, expected, g2, fx.CLUSTER_QUERY)


def test_case_ii_exhausts():
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["ii"])
    c1 = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    r = identify(g1, c1.inputs, fx.CLUSTER_QUERY)
    assert r.status == "exhausted_not_identified"


def test_budget_exceeded_on_tiny_budget():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    r = identify(res.graph, res.inputs, res.query, SearchBudget(max_terms=10, max_depth=25))
    assert r.status == "budget_exceeded"
    r = identify(res.graph, res.inputs, res.query, SearchBudget(max_terms=200000, max_depth=2))
    assert r.status == "budget_exceeded"


def test_determinism_and_monotonicity():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    r1 = identify(res.graph, res.inputs, res.query)
    r2 = identify(res.graph, res.inputs, res.query)
    assert render(canonicalize(r1.functional)) == render(canonicalize(r2.functional))
    assert (r1.terms, r1.depth) == (r2.terms, r2.depth)
    bigger = identify(
        res.graph, res.inputs, res.query, SearchBudget(max_terms=500_000, max_depth=30)
    )
    assert bigger.identified
    assert render(canonicalize(bigger.functional)) == render(canonicalize(r1.functional))


def test_identify_rejects_unknown_query_vertices():
    g = parse_graph("X -> Y")
    with pytest.raises(GraphError, match="non-observed"):
        identify(g, (parse_distribution("p(X,Y)"),), Query({"Y"}, {"Q"}))


def test_budget_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(0, 5)
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(100, 0)


def test_lift_pruning_repoints_indices():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    r = identify(res.graph, res.inputs, res.query)
    lifted = lift_functional_pruning(r.functional, res)
    ok, worst = matches_oracle(lifted, fx.PRUNE_GRAPH, fx.PRUNE_QUERY)
    assert ok, worst


def test_lift_pruning_noop_identity():
    g = parse_graph("X -> Y\nX <-> Y")
    q = parse_query("p(Y|do(X))")
    res = prune_all(g, (parse_distribution("p(Y|do(X))"),), q)
    r = identify(res.graph, res.inputs, res.query)
    lifted = lift_functional_pruning(r.functional, res)
    assert lifted == r.functional


def test_lift_pruning_random_instances():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        g = oracles.random_dag(rng, 6, 0.4, n_latents=1)
        obs = sorted(g.observed)
        y = obs[-1]
        x = {obs[0]}
        q = Query({y}, x)
        joint = parse_distribution(f"p({','.join(obs)})")
        res = prune_all(g, (joint,), q)
        if not res.removed:
            continue
        r = identify(res.graph, res.inputs, res.query, SearchBudget(20000, 16))
        if not r.identified:
            continue
        lifted = lift_functional_pruning(r.functional, res)
        lifted_query = Query(q.y, res.query.x)
        ok, worst = matches_oracle(lifted, g, lifted_query, n=5, seed=checked)
        assert ok, (worst, g.edge_list())
        checked += 1


def test_lift_clustering_case_i():
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    g2 = apply_cluster(g1, fx.CLUSTER_T, "T")
    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["i"])
    c1 = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    c2 = cluster_inputs(c1.inputs, fx.CLUSTER_T, "T", g1)
    r = identify(g2, c2.inputs, fx.CLUSTER_QUERY)
    lifted = lift_functional_clustering(r.functional, c2.mapping)
    lifted = lift_functional_clustering(lifted, c1.mapping)
    assert free_variables(lifted) == {"X", "Y"}
    ok, worst = matches_oracle(lifted, fx.CLUSTER_GRAPH, fx.CLUSTER_QUERY)
    assert ok, worst


def test_lift_clustering_multivariate_group():
    # joint baseline data: p(y|do(l)) = sum_b p(b) p(y|l,b), lifted to the
    # two-vertex group
    q = parse_query("p(Y|do(L))")
    inputs = (parse_distribution("p(Y,L,H,S,M,B)"),)
    r = identify(fx.ATHERO_GRAPH, inputs, q)
    assert r.identified

    b_pre = apply_cluster(
        apply_cluster(fx.ATHERO_EXPANDED, fx.ATHERO_H, "H"), fx.ATHERO_M, "M"
    )
    orig = (parse_distribution("p(Y,L,H,S,M,B1,B2)"),)
    cb = cluster_inputs(orig, fx.ATHERO_B, "B", b_pre)
    assert cb.compatible
    lifted = lift_functional_clustering(r.functional, cb.mapping)
    text = render(canonicalize(lifted))
    assert "B1" in text and "B2" in text
    ok, worst = matches_oracle(lifted, b_pre, q)
    assert ok, worst


def test_lift_clustering_identity_when_absent():
    mapping_free = InputRef(0, ("Y",), (), ("X",))
    from dofuse.distributions import ClusterMapping

    mapping = ClusterMapping("T", (frozenset(),), ("",))
    assert lift_functional_clustering(mapping_free, mapping) == mapping_free


def _prune_showcase_functional():
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    return identify(res.graph, res.inputs, res.query).functional


def _campaign_seed_0_functional():
    # the lifted pipeline functional of campaign seed 0 holds all five node kinds
    inst = generate_instance(0)
    f = run_pipeline(inst.graph, inst.inputs, inst.query, SIM_BUDGET).functional
    kinds = set()
    transform(f, lambda node, kids: kinds.add(type(node)))
    assert kinds == {InputRef, SumOver, Product, Quotient, Pinned}
    return f


def test_functional_json_round_trip():
    for make in (_prune_showcase_functional, _campaign_seed_0_functional):
        f = canonicalize(make())
        assert canonicalize(from_json(to_json(f))) == f


def test_canonical_form_flattens_nested_product_and_sum():
    nested_product = Product(
        (InputRef(2, ("Y",)), Product((InputRef(1, ("Z",)), InputRef(0, ("X",)))))
    )
    assert canonicalize(nested_product) == Product(
        (InputRef(0, ("X",)), InputRef(2, ("Y",)), InputRef(1, ("Z",)))
    )
    nested_sum = SumOver(("B", "C"), SumOver(("A",), InputRef(0, ("Y", "B", "A"))))
    assert canonicalize(nested_sum) == SumOver(("A", "B"), InputRef(0, ("A", "B", "Y")))


def test_counterexample_original_identifies():
    inputs = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y,Z1,Z2)"))
    r = identify(fx.COUNTER_GRAPH, inputs, fx.COUNTER_QUERY)
    assert r.identified
    # reference form: sum_{z2} p(z2|x) sum_{z1} p(z1) p(y|z1,z2)
    expected = SumOver(
        ("Z2",),
        Product(
            (
                InputRef(0, ("Z2",), (), ("X",)),
                SumOver(
                    ("Z1",),
                    Product(
                        (InputRef(1, ("Z1",)), InputRef(1, ("Y",), (), ("Z1", "Z2")))
                    ),
                ),
            )
        ),
    )
    assert equivalent(r.functional, expected, fx.COUNTER_GRAPH, fx.COUNTER_QUERY)
    ok, worst = matches_oracle(r.functional, fx.COUNTER_GRAPH, fx.COUNTER_QUERY)
    assert ok, worst


def _rule_guard(g, move, a, b, c, z):
    """The guard of moving z by one rule, on ``edge_cut`` and the path oracle.

    Moves: 0 rule 1 deletion (z in c), 1 rule 1 insertion (z free), 2 rule 2
    b -> c (z in b), 3 rule 2 c -> b (z in c), 4 rule 3 deletion (z in b),
    5 rule 3 insertion (z free).
    """

    def an(cin, m):
        return m | oracles.reach_oracle(edge_cut(g, cin, ()), m, "ancestors")

    cin, cout, cond = {
        0: (b, (), b | (c - z)),
        1: (b, (), b | c),
        2: (b - z, z, (b - z) | c),
        3: (b, z, b | (c - z)),
        4: ((b - z) | (z - an(b - z, c)), (), (b - z) | c),
        5: (b | (z - an(b, c)), (), b | c),
    }[move]
    return oracles.dsep_paths_oracle(edge_cut(g, cin, cout), a, z, cond)


def test_one_walk_decides_every_guard():
    """Each row of the guard table in ``identify`` against the rule's own guard.

    A singleton passes exactly when the table says so; the whole pool passes
    exactly when every singleton does, except for rule 3 deletion, where
    that is only necessary and the search tests the whole of b on its own.
    """
    rng = np.random.default_rng(31)
    verdicts = {move: set() for move in range(6)}
    whole_b = 0
    for _ in range(400):
        g = oracles.random_dag(rng, int(rng.integers(3, 8)), 0.4, n_latents=int(rng.integers(0, 3)))
        eng = _Engine(g)
        n = g.n_observed
        for _ in range(3):
            role = rng.integers(0, 4, size=n)
            a, b, c = (sum(1 << v for v in range(n) if role[v] == k) for k in range(3))
            if not a:
                continue
            free = g.observed_mask & ~(a | b | c)
            got = eng.guards(a, b, c, free)
            names = [g.names_of(m) for m in (a, b, c)]
            for move, pool in enumerate((c, free, b, c, b, free)):
                want = 0
                for v in _iter_bits(pool):
                    if _rule_guard(g, move, *names, g.names_of(1 << v)):
                        want |= 1 << v
                assert got[move] == want, (g, a, b, c, move)
                verdicts[move].add(want == pool)
                if not pool & (pool - 1):
                    continue
                whole = _rule_guard(g, move, *names, g.names_of(pool))
                if move != 4:
                    assert whole == (want == pool), (g, a, b, c, move)
                    continue
                assert want == pool or not whole, (g, a, b, c)
                if want == pool:
                    whole_b += 1
                    assert eng.dsep(b & ~eng.ancestors(0, c), 0, a, b, c) == whole
    assert all(v == {True, False} for v in verdicts.values()), verdicts
    assert whole_b > 5


def test_one_walk_per_frontier_key(monkeypatch):
    """The search walks once per expanded key, plus once per whole-b rule 3 deletion."""
    module = sys.modules["dofuse.identify"]
    kernel = module.reach
    walks = []

    def counting(par, ch, src, cond, stop=0):
        walks.append((id(par), src, cond, stop))
        return kernel(par, ch, src, cond, stop)

    monkeypatch.setattr(module, "reach", counting)
    problems = (
        (fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, parse_query("p(S | do(R))")),
        (fx.CLUSTER_GRAPH, fx.CLUSTER_CASES["i"], fx.CLUSTER_QUERY),
    )
    for g, inputs, query in problems:
        walks.clear()
        inputs = tuple(parse_distribution(s) if isinstance(s, str) else s for s in inputs)
        result = run_pipeline(g, inputs, query)
        assert result.status == "identified"
        full = [w for w in walks if not w[3]]
        whole_b = [w for w in walks if w[3]]
        # a key (a, b, c) is walked in its own cut graph from a given b | c
        assert len(set(full)) == len(full) <= result.search.terms
        assert all(stop & (stop - 1) for *_, stop in whole_b)
        assert len(walks) <= len(full) + len(whole_b) < 1.1 * result.search.terms


# seed   unclustered search      clustered search: status, terms, depth
_CAMPAIGN_SEARCHES = """
   0   identified  2072  6   identified   599  6
   1   identified  5705  8   identified  1691  8
   2   exhausted   2511  8   exhausted    585  7
   3   capped     12001  7   exhausted   2978  8
   4   identified  9450  8   identified   961  7
   5   exhausted     20  3   exhausted      8  2
   6   exhausted    353  7   exhausted    177  6
   7   identified  5913  6   identified   546  5
   8   exhausted    584  6   exhausted     54  4
   9   exhausted   4692  7   exhausted   1714  7
  10   exhausted   5279 13   exhausted   2433 13
  11   exhausted    186  6   exhausted    186  6
  12   identified   374  4   identified    59  3
  13   identified  1387  5   identified   179  4
  14   capped     12001  9   exhausted   1100  9
  15   exhausted   3329  9   exhausted   1147  8
  16   capped     12001  6   capped     12001  9
  17   exhausted    634  8   exhausted    262  8
  18   capped     12001  6   identified   457  4
  19   capped     12001  6   exhausted   1514  8
  20   identified  3140  6   identified    55  3
  21   capped     12001  7   exhausted   1300 10
  22   capped     12001  7   identified  4368  8
  23   exhausted   2484  8   exhausted   1046  7
  24   capped     12001  6   exhausted   3646 12
  25   capped     12001  7   exhausted   1674  8
  26   exhausted    321  7   exhausted     41  5
  27   capped     12001  7   identified  7909  9
  28   exhausted    340  6   exhausted     42  4
  29   capped     12001  7   exhausted   6079  9
  30   exhausted   1588  9   exhausted    360  7
  31   identified   668  5   identified   111  4
  32   capped     12001  9   exhausted   2128 12
  33   capped     12001  6   exhausted   2740  9
  34   exhausted   3103  9   exhausted    691  7
  35   exhausted   4004  9   exhausted    158  5
  36   exhausted   1325  7   exhausted    269  6
  37   exhausted    927  5   exhausted    195  4
  38   identified   810  4   identified   105  3
  39   capped     12001  6   exhausted   2137  9
"""
_CAMPAIGN_RENDERS = "c2abd7fdb1aee46225c66b324672cd5392c1e2a5ad0f169b57a8acc3e8426295"
_STATUS = {
    "identified": "identified",
    "exhausted_not_identified": "exhausted",
    "budget_exceeded": "capped",
}


def test_campaign_search_order_pinned():
    """Both SIM_BUDGET searches of campaign seeds 0-39, as the campaign runs them.

    Term counts and depths pin the order in which the search adds terms: a
    capped search stops at exactly the 12,001st. The sha256 of the renders,
    one line per search and empty when not identified, pins the derivations.
    """
    rows, renders = [], []
    for seed in range(40):
        inst = generate_instance(seed)
        ac = _cluster(inst.graph, inst.inputs, frozenset(inst.cluster_members), inst.cluster_vertex)
        cells = []
        for g, inputs in ((inst.graph, inst.inputs), (ac.graph_after, ac.inputs_after)):
            r = identify(g, inputs, inst.query, SIM_BUDGET)
            cells.append(f"{_STATUS[r.status]:<10} {r.terms:>5} {r.depth:>2}")
            renders.append(render(r.functional) if r.identified else "")
        rows.append(f"{seed:>4}   " + "   ".join(cells))
    assert rows == _CAMPAIGN_SEARCHES.strip("\n").split("\n")
    assert hashlib.sha256("\n".join(renders).encode()).hexdigest() == _CAMPAIGN_RENDERS


def test_packed_key_layout():
    """Every key (a, b, c) over m <= 3 observed vertices packed as a << 2m | b << m | c.

    Packing round-trips, sorts like the triples, and each move of the search
    is one int expression on the packed key.
    """
    for m in range(4):
        low = (1 << 2 * m) - 1
        full = (1 << m) - 1

        def pack(a, b, c):
            return a << 2 * m | b << m | c

        triples = [(a, b, c) for a in range(1 << m) for b in range(1 << m) for c in range(1 << m)]
        for a, b, c in triples:
            key = pack(a, b, c)
            assert (key >> 2 * m, key >> m & full, key & full) == (a, b, c)
        assert [pack(*t) for t in sorted(triples)] == sorted(pack(*t) for t in triples)
        for a, b, c in triples:
            if a & b or a & c or b & c:
                continue
            key = pack(a, b, c)
            assert key & low == pack(0, b, c)
            assert key & low | a == pack(0, b, a | c)
            for z in range(1, 1 << m):
                if z & a == z:
                    assert key ^ z << 2 * m == pack(a ^ z, b, c)
                    assert key ^ z << 2 * m ^ z == pack(a ^ z, b, c | z)
                if z & c == z:
                    assert key ^ z == pack(a, b, c & ~z)
                    assert key ^ (z << m | z) == pack(a, b | z, c & ~z)
                if z & b == z:
                    assert key ^ (z << m | z) == pack(a, b & ~z, c | z)
                    assert key ^ z << m == pack(a, b & ~z, c)
                if not z & (a | b | c):
                    assert key | z == pack(a, b, c | z)
                    assert key | z << m == pack(a, b | z, c)
                # chain: p(a | b, c) p(z | b, c - z), found under key & low
                # in by_bac, and p(z | b, a | c) p(a | b, c), found under
                # key & low | a in by_bc
                if z & c == z:
                    t2 = pack(z, b, c & ~z)
                    assert t2 & low | z == key & low
                    assert t2 | a << 2 * m == pack(a | z, b, c & ~z)
                if not z & (a | b | c):
                    t1 = pack(z, b, a | c)
                    assert t1 & low == key & low | a
                    assert key | t1 & ~low == pack(a | z, b, c)


def test_build_reads_each_move_from_its_keys():
    """``_build`` tells every move of ``test_packed_key_layout`` from its two keys alone.

    Over m <= 3 observed vertices, from an input p(a | do(b), c): a-bits that
    leave are summed out, or conditioned on when they enter c; b- or c-bits
    that leave alone are pinned; every insertion and exchange keeps the
    parent's term; and a chain is the product of its two factors.
    """
    for m in range(1, 4):
        g = CausalGraph("ABC"[:m], [])

        def pack(a, b, c):
            return a << 2 * m | b << m | c

        def names(mask):
            return tuple(sorted(g.names_of(mask)))

        for a in range(1, 1 << m):
            for b in range(1 << m):
                for c in range(1 << m):
                    if a & b or a & c or b & c:
                        continue
                    key = pack(a, b, c)
                    ref = InputRef(0, names(a), names(b), names(c))
                    dists = [InputDistribution(ref.a, ref.b, ref.c)]

                    def build(t, store=None):
                        return _build(t, store or {key: ~0, t: key}, dists, g)

                    for z in range(1, 1 << m):
                        if z & a == z:
                            assert build(key ^ z << 2 * m) == SumOver(names(z), ref)
                            rest = SumOver(names(a & ~z), ref)
                            assert build(key ^ z << 2 * m ^ z) == Quotient(ref, rest)
                        if z & c == z:
                            assert build(key ^ z) == Pinned(names(z), ref)
                            assert build(key ^ (z << m | z)) == ref
                        if z & b == z:
                            assert build(key ^ z << m) == Pinned(names(z), ref)
                            assert build(key ^ (z << m | z)) == ref
                        if not z & (a | b | c):
                            assert build(key | z) == ref
                            assert build(key | z << m) == ref
                            t1 = pack(z, b, a | c)
                            ref1 = InputRef(1, names(z), names(b), names(a | c))
                            dists[1:] = [InputDistribution(ref1.a, ref1.b, ref1.c)]
                            t = pack(a | z, b, c)
                            got = build(t, {key: ~0, t1: ~1, t: (t1, key)})
                            assert got == Product((ref1, ref))
