import math
import tracemalloc

import numpy as np
import pytest

from dofuse import (
    DiscreteSCM,
    EvaluationError,
    Query,
    evaluate_functional,
    input_table,
    oracle_interventional,
    parse_graph,
    parse_query,
    random_scm,
    run_pipeline,
)
from dofuse.functional import InputRef, Pinned, Product, Quotient, SumOver
from dofuse.graph import _iter_bits
from dofuse.scm import evaluate_at
from dofuse.simulate import SIM_BUDGET, generate_instance

import fixtures as fx
import oracles


def test_chain_effect_equals_conditional():
    g = parse_graph("X -> Y")
    rng = np.random.default_rng(0)
    for _ in range(20):
        scm = random_scm(g, rng)
        got = oracle_interventional(scm, parse_query("p(Y|do(X))"))
        want = input_table(scm, {"Y"}, set(), {"X"})
        # oracle axes are (Y, X); the conditional table axes are (Y, X) too
        assert np.allclose(got, want, atol=1e-12)


def test_bow_graph_effect_differs_from_conditional():
    g = parse_graph("X -> Y\nX <-> Y")
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(100):
        scm = random_scm(g, rng)
        effect = oracle_interventional(scm, parse_query("p(Y|do(X))"))
        naive = input_table(scm, {"Y"}, set(), {"X"})
        if float(abs(effect - naive).max()) > 1e-3:
            hits += 1
    assert hits >= 1
    assert hits > 90  # generic CPTs confound essentially always


def test_oracle_tables_normalize():
    rng = np.random.default_rng(2)
    scm = random_scm(fx.CLUSTER_GRAPH, rng)
    table = oracle_interventional(scm, Query({"Y", "W2"}, {"X"}))
    # sums over outcome axes are one for each intervention setting
    assert np.allclose(table.sum(axis=(0, 1)), 1.0, atol=1e-12)


def test_positivity_violation_detected():
    g = parse_graph("X -> Y")
    cpt_x = np.array([1.0, 0.0])  # X is deterministic
    cpt_y = np.array([[0.5, 0.5], [0.5, 0.5]])
    scm = DiscreteSCM(g, (2, 2), (cpt_x, cpt_y))
    with pytest.raises(EvaluationError, match="positivity"):
        oracle_interventional(scm, parse_query("p(Y|do(X))"))


def test_quotient_division_by_zero_reported():
    g = parse_graph("X -> Y")
    cpt_x = np.array([1.0, 0.0])
    cpt_y = np.array([[0.5, 0.5], [0.5, 0.5]])
    scm = DiscreteSCM(g, (2, 2), (cpt_x, cpt_y))
    f = Quotient(InputRef(0, ("X",)), InputRef(0, ("X",)))
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate_at(f, scm, {"X": 1})


def _degenerate_x():
    """X -> Y with X always 0, so p(X) is zero at X=1."""
    g = parse_graph("X -> Y")
    cpt_y = np.array([[0.3, 0.7], [0.5, 0.5]])
    return DiscreteSCM(g, (2, 2), (np.array([1.0, 0.0]), cpt_y))


# expected values are those of the scalar per-assignment evaluation (oracles.evaluate_scalar)
P_X = InputRef(0, ("X",))
P_Y = InputRef(0, ("Y",))
X_OVER_X_TIMES_Y = Product((Quotient(P_X, P_X), P_Y))


def test_pinned_never_reads_zero_denominator():
    got = evaluate_functional(Pinned(("X",), X_OVER_X_TIMES_Y), _degenerate_x(), Query({"Y"}))
    assert np.allclose(got, [0.3, 0.7], atol=1e-15)


def test_sum_reads_zero_denominator():
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate_functional(SumOver(("X",), X_OVER_X_TIMES_Y), _degenerate_x(), Query({"Y"}))


def test_sum_over_unused_variable_scales_by_card():
    got = evaluate_functional(SumOver(("X",), P_Y), _degenerate_x(), Query({"Y"}))
    assert np.allclose(got, [0.6, 1.4], atol=1e-15)


def test_bound_and_free_uses_of_one_name():
    f = Product((SumOver(("X",), P_X), P_X))
    got = evaluate_functional(f, _degenerate_x(), Query({"X"}))
    assert np.allclose(got, [1.0, 0.0], atol=1e-15)


def test_evaluate_at_raises_only_where_denominator_is_zero():
    scm = _degenerate_x()
    assert evaluate_at(Quotient(P_X, P_X), scm, {"X": 0}) == 1.0
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate_at(Quotient(P_X, P_X), scm, {"X": 1})


def _sparse_scm(g, rng, card):
    """Random CPTs with about a third of the entries zero: positivity fails often."""
    cpts = []
    for i in range(len(g.names)):
        shape = (card,) * (len(list(_iter_bits(g.parent_masks[i]))) + 1)
        raw = rng.uniform(size=shape) * (rng.uniform(size=shape) > 0.35)
        raw[..., 0] += raw.sum(axis=-1) == 0
        cpts.append(raw / raw.sum(axis=-1, keepdims=True))
    return DiscreteSCM(g, (card,) * len(g.names), tuple(cpts))


def _reference_table(f, scm, query):
    """The scalar reference over the query grid, or None when any entry fails."""
    target = sorted(query.y) + sorted(query.x)
    shape = [scm.card(v) for v in target]
    out = np.zeros(shape)
    memo: dict = {}
    try:
        for ix in np.ndindex(*shape):
            out[ix] = oracles.evaluate_scalar(f, scm, dict(zip(target, ix)), memo)
    except (ZeroDivisionError, EvaluationError):
        return None
    return out


def test_evaluate_matches_scalar_reference_on_pipeline_functionals():
    rng = np.random.default_rng(11)
    checked = failed = 0
    for seed in range(60):
        inst = generate_instance(seed)
        f = run_pipeline(inst.graph, inst.inputs, inst.query, SIM_BUDGET).functional
        if f is None:
            continue
        # card 3 only on the first seeds: the reference is slow there
        for card in (2, 3) if seed < 20 else (2,):
            for scm in (random_scm(inst.graph, rng, card), _sparse_scm(inst.graph, rng, card)):
                want = _reference_table(f, scm, inst.query)
                if want is None:
                    failed += 1
                    with pytest.raises(EvaluationError):
                        evaluate_functional(f, scm, inst.query)
                else:
                    checked += 1
                    got = evaluate_functional(f, scm, inst.query)
                    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert checked > 20 and failed > 5, (checked, failed)


def test_evaluate_constant_marginal():
    g = parse_graph("X -> Y")
    rng = np.random.default_rng(4)
    scm = random_scm(g, rng)
    f = InputRef(0, ("Y",))
    got = evaluate_functional(f, scm, Query({"Y"}))
    want = input_table(scm, {"Y"}, set(), set())
    assert np.allclose(got, want, atol=1e-12)


def test_evaluate_rejects_foreign_free_variables():
    g = parse_graph("X -> Y\nZ -> Y")
    rng = np.random.default_rng(5)
    scm = random_scm(g, rng)
    f = InputRef(0, ("Y",), (), ("Z",))
    with pytest.raises(EvaluationError, match="free variables"):
        evaluate_functional(f, scm, parse_query("p(Y|do(X))"))


def test_pinned_fixes_reference_value():
    g = parse_graph("X -> Y")
    rng = np.random.default_rng(6)
    scm = random_scm(g, rng)
    leaf = InputRef(0, ("Y",), (), ("X",))
    pinned = Pinned(("X",), leaf)
    table = input_table(scm, {"Y"}, set(), {"X"})
    assert evaluate_at(pinned, scm, {"Y": 1}) == pytest.approx(float(table[1, 0]))


def test_input_table_conditional_consistency():
    rng = np.random.default_rng(7)
    scm = random_scm(fx.COUNTER_GRAPH, rng)
    joint = input_table(scm, {"X", "Z1"}, set(), set())
    cond = input_table(scm, {"Z1"}, set(), {"X"})
    marg = input_table(scm, {"X"}, set(), set())
    for x in range(2):
        for z in range(2):
            assert joint[x, z] == pytest.approx(float(cond[z, x] * marg[x]))


def test_multivalued_domains():
    g = parse_graph("X -> Y")
    rng = np.random.default_rng(8)
    scm = random_scm(g, rng, card=3)
    table = oracle_interventional(scm, parse_query("p(Y|do(X))"))
    assert table.shape == (3, 3)
    assert np.allclose(table.sum(axis=0), 1.0)


def _random_queries(rng, n_graphs, n_obs, p_edge, roles):
    """(graph, a, b, c) with a nonempty; each vertex draws its role from ``roles``."""
    for _ in range(n_graphs):
        g = oracles.random_dag(rng, n_obs, p_edge, n_latents=int(rng.integers(0, 3)))
        names = sorted(g.observed)
        for _ in range(4):
            role = rng.choice(len(roles), size=len(names), p=roles)
            a, b, c = ({v for v, r in zip(names, role) if r == k} for k in range(3))
            if a:
                yield g, a, b, c


def test_tables_match_the_full_grid():
    rng = np.random.default_rng(21)
    checked = 0
    for g, a, b, c in _random_queries(rng, 60, 6, 0.4, [0.3, 0.2, 0.2, 0.3]):
        assert len(g.names) <= 8
        for card in (2, 3):
            scm = random_scm(g, rng, card)
            want = oracles.full_grid_table(scm, a, b, c)
            assert np.allclose(input_table(scm, a, b, c), want, rtol=0, atol=1e-12)
            want = oracles.full_grid_table(scm, a, b, set())
            got = oracle_interventional(scm, Query(a, b))
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            checked += 1
    assert checked > 300


def test_input_table_stays_within_the_ancestors():
    """Neither the cache nor the work grid of a table outgrows An(a, b, c)."""
    rng = np.random.default_rng(22)
    smaller = 0
    for g, a, b, c in _random_queries(rng, 30, 14, 0.15, [0.1, 0.05, 0.05, 0.8]):
        scm = random_scm(g, rng)
        an = a | b | c
        an |= oracles.reach_oracle(g, an, "ancestors")
        bound = math.prod(scm.card(v) for v in an)
        tracemalloc.start()
        try:
            input_table(scm, a, b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(arr.size <= bound for arr in scm._cache.values())
        # a few arrays of the ancestral grid plus interpreter bookkeeping
        assert peak <= 4 * 8 * bound + (1 << 15), (g, a, b, c, peak, bound)
        smaller += 8 * math.prod(scm.cards) > 4 * (4 * 8 * bound + (1 << 15))
    assert smaller > 30  # the full grid would not fit the bound there
