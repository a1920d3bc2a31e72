"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The report lines are emitted with capture disabled so they always reach the
terminal, whatever capture mode pytest runs under.
"""

import time

import numpy as np
import pytest

from dofuse import (
    Query,
    SearchBudget,
    apply_cluster,
    cluster_inputs,
    decide_invariance,
    evaluate_functional,
    identify,
    is_transit_cluster,
    lift_functional_clustering,
    lift_functional_pruning,
    oracle_interventional,
    parse_distribution,
    parse_query,
    prune_all,
    random_scm,
    verify_inputs,
)
from dofuse.functional import InputRef, Product, SumOver
from dofuse.invariance import NON_IDENTIFIABLE, UNDETERMINED
from dofuse.pipeline import run_pipeline
from dofuse.simulate import SIM_BUDGET, generate_instance, run_campaign, simulate_instance

import oracles
import fixtures as fx


@pytest.fixture
def report(capfd):
    def _report(num: int, ok: bool, detail: str):
        with capfd.disabled():
            print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _report


def _max_err(functional, graph, query, n_models, seed, against=None):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        scm = random_scm(graph, rng)
        want = (
            oracle_interventional(scm, query)
            if against is None
            else evaluate_functional(against, scm, query)
        )
        got = evaluate_functional(functional, scm, query)
        worst = max(worst, float(abs(want - got).max()))
    return worst


def test_criterion_1_prune_pipeline(report):
    t0 = time.perf_counter()
    res = prune_all(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    by_theorem = {}
    for s in res.steps:
        if s.removed:
            by_theorem.setdefault(s.theorem, set()).update(s.removed)
    stages_ok = by_theorem == {
        "non_ancestors": {"Z4", "Z5"},
        "post_intervention": {"Z1", "Z2", "Z3"},
        "isolated": {"Z6", "Z7"},
    }
    search = identify(res.graph, res.inputs, res.query)
    lifted = lift_functional_pruning(search.functional, res) if search.identified else None
    err = _max_err(lifted, fx.PRUNE_GRAPH, fx.PRUNE_QUERY, 200, seed=101) if lifted else np.inf
    elapsed = time.perf_counter() - t0
    ok = stages_ok and search.identified and err <= 1e-9 and elapsed < 5.0
    report(
        1, ok,
        f"stages {'ok' if stages_ok else by_theorem}, search {search.status}, "
        f"max err {err:.2e} over 200 models, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_cluster_cases(report):
    t0 = time.perf_counter()
    g1 = apply_cluster(fx.CLUSTER_GRAPH, fx.CLUSTER_S, "S")
    g2 = apply_cluster(g1, fx.CLUSTER_T, "T")

    inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES["i"])
    c1 = cluster_inputs(inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
    c2 = cluster_inputs(c1.inputs, fx.CLUSTER_T, "T", g1)
    search = identify(g2, c2.inputs, fx.CLUSTER_QUERY)
    reference = SumOver(
        ("S", "T"),
        Product(
            (
                InputRef(0, ("S",), (), ("X",)),
                InputRef(1, ("T",)),
                InputRef(1, ("Y",), (), ("S", "T")),
            )
        ),
    )
    form_err = (
        _max_err(search.functional, g2, fx.CLUSTER_QUERY, 50, seed=7, against=reference)
        if search.identified
        else np.inf
    )
    lifted = lift_functional_clustering(search.functional, c2.mapping)
    lifted = lift_functional_clustering(lifted, c1.mapping)
    lift_err = _max_err(lifted, fx.CLUSTER_GRAPH, fx.CLUSTER_QUERY, 50, seed=8)

    negatives_ok = True
    details = []
    for case in ("ii", "iii", "iv"):
        case_inputs = tuple(parse_distribution(s) for s in fx.CLUSTER_CASES[case])
        cs = cluster_inputs(case_inputs, fx.CLUSTER_S, "S", fx.CLUSTER_GRAPH)
        graph, current = g1, cs.inputs
        ct = cluster_inputs(current, fx.CLUSTER_T, "T", g1)
        if ct.compatible:
            graph, current = g2, ct.inputs
        r = identify(graph, current, fx.CLUSTER_QUERY)
        v = verify_inputs(graph, current, "S")
        verdict = decide_invariance(
            fx.CLUSTER_GRAPH, case_inputs, fx.CLUSTER_S, fx.CLUSTER_QUERY,
            clustered_identifiable=False, t_name="S",
        )
        good = (
            r.status == "exhausted_not_identified"
            and v.ok
            and verdict.status == NON_IDENTIFIABLE
        )
        negatives_ok &= good
        details.append(f"({case}) {r.status.split('_')[0]}/{v.ok}")
    elapsed = time.perf_counter() - t0
    ok = (
        search.identified and form_err <= 1e-9 and lift_err <= 1e-9
        and negatives_ok and elapsed < 10.0
    )
    report(
        2, ok,
        f"case (i) form err {form_err:.2e}, lifted err {lift_err:.2e}; "
        f"{' '.join(details)}; {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_verification_regressions(report):
    reference = SumOver(
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
    joint = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y,Z1,Z2)"))
    search = identify(fx.COUNTER_GRAPH, joint, fx.COUNTER_QUERY)
    err = (
        max(
            _max_err(search.functional, fx.COUNTER_GRAPH, fx.COUNTER_QUERY, 50, seed=21),
            _max_err(
                search.functional, fx.COUNTER_GRAPH, fx.COUNTER_QUERY, 50, seed=22,
                against=reference,
            ),
        )
        if search.identified
        else np.inf
    )

    g2 = apply_cluster(fx.COUNTER_GRAPH, fx.COUNTER_CLUSTER, "Z")
    cj = cluster_inputs(joint, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    vj = verify_inputs(g2, cj.inputs, "Z")
    line7_ok = not vj.ok and vj.failing_line == 7 and vj.failing_input == 1

    cond = (parse_distribution("p(X,Z1,Z2)"), parse_distribution("p(Y|Z1,Z2)"))
    cc = cluster_inputs(cond, fx.COUNTER_CLUSTER, "Z", fx.COUNTER_GRAPH)
    vc = verify_inputs(g2, cc.inputs, "Z")
    line9_ok = not vc.ok and vc.failing_line == 9

    no_false_positive = True
    for case_inputs in (joint, cond):
        verdict = decide_invariance(
            fx.COUNTER_GRAPH, case_inputs, fx.COUNTER_CLUSTER, fx.COUNTER_QUERY,
            clustered_identifiable=False, t_name="Z",
        )
        no_false_positive &= verdict.status == UNDETERMINED

    ok = search.identified and err <= 1e-9 and line7_ok and line9_ok and no_false_positive
    report(
        3, ok,
        f"original identified (err {err:.2e}), line7 {line7_ok}, line9 {line9_ok}, "
        f"no false invariance {no_false_positive}",
    )


def _reference_tobacco_s():
    # sum over c, e, m, o of p(s|do(o),c) p(c|e,m,o,r) p(e,m,o)
    return SumOver(
        ("C", "E", "M", "O"),
        Product(
            (
                InputRef(1, ("S",), ("O",), ("C",)),
                InputRef(0, ("C",), (), ("E", "M", "O", "R")),
                InputRef(0, ("E", "M", "O")),
            )
        ),
    )


def _reference_tobacco_g():
    # sum over d, o, s of p(o) p(d,s|do(o),c) sum over c' of p(c'|do(o)) p(g|do(o),c',d,s)
    inner = SumOver(
        ("C",),
        Product(
            (
                InputRef(1, ("C",), ("O",)),
                InputRef(1, ("G",), ("O",), ("C", "D", "S")),
            )
        ),
    )
    return SumOver(
        ("D", "O", "S"),
        Product(
            (
                InputRef(0, ("O",)),
                InputRef(1, ("D", "S"), ("O",), ("C",)),
                inner,
            )
        ),
    )


def test_criterion_4_tobacco(report):
    t0 = time.perf_counter()
    details = []
    ok = True

    q_s = parse_query("p(S|do(R))")
    res_s = run_pipeline(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, q_s)
    err_s = (
        max(
            _max_err(res_s.functional, fx.TOBACCO_GRAPH, q_s, 20, seed=31),
            _max_err(
                res_s.functional, fx.TOBACCO_GRAPH, q_s, 20, seed=32,
                against=_reference_tobacco_s(),
            ),
        )
        if res_s.status == "identified"
        else np.inf
    )
    ok &= res_s.status == "identified" and err_s <= 1e-9
    details.append(f"p(s|do(r)) {res_s.status} err {err_s:.2e}")

    q_b = parse_query("p(B|do(R))")
    res_b = run_pipeline(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, q_b)
    prunes_applied = all(s.applied for s in res_b.prune.steps)
    ok &= res_b.status == "non_identifiable" and prunes_applied
    details.append(f"p(b|do(r)) {res_b.status} (pruning invariant: {prunes_applied})")

    q_g = parse_query("p(G|do(C))")
    res_g = run_pipeline(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, q_g)
    err_g = (
        max(
            _max_err(res_g.functional, fx.TOBACCO_GRAPH, q_g, 20, seed=33),
            _max_err(
                res_g.functional, fx.TOBACCO_GRAPH, q_g, 20, seed=34,
                against=_reference_tobacco_g(),
            ),
        )
        if res_g.status == "identified"
        else np.inf
    )
    ok &= res_g.status == "identified" and err_g <= 1e-9
    details.append(f"p(g|do(c)) {res_g.status} err {err_g:.2e}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, ok, f"{'; '.join(details)}; {elapsed:.1f}s (< 60s)")


def test_criterion_5_atherosclerosis(report):
    q_l = parse_query("p(Y|do(L))")
    q_h = parse_query("p(Y|do(H))")
    rows_ok = []

    # row 1: conditional baseline data; not identifiable, all clusters invariant
    i1 = (parse_distribution("p(Y,L,H,S,M|B)"),)
    r1 = identify(fx.ATHERO_GRAPH, i1, q_l)
    inv1 = all(verify_inputs(fx.ATHERO_GRAPH, i1, t).ok for t in ("B", "H", "M"))
    rows_ok.append(r1.status == "exhausted_not_identified" and inv1)

    # row 2: joint baseline data; identifiable, lifted to the two-vertex group
    i2 = (parse_distribution("p(Y,L,H,S,M,B)"),)
    r2 = identify(fx.ATHERO_GRAPH, i2, q_l)
    row2 = r2.identified
    if row2:
        reference = SumOver(
            ("B",),
            Product((InputRef(0, ("B",)), InputRef(0, ("Y",), (), ("B", "L")))),
        )
        row2 &= _max_err(r2.functional, fx.ATHERO_GRAPH, q_l, 30, seed=41, against=reference) <= 1e-9
        b_pre = apply_cluster(
            apply_cluster(fx.ATHERO_EXPANDED, fx.ATHERO_H, "H"), fx.ATHERO_M, "M"
        )
        cb = cluster_inputs(
            (parse_distribution("p(Y,L,H,S,M,B1,B2)"),), fx.ATHERO_B, "B", b_pre
        )
        lifted = lift_functional_clustering(r2.functional, cb.mapping)
        row2 &= _max_err(lifted, b_pre, q_l, 30, seed=42) <= 1e-9
    rows_ok.append(row2)

    # row 3: two sources; not identifiable, invariance only for B
    i3 = (parse_distribution("p(B,M,S,Y)"), parse_distribution("p(B,H,M,S)"))
    r3 = identify(fx.ATHERO_GRAPH, i3, q_h)
    v_b = verify_inputs(fx.ATHERO_GRAPH, i3, "B")
    v_m = verify_inputs(fx.ATHERO_GRAPH, i3, "M")
    m_inputs = (
        parse_distribution("p(B,M1,M2,S,Y)"),
        parse_distribution("p(B,H,M1,M2,S)"),
    )
    verdict_m = decide_invariance(
        fx.ATHERO_REFINED_M, m_inputs, fx.ATHERO_M, q_h,
        clustered_identifiable=False, t_name="M",
    )
    rows_ok.append(
        r3.status == "exhausted_not_identified"
        and v_b.ok
        and not v_m.ok
        and verdict_m.status == UNDETERMINED
    )

    # row 4: refined group; identifiable, matches the reference expression
    r4 = identify(fx.ATHERO_REFINED_M, m_inputs, q_h)
    row4 = r4.identified
    if row4:
        left = SumOver(
            ("M1",),
            Product(
                (
                    InputRef(0, ("B", "S")),
                    InputRef(1, ("M1", "M2"), (), ("B", "H", "S")),
                )
            ),
        )
        right = SumOver(
            ("M1",),
            Product(
                (
                    InputRef(0, ("M1",), (), ("B", "S")),
                    InputRef(0, ("Y",), (), ("B", "M1", "M2", "S")),
                )
            ),
        )
        reference4 = SumOver(("B", "M2", "S"), Product((left, right)))
        row4 &= (
            _max_err(r4.functional, fx.ATHERO_REFINED_M, q_h, 30, seed=43, against=reference4)
            <= 1e-9
        )
    rows_ok.append(row4)

    ok = all(rows_ok)
    report(5, ok, f"rows {['PASS' if r else 'FAIL' for r in rows_ok]}")


def test_criterion_6_property_suites(report):
    rng = np.random.default_rng(2026)
    failures = []

    # d-separation vs the path-enumeration oracle
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(4, 9))
        g = oracles.random_dag(rng, n, 0.35, n_latents=int(rng.integers(0, 3)))
        obs = sorted(g.observed)
        k = int(rng.integers(3, min(5, n) + 1))
        picks = [obs[i] for i in rng.choice(n, size=k, replace=False)]
        x, y = {picks[0]}, {picks[1]}
        z = set(picks[2:])
        from dofuse import d_separated

        if d_separated(g, x, y, z) != oracles.dsep_paths_oracle(g, x, y, z):
            bad += 1
    failures.append(("dsep", bad))

    # Lemma: clusters survive edge cuts
    bad = 0
    trials = 0
    while trials < 1000:
        g = oracles.random_connected_dag(rng, int(rng.integers(5, 7)), 0.45, n_latents=int(rng.integers(0, 2)))
        from dofuse import enumerate_transit_clusters, edge_cut

        clusters = enumerate_transit_clusters(g)
        if not clusters:
            continue
        trials += 1
        pick = clusters[int(rng.integers(len(clusters)))]
        obs = sorted(g.observed)
        mode = int(rng.integers(3))
        members_obs = sorted(pick.members & g.observed)
        others = [v for v in obs if v not in pick.members]
        rng.shuffle(others)
        half = len(others) // 2
        if mode == 0 and not pick.members & g.latents:
            z, w = set(members_obs), set(others[:half])
        elif mode == 1 and not pick.members & g.latents:
            z, w = set(others[:half]), set(members_obs)
        else:
            z, w = set(others[:half]), set(others[half:])
        cut = edge_cut(g, z, w)
        if not is_transit_cluster(cut, pick.members, require_connected=False).ok:
            bad += 1
    failures.append(("lemma_cut", bad))

    # Lemma: d-separation transfers through clustering
    bad = 0
    trials = 0
    while trials < 1000:
        g = oracles.random_connected_dag(rng, int(rng.integers(5, 7)), 0.45, n_latents=int(rng.integers(0, 2)))
        from dofuse import enumerate_transit_clusters, d_separated

        clusters = [
            c for c in enumerate_transit_clusters(g) if not c.emitters & g.latents
        ]
        if not clusters:
            continue
        pick = clusters[int(rng.integers(len(clusters)))]
        g2 = apply_cluster(g, pick.members, "TT")
        obs2 = sorted(g2.observed)
        if len(obs2) < 2:
            continue
        k = int(rng.integers(2, min(5, len(obs2)) + 1))
        picks = [obs2[i] for i in rng.choice(len(obs2), size=k, replace=False)]
        xp, yp = {picks[0]}, {picks[1]}
        zp = set(picks[2:])
        trials += 1
        sub = lambda s: frozenset().union(
            *(pick.members & g.observed if v == "TT" else {v} for v in s)
        ) if s else frozenset()
        if d_separated(g2, xp, yp, zp) != d_separated(g, sub(xp), sub(yp), sub(zp)):
            bad += 1
    failures.append(("lemma_dsep", bad))

    # pruning preserves the interventional distribution
    from dofuse import prune_non_ancestors, prune_post_intervention, prune_isolated

    bad = 0
    applied = 0
    for _ in range(1000):
        n = int(rng.integers(5, 8))
        g = oracles.random_dag(rng, n, 0.35, n_latents=int(rng.integers(0, 3)))
        obs = sorted(g.observed)
        order = g.topological_order()
        y = next(v for v in reversed(order) if v in g.observed)
        xs = [v for v in obs if v != y]
        x = set(
            xs[i] for i in rng.choice(len(xs), size=int(rng.integers(1, 3)), replace=False)
        )
        q = Query({y}, x)
        scm = random_scm(g, rng)
        base = oracle_interventional(scm, q)
        step1 = prune_non_ancestors(g, (), q)
        stages = [step1]
        if step1.applied:
            stages.append(prune_post_intervention(step1.graph, (), step1.query))
            stages.append(prune_isolated(step1.graph, (), step1.query))
        prev_q = q
        for step in stages:
            if not (step.applied and step.removed):
                continue
            applied += 1
            fresh = {
                v
                for v in step.query.x
                if oracles.full_adjacency(step.graph)[0][v]
                != oracles.full_adjacency(g)[0][v]
            }
            scm2 = oracles.induce_pruned_scm(scm, step.graph, fresh, rng)
            pruned_effect = oracle_interventional(scm2, step.query)
            want = base
            if step.query.x != prev_q.x:
                want = oracle_interventional(scm, step.query)
            if float(abs(want - pruned_effect).max()) > 1e-9:
                bad += 1
    failures.append(("pruning", bad))

    # identify soundness on random small instances
    bad = 0
    identified = 0
    budget = SearchBudget(4000, 12)
    for trial in range(1000):
        n = int(rng.integers(4, 6))
        g = oracles.random_dag(rng, n, 0.45, n_latents=int(rng.integers(0, 2)))
        obs = sorted(g.observed)
        picks = [obs[i] for i in rng.choice(n, size=2, replace=False)]
        q = Query({picks[0]}, {picks[1]})
        inputs = []
        for _ in range(int(rng.integers(1, 3))):
            roles = rng.integers(0, 4, size=n)
            a = {obs[i] for i in range(n) if roles[i] == 0}
            b = {obs[i] for i in range(n) if roles[i] == 1}
            c = {obs[i] for i in range(n) if roles[i] == 2}
            if a:
                inputs.append(parse_distribution(
                    f"p({','.join(sorted(a))}"
                    + (f"|do({','.join(sorted(b))})" if b else "")
                    + (f",{','.join(sorted(c))}" if b and c else (f"|{','.join(sorted(c))}" if c else ""))
                    + ")"
                ))
        if not inputs:
            continue
        r = identify(g, tuple(inputs), q, budget)
        if not r.identified:
            continue
        identified += 1
        scm = random_scm(g, rng)
        err = float(
            abs(oracle_interventional(scm, q) - evaluate_functional(r.functional, scm, q)).max()
        )
        if err > 1e-9:
            bad += 1
    failures.append(("identify", bad))

    ok = all(b == 0 for _, b in failures)
    summary = ", ".join(f"{name}: {b} violations" for name, b in failures)
    report(6, ok, f"{summary} (identified {identified}, prunes {applied})")


@pytest.mark.slow
def test_criterion_7_campaign(report):
    t0 = time.perf_counter()
    records, summary = run_campaign(2000, base_seed=0, workers=1, budget=SIM_BUDGET)
    elapsed = time.perf_counter() - t0

    counts = summary["settings"]
    live = sum(counts.values())
    shares = {k: 100.0 * v / live for k, v in counts.items()}
    band_ok = (
        abs(shares["A"] - 27.2) <= 15
        and abs(shares["B"] - 37.5) <= 15
        and abs(shares["C"] - 35.3) <= 15
    )
    all_occur = all(counts[s] > 0 for s in "ABC")

    redo = [simulate_instance(records[i].seed, budget=SIM_BUDGET) for i in (3, 499, 1201)]
    reproducible = all(
        (r.setting, r.graph_size, r.n_inputs) == (records[r.seed].setting, records[r.seed].graph_size, records[r.seed].n_inputs)
        for r in redo
    )

    structure_ok = True
    for seed in range(0, 300, 3):
        inst = generate_instance(seed)
        if not is_transit_cluster(inst.graph, inst.cluster_members).ok:
            structure_ok = False
            break
        res = cluster_inputs(inst.inputs, inst.cluster_members, inst.cluster_vertex, inst.graph)
        if not res.compatible or res.inputs != inst.clustered_inputs:
            structure_ok = False
            break

    ok = (
        elapsed < 1800
        and all_occur
        and band_ok
        and reproducible
        and structure_ok
    )
    report(
        7, ok,
        f"2000 instances in {elapsed/60:.1f} min (< 30), shares "
        f"A {shares['A']:.1f}% B {shares['B']:.1f}% C {shares['C']:.1f}% "
        f"(band ±15 of 27.2/37.5/35.3), discarded {summary['discarded']}, "
        f"reproducible {reproducible}, generated structures valid {structure_ok}",
    )
