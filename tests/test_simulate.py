import numpy as np

from dofuse import (
    SearchBudget,
    check_single_layer,
    cluster_inputs,
    identify,
    is_transit_cluster,
    relations,
    verify_inputs,
)
from dofuse.pipeline import _cluster
from dofuse.simulate import (
    InstanceRecord,
    generate_instance,
    records_csv,
    run_campaign,
    simulate_instance,
    summarize,
)


def test_generation_deterministic():
    a = generate_instance(123)
    b = generate_instance(123)
    assert a.clustered_graph == b.clustered_graph
    assert a.graph == b.graph
    assert a.cluster_members == b.cluster_members
    assert a.inputs == b.inputs
    assert a.clustered_inputs == b.clustered_inputs
    c = generate_instance(124)
    assert (a.graph, a.inputs) != (c.graph, c.inputs)


def test_generated_topology_invariants():
    for seed in range(40):
        inst = generate_instance(seed)
        order = inst.clustered_graph.topological_order()
        assert order[-1] == "Y"
        assert inst.order[0] != "X" and inst.order[-1] == "Y"
        ancestors = relations(inst.clustered_graph, {"Y"}, "ancestors")
        assert ancestors == inst.clustered_graph.observed - {"Y"}
        assert 5 <= len(inst.clustered_graph.observed) <= 8
        assert 6 <= len(inst.graph.observed) <= 12


def test_generated_cluster_always_verifies():
    for seed in range(60):
        inst = generate_instance(seed)
        assert is_transit_cluster(inst.graph, inst.cluster_members).ok, seed
        _, em = _rec_em(inst)
        assert em == frozenset(inst.emitters)


def _rec_em(inst):
    from dofuse import receivers_emitters

    return receivers_emitters(inst.graph, inst.cluster_members)


def test_generated_inputs_always_compatible():
    for seed in range(60):
        inst = generate_instance(seed)
        res = cluster_inputs(
            inst.inputs, inst.cluster_members, inst.cluster_vertex, inst.graph
        )
        assert res.compatible, seed
        assert res.inputs == inst.clustered_inputs
        members = frozenset(inst.cluster_members)
        ac = _cluster(inst.graph, inst.inputs, members, inst.cluster_vertex)
        assert ac.graph_after == inst.clustered_graph, seed
        assert not check_single_layer(inst.graph, members), seed


def test_setting_matches_direct_classification():
    """The pipeline's verdict sorts records as searching and verifying the
    generated clustered problem directly does."""
    budget = SearchBudget(3000, 20)
    for seed in range(20):
        inst = generate_instance(seed)
        search = identify(inst.clustered_graph, inst.clustered_inputs, inst.query, budget)
        if search.status == "budget_exceeded":
            expected = None
        elif search.identified:
            expected = "A"
        else:
            verified = verify_inputs(
                inst.clustered_graph, inst.clustered_inputs, inst.cluster_vertex
            )
            expected = "B" if verified.ok else "C"
        assert simulate_instance(seed, budget=budget).setting == expected, seed


def test_record_reproducible_excluding_durations():
    budget = SearchBudget(3000, 20)
    r1 = simulate_instance(7, budget=budget)
    r2 = simulate_instance(7, budget=budget)
    assert (r1.seed, r1.graph_size, r1.n_inputs, r1.setting, r1.discarded) == (
        r2.seed, r2.graph_size, r2.n_inputs, r2.setting, r2.discarded
    )


def test_campaign_and_summary():
    budget = SearchBudget(3000, 20)
    records, summary = run_campaign(12, base_seed=100, budget=budget)
    assert len(records) == 12
    assert summary["instances"] == 12
    live = [r for r in records if not r.discarded]
    assert sum(summary["settings"].values()) == len(live)
    # recompute one summary row by hand
    for row in summary["rows"]:
        group = [
            r for r in live
            if r.graph_size == row["graph_size"] and r.setting == row["setting"]
        ]
        assert row["n"] == len(group)
        diffs = sorted((r.t_unclustered_ms - r.t_clustered_ms) / 1000.0 for r in group)
        assert row["median_diff_s"] == float(np.median(diffs))


def test_worker_count_does_not_change_classifications():
    budget = SearchBudget(3000, 20)
    serial, _ = run_campaign(6, base_seed=50, workers=1, budget=budget)
    parallel, _ = run_campaign(6, base_seed=50, workers=2, budget=budget)
    for a, b in zip(serial, parallel):
        assert (a.seed, a.setting, a.graph_size, a.n_inputs, a.discarded) == (
            b.seed, b.setting, b.graph_size, b.n_inputs, b.discarded
        )


def test_csv_shape():
    records = [
        InstanceRecord(1, 8, 2, "A", 10.0, 5.0),
        InstanceRecord(2, 9, 3, None, 1.0, 0.0, discarded=True, t1_capped=True),
    ]
    lines = records_csv(records).strip().splitlines()
    assert lines[0] == (
        "seed,graph_size,n_inputs,setting,t_unclustered_ms,t_clustered_ms,t1_capped"
    )
    assert lines[1].startswith("1,8,2,A,") and lines[1].endswith(",0")
    assert lines[2].endswith(",1")
    assert "discarded" in lines[2]


def test_summary_counts_discarded():
    records = [
        InstanceRecord(1, 8, 2, "A", 10.0, 5.0),
        InstanceRecord(2, 9, 3, None, 1.0, 0.0, discarded=True, t1_capped=True),
    ]
    s = summarize(records)
    assert s["discarded"] == 1
    assert s["t1_capped"] == 1
    assert s["settings"]["A"] == 1
