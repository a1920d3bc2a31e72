"""End-to-end orchestration: prune, cluster, identify, certify, lift.

The full run prunes first, then looks for transit clusters in the reduced
graph, identifies in the most reduced problem, and maps results back: an
identifying functional is lifted through every clustering and then through
the pruning; a negative search outcome is promoted to a verdict about the
original problem only when every applied clustering certifies invariance
(pruning steps that applied are invariant by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import apply_cluster, check_single_layer, enumerate_transit_clusters
from .distributions import Query, cluster_inputs
from .graph import CausalGraph, GraphError
from .identify import (
    BUDGET_EXCEEDED,
    IDENTIFIED,
    IdentifyResult,
    SearchBudget,
    identify,
    lift_functional_clustering,
    lift_functional_pruning,
)
from .invariance import NON_IDENTIFIABLE, InvarianceVerdict, verify_inputs
from .pruning import PruneResult, prune_all


@dataclass(frozen=True)
class AppliedCluster:
    members: frozenset
    t_name: str
    graph_before: CausalGraph  # graph the cluster was formed in
    graph_after: CausalGraph
    inputs_before: tuple
    inputs_after: tuple
    mapping: object


@dataclass(frozen=True)
class PipelineResult:
    status: str  # identified | non_identifiable | undetermined | budget_exceeded
    query: Query
    functional: object | None = None          # in terms of the original inputs
    reduced_functional: object | None = None  # in terms of the reduced problem
    prune: PruneResult | None = None
    clusters: tuple = ()
    search: IdentifyResult | None = None
    invariance: tuple = ()

    @property
    def decided(self) -> bool:
        return self.status in ("identified", "non_identifiable")


def _select_clusters(g, inputs, query, requested=None, auto=True):
    """Requested clusters, or greedy largest non-overlapping compatible ones."""
    picked = []
    if requested:
        for name, members in requested:
            picked.append((frozenset(members), name))
        return picked
    if not auto or not g.is_connected():
        return []
    try:
        found = enumerate_transit_clusters(g)
    except GraphError:
        return []
    found = sorted(found, key=lambda c: (-len(c.members), tuple(sorted(c.members))))
    taken: set = set()
    blocked = query.x | query.y
    names_used = set(g.names)
    k = 0
    for cand in found:
        if cand.members & blocked or cand.members & taken:
            continue
        trial = cluster_inputs(inputs, cand.members, "_probe", g)
        if not trial.compatible:
            continue
        k += 1
        while f"T{k}" in names_used:
            k += 1
        picked.append((cand.members, f"T{k}"))
        names_used.add(f"T{k}")
        taken |= cand.members
    return picked


def run_pipeline(
    g: CausalGraph,
    inputs,
    query: Query,
    budget: SearchBudget | None = None,
    *,
    prune: bool = True,
    cluster: bool = True,
    requested_clusters=None,
) -> PipelineResult:
    inputs = tuple(inputs)
    budget = budget or SearchBudget()

    if prune:
        pruned = prune_all(g, inputs, query)
    else:
        pruned = PruneResult(g, inputs, query, (), tuple(range(len(inputs))))
    cur_g, cur_inputs, cur_q = pruned.graph, pruned.inputs, pruned.query

    applied = []
    if cluster:
        wanted = _select_clusters(
            cur_g, cur_inputs, cur_q, requested_clusters, auto=requested_clusters is None
        )
        seen: set = set()
        for members, t_name in wanted:
            if members & seen:
                raise GraphError(f"clusters overlap on {sorted(members & seen)}")
            seen |= members
        for members, t_name in wanted:
            if members & (cur_q.x | cur_q.y):
                raise GraphError("cluster intersects the query")
            try:
                result = cluster_inputs(cur_inputs, members, t_name, cur_g)
            except GraphError:
                # an earlier clustering may have invalidated this candidate
                if requested_clusters:
                    raise
                continue
            if not result.compatible:
                if requested_clusters:
                    raise GraphError(f"incompatible cluster {t_name}: {result.reason}")
                continue
            g2 = apply_cluster(cur_g, members, t_name)
            applied.append(
                AppliedCluster(
                    frozenset(members), t_name, cur_g, g2, cur_inputs,
                    result.inputs, result.mapping,
                )
            )
            cur_g, cur_inputs = g2, result.inputs

    search = identify(cur_g, cur_inputs, cur_q, budget)

    if search.status == IDENTIFIED:
        reduced = search.functional
        lifted = reduced
        for ac in reversed(applied):
            lifted = lift_functional_clustering(lifted, ac.mapping)
        lifted = lift_functional_pruning(lifted, pruned)
        return PipelineResult(
            "identified", query, lifted, reduced, pruned, tuple(applied), search
        )

    if search.status == BUDGET_EXCEEDED:
        return PipelineResult(
            "budget_exceeded", query, None, None, pruned, tuple(applied), search
        )

    # saturated without identification: promote through the clusterings
    verdicts = []
    for ac in reversed(applied):
        label = ",".join(sorted(ac.members))
        if check_single_layer(ac.graph_before, ac.members):
            verdicts.append(InvarianceVerdict(NON_IDENTIFIABLE, "single_layer", label))
        else:
            res = verify_inputs(ac.graph_after, ac.inputs_after, ac.t_name)
            verdicts.append(InvarianceVerdict.from_verify(res, label))
    all_certified = all(v.status == NON_IDENTIFIABLE for v in verdicts)
    status = "non_identifiable" if all_certified else "undetermined"
    return PipelineResult(
        status, query, None, None, pruned, tuple(applied), search, tuple(verdicts)
    )
