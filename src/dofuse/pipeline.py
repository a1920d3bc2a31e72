"""End-to-end orchestration: prune, cluster, identify, certify, lift.

The full run prunes first, then looks for transit clusters in the reduced
graph, identifies in the most reduced problem, and maps results back: an
identifying functional is lifted through every clustering and then through
the pruning; a negative search outcome is promoted to a verdict about the
original problem only when every applied clustering certifies invariance
(pruning steps that applied are invariant by construction).

Clustering is one stage here: ``_cluster`` forms a clustered problem,
``_certify`` promotes a negative verdict through it, and ``_transfer`` maps a
clustered search to a verdict about the graph before it. ``run_pipeline``,
``decide_invariance``, ``dofuse invariance`` and the simulation campaign are
built on these. Layer functions are called through this module's globals, so
they can be wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

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
from .invariance import IDENTIFIABLE, NON_IDENTIFIABLE, UNDETERMINED, InvarianceVerdict
from .invariance import verify_inputs
from .pruning import PruneResult, prune_all


@dataclass(frozen=True)
class AppliedCluster:
    members: frozenset
    t_name: str
    graph_before: CausalGraph  # graph the cluster was formed in
    graph_after: CausalGraph
    inputs_after: tuple
    mapping: object

    @property
    def label(self) -> str:
        return ",".join(sorted(self.members))


@dataclass(frozen=True)
class PipelineResult:
    status: str  # identified | non_identifiable | undetermined | budget_exceeded
    query: Query
    functional: object | None = None          # in terms of the original inputs
    prune: PruneResult | None = None
    clusters: tuple = ()
    search: IdentifyResult | None = None
    invariance: tuple = ()

    @property
    def decided(self) -> bool:
        return self.status in ("identified", "non_identifiable")


def _cluster(g: CausalGraph, inputs, members: frozenset, t_name: str):
    """``AppliedCluster`` of ``members`` as ``t_name``, or why the inputs refuse it.

    Raises ``GraphError`` when ``members`` is not a transit cluster of ``g``.
    """
    result = cluster_inputs(inputs, members, t_name, g)
    if not result.compatible:
        return result.reason
    g2 = apply_cluster(g, members, t_name)
    return AppliedCluster(members, t_name, g, g2, result.inputs, result.mapping)


def _certify(ac: AppliedCluster) -> InvarianceVerdict:
    """Whether a negative verdict after clustering ``ac`` holds before it too."""
    if check_single_layer(ac.graph_before, ac.members):
        return InvarianceVerdict(NON_IDENTIFIABLE, "single_layer", ac.label)
    res = verify_inputs(ac.graph_after, ac.inputs_after, ac.t_name)
    if res.ok:
        return InvarianceVerdict(NON_IDENTIFIABLE, "verified_inputs", ac.label, res)
    return InvarianceVerdict(UNDETERMINED, "verify_inputs_false", ac.label, res)


def _transfer(ac: AppliedCluster, search: IdentifyResult) -> InvarianceVerdict:
    """Verdict before clustering ``ac``, given the search ``search`` after it."""
    if search.status == IDENTIFIED:
        return InvarianceVerdict(IDENTIFIABLE, "identifiable_transfer", ac.label)
    if search.status == BUDGET_EXCEEDED:
        return InvarianceVerdict(UNDETERMINED, "clustered_search_capped", ac.label)
    return _certify(ac)


def _apply_clusters(g, inputs, query: Query, requested=None) -> tuple:
    """The requested clusters, or greedily the largest compatible transit ones.

    One refusal path: a cluster that overlaps an earlier one, meets the
    query, is not a transit cluster of the graph so far or whose inputs are
    incompatible raises ``GraphError``. A requested cluster passes it on to
    the caller; an automatic candidate is skipped. An automatic name is the
    first free ``T{k}``.
    """
    auto = requested is None
    if auto:
        try:
            found = enumerate_transit_clusters(g)
        except GraphError:  # disconnected, or over the enumeration guard
            found = []
        found.sort(key=lambda c: (-len(c.members), tuple(sorted(c.members))))
        requested = [(None, c.members) for c in found]
    applied, taken, used = [], frozenset(), set(g.names)
    for t_name, members in requested:
        t_name = t_name or next(f"T{k}" for k in count(1) if f"T{k}" not in used)
        members = frozenset(members)
        try:
            if members & taken:
                raise GraphError(f"clusters overlap on {sorted(members & taken)}")
            if members & (query.x | query.y):
                raise GraphError("cluster intersects the query")
            ac = _cluster(g, inputs, members, t_name)
            if isinstance(ac, str):
                raise GraphError(f"incompatible cluster {t_name}: {ac}")
        except GraphError:
            if not auto:
                raise
            continue  # an earlier clustering may have invalidated this candidate
        applied.append(ac)
        taken, g, inputs = taken | members, ac.graph_after, ac.inputs_after
        used.add(t_name)
    return tuple(applied)


def _require_outside_query(members, query: Query):
    if members & (query.x | query.y):
        raise GraphError("query must not intersect the cluster")


def decide_invariance(
    g: CausalGraph, inputs, t_members, query: Query, clustered_identifiable: bool, t_name="T"
) -> InvarianceVerdict:
    """Verdict about the original graph given the clustered outcome.

    ``g`` is the graph in which the cluster was formed. Identifiability in
    the clustered problem transfers unconditionally; non-identifiability
    transfers when the cluster has a vertex that is both receiver and
    emitter, or when the clustered inputs verify. Inputs that are not
    compatible with the cluster raise ``GraphError``.
    """
    t = frozenset(t_members)
    _require_outside_query(t, query)
    if clustered_identifiable:
        return InvarianceVerdict(IDENTIFIABLE, "identifiable_transfer", ",".join(sorted(t)))
    while g.has_vertex(t_name):
        t_name += "_"
    ac = _cluster(g, inputs, t, t_name)
    if isinstance(ac, str):
        raise GraphError(f"inputs are not compatible with the cluster: {ac}")
    return _certify(ac)


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

    if prune:
        pruned = prune_all(g, inputs, query)
    else:
        pruned = PruneResult(g, inputs, query, (), tuple(range(len(inputs))))
    cur_g, cur_inputs, cur_q = pruned.graph, pruned.inputs, pruned.query

    applied = _apply_clusters(cur_g, cur_inputs, cur_q, requested_clusters) if cluster else ()
    if applied:
        cur_g, cur_inputs = applied[-1].graph_after, applied[-1].inputs_after
    search = identify(cur_g, cur_inputs, cur_q, budget)

    if search.status == IDENTIFIED:
        lifted = search.functional
        for ac in reversed(applied):
            lifted = lift_functional_clustering(lifted, ac.mapping)
        lifted = lift_functional_pruning(lifted, pruned)
        return PipelineResult(IDENTIFIED, query, lifted, pruned, applied, search)
    if search.status == BUDGET_EXCEEDED:
        return PipelineResult(BUDGET_EXCEEDED, query, None, pruned, applied, search)

    # saturated without identification: promote through the clusterings
    verdicts = tuple(_certify(ac) for ac in reversed(applied))
    all_certified = all(v.status == NON_IDENTIFIABLE for v in verdicts)
    status = "non_identifiable" if all_certified else "undetermined"
    return PipelineResult(status, query, None, pruned, applied, search, verdicts)
