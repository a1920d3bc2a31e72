"""Transit clusters: verification, brute-force enumeration and the cluster operation.

A transit cluster is a vertex set where outside information enters only
through receivers and leaves only through emitters, subject to the five
structural conditions (equal external parents of receivers, equal external
children of emitters, internal connectivity to a receiver or emitter after
sealing the boundary, and directed receiver-to-emitter reachability both
ways). Directed reachability here counts the trivial path, so a vertex that
is both a receiver and an emitter satisfies the last two conditions by itself.

Every check is one mask-level core, ``_boundary`` (receiver and emitter
masks) then ``_verdict`` (the five conditions), with no walk of its own:
(c) is ``graph._closure`` over the skeleton of the sealed ``cut_masks``, (d)
and (e) are ``_closure`` over child and parent masks. Enumeration feeds it
bitmask subsets of a graph checked connected once; ``is_transit_cluster``
and ``_require_cluster``, the guard of every cluster operation, wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graph import CausalGraph, GraphError, _closure, _iter_bits, cut_masks

ENUMERATION_GUARD = 1 << 22


@dataclass(frozen=True)
class TransitCluster:
    members: frozenset
    receivers: frozenset
    emitters: frozenset


@dataclass(frozen=True)
class ClusterVerdict:
    ok: bool
    failed_condition: str = ""
    witness: tuple = ()


def _boundary(g: CausalGraph, t: int) -> tuple:
    """Receiver and emitter masks: members with a parent, or a child, outside t."""
    rec = em = 0
    for v in _iter_bits(t):
        if g.parent_masks[v] & ~t:
            rec |= 1 << v
        if g.child_masks[v] & ~t:
            em |= 1 << v
    return rec, em


def _verdict(g: CausalGraph, t: int, rec: int, em: int) -> ClusterVerdict:
    """The five conditions on member mask t, reporting the first failure."""
    par, ch = g.parent_masks, g.child_masks
    # conditions (a)/(b): receivers share their outside parents, emitters
    # their outside children
    for cond, side, steps in (("a", rec, par), ("b", em, ch)):
        vs = list(_iter_bits(side))
        for v1, v2 in zip(vs, vs[1:]):
            if steps[v1] & ~t != steps[v2] & ~t:
                return ClusterVerdict(False, cond, (g.names[v1], g.names[v2]))

    # condition (c): undirected connectivity to a receiver or emitter once
    # incoming edges of receivers and outgoing edges of emitters are removed
    # (which also cuts every edge leaving t); vacuous when a cut sealed the
    # whole boundary, and a member left with no edges at all has no paths and
    # cannot leak - neither case arises in a connected ambient graph
    if not rec | em:
        return ClusterVerdict(True)
    sealed = [p | c for p, c in zip(*cut_masks(par, ch, rec, em))]
    stranded = t & ~_closure(sealed, rec | em)
    for v in _iter_bits(stranded):
        if par[v] or ch[v]:
            return ClusterVerdict(False, "c", (g.names[v],))

    # conditions (d)/(e): each receiver reaches an emitter and each emitter
    # is reached from a receiver, allowing the length-zero path
    for cond, side, steps, goal in (("d", rec, ch, em), ("e", em, par, rec)):
        if goal:
            for v in _iter_bits(side):
                if not _closure(steps, 1 << v) & goal:
                    return ClusterVerdict(False, cond, (g.names[v],))
    return ClusterVerdict(True)


def _candidate_mask(g: CausalGraph, t_members, require_connected: bool = True) -> int:
    """Member mask of a candidate cluster: nonempty, proper, in a connected graph."""
    if require_connected and not g.is_connected():
        raise GraphError("transit clusters are defined on connected graphs")
    t = g.mask_of(t_members)
    if not t:
        raise GraphError("cluster must be nonempty")
    if t == (1 << len(g.names)) - 1:
        raise GraphError("cluster must be a proper subset of the vertices")
    return t


def _require_cluster(g: CausalGraph, t_members) -> tuple:
    """(member, receiver, emitter) masks of a transit cluster; GraphError otherwise."""
    t = _candidate_mask(g, t_members)
    rec, em = _boundary(g, t)
    failed = _verdict(g, t, rec, em).failed_condition
    if failed:
        raise GraphError(f"{sorted(t_members)} is not a transit cluster (condition {failed})")
    return t, rec, em


def receivers_emitters(g: CausalGraph, t_members) -> tuple:
    """Receivers have a parent outside the set, emitters a child outside it."""
    rec, em = _boundary(g, g.mask_of(t_members))
    return g.names_of(rec), g.names_of(em)


def is_transit_cluster(g: CausalGraph, t_members, *, require_connected: bool = True) -> ClusterVerdict:
    """Check the five transit-cluster conditions, reporting the first failure.

    Connectivity of the ambient graph is part of the definition; checks on
    edge-cut graphs (where clusters provably persist) may opt out of it.
    """
    t = _candidate_mask(g, t_members, require_connected)
    return _verdict(g, t, *_boundary(g, t))


def enumerate_transit_clusters(g: CausalGraph, max_size: int | None = None, *, force=False):
    """All verified transit clusters of size 2..max_size, lexicographic order.

    Brute-force subset enumeration; refuses above 2^22 candidate subsets
    unless forced.
    """
    if not g.is_connected():
        raise GraphError("transit clusters are defined on connected graphs")
    n = len(g.names)
    top = min(max_size if max_size is not None else n - 1, n - 1)
    total = sum(comb(n, k) for k in range(2, top + 1))
    if total > ENUMERATION_GUARD and not force:
        raise GraphError(
            f"{total} candidate subsets exceed the enumeration budget; pass force=True"
        )
    bits = [1 << g._index[name] for name in sorted(g.names)]
    out = []
    for k in range(2, top + 1):
        for combo in combinations(bits, k):
            t = sum(combo)
            rec, em = _boundary(g, t)
            if _verdict(g, t, rec, em).ok:
                out.append(TransitCluster(g.names_of(t), g.names_of(rec), g.names_of(em)))
    out.sort(key=lambda c: tuple(sorted(c.members)))
    return out


def apply_cluster(g: CausalGraph, t_members, t_name: str) -> CausalGraph:
    """Contract a verified cluster into a single observed vertex by renaming.

    Every member is renamed ``t_name``; observed edges are renamed and the
    self-loops this makes are dropped, and the outside children of a latent
    member become children of ``t_name``. A latent outside the cluster keeps
    its renamed children, even when that leaves it a single child.
    ``t_name`` is always a vertex, also when every member is latent.
    """
    t = _require_cluster(g, t_members)[0]
    if g.has_vertex(t_name):
        raise GraphError(f"cluster name {t_name} collides with an existing vertex")
    rename = {v: t_name if 1 << i & t else v for i, v in enumerate(g.names)}
    edges = g.edge_list()
    latent_children = {}
    for u, kids in g.latent_children_map().items():
        if rename[u] == t_name:
            edges += [(u, k) for k in kids]
        else:
            latent_children[u] = sorted({rename[k] for k in kids})
    edges = sorted({(rename[p], rename[c]) for p, c in edges} - {(t_name, t_name)})
    observed = {rename[v] for v in g.observed} | {t_name}
    clustered = CausalGraph(observed, edges, latent_children, check_latents=False)
    assert len(clustered.names) == len(g.names) - bin(t).count("1") + 1
    return clustered


def check_single_layer(g: CausalGraph, t_members) -> bool:
    """True iff some vertex is both a receiver and an emitter of the cluster."""
    _, rec, em = _require_cluster(g, t_members)
    return bool(rec & em)
