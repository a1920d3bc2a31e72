"""The three pruning operations with full precondition checking.

Each operation returns a ``PruneStep`` carrying the transformed problem, the
removed vertices, the condition checks performed and, when a condition
fails, a refusal with its witness. Refusals are values, not exceptions; the
pipeline records them and moves on. The two later operations require the
graph to already be restricted to the ancestors of the outcome, which is
enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import Query, _restrict_with_indices
from .graph import CausalGraph, GraphError, _closure, _iter_bits, cut_masks, induced_subgraph, reach

NON_ANCESTORS = "non_ancestors"
POST_INTERVENTION = "post_intervention"
ISOLATED = "isolated"


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    holds: bool
    witness: str = ""


@dataclass(frozen=True)
class PruneStep:
    theorem: str
    applied: bool
    removed: frozenset
    graph: CausalGraph
    inputs: tuple
    query: Query
    input_indices: tuple
    checked: tuple = ()
    refusal: str | None = None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "applied": self.applied,
            "removed": sorted(self.removed),
            "refusal": self.refusal,
            "checked": [
                {"condition": c.condition, "holds": c.holds, "witness": c.witness}
                for c in self.checked
            ],
        }


@dataclass(frozen=True)
class PruneResult:
    graph: CausalGraph
    inputs: tuple
    query: Query
    steps: tuple
    input_indices: tuple  # index into the original input list per surviving input
    removed: frozenset = field(default_factory=frozenset)

    def to_json(self) -> dict:
        return {
            "removed": sorted(self.removed),
            "query": self.query.render(),
            "inputs": [d.render() for d in self.inputs],
            "steps": [s.to_json() for s in self.steps],
        }


def _noop(theorem, g, inputs, query, checked=(), refusal=None):
    return PruneStep(
        theorem, refusal is None, frozenset(), g, tuple(inputs), query,
        tuple(range(len(inputs))), tuple(checked), refusal,
    )


def is_ancestral(g: CausalGraph, query: Query) -> bool:
    y = g.mask_of(query.y)
    keep = g.ancestors_mask(y, reflexive=True)
    return keep & g.observed_mask == g.observed_mask


def _require_ancestral(g, query):
    if not is_ancestral(g, query):
        raise GraphError("graph must first be pruned to the ancestors of the outcome")


def prune_non_ancestors(g: CausalGraph, inputs, query: Query) -> PruneStep:
    """Remove the non-ancestors of the outcome.

    Applies only when no input intervenes or conditions on a non-ancestor;
    the intervention set of the query shrinks to its ancestral part.
    """
    y = g.mask_of(query.y)
    an_plus = g.ancestors_mask(y) | y
    removed_mask = g.observed_mask & ~an_plus
    if not removed_mask:
        return _noop(NON_ANCESTORS, g, inputs, query)
    an_obs = g.names_of(an_plus & g.observed_mask)
    checked = []
    for i, dist in enumerate(inputs):
        outside = (dist.b | dist.c) - an_obs
        checked.append(
            ConditionCheck(
                "inputs_within_ancestors",
                not outside,
                f"input {i} uses {sorted(outside)}" if outside else f"input {i}",
            )
        )
        if outside:
            return _noop(
                NON_ANCESTORS, g, inputs, query, checked,
                f"input {i} ({dist.render()}) intervenes or conditions on "
                f"non-ancestor {sorted(outside)[0]}",
            )
    g2 = induced_subgraph(g, g.names_of(an_plus))
    kept = _restrict_with_indices(inputs, an_obs)
    new_x = query.x & an_obs
    q2 = Query(query.y, new_x)
    return PruneStep(
        NON_ANCESTORS, True, g.names_of(removed_mask), g2,
        tuple(d for d, _ in kept), q2, tuple(i for _, i in kept), tuple(checked),
    )


def prune_post_intervention(g: CausalGraph, inputs, query: Query) -> PruneStep:
    """Remove vertices d-separated from the outcome once the query is intervened.

    Three conditions guard the removal: the candidates are no descendants of
    the intervention, no input intervenes or conditions inside them, and
    every shared ancestry they induce between intervention vertices is
    covered by a latent common parent.
    """
    _require_ancestral(g, query)
    x = g.mask_of(query.x)
    y = g.mask_of(query.y)
    par, ch = cut_masks(g.parent_masks, g.child_masks, x, 0)
    connected = reach(par, ch, y, x)
    z_mask = g.observed_mask & ~connected & ~x
    if not z_mask:
        return _noop(POST_INTERVENTION, g, inputs, query)
    z_names = g.names_of(z_mask)
    checked = []

    de_x = g.descendants_mask(x)
    bad = z_mask & de_x
    checked.append(
        ConditionCheck(
            "a_no_descendants_of_x", not bad,
            f"{sorted(g.names_of(bad))}" if bad else "",
        )
    )
    if bad:
        return _noop(
            POST_INTERVENTION, g, inputs, query, checked,
            f"candidate {sorted(g.names_of(bad))[0]} descends from the intervention",
        )

    keep_obs = g.names_of(g.observed_mask & ~z_mask)
    for i, dist in enumerate(inputs):
        inside = (dist.b | dist.c) & z_names
        checked.append(
            ConditionCheck(
                "b_inputs_outside_pruned", not inside,
                f"input {i} uses {sorted(inside)}" if inside else f"input {i}",
            )
        )
        if inside:
            return _noop(
                POST_INTERVENTION, g, inputs, query, checked,
                f"input {i} ({dist.render()}) intervenes or conditions on "
                f"{sorted(inside)[0]}",
            )

    ok, witness = _condition_c(g, z_mask, x)
    checked.append(ConditionCheck("c_confounder_cover", ok, witness))
    if not ok:
        return _noop(POST_INTERVENTION, g, inputs, query, checked, witness)

    g2 = induced_subgraph(g, keep_obs | g.latents)
    kept = _restrict_with_indices(inputs, keep_obs)
    return PruneStep(
        POST_INTERVENTION, True, z_names, g2,
        tuple(d for d, _ in kept), query, tuple(i for _, i in kept), tuple(checked),
    )


def _condition_c(g, z_mask, x_mask):
    """Latent-cover check over the maximal shared-descendant sets.

    Sources of shared ancestry into the intervention set are the implicit
    dedicated error term of each pruned vertex and every latent with a child
    among them. A source reaching two or more intervention vertices needs a
    latent that is a parent of all of them; a single vertex is always covered
    by its own error term.
    """
    ch_z = 0
    for v in _iter_bits(z_mask):
        ch_z |= g.child_masks[v]
    latent_sources = [
        u for u in _iter_bits(g.latent_mask) if g.child_masks[u] & z_mask
    ]
    for u in latent_sources:
        ch_z |= g.child_masks[u]
    pool = ch_z & x_mask

    sources = [(f"error term of {g.names[v]}", 1 << v) for v in _iter_bits(z_mask)]
    sources += [(g.names[u], 1 << u) for u in latent_sources]
    for label, src in sources:
        x_s = g.descendants_mask(src, reflexive=True) & pool
        if bin(x_s).count("1") < 2:
            continue
        covered = any(
            x_s & g.child_masks[u] == x_s for u in _iter_bits(g.latent_mask)
        )
        if not covered:
            names = sorted(g.names_of(x_s))
            return False, f"no latent covers {names} reached from {label}"
    return True, ""


def prune_isolated(g: CausalGraph, inputs, query: Query) -> PruneStep:
    """Remove vertex sets hanging off a single articulation vertex.

    For every candidate vertex W, any union of skeleton components of
    G minus W that avoids the query and all intervened or conditioned input
    variables can go. The largest union over all W is removed, to a fixpoint.
    """
    _require_ancestral(g, query)
    xy = query.x | query.y
    cur_g, cur_inputs = g, tuple(inputs)
    indices = tuple(range(len(inputs)))
    removed_all = set()
    witnesses = []
    while True:
        best = None
        blocked = set().union(xy, *((d.b | d.c) for d in cur_inputs))
        for w in sorted(cur_g.observed):
            z_union = _prunable_through(cur_g, w, blocked)
            if z_union and (best is None or len(z_union) > len(best[1])):
                best = (w, z_union)
        if best is None:
            break
        w, z_union = best
        keep = cur_g.observed - z_union
        cur_g = induced_subgraph(cur_g, keep | cur_g.latents)
        kept = _restrict_with_indices(cur_inputs, keep)
        indices = tuple(indices[j] for _, j in kept)
        cur_inputs = tuple(d for d, _ in kept)
        removed_all |= z_union
        witnesses.append(ConditionCheck("isolated_through", True, f"{sorted(z_union)} through {w}"))
    if not removed_all:
        return _noop(ISOLATED, g, inputs, query)
    return PruneStep(
        ISOLATED, True, frozenset(removed_all), cur_g,
        cur_inputs, query, indices, tuple(witnesses),
    )


def _prunable_through(g, w, blocked):
    """Union of observed component members isolated behind w, if removable."""
    w_bit = 1 << g._index[w]
    seen = w_bit
    union = frozenset()
    adj = [(p | c) & ~w_bit for p, c in zip(g.parent_masks, g.child_masks)]
    for start in range(len(g.names)):
        sb = 1 << start
        if sb & seen:
            continue
        comp = _closure(adj, sb)
        seen |= comp
        z = g.names_of(comp & g.observed_mask)
        if z and not z & blocked:
            union |= z
    return union


def prune_all(g: CausalGraph, inputs, query: Query) -> PruneResult:
    """Full pipeline: non-ancestors once, then the other two to a fixpoint."""
    steps = []
    indices = tuple(range(len(inputs)))
    cur_g, cur_inputs, cur_q = g, tuple(inputs), query

    step = prune_non_ancestors(cur_g, cur_inputs, cur_q)
    steps.append(step)
    if step.applied:
        cur_g, cur_inputs, cur_q = step.graph, step.inputs, step.query
        indices = tuple(indices[j] for j in step.input_indices)

    if is_ancestral(cur_g, cur_q):
        while True:
            progress = False
            for op in (prune_post_intervention, prune_isolated):
                step = op(cur_g, cur_inputs, cur_q)
                steps.append(step)
                if step.applied and step.removed:
                    cur_g, cur_inputs, cur_q = step.graph, step.inputs, step.query
                    indices = tuple(indices[j] for j in step.input_indices)
                    progress = True
            if not progress:
                break
    removed = frozenset(g.observed) - frozenset(cur_g.observed)
    return PruneResult(cur_g, cur_inputs, cur_q, tuple(steps), indices, removed)
