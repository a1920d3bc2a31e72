"""The three pruning operations with full precondition checking.

Each operation only picks a removal set of observed vertices and checks the
conditions of its theorem; ``_remove`` then forms every reduced problem (the
induced subgraph, the restricted inputs and the query without the removed
interventions). A ``PruneStep`` carries that problem, the removed vertices,
the condition checks performed and, when a condition fails, a refusal with
its witness. Refusals are values, not exceptions; the pipeline records them
and moves on. The two later operations require the graph to already be
restricted to the ancestors of the outcome, which is enforced.
``prune_all`` restricts the original inputs once to the surviving vertices,
which gives the same inputs as the steps' nested restrictions together with
the original index of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .distributions import Query, _restrict_with_indices, restrict_inputs
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
        theorem, refusal is None, frozenset(), g, tuple(inputs), query, tuple(checked), refusal
    )


def _remove(theorem, g, inputs, query, z_mask, checked=()):
    """The applied step that removes the observed vertices in ``z_mask``."""
    kept = g.names_of(g.observed_mask & ~z_mask)
    return PruneStep(
        theorem, True, g.names_of(z_mask), induced_subgraph(g, kept | g.latents),
        restrict_inputs(inputs, kept), Query(query.y, query.x & kept), tuple(checked),
    )


def _inputs_avoid(inputs, z_names, condition, label=""):
    """One check per input that it neither intervenes nor conditions inside
    ``z_names``, up to the first that does, and the refusal that one gives."""
    checked = []
    for i, dist in enumerate(inputs):
        inside = (dist.b | dist.c) & z_names
        witness = f"input {i} uses {sorted(inside)}" if inside else f"input {i}"
        checked.append(ConditionCheck(condition, not inside, witness))
        if inside:
            return checked, (
                f"input {i} ({dist.render()}) intervenes or conditions on "
                f"{label}{sorted(inside)[0]}"
            )
    return checked, None


def _non_ancestors(g, query):
    return g.observed_mask & ~g.ancestors_mask(g.mask_of(query.y), reflexive=True)


def _require_ancestral(g, query):
    if _non_ancestors(g, query):
        raise GraphError("graph must first be pruned to the ancestors of the outcome")


def prune_non_ancestors(g: CausalGraph, inputs, query: Query) -> PruneStep:
    """Remove the non-ancestors of the outcome.

    Applies only when no input intervenes or conditions on a non-ancestor;
    the intervention set of the query shrinks to its ancestral part.
    """
    z_mask = _non_ancestors(g, query)
    if not z_mask:
        return _noop(NON_ANCESTORS, g, inputs, query)
    checked, refusal = _inputs_avoid(
        inputs, g.names_of(z_mask), "inputs_within_ancestors", "non-ancestor "
    )
    if refusal:
        return _noop(NON_ANCESTORS, g, inputs, query, checked, refusal)
    return _remove(NON_ANCESTORS, g, inputs, query, z_mask, checked)


def prune_post_intervention(g: CausalGraph, inputs, query: Query) -> PruneStep:
    """Remove vertices d-separated from the outcome once the query is intervened.

    Three conditions guard the removal: the candidates are no descendants of
    the intervention, no input intervenes or conditions inside them, and
    every shared ancestry they induce between intervention vertices is
    covered by a latent common parent.
    """
    _require_ancestral(g, query)
    x = g.mask_of(query.x)
    par, ch = cut_masks(g.parent_masks, g.child_masks, x, 0)
    up, down = reach(par, ch, g.mask_of(query.y), x)
    z_mask = g.observed_mask & ~(up | down) & ~x
    if not z_mask:
        return _noop(POST_INTERVENTION, g, inputs, query)

    bad = sorted(g.names_of(z_mask & g.descendants_mask(x)))
    checked = [ConditionCheck("a_no_descendants_of_x", not bad, f"{bad}" if bad else "")]
    if bad:
        return _noop(
            POST_INTERVENTION, g, inputs, query, checked,
            f"candidate {bad[0]} descends from the intervention",
        )

    more, refusal = _inputs_avoid(inputs, g.names_of(z_mask), "b_inputs_outside_pruned")
    checked += more
    if refusal:
        return _noop(POST_INTERVENTION, g, inputs, query, checked, refusal)

    ok, witness = _condition_c(g, z_mask, x)
    checked.append(ConditionCheck("c_confounder_cover", ok, witness))
    if not ok:
        return _noop(POST_INTERVENTION, g, inputs, query, checked, witness)
    return _remove(POST_INTERVENTION, g, inputs, query, z_mask, checked)


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
    step = _noop(ISOLATED, g, inputs, query)
    removed, witnesses = frozenset(), []
    while True:
        cur = step.graph
        blocked = set().union(query.x, query.y, *((d.b | d.c) for d in step.inputs))
        # max keeps the first of equally large unions, in vertex order
        w, z = max(
            ((w, _prunable_through(cur, w, blocked)) for w in sorted(cur.observed)),
            key=lambda wz: len(wz[1]),
        )
        if not z:
            return replace(step, removed=removed, checked=tuple(witnesses))
        step = _remove(ISOLATED, cur, step.inputs, step.query, cur.mask_of(z))
        removed |= z
        witnesses.append(ConditionCheck("isolated_through", True, f"{sorted(z)} through {w}"))


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
    """Full pipeline: non-ancestors once, then the other two to a fixpoint.

    A refused non-ancestor step leaves non-ancestors behind, so the other
    two operations only run after an applied one.
    """
    cur = prune_non_ancestors(g, inputs, query)
    steps = [cur]
    progress = cur.applied
    while progress:
        progress = False
        for op in (prune_post_intervention, prune_isolated):
            step = op(cur.graph, cur.inputs, cur.query)
            steps.append(step)
            if step.applied and step.removed:
                cur, progress = step, True
    kept, indices = _restrict_with_indices(inputs, cur.graph.observed)
    removed = frozenset(g.observed) - cur.graph.observed
    return PruneResult(cur.graph, kept, cur.query, tuple(steps), indices, removed)
