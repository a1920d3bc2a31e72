"""Bounded forward-closure search over do-calculus and probability manipulations.

Starting from the input distributions, the search derives new terms
p(A | do(B), C) by single-variable marginalization and conditioning, chain
composition of two compatible terms, and the three do-calculus rules guarded
by d-separation in the appropriate edge-cut graphs. Rule moves try the
maximal applicable variable set first, then singletons. Terms are
deduplicated on a canonical key (sorted variable sets), expanded breadth
first by derivation depth with lexicographic tie-breaking, so identical
problems always yield identical functionals and enlarging the budget never
flips an identified verdict.

A term's derivation edge is stored at first discovery; reaching the query
key backtracks the edges into a ``Functional`` expression tree. Exhausting
the closure without reaching the query is reported as non-identifiable by
the implemented rule set (do-calculus completeness for the general fusion
problem is open); hitting the term or depth budget first is reported as
budget exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .distributions import ClusterMapping, Query, validate_inputs
from .functional import (
    InputRef,
    Pinned,
    Product,
    Quotient,
    SumOver,
    free_variables,
    transform,
    with_children,
)
from .graph import CausalGraph, GraphError, _closure, _iter_bits, cut_masks, reach

IDENTIFIED = "identified"
EXHAUSTED = "exhausted_not_identified"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_terms: int = 200_000
    max_depth: int = 25

    def __post_init__(self):
        if self.max_terms <= 0 or self.max_depth <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class IdentifyResult:
    status: str
    functional: object | None = None
    terms: int = 0
    depth: int = 0

    @property
    def identified(self) -> bool:
        return self.status == IDENTIFIED


class _Engine:
    """Per-search memo of cut masks and cut ancestor sets.

    d-separation verdicts are not memoized: the search tests a rule guard
    only for a target it has not stored, so a verdict is rarely asked for
    twice and a memo costs more than it saves.
    """

    __slots__ = ("base_par", "base_ch", "_cuts", "_an")

    def __init__(self, g: CausalGraph):
        self.base_par = g.parent_masks
        self.base_ch = g.child_masks
        self._cuts = {(0, 0): (self.base_par, self.base_ch)}
        self._an = {}

    def cut(self, cin: int, cout: int):
        key = (cin, cout)
        got = self._cuts.get(key)
        if got is None:
            got = self._cuts[key] = cut_masks(self.base_par, self.base_ch, cin, cout)
        return got

    def ancestors(self, cin: int, m: int) -> int:
        """Reflexive ancestors of m in the graph with incoming edges of cin cut."""
        key = (cin, m)
        got = self._an.get(key)
        if got is None:
            got = self._an[key] = _closure(self.cut(cin, 0)[0], m)
        return got

    def dsep(self, cin: int, cout: int, x: int, y: int, z: int) -> bool:
        if not x or not y:
            return True
        if x > y:
            x, y = y, x
        par, ch = self.cut(cin, cout)
        return not reach(par, ch, x, z, y) & y


@lru_cache(maxsize=1 << 14)
def _cands(m: int):
    """Maximal set first, then singletons; empty and singleton pools shrink."""
    if not m:
        return ()
    if not m & (m - 1):
        return (m,)
    return (m,) + tuple(1 << v for v in _iter_bits(m))


def identify(g: CausalGraph, inputs, query: Query, budget: SearchBudget | None = None) -> IdentifyResult:
    """Decide the query from the inputs in g, returning a functional when found."""
    budget = budget or SearchBudget()
    inputs = tuple(inputs)
    validate_inputs(g, inputs, query)
    eng = _Engine(g)
    mask = g.mask_of

    goal = (mask(query.y), mask(query.x), 0)
    store: dict = {}
    by_bc: dict = {}
    by_bac: dict = {}

    def add(key, deriv) -> bool:
        if key in store:
            return False
        store[key] = deriv
        by_bc.setdefault((key[1], key[2]), []).append(key)
        by_bac.setdefault((key[1], key[0] | key[2]), []).append(key)
        return True

    def finish(depth):
        f = _build(goal, store, inputs, g)
        assert free_variables(f) <= query.y | query.x
        return IdentifyResult(IDENTIFIED, f, len(store), depth)

    for i, dist in enumerate(inputs):
        add((mask(dist.a), mask(dist.b), mask(dist.c)), ("input", i))

    if goal in store:
        return finish(0)

    obs = g.observed_mask
    depth = 0
    layer = list(store)
    while True:
        if depth >= budget.max_depth:
            return IdentifyResult(BUDGET_EXCEEDED, None, len(store), depth)
        frontier, layer = sorted(layer), []
        for key in frontier:
            a, b, c = key
            nd = depth + 1
            derived = []
            emit = derived.append

            # a move is built, and a rule move tested, only when its target
            # is not stored yet: add would drop a stored target anyway
            if a & (a - 1):
                for v in _iter_bits(a):
                    vb = 1 << v
                    t = (a ^ vb, b, c)
                    if t not in store:
                        emit((t, ("marg", vb, key)))
                    t = (a ^ vb, b, c | vb)
                    if t not in store:
                        emit((t, ("cond", vb, key)))

            free = obs & ~(a | b | c)
            # rule 1: delete then insert observations
            for z in _cands(c):
                t = (a, b, c & ~z)
                if t not in store and eng.dsep(b, 0, a, z, b | (c & ~z)):
                    emit((t, ("pin", z, key)))
            for z in _cands(free):
                t = (a, b, c | z)
                if t not in store and eng.dsep(b, 0, a, z, b | c):
                    emit((t, ("rule", key)))
            # rule 2: exchange actions and observations, both directions
            for z in _cands(b):
                t = (a, b & ~z, c | z)
                if t not in store and eng.dsep(b & ~z, z, a, z, (b & ~z) | c):
                    emit((t, ("rule", key)))
            for z in _cands(c):
                t = (a, b | z, c & ~z)
                if t not in store and eng.dsep(b, z, a, z, b | (c & ~z)):
                    emit((t, ("rule", key)))
            # rule 3: delete then insert actions
            for z in _cands(b):
                t = (a, b & ~z, c)
                if t not in store:
                    zc = z & ~eng.ancestors(b & ~z, c)
                    if eng.dsep((b & ~z) | zc, 0, a, z, (b & ~z) | c):
                        emit((t, ("pin", z, key)))
            for z in _cands(free):
                t = (a, b | z, c)
                if t not in store:
                    zc = z & ~eng.ancestors(b, c)
                    if eng.dsep(b | zc, 0, a, z, b | c):
                        emit((t, ("rule", key)))
            # chain composition with every stored partner
            for t2 in sorted(by_bac.get((b, c), ())):
                t = (a | t2[0], b, t2[2])
                if t2 != key and t not in store:
                    emit((t, ("prod", key, t2)))
            for t1 in sorted(by_bc.get((b, a | c), ())):
                t = (t1[0] | a, b, c)
                if t not in store:
                    emit((t, ("prod", t1, key)))

            for new_key, deriv in derived:
                if add(new_key, deriv):
                    layer.append(new_key)
                    if new_key == goal:
                        return finish(nd)
                    if len(store) > budget.max_terms:
                        return IdentifyResult(BUDGET_EXCEEDED, None, len(store), nd)
        if not layer:
            return IdentifyResult(EXHAUSTED, None, len(store), depth)
        depth += 1


def _build(key, store, inputs, g: CausalGraph, memo=None):
    if memo is None:
        memo = {}
    got = memo.get(key)
    if got is not None:
        return got
    deriv = store[key]
    kind = deriv[0]
    if kind == "input":
        dist = inputs[deriv[1]]
        out = InputRef(
            deriv[1], tuple(sorted(dist.a)), tuple(sorted(dist.b)), tuple(sorted(dist.c))
        )
    elif kind == "marg":
        vb, parent = deriv[1], deriv[2]
        out = SumOver(tuple(sorted(g.names_of(vb))), _build(parent, store, inputs, g, memo))
    elif kind == "cond":
        vb, parent = deriv[1], deriv[2]
        f = _build(parent, store, inputs, g, memo)
        rest = parent[0] & ~vb
        out = Quotient(f, SumOver(tuple(sorted(g.names_of(rest))), f))
    elif kind == "rule":
        out = _build(deriv[1], store, inputs, g, memo)
    elif kind == "pin":
        child = _build(deriv[2], store, inputs, g, memo)
        out = Pinned(tuple(sorted(g.names_of(deriv[1]))), child)
    elif kind == "prod":
        out = Product(
            (
                _build(deriv[1], store, inputs, g, memo),
                _build(deriv[2], store, inputs, g, memo),
            )
        )
    else:
        raise AssertionError(f"unknown derivation {deriv!r}")
    memo[key] = out
    return out


# -- lifting -------------------------------------------------------------------


def lift_functional_pruning(f, prune_result):
    """Re-point input references to the original, unrestricted input list."""
    indices = prune_result.input_indices

    def lift(node, kids):
        if isinstance(node, InputRef):
            return InputRef(indices[node.index], node.a, node.b, node.c)
        return with_children(node, kids)

    return transform(f, lift)


def lift_functional_clustering(f, mapping: ClusterMapping):
    """Expand the cluster vertex back into original variables.

    References to a clustered input get the cluster member subset that the
    matching original input holds; sums binding the cluster vertex range over
    the union of those subsets, every one of which contains the emitters.
    """
    t = mapping.t_name
    union = frozenset().union(*mapping.subsets) if mapping.subsets else frozenset()
    fv_memo: dict = {}

    def repl(vals, node_index):
        if t not in vals:
            return vals
        subset = mapping.subsets[node_index]
        if not subset:
            raise GraphError(
                f"input {node_index} mentions cluster vertex {t} but maps to no members"
            )
        return tuple(sorted((frozenset(vals) - {t}) | subset))

    def lift(node, kids):
        if isinstance(node, InputRef):
            i = node.index
            return InputRef(i, repl(node.a, i), repl(node.b, i), repl(node.c, i))
        if not isinstance(node, (SumOver, Pinned)):
            return with_children(node, kids)
        (child,) = kids
        new_vars = node.vars
        if t in new_vars:
            if not union and isinstance(node, SumOver):
                raise GraphError(f"no original members recorded for {t}")
            # only members the lifted subtree actually uses stay bound; a
            # blanket union would multiply subtrees that reference a smaller
            # subset by the cardinality of the spurious members
            keep = union & free_variables(child, fv_memo)
            new_vars = tuple(sorted((frozenset(new_vars) - {t}) | keep))
        return type(node)(new_vars, child) if new_vars else child

    out = transform(f, lift)
    if t in free_variables(out):
        raise GraphError(f"cluster vertex {t} left free after lifting")
    return out
