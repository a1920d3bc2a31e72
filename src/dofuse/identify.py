"""Bounded forward-closure search over do-calculus and probability manipulations.

Starting from the input distributions, the search derives new terms
p(A | do(B), C) by single-variable marginalization and conditioning, chain
composition of two compatible terms, and the three do-calculus rules guarded
by d-separation in the appropriate edge-cut graphs. Rule moves try the
maximal applicable variable set first, then singletons, and one walk per
expanded term decides their guards. A term's key is one int,
``a << 2m | b << m | c`` for the observed-vertex masks a, b and c over
m = ``g.n_observed`` vertices, which sorts like the triple (a, b, c) and
turns every move into int arithmetic. Terms are deduplicated on that key,
expanded breadth first by derivation depth with ties broken by key order, so
identical problems always yield identical functionals and enlarging the
budget never flips an identified verdict.

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
from .graph import CausalGraph, GraphError, _closure, _iter_bits, _union, cut_masks, reach

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
    """Per-search memo of cut masks and cut ancestor sets, and the rule guards.

    ``guards`` decides every singleton guard of a key from one walk (see
    ``identify``); ``dsep`` is the one remaining per-candidate test, for
    deleting the whole of b by rule 3. Walks are not memoized: each key is
    expanded once. ``guards`` forms no input that cannot change its result:
    with b empty the rule 2 b -> c and rule 3 deletion pools are empty, so
    ``hit`` and ``an`` are skipped, and ``an`` only removes members of
    ``b - seen`` that are in ``hit``, so it is looked up only when there are
    some.
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

    def guards(self, a: int, b: int, c: int, free: int):
        """Members of each rule's pool that pass its guard at key (a, b, c), from one walk.

        Returns the passing members of c (rule 1 deletion), free (rule 1
        insertion), b (rule 2 b -> c), c (rule 2 c -> b), b (rule 3
        deletion) and free (rule 3 insertion); see ``identify``.
        """
        bc = b | c
        up, down = reach(*self.cut(b, 0), a, bc)
        seen = up | down
        if not b:
            return c & ~seen, free & ~seen, 0, c & ~down, 0, free & ~up
        hit = _union(self.base_ch, seen & ~bc)
        r3del = b & ~seen
        if r3del & hit:
            r3del &= ~(self.ancestors(b, c) & hit)
        return c & ~seen, free & ~seen, b & ~hit, c & ~down, r3del, free & ~up

    def dsep(self, cin: int, cout: int, x: int, y: int, z: int) -> bool:
        """Whether z d-separates x from y in the cut graph; the walk stops at y."""
        up, down = reach(*self.cut(cin, cout), x, z, y)
        return not (up | down) & y


@lru_cache(maxsize=1 << 14)
def _passing(ok: int, whole: bool):
    """Candidates in search order: ok itself when it is the whole pool, then each member of ok."""
    bits = tuple(1 << v for v in _iter_bits(ok))
    return (ok,) + bits if whole and len(bits) > 1 else bits


def identify(g: CausalGraph, inputs, query: Query, budget: SearchBudget | None = None) -> IdentifyResult:
    """Decide the query from the inputs in g, returning a functional when found.

    Each frontier key (a, b, c) is expanded with one ball-passing walk
    (``graph.reach``) from a in G_b-bar (edges into b cut) given b | c. It
    returns ``up`` (a and the vertices entered from a child) and ``down``
    (those entered from a parent); ``seen = up | down``, ``an`` is the
    reflexive ancestors of c in G_b-bar and ``hit`` the children in G of
    ``seen - (b | c)``. A single vertex v passes a rule's guard iff:

    ========================  ==========================================
    rule 1 deletion, v in c   v not in seen
    rule 1 insertion, v free  v not in seen
    rule 2 b -> c, v in b     v not in hit
    rule 2 c -> b, v in c     v not in down
    rule 3 deletion, v in b   v not in seen, nor in hit when v is in an
    rule 3 insertion, v free  v not in up
    ========================  ==========================================

    By the intersection and composition properties of d-separation a whole
    pool of two or more vertices passes iff each member does, for every move
    but rule 3 deletion, where that is only necessary: deleting all of b is
    then tested on its own cut graph by a walk that stops at b. Passing
    candidates are tried whole pool first, then singletons by bit.
    """
    budget = budget or SearchBudget()
    inputs = tuple(inputs)
    validate_inputs(g, inputs, query)
    eng = _Engine(g)
    mask = g.mask_of
    m = g.n_observed
    m2 = 2 * m
    low = (1 << m2) - 1  # the (b, c) part of a key

    def pack(a, b, c) -> int:
        return mask(a) << m2 | mask(b) << m | mask(c)

    goal = pack(query.y, query.x, ())
    store: dict = {}
    by_bc: dict = {}  # key & low: the keys with that (b, c)
    by_bac: dict = {}  # key & low | a: the keys with that (b, a | c)

    def add(key, deriv) -> bool:
        if key in store:
            return False
        store[key] = deriv
        bc = key & low
        by_bc.setdefault(bc, []).append(key)
        by_bac.setdefault(bc | key >> m2, []).append(key)
        return True

    def finish(depth):
        f = _build(goal, store, inputs, g)
        assert free_variables(f) <= query.y | query.x
        return IdentifyResult(IDENTIFIED, f, len(store), depth)

    for i, dist in enumerate(inputs):
        add(pack(dist.a, dist.b, dist.c), ("input", i))

    if goal in store:
        return finish(0)

    obs = g.observed_mask
    depth = 0
    layer = list(store)
    while True:
        if depth >= budget.max_depth:
            return IdentifyResult(BUDGET_EXCEEDED, None, len(store), depth)
        frontier, layer = sorted(layer), []
        nd = depth + 1
        for key in frontier:
            a, b, c = key >> m2, key >> m & obs, key & obs
            derived = []
            emit = derived.append

            # a move is built only when its target is not stored yet: add
            # would drop a stored target anyway
            if a & (a - 1):
                rest = a
                while rest:
                    vb = rest & -rest
                    rest ^= vb
                    t = key ^ vb << m2
                    if t not in store:
                        emit((t, ("marg", vb, key)))
                    t ^= vb
                    if t not in store:
                        emit((t, ("cond", vb, key)))

            free = obs & ~(a | b | c)
            r1del, r1ins, r2bc, r2cb, r3del, r3ins = eng.guards(a, b, c, free)
            # rule 1: delete then insert observations
            if r1del:
                for z in _passing(r1del, r1del == c):
                    t = key ^ z
                    if t not in store:
                        emit((t, ("pin", z, key)))
            if r1ins:
                for z in _passing(r1ins, r1ins == free):
                    t = key | z
                    if t not in store:
                        emit((t, ("rule", key)))
            # rule 2: exchange actions and observations, both directions
            if r2bc:
                for z in _passing(r2bc, r2bc == b):
                    t = key ^ (z << m | z)
                    if t not in store:
                        emit((t, ("rule", key)))
            if r2cb:
                for z in _passing(r2cb, r2cb == c):
                    t = key ^ (z << m | z)
                    if t not in store:
                        emit((t, ("rule", key)))
            # rule 3: delete then insert actions; passing singletons are only
            # necessary for deleting the whole of b, which gets its own walk
            if r3del:
                for z in _passing(r3del, r3del == b):
                    t = key ^ z << m
                    if t not in store and (
                        not z & (z - 1) or eng.dsep(b & ~eng.ancestors(0, c), 0, a, b, c)
                    ):
                        emit((t, ("pin", z, key)))
            if r3ins:
                for z in _passing(r3ins, r3ins == free):
                    t = key | z << m
                    if t not in store:
                        emit((t, ("rule", key)))
            # chain composition with every stored partner; a is never empty,
            # so the key is not its own partner
            bc = key & low
            partners = by_bac.get(bc)
            if partners:
                for t2 in sorted(partners):
                    t = t2 | a << m2
                    if t not in store:
                        emit((t, ("prod", key, t2)))
            partners = by_bc.get(bc | a)
            if partners:
                for t1 in sorted(partners):
                    t = key | t1 & ~low
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
        rest = parent >> 2 * g.n_observed & ~vb
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
