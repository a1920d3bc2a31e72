"""Independent test-side oracles.

Everything here deliberately avoids the package's own algorithms: the
d-separation oracle enumerates simple paths and applies the blocking
definition literally, reachability is a plain BFS, the transit-cluster
oracle checks the five conditions on name sets, the pruned-model
construction marginalizes dropped parents directly on the joint table, and
the scalar evaluator computes one entry of a functional by recursion over
assignments, reading only the package's input tables.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from dofuse import CausalGraph, DiscreteSCM, input_table
from dofuse.functional import InputRef, Pinned, Product, SumOver
from dofuse.scm import _expand, _truncated


def full_adjacency(g: CausalGraph):
    """(parents, children) dicts over all vertices, latents included."""
    parents = {v: set() for v in g.names}
    children = {v: set() for v in g.names}
    for p, c in g.edge_list():
        parents[c].add(p)
        children[p].add(c)
    for u, kids in g.latent_children_map().items():
        for k in kids:
            parents[k].add(u)
            children[u].add(k)
    return parents, children


def reach_oracle(g: CausalGraph, start, direction: str):
    """Strict ancestors/descendants by repeated edge relaxation."""
    parents, children = full_adjacency(g)
    step = parents if direction == "ancestors" else children
    out: set = set()
    frontier = set(start)
    while frontier:
        nxt = set()
        for v in frontier:
            nxt |= step[v]
        frontier = nxt - out
        out |= frontier
    return out


def dsep_paths_oracle(g: CausalGraph, x, y, z) -> bool:
    """Literal blocking definition over all simple undirected paths."""
    parents, children = full_adjacency(g)
    z = set(z)
    de_z_or_z = {v: bool(({v} | reach_oracle(g, {v}, "descendants")) & z) for v in g.names}

    def blocked(path) -> bool:
        for i in range(1, len(path) - 1):
            a, m, b = path[i - 1], path[i], path[i + 1]
            collider = a in parents[m] and b in parents[m]
            if collider:
                if not de_z_or_z[m]:
                    return True
            elif m in z:
                return True
        return False

    x, y = set(x), set(y)
    if x & y or x & z or y & z:
        raise ValueError("sets overlap")
    neighbors = {v: parents[v] | children[v] for v in g.names}

    def connected(s) -> bool:
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            if v in y and len(path) > 1:
                if not blocked(path):
                    return True
                continue
            if v in y:
                continue
            for w in neighbors[v]:
                if w not in path:
                    if w in y:
                        if not blocked(path + [w]):
                            return True
                    else:
                        stack.append((w, path + [w]))
        return False

    return not any(connected(s) for s in x)


def transit_cluster_oracle(g: CausalGraph, t):
    """(ok, receivers, emitters) of t, from the definition on name sets.

    Receivers have a parent outside t, emitters a child outside it. (a) All
    receivers share their outside parents and (b) all emitters their outside
    children. (c) With the edges into receivers and out of emitters removed,
    every member that has an edge is joined to a receiver or an emitter by
    an undirected path inside t. (d) When t has emitters, each receiver
    reaches one by a directed path inside t, and (e) when t has receivers,
    each emitter is reached from one; the path of length zero counts.
    """
    parents, children = full_adjacency(g)
    t = frozenset(t)
    rec = frozenset(v for v in t if parents[v] - t)
    em = frozenset(v for v in t if children[v] - t)

    def inside(start, step):
        seen, todo = set(start), list(start)
        while todo:
            for w in step(todo.pop()):
                if w in t and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    ok = len({frozenset(parents[r] - t) for r in rec}) <= 1
    ok = ok and len({frozenset(children[e] - t) for e in em}) <= 1
    if ok and rec | em:
        sealed = {v: set() for v in t}
        for c in t - rec:
            for p in parents[c] - em:
                sealed[p].add(c)
                sealed[c].add(p)
        joined = inside(rec | em, sealed.get)
        ok = all(v in joined for v in t if parents[v] | children[v])
        ok = ok and not (em and any(not inside({r}, children.get) & em for r in rec))
        ok = ok and not (rec and any(not inside({e}, parents.get) & rec for e in em))
    return ok, rec, em


def random_dag(rng, n_obs: int, p_edge: float = 0.35, n_latents: int = 0) -> CausalGraph:
    names = [f"V{i}" for i in range(n_obs)]
    order = [names[i] for i in rng.permutation(n_obs)]
    edges = []
    for i in range(n_obs):
        for j in range(i + 1, n_obs):
            if rng.random() < p_edge:
                edges.append((order[i], order[j]))
    latents = {}
    for k in range(n_latents):
        size = int(rng.integers(2, min(4, n_obs) + 1))
        kids = sorted(rng.choice(n_obs, size=size, replace=False))
        latents[f"L{k}"] = [names[i] for i in kids]
    return CausalGraph(names, edges, latents)


def random_connected_dag(rng, n_obs, p_edge=0.4, n_latents=0) -> CausalGraph:
    for _ in range(200):
        g = random_dag(rng, n_obs, p_edge, n_latents)
        if g.is_connected():
            return g
    raise RuntimeError("no connected draw")


def induce_pruned_scm(scm: DiscreteSCM, g2: CausalGraph, fresh: set, rng) -> DiscreteSCM:
    """The pruned-graph model induced by a pruning operation.

    Surviving vertices keep their tables; vertices in ``fresh`` (intervened
    vertices whose table cannot matter under do) get new random tables;
    vertices that lost parents get those parents marginalized out against
    their joint law, which the pruning operations guarantee is independent
    of the kept parents.
    """
    g = scm.graph
    parents1, _ = full_adjacency(g)
    parents2, _ = full_adjacency(g2)
    n = len(g.names)
    cards = tuple(scm.cards[g._index[v]] for v in g2.names)
    cpts = []
    joint = None
    for v in g2.names:
        i2 = g2._index[v]
        i1 = g._index[v]
        pa2 = parents2[v]
        pa1 = parents1[v]
        if pa1 == pa2:
            cpts.append(scm.cpts[i1])
            continue
        if v in fresh:
            shape = tuple(scm.cards[g._index[p]] for p in sorted(pa2, key=g2._index.get)) + (
                scm.cards[i1],
            )
            raw = np.maximum(rng.uniform(size=shape), 0.01)
            cpts.append(raw / raw.sum(axis=-1, keepdims=True))
            continue
        dropped = pa1 - pa2
        assert pa2 <= pa1, f"{v} gained parents"
        if joint is None:
            joint = _truncated(scm, 0)
        drop_mask = 0
        for p in dropped:
            drop_mask |= 1 << g._index[p]
        keep_axes = [g._index[p] for p in pa2] + [i1]
        pd = joint
        for ax in range(n):
            if not (1 << ax) & drop_mask:
                pd = pd.sum(axis=ax, keepdims=True)
        factor = _expand(scm, i1) * pd
        drop_axes = tuple(ax for ax in range(n) if (1 << ax) & drop_mask)
        merged = factor.sum(axis=drop_axes, keepdims=True)
        squeeze = tuple(ax for ax in range(n) if ax not in keep_axes)
        merged = np.squeeze(merged, axis=squeeze)
        # axes come out in ascending original index; the target layout is
        # (parents sorted by new index, vertex last), which coincides because
        # both graphs sort names the same way
        kept_sorted = sorted(keep_axes)
        perm = [kept_sorted.index(g._index[p]) for p in sorted(pa2, key=g2._index.get)]
        perm.append(kept_sorted.index(i1))
        cpts.append(np.transpose(merged, perm))
    return DiscreteSCM(g2, cards, tuple(cpts))


def evaluate_scalar(f, scm: DiscreteSCM, env: dict, _memo=None) -> float:
    """One entry of a functional, visiting each assignment it reads.

    Sums enumerate their domains, pins read index 0, and a zero denominator
    raises ``ZeroDivisionError``. The memo is keyed by node and the whole
    assignment, bound variables included.
    """
    memo = {} if _memo is None else _memo
    key = (id(f), tuple(sorted(env.items())))
    if key in memo:
        return memo[key]
    if isinstance(f, InputRef):
        table = input_table(scm, f.a, f.b, f.c)
        out = float(table[tuple(env[v] for v in sorted(f.a) + sorted(f.b) + sorted(f.c))])
    elif isinstance(f, SumOver):
        domains = product(*(range(scm.card(v)) for v in f.vars))
        out = sum(evaluate_scalar(f.child, scm, {**env, **dict(zip(f.vars, vals))}, memo) for vals in domains)
    elif isinstance(f, Pinned):
        out = evaluate_scalar(f.child, scm, {**env, **dict.fromkeys(f.vars, 0)}, memo)
    elif isinstance(f, Product):
        out = math.prod(evaluate_scalar(x, scm, env, memo) for x in f.factors)
    else:
        den = evaluate_scalar(f.den, scm, env, memo)
        if den == 0:
            raise ZeroDivisionError(f"zero denominator at {sorted(env.items())}")
        out = evaluate_scalar(f.num, scm, env, memo) / den
    memo[key] = out
    return out
