"""Ground truth computed apart from the program.

Nothing here calls ``dofuse``'s algorithms:

- ``Model`` draws a random positive binary model over a graph and computes
  p(y | do(x)) by truncated factorization with one ``numpy.einsum`` over
  every configuration. ``dofuse.scm`` is used only to hand the same tables
  to ``evaluate_functional``.
- ``transit_clusters`` checks the five transit-cluster conditions literally,
  with Python sets, over every subset.
- ``d_separated`` uses the moralized ancestral graph, a different criterion
  from the program's ball-passing walk.

Structures are ``(observed, edges, latents)`` with ``latents`` mapping a
latent's name to its children, as ``definitions.parse_structure`` returns.
"""

from __future__ import annotations

from itertools import combinations
from string import ascii_letters

import numpy as np


def adjacency(observed, edges, latents):
    """(names, parents, children); names are sorted observed, then sorted latents."""
    names = sorted(observed) + sorted(latents)
    parents = {v: set() for v in names}
    children = {v: set() for v in names}
    for p, c in edges:
        parents[c].add(p)
        children[p].add(c)
    for u, kids in latents.items():
        for k in kids:
            parents[k].add(u)
            children[u].add(k)
    return names, parents, children


class Model:
    """Random binary model with every table entry in [0.05, 1] before normalizing.

    Table axes are (parents in name order..., vertex), which is also the
    layout ``dofuse.scm.DiscreteSCM`` expects for graphs whose vertex order
    is sorted observed ids, then sorted latent ids.
    """

    def __init__(self, observed, edges, latents, rng):
        self.names, parents, _ = adjacency(observed, edges, latents)
        if len(self.names) > len(ascii_letters):
            raise ValueError("too many vertices for one einsum")
        pos = {v: i for i, v in enumerate(self.names)}
        self.parents = {v: sorted(parents[v], key=pos.get) for v in self.names}
        self.tables = {}
        for v in self.names:
            raw = rng.uniform(0.05, 1.0, size=(2,) * (len(self.parents[v]) + 1))
            self.tables[v] = raw / raw.sum(axis=-1, keepdims=True)
        self._letter = {v: ascii_letters[i] for i, v in enumerate(self.names)}

    def interventional(self, y, x) -> np.ndarray:
        """p(y | do(x)) with axes (sorted y..., sorted x...)."""
        x = set(x)
        operands, subscripts = [], []
        for v in self.names:
            if v in x:
                continue
            operands.append(self.tables[v])
            subscripts.append("".join(self._letter[p] for p in self.parents[v]) + self._letter[v])
        for v in sorted(x):  # keep every intervened axis even when no factor mentions it
            operands.append(np.ones(2))
            subscripts.append(self._letter[v])
        out = "".join(self._letter[v] for v in sorted(y) + sorted(x))
        return np.einsum(",".join(subscripts) + "->" + out, *operands, optimize="greedy")

    def scm(self, graph):
        from dofuse.scm import DiscreteSCM

        if tuple(graph.names) != tuple(self.names):
            raise ValueError(f"vertex order differs: {graph.names} vs {self.names}")
        return DiscreteSCM(graph, (2,) * len(self.names), tuple(self.tables[v] for v in self.names))


TOLERANCE = 1e-9


def functional_problems(evaluate, structure, graph, y, x, rng, n_models: int):
    """Check an identified functional on ``n_models`` random models.

    ``evaluate(scm)`` returns the functional's table with axes (sorted y...,
    sorted x...). It must match p(y | do(x)) from truncated factorization,
    and for each x its values must lie in [0, 1] and sum to 1 over y.
    """
    problems = []
    for _ in range(n_models):
        model = Model(*structure, rng)
        values = np.asarray(evaluate(model.scm(graph)), dtype=float)
        err = float(np.abs(values - model.interventional(y, x)).max())
        if err > TOLERANCE:
            problems.append(f"differs from truncated factorization by {err:.3g}")
        if values.min() < -TOLERANCE or values.max() > 1 + TOLERANCE:
            problems.append(f"values outside [0, 1]: [{values.min():.3g}, {values.max():.3g}]")
        gap = float(np.abs(values.sum(axis=tuple(range(len(y)))) - 1.0).max())
        if gap > TOLERANCE:
            problems.append(f"sums over y miss 1 by {gap:.3g}")
        if problems:
            break
    return problems


# -- transit clusters ------------------------------------------------------------


def reach(start, step, within):
    """``start`` and every vertex reached from it by ``step`` edges inside ``within``."""
    seen = set(start)
    stack = list(start)
    while stack:
        for w in step[stack.pop()] & within:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_transit_cluster(t: frozenset, parents, children) -> bool:
    receivers = {v for v in t if parents[v] - t}
    emitters = {v for v in t if children[v] - t}
    # (a) receivers share their outside parents; (b) emitters their outside children
    if len({frozenset(parents[r] - t) for r in receivers}) > 1:
        return False
    if len({frozenset(children[e] - t) for e in emitters}) > 1:
        return False
    # (c) with the edges into receivers and out of emitters removed, every
    # member with an edge is joined to a receiver or an emitter
    if not receivers | emitters:
        return True
    sealed = {v: set() for v in t}
    for c in t:
        for p in parents[c] & t:
            if c not in receivers and p not in emitters:
                sealed[c].add(p)
                sealed[p].add(c)
    joined = reach(receivers | emitters, sealed, t)
    if any(v not in joined and (parents[v] or children[v]) for v in t):
        return False
    # (d) each receiver reaches an emitter; (e) each emitter is reached from a
    # receiver; directed paths inside t, the empty path included
    if emitters and any(not reach({r}, children, t) & emitters for r in receivers):
        return False
    if receivers and any(not reach({e}, parents, t) & receivers for e in emitters):
        return False
    return True


def transit_clusters(names, parents, children):
    """Every transit cluster of size 2 .. n-1 as a set of frozensets."""
    found = set()
    for k in range(2, len(names)):
        for combo in combinations(sorted(names), k):
            t = frozenset(combo)
            if is_transit_cluster(t, parents, children):
                found.add(t)
    return found


# -- d-separation ------------------------------------------------------------------


def d_separated(parents, x, y, z) -> bool:
    """x and y d-separated by z: disconnected in the moralized ancestral graph minus z."""
    anc = set(x) | set(y) | set(z)
    stack = list(anc)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc:
                anc.add(p)
                stack.append(p)
    nbr = {v: set() for v in anc}
    for c in anc:
        pa = list(parents[c])
        for p in pa:
            nbr[c].add(p)
            nbr[p].add(c)
        for p, q in combinations(pa, 2):
            nbr[p].add(q)
            nbr[q].add(p)
    reached = reach(set(x), nbr, anc - set(z))
    return not reached & set(y)
