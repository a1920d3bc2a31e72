"""Discrete structural causal models and the truncated-factorization oracle.

Every vertex of the graph, latent confounders included, gets a finite
domain and a conditional probability table over its parents. The oracle
computes interventional distributions exactly by multiplying all CPT factors
except those of the intervened vertices over the full configuration grid and
marginalizing, which is the ground truth every symbolic result in the
package is validated against.

A functional is evaluated by one ``transform`` fold that maps each node to
its sorted free variables and an array with one axis per variable: input
references read ``input_table``, sums and pins reduce axes, products and
quotients broadcast over the union of their operands' variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .functional import InputRef, Pinned, Product, Quotient, SumOver, free_variables, transform
from .graph import CausalGraph, _iter_bits
from .distributions import Query


class EvaluationError(ValueError):
    """Division by zero or positivity violation during numeric evaluation."""


@dataclass(frozen=True, eq=False)
class DiscreteSCM:
    """CPTs indexed by vertex; cpt axes are (sorted parents..., vertex)."""

    graph: CausalGraph
    cards: tuple
    cpts: tuple
    _cache: dict = field(default_factory=dict, repr=False)

    def card(self, name: str) -> int:
        return self.cards[self.graph._index[name]]

    def cpt_min(self) -> float:
        return min(float(c.min()) for c in self.cpts)


def random_scm(g: CausalGraph, rng, card: int = 2, floor: float = 0.01) -> DiscreteSCM:
    """Uniform random CPTs, floored and renormalized to guarantee positivity."""
    n = len(g.names)
    cards = (card,) * n
    cpts = []
    for i in range(n):
        parents = sorted(_iter_bits(g.parent_masks[i]))
        shape = tuple(cards[p] for p in parents) + (cards[i],)
        raw = rng.uniform(size=shape)
        raw = np.maximum(raw, floor)
        cpts.append(raw / raw.sum(axis=-1, keepdims=True))
    return DiscreteSCM(g, cards, tuple(cpts))


def _expand(scm: DiscreteSCM, i: int) -> np.ndarray:
    """CPT of vertex i broadcast over the full configuration grid."""
    g = scm.graph
    n = len(g.names)
    axes = sorted(_iter_bits(g.parent_masks[i])) + [i]
    order = np.argsort(axes)
    arr = np.transpose(scm.cpts[i], order)
    shape = [1] * n
    for a in axes:
        shape[a] = scm.cards[a]
    return arr.reshape(shape)


def _truncated(scm: DiscreteSCM, do_mask: int) -> np.ndarray:
    """Product of all factors except the intervened ones, over the full grid.

    Axes of intervened vertices stay free, so one array simultaneously holds
    the interventional joint for every value assignment to them.
    """
    key = ("trunc", do_mask)
    got = scm._cache.get(key)
    if got is not None:
        return got
    n = len(scm.graph.names)
    out = np.ones((1,) * n)
    for i in range(n):
        if not (1 << i) & do_mask:
            out = out * _expand(scm, i)
    out = np.broadcast_to(out, scm.cards).copy() if out.shape != scm.cards else out
    scm._cache[key] = out
    return out


def _check_positivity(scm: DiscreteSCM):
    if scm.cpt_min() > 0:
        return
    joint = _truncated(scm, 0)
    if float(joint.min()) <= 0:
        raise EvaluationError("model violates positivity: some configuration has zero probability")


def _marginal(scm: DiscreteSCM, arr: np.ndarray, keep_mask: int) -> np.ndarray:
    drop = [i for i in range(len(scm.graph.names)) if not (1 << i) & keep_mask]
    return arr.sum(axis=tuple(drop), keepdims=True) if drop else arr


def oracle_interventional(scm: DiscreteSCM, query: Query) -> np.ndarray:
    """Exact p(y | do(x)) with axes (sorted y..., sorted x...)."""
    _check_positivity(scm)
    g = scm.graph
    y_ix = sorted(g._index[v] for v in query.y)
    x_ix = sorted(g._index[v] for v in query.x)
    do_mask = 0
    for i in x_ix:
        do_mask |= 1 << i
    keep = do_mask
    for i in y_ix:
        keep |= 1 << i
    t = _truncated(scm, do_mask)
    m = _marginal(scm, t, keep)
    m = np.squeeze(m, axis=tuple(i for i in range(len(g.names)) if not (1 << i) & keep))
    # squeezed axes are ordered by vertex index; regroup as (y..., x...)
    kept = sorted(y_ix + x_ix)
    perm = [kept.index(i) for i in y_ix] + [kept.index(i) for i in x_ix]
    return np.transpose(m, perm)


def input_table(scm: DiscreteSCM, a, b, c) -> np.ndarray:
    """p(a | do(b), c) with axes (sorted a..., sorted b..., sorted c...)."""
    g = scm.graph
    key = ("table", tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(c)))
    got = scm._cache.get(key)
    if got is not None:
        return got
    a_ix = sorted(g._index[v] for v in a)
    b_ix = sorted(g._index[v] for v in b)
    c_ix = sorted(g._index[v] for v in c)
    do_mask = 0
    for i in b_ix:
        do_mask |= 1 << i
    keep = do_mask
    for i in a_ix + c_ix:
        keep |= 1 << i
    t = _truncated(scm, do_mask)
    joint = _marginal(scm, t, keep)
    a_mask = 0
    for i in a_ix:
        a_mask |= 1 << i
    cond = _marginal(scm, joint, keep & ~a_mask)
    if float(cond.min()) <= 0:
        raise EvaluationError("conditioning event has zero probability")
    table = joint / cond
    table = np.squeeze(table, axis=tuple(i for i in range(len(g.names)) if not (1 << i) & keep))
    kept = sorted(a_ix + b_ix + c_ix)
    perm = [kept.index(i) for i in a_ix + b_ix + c_ix]
    out = np.transpose(table, perm)
    scm._cache[key] = out
    return out


def _fold(scm: DiscreteSCM):
    """``transform`` callback: node -> (sorted free variables, array, one axis each).

    A zero denominator gives NaN, which reaches exactly the entries that read it.
    """

    def align(parts):
        names = sorted(frozenset().union(*(v for v, _ in parts)))
        return names, [arr.reshape([scm.card(n) if n in v else 1 for n in names]) for v, arr in parts]

    def fold(node, kids):
        if isinstance(node, InputRef):
            names = sorted(node.a) + sorted(node.b) + sorted(node.c)
            order = sorted(range(len(names)), key=names.__getitem__)
            table = input_table(scm, node.a, node.b, node.c)
            return sorted(names), table.transpose(order)
        if isinstance(node, (SumOver, Pinned)):
            names, arr = kids[0]
            rest = [n for n in names if n not in node.vars]
            if isinstance(node, Pinned):
                return rest, arr[tuple(0 if n in node.vars else slice(None) for n in names)]
            axes = tuple(i for i, n in enumerate(names) if n in node.vars)
            unused = [scm.card(v) for v in node.vars if v not in names]
            return rest, arr.sum(axis=axes) * float(np.prod(unused))
        if isinstance(node, Product):
            names, arrs = align(kids)
            return names, reduce(np.multiply, arrs, 1.0)
        if isinstance(node, Quotient):
            names, (num, den) = align(kids)
            out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan)
            return names, np.divide(num, den, out=out, where=den != 0)
        raise TypeError(f"not a functional node: {node!r}")

    return fold


def evaluate_functional(f, scm: DiscreteSCM, query: Query) -> np.ndarray:
    """Evaluate a functional to a table with axes (sorted y..., sorted x...)."""
    fv = free_variables(f)
    if not fv <= query.y | query.x:
        raise EvaluationError(
            f"functional has free variables {sorted(fv - (query.y | query.x))} "
            "outside the query"
        )
    names, arr = transform(f, _fold(scm))
    target = sorted(query.y) + sorted(query.x)
    # query variables the functional does not use get broadcast axes
    arr = np.expand_dims(arr, tuple(range(len(names), len(target))))
    arr = np.moveaxis(arr, range(len(names)), [target.index(n) for n in names])
    out = np.broadcast_to(arr, [scm.card(v) for v in target]).copy()
    bad = np.argwhere(np.isnan(out))
    if len(bad):
        raise EvaluationError(f"division by zero at assignment {sorted(zip(target, bad[0].tolist()))}")
    return out


def evaluate_at(f, scm: DiscreteSCM, bindings: dict) -> float:
    """Evaluate at one assignment of the free variables."""
    names, arr = transform(f, _fold(scm))
    value = float(arr[tuple(bindings[n] for n in names)])
    if np.isnan(value):
        raise EvaluationError(f"division by zero at assignment {sorted(bindings.items())}")
    return value
