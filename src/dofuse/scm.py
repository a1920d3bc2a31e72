"""Discrete structural causal models and the truncated-factorization oracle.

Every vertex of the graph, latent confounders included, gets a finite
domain and a conditional probability table over its parents. The oracle
computes interventional distributions exactly by multiplying the CPT factors
of the ancestors of the variables asked for, except those of the intervened
vertices, over the grid of those ancestors and marginalizing, which is the
ground truth every symbolic result in the package is validated against.

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


def _joint(scm: DiscreteSCM, do_mask: int, keep: int) -> np.ndarray:
    """Marginal over keep of the truncated factorization that intervenes on do_mask.

    do_mask must lie inside keep. Only the factors of W = An(keep) are
    multiplied, over the grid of W alone: every vertex outside the ancestral
    set W has all its descendants outside it too, so its factor sums to one
    and the full grid is never needed. Axes are the members of keep in index
    order; an intervened axis no factor reads is broadcast.
    """
    g = scm.graph
    w = list(_iter_bits(g.ancestors_mask(keep, reflexive=True)))
    pos = {v: k for k, v in enumerate(w)}
    out = np.ones((1,) * len(w))
    for i in w:
        if (1 << i) & do_mask:
            continue
        axes = sorted(_iter_bits(g.parent_masks[i])) + [i]
        shape = [1] * len(w)
        for v in axes:
            shape[pos[v]] = scm.cards[v]
        out = out * np.transpose(scm.cpts[i], np.argsort(axes)).reshape(shape)
    out = out.sum(axis=tuple(k for k, v in enumerate(w) if not (1 << v) & keep))
    return np.broadcast_to(out, [scm.cards[v] for v in w if (1 << v) & keep]).copy()


def _check_positivity(scm: DiscreteSCM):
    # every CPT entry is a factor of some configuration's probability
    if scm.cpt_min() <= 0:
        raise EvaluationError("model violates positivity: some configuration has zero probability")


def _grouped(g: CausalGraph, arr: np.ndarray, *groups) -> np.ndarray:
    """arr, with one axis per member of the groups in index order, as (sorted group...)."""
    ix = [sorted(g._index[v] for v in names) for names in groups]
    kept = sorted(i for group in ix for i in group)
    return np.transpose(arr, [kept.index(i) for group in ix for i in group])


def oracle_interventional(scm: DiscreteSCM, query: Query) -> np.ndarray:
    """Exact p(y | do(x)) with axes (sorted y..., sorted x...)."""
    _check_positivity(scm)
    g = scm.graph
    x = g.mask_of(query.x)
    return _grouped(g, _joint(scm, x, x | g.mask_of(query.y)), query.y, query.x)


def input_table(scm: DiscreteSCM, a, b, c) -> np.ndarray:
    """p(a | do(b), c) with axes (sorted a..., sorted b..., sorted c...)."""
    g = scm.graph
    key = (tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(c)))
    got = scm._cache.get(key)
    if got is not None:
        return got
    a_mask, b_mask = g.mask_of(a), g.mask_of(b)
    keep = a_mask | b_mask | g.mask_of(c)
    joint = _joint(scm, b_mask, keep)
    kept = list(_iter_bits(keep))
    cond = joint.sum(axis=tuple(k for k, v in enumerate(kept) if (1 << v) & a_mask), keepdims=True)
    if float(cond.min()) <= 0:
        raise EvaluationError("conditioning event has zero probability")
    out = scm._cache[key] = _grouped(g, joint / cond, a, b, c)
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
