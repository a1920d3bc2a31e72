"""Symbolic identifying functionals: sums, products, quotients, input references.

An ``InputRef`` cites one input distribution by index together with the
variable sets it is read with; rules of do-calculus never change the numeric
content of a referenced table, so derivation steps that merely relicense a
term reuse the child expression unchanged. Bound variables are introduced
by ``SumOver`` nodes; the same vertex name may be rebound in disjoint
scopes, and rendering disambiguates shadowed names with primes. Trees built
from derivation backtracking share subterms, so traversals memoize by node
identity. ``transform`` is the one memoized bottom-up walker over these
trees; every bottom-up computation, the lifts and numeric evaluation in
``scm`` included, is a callback on it. Only ``render``, whose primes depend
on the enclosing scope, and ``from_json`` walk on their own. ``notation`` is
the one writer of ``p(a | do(b), c)``, for ``render`` and the input types.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InputRef:
    index: int
    a: tuple
    b: tuple = ()
    c: tuple = ()

    @property
    def variables(self):
        return frozenset(self.a) | frozenset(self.b) | frozenset(self.c)


@dataclass(frozen=True)
class SumOver:
    vars: tuple
    child: object


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Quotient:
    num: object
    den: object


@dataclass(frozen=True)
class Pinned:
    """Child evaluated with the named variables held at a reference value.

    Emitted when a do-calculus deletion drops a variable the child still
    mentions; the licensing d-separation makes the child constant in it, so
    fixing any value is exact.
    """

    vars: tuple
    child: object


def _children(node):
    if isinstance(node, SumOver):
        return (node.child,)
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Quotient):
        return (node.num, node.den)
    if isinstance(node, Pinned):
        return (node.child,)
    return ()


def free_variables(node, _memo=None) -> frozenset:
    """Free variables; ``_memo`` lets callers share one memo across subtrees."""
    return transform(node, _free, _memo)


def _free(node, kids):
    if isinstance(node, InputRef):
        return node.variables
    if isinstance(node, (SumOver, Pinned)):
        return kids[0] - frozenset(node.vars)
    if isinstance(node, (Product, Quotient)):
        return frozenset().union(*kids)
    raise TypeError(f"not a functional node: {node!r}")


def with_children(node, kids):
    """Node rebuilt over new children, in ``_children`` order; leaves as is."""
    if isinstance(node, InputRef):
        return node
    if isinstance(node, (SumOver, Pinned)):
        return type(node)(node.vars, kids[0])
    if isinstance(node, Product):
        return Product(tuple(kids))
    if isinstance(node, Quotient):
        return Quotient(*kids)
    raise TypeError(f"not a functional node: {node!r}")


def transform(node, fn, memo=None):
    """Bottom-up map: ``fn(node, kids)`` gets node and its children already mapped.

    Memoized by node identity, so a subterm shared across the tree is mapped
    once and its image is shared the same way; calls with one ``fn`` may
    share a ``memo``.
    """
    return _walk(node, fn, {} if memo is None else memo)


def _walk(node, fn, memo):
    # a module-level function, not a closure over itself: such a cycle would
    # keep the memo, and with it every image, alive until the cyclic collector runs
    got = memo.get(id(node))
    if got is None:
        got = memo[id(node)] = fn(node, tuple(_walk(c, fn, memo) for c in _children(node)))
    return got


def node_count(node) -> int:
    """Distinct nodes in the expression DAG."""
    memo: dict = {}
    transform(node, lambda n, kids: True, memo)
    return len(memo)


def canonicalize(node):
    """Normal form: flattened sorted products, merged adjacent sums."""
    return transform(node, _canonical)


def _canonical(node, kids):
    if isinstance(node, InputRef):
        return InputRef(node.index, tuple(sorted(node.a)), tuple(sorted(node.b)), tuple(sorted(node.c)))
    if isinstance(node, (SumOver, Pinned)):
        child = kids[0]
        vars_ = frozenset(node.vars) & free_variables(child)
        if not vars_:
            return child
        if isinstance(child, type(node)):
            return type(node)(tuple(sorted(vars_ | frozenset(child.vars))), child.child)
        return type(node)(tuple(sorted(vars_)), child)
    if isinstance(node, Product):
        factors = []
        for f in kids:
            factors.extend(f.factors if isinstance(f, Product) else (f,))
        return factors[0] if len(factors) == 1 else Product(tuple(sorted(factors, key=render)))
    if isinstance(node, Quotient):
        return Quotient(*kids)
    raise TypeError(f"not a functional node: {node!r}")


def notation(a, b, c, bar: str) -> str:
    """``p(a<bar>do(b),c)`` from id lists already in order, leaving out empty b and c."""
    head = ",".join(a)
    if not b and not c:
        return f"p({head})"
    tail = ",".join(c)
    if b:
        tail = f"do({','.join(b)}),{tail}" if c else f"do({','.join(b)})"
    return f"p({head}{bar}{tail})"


def render(node, _names=None, _used=None) -> str:
    """Plain-text form, e.g. ``sum_{w1} p(y|do(w1)) * p(w1)``."""
    if _names is None:
        _names = {}
        _used = {str(v) for v in free_variables(node)}
    if isinstance(node, InputRef):
        a, b, c = ([_names.get(v, v) for v in sorted(vs)] for vs in (node.a, node.b, node.c))
        return notation(a, b, c, "|")
    if isinstance(node, SumOver):
        names = dict(_names)
        used = set(_used)
        for v in sorted(node.vars):
            shown = v
            while shown in used:
                shown += "'"
            names[v] = shown
            used.add(shown)
        label = ",".join(names[v] for v in sorted(node.vars))
        return f"sum_{{{label}}} {render(node.child, names, used)}"
    if isinstance(node, Product):
        return " * ".join(
            f"({render(f, _names, _used)})"
            if isinstance(f, (SumOver, Quotient))
            else render(f, _names, _used)
            for f in node.factors
        )
    if isinstance(node, Quotient):
        return f"[{render(node.num, _names, _used)} / {render(node.den, _names, _used)}]"
    if isinstance(node, Pinned):
        label = ",".join(f"{_names.get(v, v)}*" for v in sorted(node.vars))
        return f"[{render(node.child, _names, _used)}]_{{{label}}}"
    raise TypeError(f"not a functional node: {node!r}")


def to_json(node) -> dict:
    """JSON-ready form; a shared subterm maps to one shared dict."""
    return transform(node, _json)


def _json(node, kids):
    if isinstance(node, InputRef):
        return {
            "kind": "input",
            "index": node.index,
            "a": sorted(node.a),
            "b": sorted(node.b),
            "c": sorted(node.c),
        }
    if isinstance(node, SumOver):
        return {"kind": "sum", "vars": sorted(node.vars), "child": kids[0]}
    if isinstance(node, Product):
        return {"kind": "product", "factors": list(kids)}
    if isinstance(node, Quotient):
        return {"kind": "quotient", "num": kids[0], "den": kids[1]}
    if isinstance(node, Pinned):
        return {"kind": "pinned", "vars": sorted(node.vars), "child": kids[0]}
    raise TypeError(f"not a functional node: {node!r}")


def from_json(data: dict):
    kind = data["kind"]
    if kind == "input":
        return InputRef(data["index"], tuple(data["a"]), tuple(data["b"]), tuple(data["c"]))
    if kind == "sum":
        return SumOver(tuple(data["vars"]), from_json(data["child"]))
    if kind == "product":
        return Product(tuple(from_json(f) for f in data["factors"]))
    if kind == "quotient":
        return Quotient(from_json(data["num"]), from_json(data["den"]))
    if kind == "pinned":
        return Pinned(tuple(data["vars"]), from_json(data["child"]))
    raise ValueError(f"unknown functional node kind {kind!r}")
