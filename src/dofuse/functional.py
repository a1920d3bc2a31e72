"""Symbolic identifying functionals: sums, products, quotients, input references.

An ``InputRef`` cites one input distribution by index together with the
variable sets it is read with; rules of do-calculus never change the numeric
content of a referenced table, so derivation steps that merely relicense a
term reuse the child expression unchanged. Bound variables are introduced
by ``SumOver`` nodes; the same vertex name may be rebound in disjoint
scopes, and rendering disambiguates shadowed names with primes. Trees built
from derivation backtracking share subterms, so traversals memoize by node
identity. ``transform`` is the one memoized bottom-up mapper over these
trees; ``canonicalize`` and the lifts through clustering and pruning are
callbacks on it.
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
    if _memo is None:
        _memo = {}
    got = _memo.get(id(node))
    if got is not None:
        return got
    if isinstance(node, InputRef):
        out = node.variables
    elif isinstance(node, (SumOver, Pinned)):
        out = free_variables(node.child, _memo) - frozenset(node.vars)
    elif isinstance(node, (Product, Quotient)):
        out = frozenset()
        for f in _children(node):
            out |= free_variables(f, _memo)
    else:
        raise TypeError(f"not a functional node: {node!r}")
    _memo[id(node)] = out
    return out


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


def transform(node, fn):
    """Bottom-up map: ``fn(node, kids)`` gets node and its children already mapped.

    Memoized by node identity, so a subterm shared across the tree is mapped
    once and its image is shared the same way.
    """
    memo: dict = {}

    def walk(n):
        got = memo.get(id(n))
        if got is None:
            got = memo[id(n)] = fn(n, tuple(walk(c) for c in _children(n)))
        return got

    return walk(node)


def node_count(node, _seen=None) -> int:
    """Distinct nodes in the expression DAG."""
    if _seen is None:
        _seen = set()
    if id(node) in _seen:
        return 0
    _seen.add(id(node))
    return 1 + sum(node_count(c, _seen) for c in _children(node))


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


def _render_ref(node: InputRef, names) -> str:
    def fmt(vals):
        return ",".join(names.get(v, v) for v in sorted(vals))

    head = fmt(node.a)
    tail = []
    if node.b:
        tail.append(f"do({fmt(node.b)})")
    if node.c:
        tail.append(fmt(node.c))
    return f"p({head}|{','.join(tail)})" if tail else f"p({head})"


def render(node, _names=None, _used=None) -> str:
    """Plain-text form, e.g. ``sum_{w1} p(y|do(w1)) * p(w1)``."""
    if _names is None:
        _names = {}
        _used = {str(v) for v in free_variables(node)}
    if isinstance(node, InputRef):
        return _render_ref(node, _names)
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
    if isinstance(node, InputRef):
        return {
            "kind": "input",
            "index": node.index,
            "a": sorted(node.a),
            "b": sorted(node.b),
            "c": sorted(node.c),
        }
    if isinstance(node, SumOver):
        return {"kind": "sum", "vars": sorted(node.vars), "child": to_json(node.child)}
    if isinstance(node, Product):
        return {"kind": "product", "factors": [to_json(f) for f in node.factors]}
    if isinstance(node, Quotient):
        return {"kind": "quotient", "num": to_json(node.num), "den": to_json(node.den)}
    if isinstance(node, Pinned):
        return {"kind": "pinned", "vars": sorted(node.vars), "child": to_json(node.child)}
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
