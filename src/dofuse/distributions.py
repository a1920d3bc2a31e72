"""Input distributions p(A | do(B), C), target queries and their transforms.

The two transforms defined here are restriction (what pruning does to the
inputs) and clustering (what replacing a transit cluster by a single vertex
does to them). Both keep a stable index pairing with the original inputs so
that identifying functionals can later be mapped back.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .clustering import _require_cluster
from .graph import CausalGraph, GraphError


class DistributionError(ValueError):
    """Malformed distribution or query."""


@dataclass(frozen=True)
class InputDistribution:
    """One data source p(a | do(b), c); a measured, b intervened, c conditioned."""

    a: frozenset
    b: frozenset = frozenset()
    c: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        object.__setattr__(self, "c", frozenset(self.c))
        if not self.a:
            raise DistributionError("measured set must be nonempty")
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise DistributionError("a, b, c must be pairwise disjoint")

    @property
    def variables(self) -> frozenset:
        return self.a | self.b | self.c

    def render(self) -> str:
        parts = [",".join(sorted(self.a))]
        tail = []
        if self.b:
            tail.append(f"do({','.join(sorted(self.b))})")
        if self.c:
            tail.append(",".join(sorted(self.c)))
        if tail:
            return f"p({parts[0]} | {','.join(tail)})"
        return f"p({parts[0]})"

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class Query:
    """Target causal effect p(y | do(x))."""

    y: frozenset
    x: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "x", frozenset(self.x))
        if not self.y:
            raise DistributionError("outcome set must be nonempty")
        if self.y & self.x:
            raise DistributionError("outcome and intervention sets must be disjoint")

    def render(self) -> str:
        if self.x:
            return f"p({','.join(sorted(self.y))} | do({','.join(sorted(self.x))}))"
        return f"p({','.join(sorted(self.y))})"

    def __repr__(self):
        return self.render()


_P_RE = re.compile(r"^\s*p\s*\((.*)\)\s*$", re.S)
_DO_RE = re.compile(r"do\s*\(([^()]*)\)")


def _split_names(text: str):
    return [t for t in re.split(r"[,\s]+", text.strip()) if t]


def parse_distribution(text: str) -> InputDistribution:
    """Parse ``p(a,b | do(c), d)``; the do-group is optional."""
    m = _P_RE.match(text)
    if not m:
        raise DistributionError(f"cannot parse distribution {text!r}")
    body = m.group(1)
    head, _, cond = body.partition("|")
    a = _split_names(head)
    b = []
    c = []
    if cond.strip():
        dos = _DO_RE.findall(cond)
        if len(dos) > 1:
            raise DistributionError("at most one do(...) group allowed")
        if dos:
            b = _split_names(dos[0])
        rest = _DO_RE.sub("", cond)
        c = _split_names(rest)
    if not a:
        raise DistributionError(f"empty measured set in {text!r}")
    # a parenthesis left in a name is a nested or unbalanced group, which
    # render would write back as a different distribution
    if any("(" in v or ")" in v for v in a + b + c):
        raise DistributionError(f"unbalanced parentheses in {text!r}")
    return InputDistribution(frozenset(a), frozenset(b), frozenset(c))


def parse_query(text: str) -> Query:
    """Parse ``p(y | do(x))``; exactly one do group, no extra conditioning."""
    dist = parse_distribution(text)
    if not dist.b:
        raise DistributionError(f"query needs a do(...) group: {text!r}")
    if dist.c:
        raise DistributionError(f"query must not condition outside do(...): {text!r}")
    return Query(dist.a, dist.b)


def validate_inputs(g: CausalGraph, inputs, query: Query | None = None):
    """Check that all referenced variables are observed vertices of g."""
    obs = g.observed
    for i, dist in enumerate(inputs):
        missing = dist.variables - obs
        if missing:
            raise GraphError(
                f"input {i} references non-observed vertex {sorted(missing)[0]}"
            )
    if query is not None:
        missing = (query.y | query.x) - obs
        if missing:
            raise GraphError(f"query references non-observed vertex {sorted(missing)[0]}")


def dedup_inputs(inputs):
    """Drop exact duplicates, keeping first occurrences and their order."""
    seen = set()
    out = []
    for dist in inputs:
        key = (dist.a, dist.b, dist.c)
        if key in seen:
            warnings.warn(f"duplicate input distribution {dist.render()} dropped")
            continue
        seen.add(key)
        out.append(dist)
    return tuple(out)


def restrict_inputs(inputs, w) -> tuple:
    """Inputs restricted to w: keep p(a∩w | do(b), c) when a∩w ≠ ∅ and b∪c ⊆ w."""
    return _restrict_with_indices(inputs, w)[0]


def _restrict_with_indices(inputs, w):
    """The restricted inputs and, for each, its index in ``inputs``."""
    w = frozenset(w)
    kept, indices = [], []
    for i, dist in enumerate(inputs):
        if dist.a & w and dist.b | dist.c <= w:
            kept.append(InputDistribution(dist.a & w, dist.b, dist.c))
            indices.append(i)
    return tuple(kept), tuple(indices)


# -- clustering of inputs -----------------------------------------------------


@dataclass(frozen=True)
class ClusterMapping:
    """Bijection between original and clustered inputs for one cluster.

    ``subsets[i]`` is the set of cluster members appearing in input i (empty
    for inputs untouched by the cluster) and ``slots[i]`` names the slot
    ('a', 'b', 'c' or '') that held them.
    """

    t_name: str
    subsets: tuple
    slots: tuple


@dataclass(frozen=True)
class ClusterInputsResult:
    compatible: bool
    inputs: tuple = ()
    mapping: ClusterMapping | None = None
    reason: str = ""
    failing_input: int | None = None
    failing_condition: str = ""


def cluster_inputs(inputs, t_members, t_name: str, g: CausalGraph) -> ClusterInputsResult:
    """Replace the members of a verified transit cluster by a single vertex.

    One slot test per input, on the observed members it mentions: none, and
    the input is kept as it is; otherwise one slot (a, b or c) must hold
    them all, among them every emitter, and they become ``t_name`` there.
    Inputs that split the cluster across slots, or see only part of the
    emitter set, are incompatible. A latent emitter rules out clustering the
    inputs entirely, and so does no input mentioning the cluster.
    """
    t = frozenset(t_members)
    emitters = g.names_of(_require_cluster(g, t)[2])
    if emitters & g.latents:
        return ClusterInputsResult(
            False,
            reason=f"emitter {sorted(emitters & g.latents)[0]} is latent",
            failing_condition="latent_emitter",
        )
    t_observed = t & g.observed
    new_inputs, subsets, slots = [], [], []
    for i, dist in enumerate(inputs):
        mentioned = t_observed & dist.variables
        slot = ""
        if mentioned:
            parts = {"a": dist.a, "b": dist.b, "c": dist.c}
            slot = next((s for s, vals in parts.items() if mentioned <= vals), "")
            if not slot or not emitters <= mentioned:
                return ClusterInputsResult(
                    False,
                    reason=f"input {i} ({dist.render()}) satisfies none of the "
                    "compatibility conditions",
                    failing_input=i,
                    failing_condition="none",
                )
            parts = {s: vals - mentioned for s, vals in parts.items()}
            parts[slot] |= {t_name}
            dist = InputDistribution(**parts)
        new_inputs.append(dist)
        subsets.append(mentioned)
        slots.append(slot)
    if not any(subsets):
        return ClusterInputsResult(
            False,
            reason="no input contains the emitters of the cluster",
            failing_condition="absent",
        )
    mapping = ClusterMapping(t_name, tuple(subsets), tuple(slots))
    return ClusterInputsResult(True, tuple(new_inputs), mapping)
