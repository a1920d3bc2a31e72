"""Input verification for clustered problems and the invariance verdict.

``verify_inputs`` walks the clustered input distributions and checks, per
input, the d-separation and companion-input conditions that make clustering
safe to reason about when the clustered effect is *not* identifiable. The
individual checks carry stable line numbers; the trace records, per input,
the first line that admitted it, or the line whose condition failed.

``decide_invariance`` combines the identifiability verdict in the clustered
problem with the structural shortcut (a vertex that is both receiver and
emitter certifies invariance outright) and the input verification into a
single verdict about the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import check_single_layer
from .distributions import Query
from .graph import CausalGraph, GraphError, _closure, cut_masks, dsep_masks

IDENTIFIABLE = "identifiable_in_original"
NON_IDENTIFIABLE = "non_identifiable_in_original"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class VerifyTraceEntry:
    input_index: int
    line: int
    passed: bool


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failing_input: int | None = None
    failing_line: int | None = None
    trace: tuple = ()

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failing_input": self.failing_input,
            "failing_line": self.failing_line,
            "trace": [
                {"input": t.input_index, "line": t.line, "passed": t.passed}
                for t in self.trace
            ],
        }


def _dsep(g: CausalGraph, x_mask, y_mask, z_mask, cut_in=0, cut_out=0) -> bool:
    par, ch = cut_masks(g.parent_masks, g.child_masks, cut_in, cut_out)
    return dsep_masks(par, ch, x_mask, y_mask, z_mask)


def verify_inputs(g: CausalGraph, inputs, t_name: str) -> VerifyResult:
    """Check the clustered inputs against the cluster vertex ``t_name``.

    Returns true immediately when the cluster vertex has no parents at all.
    Otherwise every input must pass its slot condition (lines 5-9 when the
    vertex appears in the input, lines 12-15 when it does not).
    """
    if not g.has_vertex(t_name):
        raise GraphError(f"cluster vertex {t_name} not in graph")
    t_bit = 1 << g._index[t_name]
    if not g.parent_masks[g._index[t_name]]:
        return VerifyResult(True, trace=(VerifyTraceEntry(-1, 2, True),))
    de_t = g.descendants_mask(t_bit)
    trace = []

    def fail(i, line):
        trace.append(VerifyTraceEntry(i, line, False))
        return VerifyResult(False, i, line, tuple(trace))

    for i, dist in enumerate(inputs):
        a = g.mask_of(dist.a)
        b = g.mask_of(dist.b)
        c = g.mask_of(dist.c)
        if t_bit & (a | b | c):
            if c & de_t:
                return fail(i, 5)
            d = de_t & a
            if t_bit & a:
                if _dsep(g, d, t_bit, b | c | (a & ~(d | t_bit)), cut_in=b, cut_out=t_bit):
                    trace.append(VerifyTraceEntry(i, 7, True))
                    continue
                return fail(i, 7)
            if t_bit & b:
                trace.append(VerifyTraceEntry(i, 8, True))
                continue
            if _dsep(g, a, t_bit, b | (c & ~t_bit), cut_in=b, cut_out=t_bit):
                trace.append(VerifyTraceEntry(i, 9, True))
                continue
            return fail(i, 9)
        else:
            has_marginal = any(
                t_name in other.a and not other.b and not other.c for other in inputs
            )
            if has_marginal:
                if (
                    _dsep(g, a, t_bit, b | c, cut_in=b, cut_out=t_bit)
                    and _dsep(g, t_bit, c, b, cut_in=b)
                    and _dsep(g, t_bit, b, 0, cut_in=b)
                ):
                    trace.append(VerifyTraceEntry(i, 12, True))
                    continue
            # rule-3 style insertion of do(T): cut the incoming edges of T
            # unless T is an ancestor of the conditioning set once the
            # intervened inputs are cut
            par_b, _ = cut_masks(g.parent_masks, g.child_masks, b, 0)
            t_cut = 0 if _closure(par_b, c) & t_bit else t_bit
            if _dsep(g, a, t_bit, b | c, cut_in=b | t_cut):
                trace.append(VerifyTraceEntry(i, 14, True))
                continue
            companion = any(
                dist.a <= other.a
                and other.b == dist.b | {t_name}
                and other.c == dist.c
                for other in inputs
            )
            if companion:
                trace.append(VerifyTraceEntry(i, 15, True))
                continue
            return fail(i, 15)
    return VerifyResult(True, trace=tuple(trace))


@dataclass(frozen=True)
class InvarianceVerdict:
    status: str
    basis: str
    cluster: str
    verify: VerifyResult | None = None

    @classmethod
    def from_verify(cls, result: VerifyResult, label: str) -> "InvarianceVerdict":
        """The verdict an input verification gives for the cluster ``label``."""
        if result.ok:
            return cls(NON_IDENTIFIABLE, "verified_inputs", label, result)
        return cls(UNDETERMINED, "verify_inputs_false", label, result)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "basis": self.basis,
            "cluster": self.cluster,
            "verify": self.verify.to_json() if self.verify else None,
        }


def decide_invariance(
    g: CausalGraph,
    inputs,
    t_members,
    query: Query,
    clustered_identifiable: bool,
    t_name: str = "T",
) -> InvarianceVerdict:
    """Verdict about the original graph given the clustered outcome.

    ``g`` is the graph in which the cluster was formed. Identifiability in
    the clustered problem transfers unconditionally; non-identifiability
    transfers when the cluster has a vertex that is both receiver and
    emitter, or when the clustered inputs verify.
    """
    from .clustering import apply_cluster
    from .distributions import cluster_inputs

    t = frozenset(t_members)
    if t & (query.x | query.y):
        raise GraphError("query must not intersect the cluster")
    label = ",".join(sorted(t))
    if clustered_identifiable:
        return InvarianceVerdict(IDENTIFIABLE, "identifiable_transfer", label)
    if check_single_layer(g, t):
        return InvarianceVerdict(NON_IDENTIFIABLE, "single_layer", label)
    while g.has_vertex(t_name):
        t_name += "_"
    clustered = cluster_inputs(inputs, t, t_name, g)
    if not clustered.compatible:
        raise GraphError(f"inputs are not compatible with the cluster: {clustered.reason}")
    g2 = apply_cluster(g, t, t_name)
    return InvarianceVerdict.from_verify(verify_inputs(g2, clustered.inputs, t_name), label)
