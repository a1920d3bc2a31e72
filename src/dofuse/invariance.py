"""Input verification for clustered problems and the invariance verdict type.

``verify_inputs`` walks the clustered input distributions and checks, per
input, the d-separation and companion-input conditions that make clustering
safe to reason about when the clustered effect is *not* identifiable. The
individual checks carry stable line numbers; each input gets one verdict,
the first line that admitted it or the line whose condition failed, and the
trace records one entry per input up to the first failure.

Forming the clustered problem and promoting a verdict through it is the
pipeline's cluster stage (``pipeline._cluster``, ``pipeline._certify``,
``pipeline._transfer`` and ``pipeline.decide_invariance``); this module only
checks the inputs and holds the verdict type.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _verify_one(g: CausalGraph, inputs, dist, t_name: str, t_bit: int, de_t: int) -> tuple:
    """``(line, passed)`` for one clustered input: the line that decides it."""
    a = g.mask_of(dist.a)
    b = g.mask_of(dist.b)
    c = g.mask_of(dist.c)
    if t_bit & (a | b | c):
        if c & de_t:
            return 5, False
        if t_bit & a:
            d = de_t & a
            return 7, _dsep(g, d, t_bit, b | c | (a & ~(d | t_bit)), cut_in=b, cut_out=t_bit)
        if t_bit & b:
            return 8, True
        return 9, _dsep(g, a, t_bit, b | (c & ~t_bit), cut_in=b, cut_out=t_bit)
    if (
        any(t_name in other.a and not other.b and not other.c for other in inputs)
        and _dsep(g, a, t_bit, b | c, cut_in=b, cut_out=t_bit)
        and _dsep(g, t_bit, c, b, cut_in=b)
        and _dsep(g, t_bit, b, 0, cut_in=b)
    ):
        return 12, True
    # rule-3 style insertion of do(T): cut the incoming edges of T unless T is
    # an ancestor of the conditioning set once the intervened inputs are cut
    par_b, _ = cut_masks(g.parent_masks, g.child_masks, b, 0)
    t_cut = 0 if _closure(par_b, c) & t_bit else t_bit
    if _dsep(g, a, t_bit, b | c, cut_in=b | t_cut):
        return 14, True
    companion = any(
        dist.a <= other.a and other.b == dist.b | {t_name} and other.c == dist.c
        for other in inputs
    )
    return 15, companion


def verify_inputs(g: CausalGraph, inputs, t_name: str) -> VerifyResult:
    """Check the clustered inputs against the cluster vertex ``t_name``.

    Returns true immediately when the cluster vertex has no parents at all.
    Otherwise each input gets one verdict, the line of its slot condition
    that decides it (lines 5-9 when the vertex appears in the input, lines
    12-15 when it does not), and the first failing input ends the check.
    """
    if not g.has_vertex(t_name):
        raise GraphError(f"cluster vertex {t_name} not in graph")
    t_bit = 1 << g._index[t_name]
    if not g.parent_masks[g._index[t_name]]:
        return VerifyResult(True, trace=(VerifyTraceEntry(-1, 2, True),))
    de_t = g.descendants_mask(t_bit)
    trace = []
    for i, dist in enumerate(inputs):
        line, passed = _verify_one(g, inputs, dist, t_name, t_bit, de_t)
        trace.append(VerifyTraceEntry(i, line, passed))
        if not passed:
            return VerifyResult(False, i, line, tuple(trace))
    return VerifyResult(True, trace=tuple(trace))


@dataclass(frozen=True)
class InvarianceVerdict:
    status: str
    basis: str
    cluster: str
    verify: VerifyResult | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "basis": self.basis,
            "cluster": self.cluster,
            "verify": self.verify.to_json() if self.verify else None,
        }
