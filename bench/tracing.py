"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.patch`` replaces a function in the module that calls it (for
example ``dofuse.pipeline.identify``) with a wrapper that records a span,
and ``restore`` puts the originals back, so untraced rounds run the program
untouched. Spans are kept in memory and written out when the run ends. Each
span holds its name, start, end, parent span and operation id; spans made
by the output checks have operation id -1.

The span names are the per-layer metric names. A layer's time is the self
time of its spans (each span minus the time its child spans cover); counts
are taken from the values the traced calls return.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

LAYER_TIMES = (
    "cli.parse_s",
    "cli.render_s",
    "pipeline.other_s",
    "pruning.prune_s",
    "clustering.enumerate_s",
    "clustering.apply_s",
    "distributions.cluster_inputs_s",
    "invariance.verify_s",
    "identify.search_s",
    "identify.lift_s",
    "simulate.generate_s",
)
LAYER_COUNTS = (
    "identify.terms",
    "identify.capped",
    "identify.exhausted",
    "identify.identified",
    "functional.nodes",
    "pruning.removed",
    "clustering.subsets",
    "clustering.found",
    "distributions.attempted",
    "distributions.compatible",
    "invariance.certified",
)
SEARCH_OUTCOMES = {
    "budget_exceeded": "identify.capped",
    "exhausted_not_identified": "identify.exhausted",
    "identified": "identify.identified",
}


def candidate_subsets(n: int) -> int:
    """Subsets of size 2 .. n-1 that ``enumerate_transit_clusters`` examines."""
    return sum(math.comb(n, k) for k in range(2, n))


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._patched = []
        self._observers = {
            "identify.search_s": self._observe_search,
            "pipeline.other_s": self._observe_pipeline,
            "pruning.prune_s": self._observe_prune,
            "clustering.enumerate_s": self._observe_enumerate,
            "distributions.cluster_inputs_s": self._observe_cluster_inputs,
            "invariance.verify_s": self._observe_certificate,
        }

    # -- spans ---------------------------------------------------------------

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, extra=None):
        """``fn`` inside a span named ``name``; the counters see its result."""
        observers = [f for f in (self._observers.get(name), extra) if f is not None]

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            for observe in observers:
                observe(out, *args)
            return out

        return traced

    def timed(self, name, fn, *args):
        """Call ``fn``, inside a span only when the run is traced."""
        return self.wrap(fn, name)(*args) if self.enabled else fn(*args)

    def patch(self, module, attr, name, extra=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, extra))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- counters --------------------------------------------------------------

    def _observe_search(self, result, *args):
        self.counts["identify.terms"] += result.terms
        self.counts[SEARCH_OUTCOMES[result.status]] += 1

    def _observe_pipeline(self, result, *args):
        from dofuse.functional import node_count

        if result.functional is not None:
            self.counts["functional.nodes"] += node_count(result.functional)

    def _observe_prune(self, result, *args):
        self.counts["pruning.removed"] += len(result.removed)

    def _observe_enumerate(self, clusters, graph, *args):
        self.counts["clustering.found"] += len(clusters)
        self.counts["clustering.subsets"] += candidate_subsets(len(graph.names))

    def _observe_cluster_inputs(self, result, *args):
        self.counts["distributions.attempted"] += 1
        self.counts["distributions.compatible"] += bool(result.compatible)

    def _observe_certificate(self, result, *args):
        # verify_inputs returns a VerifyResult, check_single_layer a bool
        self.counts["invariance.certified"] += bool(getattr(result, "ok", result))

    # -- results -----------------------------------------------------------------

    def self_times(self, check_spans: bool = False) -> dict:
        """Seconds per span name, of operation spans or of check spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if (op < 0) == check_spans:
                out[name] += end - start - child_time[idx]
        return out

    def layer_metrics(self, traced_rounds: int) -> dict:
        """Every per-layer metric, per traced round; name -> (value, unit)."""
        times = self.self_times()
        out = {name: (times[name] / traced_rounds, "s") for name in LAYER_TIMES}
        out.update({name: (self.counts[name] / traced_rounds, "count") for name in LAYER_COUNTS})
        search_s = times["identify.search_s"]
        out["identify.terms_per_s"] = (
            self.counts["identify.terms"] / search_s if search_s else 0.0, "1/s",
        )
        out["scm.evaluate_s"] = (self.self_times(check_spans=True)["scm.evaluate_s"], "s")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
