"""Random clustered-vs-unclustered identification instances and the campaign.

Instance generation follows a fixed recipe, consuming one counter-based
random stream (Philox, keyed by the instance seed) in documented program
order: graph size, topological order, edge coin flips, ancestor repair
edges, cluster vertex, receiver/emitter/internal draws with their retry
loops, input role assignments, and finally the emitter-subset expansion of
the original inputs. Records are therefore bit-for-bit reproducible from
the seed alone, except for the duration fields and any discard made by the
wall-clock timeout. The setting is the
pipeline's verdict about the expanded graph, the one ``dofuse invariance``
reports: ``pipeline._cluster`` forms the clustered problem and
``pipeline._transfer`` maps its search to A (identifiable), B (certified
non-identifiable) or C (undetermined), never depending on timing.
Instances whose searches hit the wall-clock timeout, or whose clustered
search hits the term budget, are discarded and flagged.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clustering import enumerate_transit_clusters
from .distributions import InputDistribution, Query
from .graph import CausalGraph, _iter_bits, relations
from .identify import BUDGET_EXCEEDED, SearchBudget, identify
from .invariance import IDENTIFIABLE, NON_IDENTIFIABLE, UNDETERMINED
from .invariance import verify_inputs  # unused here; bench/campaign.py wraps it by name
from .pipeline import _cluster, _transfer

SIM_BUDGET = SearchBudget(max_terms=12_000, max_depth=25)
_SETTINGS = {IDENTIFIABLE: "A", NON_IDENTIFIABLE: "B", UNDETERMINED: "C"}

# retries of the receiver/emitter/internal draw before the cluster vertex is
# redrawn; the cap matters because some draws admit no valid wiring (a lone
# internal vertex can never get both a parent and a child when there are no
# receivers)
MAX_WIRING_ATTEMPTS = 100
MAX_INPUT_ATTEMPTS = 100_000


@dataclass(frozen=True)
class SimInstance:
    seed: int
    order: tuple                 # topological order of the clustered graph
    clustered_graph: CausalGraph
    graph: CausalGraph           # expanded graph with the cluster's members
    cluster_vertex: str
    cluster_members: tuple
    emitters: tuple
    clustered_inputs: tuple
    inputs: tuple
    query: Query


@dataclass(frozen=True)
class InstanceRecord:
    seed: int
    graph_size: int
    n_inputs: int
    setting: str | None          # None when discarded
    t_unclustered_ms: float
    t_clustered_ms: float
    discarded: bool = False
    t1_capped: bool = False


def _rng(seed: int):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def generate_instance(seed: int) -> SimInstance:
    rng = _rng(seed)
    n = int(rng.integers(3, 7))
    pool = ["X"] + [f"Z{i}" for i in range(1, n + 1)]
    while True:
        order = [pool[i] for i in rng.permutation(len(pool))]
        if order[0] != "X":
            break
    order.append("Y")
    pos = {v: i for i, v in enumerate(order)}

    edges = set()
    for i, src in enumerate(order):
        for dst in order[i + 1:]:
            p = 0.35 if pos[src] < pos["X"] else 0.5
            if rng.random() < p:
                edges.add((src, dst))
    for v in order[:-1]:
        an_y = relations(CausalGraph(order, edges), {"Y"}, "ancestors")
        if v not in an_y:
            candidates = [w for w in order[pos[v] + 1:] if w == "Y" or w in an_y]
            edges.add((v, candidates[int(rng.integers(len(candidates)))]))

    clustered_graph = CausalGraph(order, sorted(edges))
    zpool = [v for v in order if v not in ("X", "Y")]
    z = zpool[int(rng.integers(len(zpool)))]
    while True:
        members, internal, receivers, emitters = _draw_cluster(rng, clustered_graph, z)
        if members is not None:
            break
        z = zpool[int(rng.integers(len(zpool)))]

    expanded_edges = [(p, c) for p, c in sorted(edges) if z not in (p, c)]
    z_parents = sorted(p for p, c in edges if c == z)
    z_children = sorted(c for p, c in edges if p == z)
    for p in z_parents:
        for r in receivers:
            expanded_edges.append((p, r))
    for e in emitters:
        for c in z_children:
            expanded_edges.append((e, c))
    expanded_edges.extend(internal)
    vertices = [v for v in order if v != z] + list(members)
    graph = CausalGraph(vertices, expanded_edges)

    n_inputs = int(rng.integers(2, 4))
    clustered_inputs = _draw_inputs(rng, order, n_inputs, z)

    inputs = []
    for dist in clustered_inputs:
        if z not in dist.variables:
            inputs.append(dist)
            continue
        q = set(emitters)
        for t in members:
            if t not in emitters and rng.random() < 0.5:
                q.add(t)
        repl = {
            slot: (vals - {z}) | (q if z in vals else set())
            for slot, vals in (("a", dist.a), ("b", dist.b), ("c", dist.c))
        }
        inputs.append(InputDistribution(repl["a"], repl["b"], repl["c"]))

    return SimInstance(
        seed, tuple(order), clustered_graph, graph, z, tuple(members),
        tuple(emitters), tuple(clustered_inputs), tuple(inputs),
        Query(frozenset({"Y"}), frozenset({"X"})),
    )


def _draw_cluster(rng, g: CausalGraph, z: str):
    """Receiver/emitter/internal draws plus the wiring retry loop.

    Returns all-None when the retry budget runs out and the cluster vertex
    should be redrawn.
    """
    has_parents = bool(g.parent_masks[g._index[z]])
    has_children = bool(g.child_masks[g._index[z]])
    for _ in range(MAX_WIRING_ATTEMPTS):
        receivers = (["R1"] if rng.random() < 0.5 else ["R1", "R2"]) if has_parents else []
        emitters = (["E1"] if rng.random() < 0.5 else ["E1", "E2"]) if has_children else []
        mids = [] if rng.random() < 0.5 else ["S1"]
        members = receivers + mids + emitters
        if len(members) < 2:
            continue
        for _ in range(MAX_WIRING_ATTEMPTS):
            internal = []
            for i, t1 in enumerate(members):
                for t2 in members[i + 1:]:
                    if rng.random() < 0.5:
                        internal.append((t1, t2))
            if _wiring_ok(members, internal, receivers, mids, emitters):
                return members, internal, receivers, emitters
    return None, None, None, None


def _wiring_ok(members, internal, receivers, mids, emitters):
    """Receivers reach an emitter, emitters descend from a receiver, mids sit between."""
    g = CausalGraph(members, internal)
    rec, mid, em = g.mask_of(receivers), g.mask_of(mids), g.mask_of(emitters)
    if em and any(not g.descendants_mask(1 << r) & em for r in _iter_bits(rec)):
        return False
    if rec and any(not g.ancestors_mask(1 << e) & rec for e in _iter_bits(em)):
        return False
    return all(g.parent_masks[s] and g.child_masks[s] for s in _iter_bits(mid))


def _draw_inputs(rng, order, n_inputs, z):
    for _ in range(MAX_INPUT_ATTEMPTS):
        drawn = []
        for _ in range(n_inputs):
            a, b, c = set(), set(), set()
            for v in order:
                r = rng.random()
                if r < 0.35:
                    a.add(v)
                elif r < 0.475:
                    b.add(v)
                elif r < 0.6:
                    c.add(v)
            drawn.append((a, b, c))
        if not all(a for a, _, _ in drawn):
            continue
        if any("Y" in a and "X" in b for a, b, _ in drawn):
            continue
        if not any("Y" in a for a, _, _ in drawn):
            continue
        if not any({"X", z} <= a | b | c for a, b, c in drawn):
            continue
        return tuple(InputDistribution(a, b, c) for a, b, c in drawn)
    raise RuntimeError("could not draw admissible inputs")


def simulate_instance(
    seed: int,
    budget: SearchBudget = SIM_BUDGET,
    timeout: float = 60.0,
) -> InstanceRecord:
    """One record: generate, search both strategies, classify by the pipeline's verdict.

    ``t_clustered_ms`` covers the cluster enumeration that auto-clustering
    runs: only the clusters that avoid the query, under a guard that counts
    the whole graph, where ``dofuse clusters`` lists every cluster.
    """
    inst = generate_instance(seed)
    size = len(inst.graph.names)
    n_inputs = len(inst.inputs)

    start = time.perf_counter()
    unclustered = identify(inst.graph, inst.inputs, inst.query, budget)
    t1 = time.perf_counter() - start
    t1_capped = unclustered.status == BUDGET_EXCEEDED

    def discard():
        return InstanceRecord(
            seed, size, n_inputs, None, t1 * 1000.0, 0.0, True, t1_capped
        )

    if t1 > timeout:
        return discard()
    t0 = time.perf_counter()
    enumerate_transit_clusters(inst.graph, avoid=inst.query.x | inst.query.y)
    ac = _cluster(inst.graph, inst.inputs, frozenset(inst.cluster_members), inst.cluster_vertex)
    clustered = identify(ac.graph_after, ac.inputs_after, inst.query, budget)
    if clustered.status == BUDGET_EXCEEDED or time.perf_counter() - start > timeout:
        return discard()
    setting = _SETTINGS[_transfer(ac, clustered).status]
    t_clustered = time.perf_counter() - t0 + (t1 if setting == "C" else 0.0)

    return InstanceRecord(
        seed, size, n_inputs, setting, t1 * 1000.0, t_clustered * 1000.0,
        False, t1_capped,
    )


def run_campaign(
    n_instances: int,
    base_seed: int = 0,
    workers: int = 1,
    budget: SearchBudget = SIM_BUDGET,
    timeout: float = 60.0,
):
    """Records for seeds base_seed..base_seed+n-1 plus the summary tables."""
    if n_instances < 1:
        raise ValueError("need at least one instance")
    if workers < 1:
        raise ValueError("need at least one worker")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    seeds = [base_seed + i for i in range(n_instances)]
    job = partial(simulate_instance, budget=budget, timeout=timeout)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(job, seeds, chunksize=max(1, n_instances // (workers * 8))))
    else:
        records = [job(s) for s in seeds]
    return records, summarize(records)


def summarize(records) -> dict:
    """Median/IQR of time differences and ratios per graph size and setting."""
    live = [r for r in records if not r.discarded]
    counts = {s: sum(1 for r in live if r.setting == s) for s in ("A", "B", "C")}
    buckets: dict = {}
    for r in live:
        buckets.setdefault((r.graph_size, r.setting), []).append(r)
    rows = []
    for (size, setting), group in sorted(buckets.items()):
        diffs = np.array([r.t_unclustered_ms - r.t_clustered_ms for r in group]) / 1000.0
        ratios = np.array(
            [r.t_unclustered_ms / r.t_clustered_ms for r in group if r.t_clustered_ms > 0]
        )
        rows.append(
            {
                "graph_size": size,
                "setting": setting,
                "n": len(group),
                "median_diff_s": float(np.median(diffs)),
                "iqr_diff_s": [float(np.percentile(diffs, 25)), float(np.percentile(diffs, 75))],
                "median_ratio": float(np.median(ratios)) if ratios.size else None,
                "iqr_ratio": [float(np.percentile(ratios, 25)), float(np.percentile(ratios, 75))]
                if ratios.size
                else None,
            }
        )
    return {
        "instances": len(records),
        "discarded": sum(1 for r in records if r.discarded),
        "t1_capped": sum(1 for r in records if r.t1_capped),
        "settings": counts,
        "rows": rows,
    }


def records_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["seed", "graph_size", "n_inputs", "setting", "t_unclustered_ms", "t_clustered_ms",
         "t1_capped"]
    )
    for r in records:
        writer.writerow(
            [
                r.seed, r.graph_size, r.n_inputs, r.setting or "discarded",
                f"{r.t_unclustered_ms:.3f}", f"{r.t_clustered_ms:.3f}", int(r.t1_capped),
            ]
        )
    return out.getvalue()
