"""Benchmark for dofuse: one workload, one process, one operation at a time.

    python3 bench/run.py --workload case-studies --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``dofuse`` from ``src/``. The
run sets up the workload (imports, inputs, one warm-up operation), then
repeats whole rounds of the workload's operations in a closed loop until
``--seconds`` have passed, checks every output, and prints one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced rounds, so the
difference of their median round times is the tracing overhead. The
result and, when traced, the spans are also written under
``.bench_results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("case-studies", "campaign", "cluster-scan")
RESULT_DIR = ROOT / ".bench_results"


def since_process_start() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def import_program():
    """Import dofuse from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dofuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no dofuse sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import dofuse

    if Path(dofuse.__file__).resolve().parent != (src / "dofuse").resolve():
        raise SystemExit(f"error: imported dofuse from {dofuse.__file__}, not {src}")


def make_workload(name, seed, tracer):
    """The workload object; its inputs are built here and depend only on ``seed``.

    A workload provides ``warm_up()``; ``ops()``, one round as ``(key, call)``
    pairs; ``patches()``, the layer functions a traced round wraps, as
    ``Tracer.patch`` arguments; ``signature(out)``, equal for outputs that
    need only one check; ``check(key, out)`` and ``check_run(rounds, traced)``,
    which return lists of problems.
    """
    if name == "case-studies":
        from case_studies import CaseStudies as cls
    elif name == "campaign":
        from campaign import Campaign as cls
    else:
        from cluster_scan import ClusterScan as cls
    return cls(seed, tracer)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: order statistics weighted by Beta.

    Operations differ widely in cost and a single one can vary by half its
    time between repetitions on a shared host, so a single order statistic
    jumps between neighbours; the Beta((n+1)q, (n+1)(1-q)) weights average
    the ranks around q instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a < 1 or b < 1:  # the Beta density is unbounded; fall back to nearest rank
        return float(x[max(0, math.ceil(q * n) - 1)])
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    density = np.zeros_like(grid)
    density[1:-1] = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner))
    density[0], density[-1] = float(a == 1), float(b == 1)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def measure_rounds(workload, tracer, seconds, traced_run):
    """Whole rounds until ``seconds`` have passed: [(traced, round_s, [(key, s, out)])]."""
    rounds = []
    start = time.perf_counter()
    op_id = 0
    while True:
        traced = traced_run and len(rounds) % 2 == 1
        if traced:
            for patch in workload.patches():
                tracer.patch(*patch)
        results = []
        t_round = time.perf_counter()
        for key, fn in workload.ops():
            if traced:
                tracer.op = op_id
                span = tracer.begin("op")
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            if traced:
                tracer.end(span)
            results.append((key, dt, out))
            op_id += 1
        round_s = time.perf_counter() - t_round
        tracer.restore()
        tracer.op = -1
        rounds.append((traced, round_s, results))
        if time.perf_counter() - start >= seconds and (not traced_run or len(rounds) >= 2):
            return rounds


def check_rounds(workload, rounds):
    """Failed operation count and the reasons, one line per distinct failure."""
    verdicts = {}
    failed = 0
    for _, _, results in rounds:
        for key, _, out in results:
            sig = (key, workload.signature(out))
            if sig not in verdicts:
                verdicts[sig] = workload.check(key, out)
            if verdicts[sig]:
                failed += 1
    reasons = sorted({f"{key}: {p}" for (key, _), probs in verdicts.items() for p in probs})
    return failed, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from tracing import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    workload = make_workload(args.workload, args.seed, tracer)
    workload.warm_up()
    setup_s = since_process_start()

    rounds = measure_rounds(workload, tracer, args.seconds, bool(args.trace))
    failed, reasons = check_rounds(workload, rounds)
    run_problems = workload.check_run([r for _, _, r in rounds], bool(args.trace))
    attempted = sum(len(r) for _, _, r in rounds)
    for line in reasons + run_problems:
        print(f"check: {line}", file=sys.stderr)

    if args.trace:
        traced = [s for t, s, _ in rounds if t]
        untraced = [s for t, s, _ in rounds if not t]
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        layers["trace.spans"] = (sum(1 for s in tracer.spans if s[4] >= 0) / len(traced), "count")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        per_round_ms = [[dt * 1000.0 for _, dt, _ in results] for _, _, results in rounds]
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(s for _, s, _ in rounds), "unit": "s"},
            "op_p50_ms": {
                "value": statistics.median(quantile(ms, 0.5) for ms in per_round_ms), "unit": "ms",
            },
            "op_p90_ms": {
                "value": statistics.median(quantile(ms, 0.9) for ms in per_round_ms), "unit": "ms",
            },
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(RESULT_DIR / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
