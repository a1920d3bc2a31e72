"""Command-line front end: prune, clusters, invariance, identify, simulate.

Exit codes: 0 when the question was decided (identified or certified
non-identifiable), 2 when undetermined, 1 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .clustering import enumerate_transit_clusters
from .functional import render, to_json
from .graph import GraphError
from .identify import SearchBudget, identify
from .invariance import UNDETERMINED
from .pipeline import _cluster, _require_outside_query, _transfer, run_pipeline
from .problem import ProblemError, load_problem
from .pruning import prune_all
from .simulate import SIM_BUDGET, records_csv, run_campaign


def _parse_cluster_spec(spec: str):
    name, _, members = spec.partition("=")
    members = [m for m in members.replace(",", " ").split() if m]
    if not name or not members:
        raise argparse.ArgumentTypeError(f"expected NAME=v1,v2,... got {spec!r}")
    return name.strip(), frozenset(members)


def _budget(args) -> SearchBudget:
    return SearchBudget(args.budget_terms, args.budget_depth)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dofuse")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_budget=True):
        p.add_argument("-f", "--file", required=True, help="problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if with_budget:
            p.add_argument("--budget-terms", type=int, default=SearchBudget.max_terms)
            p.add_argument("--budget-depth", type=int, default=SearchBudget.max_depth)

    p = sub.add_parser("prune", help="apply the pruning pipeline")
    common(p, with_budget=False)

    p = sub.add_parser("clusters", help="enumerate transit clusters")
    common(p, with_budget=False)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--force", action="store_true", help="ignore the enumeration guard")

    p = sub.add_parser("invariance", help="invariance verdict for one cluster")
    common(p)
    p.add_argument("--cluster", required=True, type=_parse_cluster_spec, metavar="NAME=v1,v2,...")

    p = sub.add_parser("identify", help="full identification pipeline")
    common(p)
    p.add_argument("--auto", action="store_true", help="prune and cluster automatically (default)")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--no-cluster", action="store_true")
    p.add_argument(
        "--cluster", action="append", type=_parse_cluster_spec, metavar="NAME=v1,v2,...",
        help="cluster these vertices instead of the automatic choice",
    )

    p = sub.add_parser("simulate", help="run the simulation campaign")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget-terms", type=int, default=SIM_BUDGET.max_terms)
    p.add_argument("--budget-depth", type=int, default=SIM_BUDGET.max_depth)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--csv", help="write per-instance records here")
    p.add_argument("--json", action="store_true")
    return ap


def cmd_prune(args) -> int:
    problem = load_problem(args.file)
    result = prune_all(problem.graph, problem.inputs, problem.query)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(f"removed: {', '.join(sorted(result.removed)) or '(nothing)'}")
        for step in result.steps:
            state = "applied" if step.applied else f"refused: {step.refusal}"
            print(f"  {step.theorem}: {state}; removed {sorted(step.removed)}")
        print(f"query: {result.query.render()}")
        for dist in result.inputs:
            print(f"input: {dist.render()}")
    return 0


def cmd_clusters(args) -> int:
    problem = load_problem(args.file)
    clusters = enumerate_transit_clusters(problem.graph, args.max_size, force=args.force)
    clusters = sorted(clusters, key=lambda c: (-len(c.members), tuple(sorted(c.members))))
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "members": sorted(c.members),
                        "receivers": sorted(c.receivers),
                        "emitters": sorted(c.emitters),
                    }
                    for c in clusters
                ],
                indent=2,
            )
        )
    else:
        for c in clusters:
            print(
                f"{{{', '.join(sorted(c.members))}}} "
                f"receivers={sorted(c.receivers)} emitters={sorted(c.emitters)}"
            )
        if not clusters:
            print("no transit clusters of size >= 2")
    return 0


def cmd_invariance(args) -> int:
    problem = load_problem(args.file)
    t_name, members = args.cluster
    _require_outside_query(members, problem.query)
    ac = _cluster(problem.graph, problem.inputs, members, t_name)
    if isinstance(ac, str):
        print(f"inputs incompatible with cluster: {ac}", file=sys.stderr)
        return 2
    search = identify(ac.graph_after, ac.inputs_after, problem.query, _budget(args))
    verdict = _transfer(ac, search)
    if args.json:
        out = verdict.to_json()
        out["clustered_search"] = search.status
        print(json.dumps(out, indent=2))
    else:
        print(f"clustered search: {search.status}")
        print(f"verdict: {verdict.status} (basis: {verdict.basis})")
    return 0 if verdict.status != UNDETERMINED else 2


def cmd_identify(args) -> int:
    problem = load_problem(args.file)
    requested = args.cluster if args.cluster else None
    result = run_pipeline(
        problem.graph,
        problem.inputs,
        problem.query,
        _budget(args),
        prune=not args.no_prune,
        cluster=not args.no_cluster,
        requested_clusters=requested,
    )
    if args.json:
        out = {
            "status": result.status,
            "query": result.query.render(),
            "functional": to_json(result.functional) if result.functional else None,
            "functional_text": render(result.functional) if result.functional else None,
            "pruned": result.prune.to_json() if result.prune else None,
            "clusters": [
                {"name": ac.t_name, "members": sorted(ac.members)} for ac in result.clusters
            ],
            "invariance": [v.to_json() for v in result.invariance],
            "search": {
                "status": result.search.status,
                "terms": result.search.terms,
                "depth": result.search.depth,
            },
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"status: {result.status}")
        if result.prune and result.prune.removed:
            print(f"pruned: {', '.join(sorted(result.prune.removed))}")
        for ac in result.clusters:
            print(f"clustered {ac.t_name} = {{{', '.join(sorted(ac.members))}}}")
        if result.functional is not None:
            print(f"{result.query.render()} = {render(result.functional)}")
        for v in result.invariance:
            print(f"invariance[{v.cluster}]: {v.status} ({v.basis})")
        if result.status == "non_identifiable":
            print("not identifiable by the implemented rule set (certified for the original)")
        elif result.status == "undetermined":
            print("undetermined: search negative but invariance not certified")
    return 0 if result.decided else 2


def cmd_simulate(args) -> int:
    records, summary = run_campaign(
        args.instances, args.seed, args.workers, _budget(args), args.timeout
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(records_csv(records))
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        counts = summary["settings"]
        print(
            f"{summary['instances']} instances, {summary['discarded']} discarded; "
            f"A={counts['A']} B={counts['B']} C={counts['C']}"
        )
        for row in summary["rows"]:
            print(
                f"size {row['graph_size']} setting {row['setting']}: "
                f"n={row['n']} median diff {row['median_diff_s']:.3f}s "
                f"median ratio {row['median_ratio']:.2f}"
                if row["median_ratio"] is not None
                else f"size {row['graph_size']} setting {row['setting']}: n={row['n']}"
            )
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    handlers = {
        "prune": cmd_prune,
        "clusters": cmd_clusters,
        "invariance": cmd_invariance,
        "identify": cmd_identify,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (ProblemError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
