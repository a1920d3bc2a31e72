"""Problem files: one artifact holding the graph, the inputs and the query.

Three sections, in any order::

    [graph]
    X -> Y
    X <-> Y

    [inputs]
    p(X)
    p(Y | X)

    [query]
    p(Y | do(X))

Comments start with ``#``. All vertex ids are case-sensitive and must be
declared by the graph section.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import (
    Query,
    dedup_inputs,
    parse_distribution,
    parse_query,
    validate_inputs,
)
from .graph import CausalGraph, parse_graph


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemFile:
    graph: CausalGraph
    inputs: tuple
    query: Query

    def render(self) -> str:
        lines = ["[graph]"]
        for p, c in self.graph.edge_list():
            lines.append(f"{p} -> {c}")
        for u, kids in sorted(self.graph.latent_children_map().items()):
            lines.append(f"latent {u} : {' '.join(sorted(kids))}")
        lines.append("")
        lines.append("[inputs]")
        lines.extend(d.render() for d in self.inputs)
        lines.append("")
        lines.append("[query]")
        lines.append(self.query.render())
        return "\n".join(lines) + "\n"


def parse_problem(text: str) -> ProblemFile:
    sections: dict = {"graph": [], "inputs": [], "query": []}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ProblemError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ProblemError(f"line {lineno}: content before any section header")
        sections[current].append((lineno, line))
    if not sections["graph"]:
        raise ProblemError("missing [graph] section")
    if not sections["inputs"]:
        raise ProblemError("missing or empty [inputs] section")
    if len(sections["query"]) != 1:
        raise ProblemError("exactly one query line required")

    graph = parse_graph("\n".join(line for _, line in sections["graph"]))
    inputs = []
    for lineno, line in sections["inputs"]:
        try:
            inputs.append(parse_distribution(line))
        except ValueError as exc:
            raise ProblemError(f"line {lineno}: {exc}") from exc
    lineno, line = sections["query"][0]
    try:
        query = parse_query(line)
    except ValueError as exc:
        raise ProblemError(f"line {lineno}: {exc}") from exc
    inputs = dedup_inputs(inputs)
    validate_inputs(graph, inputs, query)
    return ProblemFile(graph, inputs, query)


def load_problem(path) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())
