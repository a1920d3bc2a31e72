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

Comments start with ``#``. All vertex ids are case-sensitive, follow the id
rule of ``graph._names`` and must be declared by the graph section. Every
section is read from ``graph._lines``, so an error on a line names that line.
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
from .graph import CausalGraph, _graph_of_lines, _lines


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
    for lineno, line in _lines(text):
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

    graph = _graph_of_lines(sections["graph"])
    inputs = [_read(parse_distribution, *pair) for pair in sections["inputs"]]
    query = _read(parse_query, *sections["query"][0])
    inputs = dedup_inputs(inputs)
    validate_inputs(graph, inputs, query)
    return ProblemFile(graph, inputs, query)


def _read(parse, lineno: int, line: str):
    try:
        return parse(line)
    except ValueError as exc:
        raise ProblemError(f"line {lineno}: {exc}") from exc


def load_problem(path) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())
