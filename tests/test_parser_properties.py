"""Parser properties: a text is either refused with a declared error or it
round-trips through ``render``, the graph parser and the distribution parser
follow one id rule, and the CLI turns every refusal into exit code 1 with an
``error:`` line.

The texts are drawn from the parsers' own tokens (names, ``p(``, ``do(``,
``|``, ``->``, section headers) mixed with arbitrary characters, so most
examples are near misses of a well-formed input. Runs are derandomized and
keep no example database.
"""

import contextlib
import io
import warnings

from hypothesis import example, given, settings, strategies as st

from dofuse import CausalGraph, GraphError, Query, parse_distribution, parse_graph
from dofuse.cli import main
from dofuse.distributions import DistributionError
from dofuse.problem import ProblemError, ProblemFile, parse_problem

PROPERTY = settings(derandomize=True, database=None, deadline=None)

TOKENS = ["A", "B", "X", "Y", "Z1", "U1", "do", "p", "latent", "x|y", "a(b"]
NAMES = st.sampled_from(TOKENS)
NOISE = st.text(alphabet="pdo(),| \t:#[]-><AXY1", max_size=12)


def _splice_noise(draw, text):
    """One time in four, insert noise at a random place."""
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(NOISE) + text[at:]
    return text


@st.composite
def distribution_texts(draw, names=NAMES):
    vs = draw(st.lists(names, max_size=5, unique=True))
    i, j = sorted(draw(st.lists(st.integers(0, len(vs)), min_size=2, max_size=2)))
    head, b, c = ",".join(vs[:i]), ",".join(vs[i:j]), ",".join(vs[j:])
    tail = ([f"do({b})"] if b or draw(st.booleans()) else []) + ([c] if c else [])
    return _splice_noise(draw, f"p({head} | {', '.join(tail)})" if tail else f"p({head})")


def _pairs(names):
    return st.lists(names, min_size=2, max_size=3, unique=True)


def _graph_lines(names):
    pairs = _pairs(names)
    return st.one_of(
        pairs.map(lambda vs: f"{vs[0]} -> {vs[1]}"),
        pairs.map(lambda vs: f"{vs[0]} <-> {vs[1]}"),
        pairs.map(lambda vs: f"latent L{len(vs)} : {' '.join(vs)}"),
    )


@st.composite
def graph_texts(draw):
    # "A,B" is one token that the id rule reads as two ids
    pool = draw(st.lists(st.sampled_from(TOKENS + ["A,B"]), min_size=2, max_size=5, unique=True))
    lines = draw(st.lists(_graph_lines(st.sampled_from(pool)), min_size=1, max_size=5))
    return _splice_noise(draw, "\n".join(lines))


@st.composite
def problem_texts(draw):
    # a small vertex pool shared by the sections, so that many texts parse
    names = st.sampled_from(draw(st.lists(NAMES, min_size=2, max_size=5, unique=True)))
    query = _pairs(names).map(lambda vs: f"p({vs[0]} | do({vs[1]}))")
    sections = [
        ["[graph]"] + draw(st.lists(_graph_lines(names), min_size=1, max_size=5)),
        ["[inputs]"] + draw(st.lists(distribution_texts(names), min_size=1, max_size=3)),
        ["[query]", draw(query)],
    ]
    text = "\n".join(line for section in draw(st.permutations(sections)) for line in section)
    return _splice_noise(draw, text)


def _parse_problem(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate inputs are dropped with a warning
        return parse_problem(text)


@PROPERTY
@given(st.one_of(distribution_texts(), NOISE))
def test_parse_distribution_refuses_or_round_trips(text):
    try:
        dist = parse_distribution(text)
    except DistributionError:
        return
    assert parse_distribution(dist.render()) == dist


@PROPERTY
@given(graph_texts())
def test_parse_graph_ids_are_distribution_ids(text):
    # one id rule: every vertex the graph parser accepts is the one vertex
    # that p(v) names, and the graph section render writes parses back
    try:
        g = parse_graph(text)
    except GraphError:
        return
    for v in g.observed:
        assert parse_distribution(f"p({v})").a == {v}
    rendered = ProblemFile(g, (), Query({"Y"})).render()
    assert parse_graph(rendered.split("\n\n", 1)[0].removeprefix("[graph]")) == g


@PROPERTY
@given(st.one_of(NAMES, st.sampled_from(["latentA", "A->B", "->", "latent:"]), NOISE))
@example("latentA")
@example("A->B")
def test_edge_target_ids_are_edge_sources(name):
    # an id read at the head of an edge reads the same at its tail, so a
    # rendered edge never starts with a word the parser takes for a keyword
    try:
        g = parse_graph(f"Q -> {name}")
    except GraphError:
        return
    (v,) = g.observed - {"Q"}
    assert parse_graph(f"{v} -> Q") == CausalGraph({v, "Q"}, [(v, "Q")])


@PROPERTY
@given(st.sampled_from(TOKENS + ["a:b"]))
@example("a:b")
def test_latent_ids_survive_render(name):
    # an id the parser accepts as a latent's name or as one of its children
    # means that id, and render writes it back as itself
    for text, g in (
        (f"latent {name} : Q R", CausalGraph({"Q", "R"}, [], {name: ["Q", "R"]})),
        (f"latent L : {name} Q R", CausalGraph({name, "Q", "R"}, [], {"L": [name, "Q", "R"]})),
    ):
        try:
            parsed = parse_graph(text)
        except GraphError:
            continue
        problem = ProblemFile(g, (parse_distribution("p(Q,R)"),), Query({"R"}, {"Q"}))
        assert _parse_problem(problem.render()).graph == g
        assert parsed == g


@PROPERTY
@given(problem_texts())
def test_parse_problem_refuses_or_round_trips(text):
    try:
        problem = _parse_problem(text)
    except (ProblemError, GraphError):
        return
    again = _parse_problem(problem.render())
    assert again.graph == problem.graph
    assert again.inputs == problem.inputs
    assert again.query == problem.query


@PROPERTY
@given(problem_texts())
def test_cli_exit_code_on_unparsable_problem(tmp_path_factory, text):
    try:
        _parse_problem(text)
        parsed = True
    except (ProblemError, GraphError):
        parsed = False
    path = tmp_path_factory.mktemp("problem") / "problem.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["prune", "-f", str(path)])
    if not parsed:
        assert code == 1
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
