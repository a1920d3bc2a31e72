import json
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest

from dofuse import GraphError, ProblemFile, parse_problem, run_pipeline, simulate
from dofuse.cli import main
from dofuse.problem import ProblemError

import fixtures as fx

SMALL = """
[graph]
X -> Z
Z -> Y

[inputs]
p(X, Z)
p(Z, Y)

[query]
p(Y | do(X))
"""


def problem_text(graph, inputs, query) -> str:
    return ProblemFile(graph, tuple(inputs), query).render()


def test_parse_problem_round_trip():
    p = parse_problem(SMALL)
    assert p.graph.observed == {"X", "Y", "Z"}
    assert len(p.inputs) == 2
    again = parse_problem(p.render())
    assert again.graph == p.graph
    assert again.inputs == p.inputs
    assert again.query == p.query


def test_parse_problem_errors():
    with pytest.raises(ProblemError, match="graph"):
        parse_problem("[inputs]\np(X)\n[query]\np(Y|do(X))")
    with pytest.raises(ProblemError, match="inputs"):
        parse_problem("[graph]\nX -> Y\n[query]\np(Y|do(X))")
    with pytest.raises(ProblemError, match="query"):
        parse_problem("[graph]\nX -> Y\n[inputs]\np(X)")
    with pytest.raises(ProblemError, match="section"):
        parse_problem("X -> Y")


def test_parse_problem_rejects_undeclared_vertices():
    bad = "[graph]\nX -> Y\n[inputs]\np(Q)\n[query]\np(Y|do(X))"
    with pytest.raises(Exception, match="non-observed"):
        parse_problem(bad)


def _write(tmp_path, text):
    path = tmp_path / "problem.txt"
    path.write_text(text)
    return str(path)


def test_cli_identify_small(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    rc = main(["identify", "-f", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["status"] == "identified"
    assert out["functional_text"]
    assert out["search"]["status"] == "identified"


def test_cli_identify_undetermined_exit_code(tmp_path, capsys):
    text = problem_text(
        fx.ATHERO_REFINED_M,
        [fx_parse("p(B,M1,M2,S,Y)"), fx_parse("p(B,H,M1,M2,S)")],
        fx_query("p(Y|do(H))"),
    )
    path = _write(tmp_path, text)
    rc = main(["identify", "-f", path, "--json", "--cluster", "M=M1,M2"])
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "undetermined"
    assert out["invariance"][0]["status"] == "undetermined"
    assert out["invariance"][0]["verify"]["failing_line"] == 7
    assert rc == 2


def fx_parse(s):
    from dofuse import parse_distribution

    return parse_distribution(s)


def fx_query(s):
    from dofuse import parse_query

    return parse_query(s)


def test_cli_non_identifiable_is_decided(tmp_path, capsys):
    text = problem_text(
        fx.ATHERO_EXPANDED,
        [fx_parse("p(Y,L,H1,H2,S,M1,M2|B1,B2)")],
        fx_query("p(Y|do(L))"),
    )
    path = _write(tmp_path, text)
    rc = main([
        "identify", "-f", path, "--json",
        "--cluster", "B=B1,B2", "--cluster", "H=H1,H2", "--cluster", "M=M1,M2",
    ])
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "non_identifiable"
    assert rc == 0
    assert {v["status"] for v in out["invariance"]} == {"non_identifiable_in_original"}
    assert len(out["invariance"]) == 3


def test_cli_prune(tmp_path, capsys):
    text = problem_text(fx.PRUNE_GRAPH, fx.PRUNE_INPUTS, fx.PRUNE_QUERY)
    path = _write(tmp_path, text)
    rc = main(["prune", "-f", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["removed"] == sorted("Z1 Z2 Z3 Z4 Z5 Z6 Z7".split())


def test_cli_clusters(tmp_path, capsys):
    text = problem_text(fx.CLUSTER_GRAPH, [fx_parse("p(X,E1,E2,S1,R)")], fx.CLUSTER_QUERY)
    path = _write(tmp_path, text)
    rc = main(["clusters", "-f", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sorted(fx.CLUSTER_S) in [c["members"] for c in out]


def test_cli_invariance(tmp_path, capsys):
    text = problem_text(
        fx.COUNTER_GRAPH,
        [fx_parse("p(X,Z1,Z2)"), fx_parse("p(Y,Z1,Z2)")],
        fx.COUNTER_QUERY,
    )
    path = _write(tmp_path, text)
    rc = main(["invariance", "-f", path, "--cluster", "Z=Z1,Z2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "undetermined"
    assert out["verify"]["failing_line"] == 7
    assert rc == 2


def test_cli_identify_manual_cluster(tmp_path, capsys):
    text = problem_text(
        fx.CLUSTER_GRAPH,
        [fx_parse(s) for s in fx.CLUSTER_CASES["i"]],
        fx.CLUSTER_QUERY,
    )
    path = _write(tmp_path, text)
    rc = main([
        "identify", "-f", path, "--json", "--no-prune",
        "--cluster", "S=R,S1,S2,E1,E2", "--cluster", "T=T1,T2",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["status"] == "identified"
    assert [c["name"] for c in out["clusters"]] == ["S", "T"]


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["identify", "-f", str(tmp_path / "missing.txt")]) == 1
    bad = _write(tmp_path, "[graph]\nX -> Y\n[inputs]\n\n[query]\np(Y|do(X))")
    assert main(["identify", "-f", bad]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_graph_error_names_the_file_line(tmp_path, capsys):
    # the comment and the blank line count: the bad line is file line 5
    text = "# a comment\n[graph]\n\nX -> Y\nZ => Y\n[inputs]\np(X)\n[query]\np(Y | do(X))\n"
    assert main(["prune", "-f", _write(tmp_path, text)]) == 1
    assert capsys.readouterr().err.startswith("error: line 5: cannot parse 'Z => Y'")


@pytest.mark.parametrize("command", ["identify", "invariance"])
@pytest.mark.parametrize("spec", [" =M1,M2", "T 2=M1,M2"])
def test_cli_refuses_cluster_name_that_is_not_one_id(tmp_path, capsys, command, spec):
    text = problem_text(
        fx.ATHERO_REFINED_M,
        [fx_parse("p(B,M1,M2,S,Y)"), fx_parse("p(B,H,M1,M2,S)")],
        fx_query("p(Y|do(H))"),
    )
    assert main([command, "-f", _write(tmp_path, text), "--cluster", spec]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert f"argument --cluster: expected NAME=v1,v2,... got {spec!r}" in captured.err


def test_cli_overlapping_clusters_refused(tmp_path, capsys):
    text = problem_text(
        fx.CLUSTER_GRAPH,
        [fx_parse(s) for s in fx.CLUSTER_CASES["i"]],
        fx.CLUSTER_QUERY,
    )
    path = _write(tmp_path, text)
    rc = main([
        "identify", "-f", path,
        "--cluster", "S=R,S1,S2,E1,E2", "--cluster", "T=E1,T1,T2",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert "overlap" in err


@pytest.mark.parametrize(
    "spec, message",
    [("Q=R,X", "cluster intersects the query"), ("T=T1,T2", "incompatible cluster T")],
    ids=["query", "incompatible"],
)
def test_requested_cluster_refused(tmp_path, capsys, spec, message):
    inputs = [fx_parse(s) for s in fx.CLUSTER_CASES["ii"]]
    name, members = spec.split("=")
    with pytest.raises(GraphError, match=message):
        run_pipeline(
            fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY, prune=False,
            requested_clusters=[(name, frozenset(members.split(",")))],
        )
    path = _write(tmp_path, problem_text(fx.CLUSTER_GRAPH, inputs, fx.CLUSTER_QUERY))
    rc = main(["identify", "-f", path, "--no-prune", "--cluster", spec])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_cli_invariance_capped_search_is_undetermined(tmp_path, capsys):
    text = problem_text(
        fx.ATHERO_EXPANDED, [fx_parse("p(Y,L,H1,H2,S,M1,M2,B1,B2)")], fx_query("p(Y|do(L))")
    )
    path = _write(tmp_path, text)
    rc = main([
        "invariance", "-f", path, "--cluster", "B=B1,B2", "--budget-terms", "50", "--json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "status": "undetermined",
        "basis": "clustered_search_capped",
        "cluster": "B1,B2",
        "verify": None,
        "clustered_search": "budget_exceeded",
    }
    assert rc == 2


NAPKIN = """
[graph]
W -> R
R -> X
X -> Y
latent U1 : W X
latent U2 : W Y

[inputs]
p(W,R,X,Y)

[query]
p(Y | do(X))
"""


def test_cli_invariance_refuses_cluster_meeting_query(tmp_path, capsys):
    path = _write(tmp_path, NAPKIN)
    rc = main(["invariance", "-f", path, "--cluster", "Q9=R,U1,W,X"])
    assert rc == 1
    assert capsys.readouterr().err == "error: query must not intersect the cluster\n"


def test_cli_simulate_smoke(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    rc = main([
        "simulate", "--instances", "4", "--seed", "11",
        "--budget-terms", "3000", "--csv", str(csv_path), "--json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["instances"] == 4
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("seed,graph_size")
    assert len(lines) == 5


def test_cli_human_output(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    rc = main(["identify", "-f", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: identified" in out
    assert "p(Y | do(X)) =" in out


def test_cli_tobacco_s_query(tmp_path, capsys):
    text = problem_text(fx.TOBACCO_GRAPH, fx.TOBACCO_INPUTS, fx_query("p(S|do(R))"))
    path = _write(tmp_path, text)
    rc = main(["identify", "-f", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["status"] == "identified"
    assert out["pruned"]["removed"] == sorted("J N B I D G H A W".split())
    assert [c["members"] for c in out["clusters"]] == [["E", "M"]]
    # the functional references only the surviving variables and both sources
    text_form = out["functional_text"]
    for var in ("J", "N", "B", "I", "D", "G", "H", "A", "W"):
        assert var not in text_form


def test_cli_json_and_human_agree(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    main(["identify", "-f", path, "--json"])
    machine = json.loads(capsys.readouterr().out)
    main(["identify", "-f", path])
    human = capsys.readouterr().out
    assert f"status: {machine['status']}" in human
    assert machine["functional_text"] in human


PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "bench" / "problems"

CLUSTER_III_CLUSTERS = """\
{E1, E2, R, S1, S2, T1, T2, W1, W2, X} receivers=[] emitters=['W2']
{E1, E2, R, S1, S2, T1, T2, W1, X} receivers=[] emitters=['E1', 'E2', 'W1']
{E1, E2, R, S1, S2, W1, W2, X, Y} receivers=['W1', 'X'] emitters=[]
{E1, E2, R, S1, S2, W1, W2, X} receivers=['W1', 'X'] emitters=['W2']
{E1, E2, R, S1, S2, W1, X} receivers=['W1', 'X'] emitters=['E1', 'E2', 'W1']
{E1, E2, R, S1, S2, X} receivers=['X'] emitters=['E1', 'E2']
{E1, E2, R, S1, S2} receivers=['R'] emitters=['E1', 'E2']
{E1, E2, S1, S2} receivers=['S1', 'S2'] emitters=['E1', 'E2']
{R, X} receivers=['X'] emitters=['R']
{T1, T2} receivers=[] emitters=['T1', 'T2']
{W2, Y} receivers=['W2'] emitters=[]
"""


@pytest.mark.parametrize(
    "argv, stdout, stderr, code",
    [
        (
            ["prune", "-f", "prune-showcase.txt"],
            "removed: Z1, Z2, Z3, Z4, Z5, Z6, Z7\n"
            "  non_ancestors: applied; removed ['Z4', 'Z5']\n"
            "  post_intervention: applied; removed ['Z1', 'Z2', 'Z3']\n"
            "  isolated: applied; removed ['Z6', 'Z7']\n"
            "  post_intervention: applied; removed []\n"
            "  isolated: applied; removed []\n"
            "query: p(Y | do(X1,X2))\n"
            "input: p(Y | do(W1),W2)\n"
            "input: p(W1 | do(X1,X2),W2)\n"
            "input: p(W2)\n",
            "",
            0,
        ),
        (["clusters", "-f", "cluster-iii.txt"], CLUSTER_III_CLUSTERS, "", 0),
        (
            ["clusters", "-f", "bow.txt", "--max-size", "1"],
            "no transit clusters of size >= 2\n",
            "",
            0,
        ),
        (
            ["invariance", "-f", "cluster-iii.txt", "--cluster", "T=T1,T2"],
            "clustered search: exhausted_not_identified\n"
            "verdict: non_identifiable_in_original (basis: verified_inputs)\n",
            "",
            0,
        ),
        (
            ["invariance", "-f", "cluster-ii.txt", "--cluster", "T=T1,T2"],
            "",
            "inputs incompatible with cluster: no input contains the emitters of the cluster\n",
            2,
        ),
        (
            ["identify", "-f", "prune-showcase.txt"],
            "status: identified\n"
            "pruned: Z1, Z2, Z3, Z4, Z5, Z6, Z7\n"
            "p(Y | do(X1,X2)) = sum_{W1} sum_{W2} "
            "p(Y|do(W1),W2) * p(W1|do(X1,X2),W2) * p(W2)\n",
            "",
            0,
        ),
        (
            ["identify", "-f", "cluster-iii.txt"],
            "status: non_identifiable\n"
            "clustered T3 = {E1, E2, R, S1, S2}\n"
            "clustered T4 = {T1, T2}\n"
            "invariance[T1,T2]: non_identifiable_in_original (verified_inputs)\n"
            "invariance[E1,E2,R,S1,S2]: non_identifiable_in_original (verified_inputs)\n"
            "not identifiable by the implemented rule set (certified for the original)\n",
            "",
            0,
        ),
        (
            ["identify", "-f", "cluster-ii.txt"],
            "status: non_identifiable\n"
            "clustered T3 = {E1, E2, R, S1, S2}\n"
            "invariance[E1,E2,R,S1,S2]: non_identifiable_in_original (verified_inputs)\n"
            "not identifiable by the implemented rule set (certified for the original)\n",
            "",
            0,
        ),
        (
            ["identify", "-f", "napkin.txt"],
            "status: undetermined\n"
            "clustered T1 = {R, W}\n"
            "invariance[R,W]: undetermined (verify_inputs_false)\n"
            "undetermined: search negative but invariance not certified\n",
            "",
            2,
        ),
        (
            ["simulate", "--instances", "3"],
            "3 instances, 0 discarded; A=2 B=1 C=0\n"
            "size 6 setting A: n=1 median diff -0.001s median ratio 0.50\n"
            "size 7 setting B: n=1 median diff -0.001s median ratio 0.50\n"
            "size 8 setting A: n=1 median diff -0.001s median ratio 0.50\n",
            "",
            0,
        ),
    ],
    ids=lambda v: "-".join(v[:3]) if isinstance(v, list) else None,
)
def test_cli_text_output_pinned(monkeypatch, capsys, argv, stdout, stderr, code):
    """The text form of every subcommand, byte for byte, with its exit code.

    The campaign's clock ticks one millisecond per reading, so its medians
    are reproducible.
    """
    tick = count()
    monkeypatch.setattr(simulate, "time", SimpleNamespace(perf_counter=lambda: next(tick) / 1000))
    if "-f" in argv:
        i = argv.index("-f") + 1
        argv = argv[:i] + [str(PROBLEMS_DIR / argv[i])] + argv[i + 1:]
    rc = main(argv)
    captured = capsys.readouterr()
    assert (captured.out, captured.err, rc) == (stdout, stderr, code)
