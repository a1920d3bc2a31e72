"""The benchmark's own problem definitions, written out by hand.

Nothing here imports ``dofuse`` or the test suite: the graphs, inputs and
queries are the paper's case studies and textbook examples typed in
directly, and the campaign problem for seed 177 is a literal copy of what
``generate_instance(177)`` produced when this benchmark was written, so a
later change to the generator does not change the workload.

Every latent confounder is named explicitly (``latent U1 : X Y``) so that the
ground-truth models in ``truth.py`` can be built from these definitions
without the program's parser.

Run ``python3 bench/definitions.py`` from the repository root to write the
problem files under ``bench/problems/`` anew.
"""

from __future__ import annotations

import re
from pathlib import Path

PROBLEM_DIR = Path(__file__).resolve().parent / "problems"

IDENTIFIED = "identified"
NOT_IDENTIFIABLE = "non_identifiable"

# tobacco pricing and infant health (17 observed vertices, no latents)
TOBACCO = """
O -> R
O -> C
O -> S
R -> C
C -> S
S -> B
B -> I
W -> R
W -> H
E -> C
M -> C
C -> J
O -> J
J -> I
D -> N
M -> B
Q -> F
Q -> M
F -> M
F -> E
H -> A
A -> I
C -> D
D -> B
D -> G
E -> A
N -> I
G -> I
D -> I
Q -> E
S -> G
M -> G
M -> N
F -> R
"""
TOBACCO_INPUTS = ("p(C,O,R,E,M)", "p(C,S,G,D,B | do(O))")

# socioeconomic position and atherosclerosis; B, H and M are variable groups
ATHERO = """
L -> H
H -> M
M -> Y
B -> S
B -> L
B -> M
L -> S
S -> H
S -> M
L -> Y
"""

# the same model with every group opened into a two-vertex chain
ATHERO_EXPANDED = """
L -> H1
H1 -> H2
H2 -> M1
M1 -> M2
M2 -> Y
B1 -> B2
B2 -> S
B2 -> L
B2 -> M1
L -> S
S -> H1
S -> M1
L -> Y
"""

# group M kept as two vertices, B and H as single vertices
ATHERO_REFINED_M = """
L -> H
H -> M1
M1 -> M2
M2 -> Y
B -> S
B -> L
B -> M1
L -> S
S -> H
S -> M1
L -> Y
"""

# pruning showcase: Z4, Z5 are non-ancestors of Y, Z1-Z3 are separated from
# Y once X1, X2 are intervened, and Z6, Z7 hang off W2
PRUNE = """
X1 -> W1
X2 -> W1
W1 -> Y
W2 -> Y
W2 -> X1
W2 -> W1
W1 -> Z5
X1 -> Z4
Z7 -> Z6
Z6 -> W2
Z5 -> Z4
Z3 -> Z4
Z2 -> Z3
Z2 -> Z1
Z1 -> X1
Z1 -> X2
Z3 -> X1
latent U1 : X1 Y
latent U2 : X1 W1
latent U3 : X1 X2
"""
PRUNE_INPUTS = (
    "p(Y,Z3,Z4,Z5 | do(W1), W2)",
    "p(W1,Z1,Z2,Z5,Z7 | do(X1,X2), W2)",
    "p(W2,Z6,Z7)",
)
PRUNE_QUERY = "p(Y | do(X1,X2))"
# what each pruning operation removes, in the paper's order
PRUNE_STAGES = (("Z4", "Z5"), ("Z1", "Z2", "Z3"), ("Z6", "Z7"))

# clustering showcase: transit clusters {R,S1,S2,E1,E2} and {T1,T2}
CLUSTER = """
E1 -> W2
E2 -> W2
E1 -> W1
E2 -> W1
W1 -> W2
W2 -> Y
S2 -> E2
S2 -> E1
S1 -> E1
S1 -> S2
R -> S2
R -> S1
X -> R
T1 -> X
T2 -> X
T1 -> W1
T2 -> W1
"""
CLUSTER_S = ("E1", "E2", "R", "S1", "S2")
CLUSTER_T = ("T1", "T2")
# the paper's graph once S and T are clustered
CLUSTERED_EDGES = (
    ("S", "W1"),
    ("S", "W2"),
    ("T", "W1"),
    ("T", "X"),
    ("W1", "W2"),
    ("W2", "Y"),
    ("X", "S"),
)
CLUSTER_CASES = {
    "i": ("p(X,E1,E2,S1,R)", "p(Y,E1,E2,T1,T2)"),
    "ii": ("p(X,E1,E2,R,W1)", "p(Y,W2 | do(W1))"),
    "iii": ("p(Y | do(T1,T2), E1,E2,S2)", "p(X,T1,T2)"),
    "iv": ("p(Y,T1,T2,R,E1,E2)", "p(X,W1 | do(E1,E2))", "p(X,W1)"),
}

FRONT_DOOR = """
X -> M
M -> Y
latent U1 : X Y
"""

NAPKIN = """
W -> R
R -> X
X -> Y
latent U1 : W X
latent U2 : W Y
"""

BOW = """
X -> Y
latent U1 : X Y
"""

# campaign instance 177: the cluster {R1,R2,E1} of the clustered vertex Z4
# opened up; its inputs hold {E1} in one measured set and {E1,R1} in a
# conditioning set
CAMPAIGN_177 = """
E1 -> Y
E1 -> Z1
E1 -> Z2
R1 -> E1
R2 -> E1
X -> Z2
X -> Z5
Z1 -> Y
Z2 -> Y
Z3 -> R1
Z3 -> R2
Z3 -> Z5
Z5 -> Y
Z5 -> Z2
"""
CAMPAIGN_177_INPUTS = ("p(E1,X,Z2,Z3,Z5)", "p(X,Y,Z5 | do(Z3),E1,R1,Z2)")

# name -> (graph, inputs, query, verdict from the paper or the literature)
CASE_STUDIES = {
    "tobacco-s": (TOBACCO, TOBACCO_INPUTS, "p(S | do(R))", IDENTIFIED),
    "tobacco-b": (TOBACCO, TOBACCO_INPUTS, "p(B | do(R))", NOT_IDENTIFIABLE),
    "tobacco-g": (TOBACCO, TOBACCO_INPUTS, "p(G | do(C))", IDENTIFIED),
    "athero-row1": (ATHERO, ("p(Y,L,H,S,M | B)",), "p(Y | do(L))", NOT_IDENTIFIABLE),
    "athero-row2": (ATHERO, ("p(Y,L,H,S,M,B)",), "p(Y | do(L))", IDENTIFIED),
    "athero-row2-expanded": (
        ATHERO_EXPANDED, ("p(Y,L,H1,H2,S,M1,M2,B1,B2)",), "p(Y | do(L))", IDENTIFIED,
    ),
    "athero-row3": (ATHERO, ("p(B,M,S,Y)", "p(B,H,M,S)"), "p(Y | do(H))", NOT_IDENTIFIABLE),
    "athero-row4": (
        ATHERO_REFINED_M, ("p(B,M1,M2,S,Y)", "p(B,H,M1,M2,S)"), "p(Y | do(H))", IDENTIFIED,
    ),
    "prune-showcase": (PRUNE, PRUNE_INPUTS, PRUNE_QUERY, IDENTIFIED),
    "cluster-i": (CLUSTER, CLUSTER_CASES["i"], "p(Y | do(X))", IDENTIFIED),
    "cluster-ii": (CLUSTER, CLUSTER_CASES["ii"], "p(Y | do(X))", NOT_IDENTIFIABLE),
    "cluster-iii": (CLUSTER, CLUSTER_CASES["iii"], "p(Y | do(X))", NOT_IDENTIFIABLE),
    "cluster-iv": (CLUSTER, CLUSTER_CASES["iv"], "p(Y | do(X))", NOT_IDENTIFIABLE),
    "front-door": (FRONT_DOOR, ("p(X,M,Y)",), "p(Y | do(X))", IDENTIFIED),
    "napkin": (NAPKIN, ("p(W,R,X,Y)",), "p(Y | do(X))", IDENTIFIED),
    "bow": (BOW, ("p(X,Y)",), "p(Y | do(X))", NOT_IDENTIFIABLE),
    "campaign-177": (CAMPAIGN_177, CAMPAIGN_177_INPUTS, "p(Y | do(X))", IDENTIFIED),
}

# the paper's graphs in the cluster scan: graph, inputs, query
SCAN_PAPER_GRAPHS = {
    "tobacco": (TOBACCO, TOBACCO_INPUTS, "p(S | do(R))"),
    "cluster-showcase": (CLUSTER, CLUSTER_CASES["i"], "p(Y | do(X))"),
    "athero-expanded": (ATHERO_EXPANDED, ("p(Y,L,H1,H2,S,M1,M2,B1,B2)",), "p(Y | do(L))"),
    "prune-showcase": (PRUNE, PRUNE_INPUTS, PRUNE_QUERY),
}


def parse_structure(text: str):
    """(observed, edges, latents) of a definition; latents maps name -> children."""
    observed, edges, latents = set(), [], {}
    for line in text.strip().splitlines():
        line = line.strip()
        if line.startswith("latent"):
            name, _, kids = line[len("latent"):].partition(":")
            latents[name.strip()] = tuple(kids.split())
            observed.update(kids.split())
        else:
            p, _, c = line.partition("->")
            edges.append((p.strip(), c.strip()))
            observed.update((p.strip(), c.strip()))
    return sorted(observed), edges, latents


def parse_query(text: str):
    """(y, x) of ``p(y | do(x))``, each a sorted tuple."""
    m = re.fullmatch(r"p\((.*)\|\s*do\((.*)\)\s*\)", text.strip())
    return (
        tuple(sorted(v.strip() for v in m.group(1).split(","))),
        tuple(sorted(v.strip() for v in m.group(2).split(","))),
    )


def problem_text(graph: str, inputs, query: str) -> str:
    lines = ["[graph]", graph.strip(), "", "[inputs]", *inputs, "", "[query]", query]
    return "\n".join(lines) + "\n"


def problem_path(name: str) -> Path:
    return PROBLEM_DIR / f"{name}.txt"


def write_problems():
    PROBLEM_DIR.mkdir(exist_ok=True)
    for name, (graph, inputs, query, _) in CASE_STUDIES.items():
        problem_path(name).write_text(problem_text(graph, inputs, query), encoding="utf-8")


if __name__ == "__main__":
    write_problems()
    print(f"wrote {len(CASE_STUDIES)} problem files to {PROBLEM_DIR}")
