"""The paper's two transfers from a clustered problem to the original one.

(a) Identifiability in the clustered problem transfers: the unclustered
    search of the same problem never exhausts without identifying.
(b) Certified non-identifiability transfers: the unclustered search never
    identifies.

An unclustered search that hits its budget is consistent with both. A
counterexample to (a) that exhausts is a completeness gap in the move set;
one to (b) is a fault in ``verify_inputs`` or in the search's soundness.
Both are checked on the campaign generator, which draws no latents, and on
random connected graphs with latents; the ``slow`` tests widen both windows.
"""

from collections import Counter

import numpy as np
import pytest

from dofuse import InputDistribution, Query, SearchBudget, identify, run_pipeline
from dofuse.identify import EXHAUSTED, IDENTIFIED
from dofuse.invariance import IDENTIFIABLE, NON_IDENTIFIABLE
from dofuse.pipeline import _cluster, _transfer
from dofuse.simulate import SIM_BUDGET, generate_instance

import oracles


def _campaign_outcomes(seeds):
    outcomes = Counter()
    for seed in seeds:
        inst = generate_instance(seed)
        members = frozenset(inst.cluster_members)
        ac = _cluster(inst.graph, inst.inputs, members, inst.cluster_vertex)
        clustered = identify(ac.graph_after, ac.inputs_after, inst.query, SIM_BUDGET)
        verdict = _transfer(ac, clustered).status
        if verdict not in (IDENTIFIABLE, NON_IDENTIFIABLE):
            continue
        unclustered = identify(inst.graph, inst.inputs, inst.query, SIM_BUDGET).status
        if verdict == IDENTIFIABLE:
            assert unclustered != EXHAUSTED, seed
        else:
            assert unclustered != IDENTIFIED, seed
        outcomes[verdict, unclustered] += 1
    return outcomes


def test_transfer_on_campaign_instances():
    outcomes = _campaign_outcomes(range(40))
    # both transfers are exercised, and (b) at least once against a search
    # that ran to the end
    assert outcomes[IDENTIFIABLE, IDENTIFIED]
    assert outcomes[NON_IDENTIFIABLE, EXHAUSTED]


@pytest.mark.slow
def test_transfer_on_more_campaign_instances():
    outcomes = _campaign_outcomes(range(40, 300))
    assert outcomes[IDENTIFIABLE, IDENTIFIED]
    assert outcomes[NON_IDENTIFIABLE, EXHAUSTED]


def _random_problem(rng):
    g = oracles.random_connected_dag(
        rng, int(rng.integers(6, 9)), 0.3, n_latents=int(rng.integers(0, 3))
    )
    obs = sorted(g.observed)
    inputs = []
    for _ in range(int(rng.integers(2, 4))):
        roles = rng.choice(4, size=len(obs), p=[0.5, 0.1, 0.1, 0.3])
        a = {v for v, r in zip(obs, roles) if r == 0}
        if a:
            b = {v for v, r in zip(obs, roles) if r == 1}
            inputs.append(InputDistribution(a, b, {v for v, r in zip(obs, roles) if r == 2}))
    y, x = rng.choice(obs, size=2, replace=False)
    return g, inputs, Query({str(y)}, {str(x)})


def _random_outcomes(rng, n):
    outcomes = Counter()
    for _ in range(n):
        g, inputs, query = _random_problem(rng)
        clustered = run_pipeline(g, inputs, query, SearchBudget(3000, 25))
        if not clustered.clusters or not clustered.decided:
            continue
        plain = run_pipeline(g, inputs, query, SearchBudget(20_000, 25), cluster=False)
        if clustered.status == IDENTIFIED:
            assert plain.status != "non_identifiable", (g, inputs, query)
        else:
            assert plain.status != IDENTIFIED, (g, inputs, query)
        outcomes[clustered.status, plain.status] += 1
    return outcomes


def test_transfer_on_random_graphs_with_latents():
    outcomes = _random_outcomes(np.random.default_rng(41), 300)
    assert outcomes[IDENTIFIED, IDENTIFIED]
    assert outcomes["non_identifiable", "non_identifiable"]


@pytest.mark.slow
def test_transfer_on_more_random_graphs_with_latents():
    # a stream of its own, so that no graph of the 300 above is drawn again
    outcomes = _random_outcomes(np.random.default_rng(42), 1500)
    assert outcomes[IDENTIFIED, IDENTIFIED]
    assert outcomes["non_identifiable", "non_identifiable"]
