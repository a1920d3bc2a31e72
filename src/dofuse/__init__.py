"""Pruning, transit clustering and do-calculus search for causal data fusion."""

from .clustering import (
    TransitCluster,
    apply_cluster,
    check_single_layer,
    enumerate_transit_clusters,
    is_transit_cluster,
    receivers_emitters,
)
from .distributions import (
    InputDistribution,
    Query,
    cluster_inputs,
    parse_distribution,
    parse_query,
    restrict_inputs,
)
from .functional import InputRef, Product, Quotient, SumOver, canonicalize, render
from .graph import (
    CausalGraph,
    GraphError,
    d_separated,
    edge_cut,
    induced_subgraph,
    parse_graph,
    relations,
)
from .identify import (
    IdentifyResult,
    SearchBudget,
    identify,
    lift_functional_clustering,
    lift_functional_pruning,
)
from .invariance import InvarianceVerdict, verify_inputs
from .pipeline import PipelineResult, decide_invariance, run_pipeline
from .problem import ProblemFile, load_problem, parse_problem
from .pruning import (
    PruneResult,
    PruneStep,
    prune_all,
    prune_isolated,
    prune_non_ancestors,
    prune_post_intervention,
)
from .scm import (
    DiscreteSCM,
    EvaluationError,
    evaluate_functional,
    input_table,
    oracle_interventional,
    random_scm,
)
from .simulate import InstanceRecord, SimInstance, generate_instance, run_campaign, simulate_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
