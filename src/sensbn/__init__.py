"""sensbn: belief-network inference through low-rank factored sensitivities.

A belief network can be stored as node distributions plus *sensitivities*,
centered conditional tables that map a change in one node's distribution
to the induced change in a neighbor's.  On a tree of compound nodes this
representation supports exact message passing where every message is only
rank-of-the-coupling numbers long, and on binary trees it supports
bounded-error inference that ignores evidence beyond a computed radius.
"""

from .algebra import (
    BinarySensitivity,
    QRFactors,
    Sensitivity,
    apply_update,
    binary_reduce,
    binary_reverse,
    binary_sensitivity,
    binary_update,
    cpt_to_sensitivity,
    qr_factor,
    reduce,
    reverse,
    sensitivity_rank_law_check,
    sensitivity_to_cpt,
)
from .compiler import (
    ClusterPlan,
    CompileReport,
    accept_precompiled,
    check_tree_consistency,
    compile_network,
    moralize,
    plan_clusters,
)
from .engine import QuerySession
from .model import (
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    Evidence,
    StateSpace,
    TreeNetwork,
    restrict_distribution,
    validate_network,
)
from .oracle import arc_reverse_cpt, joint, marginalize_out, pairwise_conditional, posterior
from .truncation import DecayProfile, TruncationPlan, plan_truncation, truncated_query, verify_profile

__version__ = "0.1.0"

__all__ = [
    "BeliefNetwork",
    "BinarySensitivity",
    "ClusterPlan",
    "CompileReport",
    "ConditionalMatrix",
    "DecayProfile",
    "Distribution",
    "Evidence",
    "QRFactors",
    "QuerySession",
    "Sensitivity",
    "StateSpace",
    "TreeNetwork",
    "TruncationPlan",
    "accept_precompiled",
    "apply_update",
    "arc_reverse_cpt",
    "binary_reduce",
    "binary_reverse",
    "binary_sensitivity",
    "binary_update",
    "check_tree_consistency",
    "compile_network",
    "cpt_to_sensitivity",
    "joint",
    "marginalize_out",
    "moralize",
    "pairwise_conditional",
    "plan_clusters",
    "plan_truncation",
    "posterior",
    "qr_factor",
    "reduce",
    "restrict_distribution",
    "reverse",
    "sensitivity_rank_law_check",
    "sensitivity_to_cpt",
    "truncated_query",
    "validate_network",
    "verify_profile",
]
