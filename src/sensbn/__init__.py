"""sensbn: belief-network inference through low-rank factored sensitivities.

A belief network can be stored as node distributions plus *sensitivities*,
centered conditional tables that map a change in one node's distribution
to the induced change in a neighbor's.  On a tree of compound nodes this
representation supports exact message passing where every message is only
rank-of-the-coupling numbers long, and on binary trees it supports
bounded-error inference that ignores evidence beyond a computed radius.
"""

import importlib

#: the public names, by the module that defines them; each is imported on
#: first access (PEP 562), so a process loads only the modules it uses
_EXPORTS = {
    "accept": ("accept_precompiled", "check_tree_consistency"),
    "algebra": (
        "BinarySensitivity",
        "QRFactors",
        "Sensitivity",
        "apply_update",
        "binary_reduce",
        "binary_reverse",
        "binary_sensitivity",
        "binary_update",
        "cpt_to_sensitivity",
        "qr_factor",
        "reduce",
        "reverse",
        "sensitivity_rank_law_check",
        "sensitivity_to_cpt",
    ),
    "compiler": (
        "ClusterPlan",
        "CompileReport",
        "compile_network",
        "moralize",
        "plan_clusters",
    ),
    "engine": ("QuerySession",),
    "model": (
        "BeliefNetwork",
        "ConditionalMatrix",
        "Distribution",
        "Evidence",
        "StateSpace",
        "TreeNetwork",
        "restrict_distribution",
        "validate_network",
    ),
    "oracle": ("arc_reverse_cpt", "joint", "marginalize_out", "pairwise_conditional", "posterior"),
    "truncation": (
        "DecayProfile",
        "TruncationPlan",
        "truncated_query",
        "verify_profile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
