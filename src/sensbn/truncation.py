"""Bounded-error approximate inference on binary trees.

On a tree of binary nodes whose edge couplings all have magnitude below
some alpha < 1, influence decays geometrically with hop distance, because
chained couplings multiply.  Evidence farther from the query than a
radius derived from (alpha, eta, epsilon) can therefore be ignored while
keeping the relative error of the answer below exp(epsilon) - 1 on states
whose exact probability is at least eta.

The radius comes from the complexity expression of the underlying claim:

    radius = ceil( log_alpha( eta * epsilon / (2 * n_evidence) ) )

Everything a bounded-error query does is bounded by the radius, not by
the size of the tree or of the radius ball.  Profile verification is
answered from the decay constants that the consistency check computes
once at load (see ``TreeNetwork.decay``), setting up a ``QuerySession``
copies no per-node state, and selection takes the distance to each of
the k evidence nodes from one climb of the tree's parent links to its
lowest common ancestor with the query, or from run positions when both
lie inside one run (``TreeNetwork.distance``).  The answer is an exact
query on the retained evidence, whose edge rule keeps only the
evidence's sorted entry times and records nothing per node, so selection
and propagation visit only the paths from the query to the retained
evidence: O(k * radius) nodes.

This module certifies the bound empirically against the exact engine; it
does not carry a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accept
from .engine import QuerySession
from .errors import ApproxPreconditionError
from .model import Evidence, TreeNetwork


@dataclass(frozen=True)
class DecayProfile:
    """Claimed decay constants: |coupling| < alpha on every edge and
    p(false)p(true) > eta at every node, with requested error epsilon."""

    alpha: float
    eta: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ApproxPreconditionError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.eta <= 0.25:
            raise ApproxPreconditionError(f"eta must be in (0, 0.25], got {self.eta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ApproxPreconditionError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def guaranteed_bound(self) -> float:
        return math.exp(self.epsilon) - 1.0


@dataclass(frozen=True)
class TruncationPlan:
    radius: int
    retained_evidence: tuple[int, ...]
    guaranteed_bound: float


def verify_profile(tree: TreeNetwork, profile: DecayProfile):
    """Check the profile against the actual tree.

    Returns (True, None) when every edge coupling is strictly below alpha
    in magnitude and every node satisfies p(false)p(true) > eta; otherwise
    (False, witness) naming the offending edge or node.  Trees with any
    non-binary node are rejected outright.

    A tree that passed the load-time consistency check is accepted from
    its recorded decay constants in O(1); the full scan below runs only
    when that shortcut cannot accept, so decisions and witnesses are the
    scan's own.  The scan reads the prior and factor stacks in a few
    numpy calls per stack, with the arithmetic of
    ``accept.reconstruct_dense``, and names the first failing node in
    ident order, else the first failing edge in ``tree.edges`` order.
    """
    decay = tree.decay
    if (
        decay is not None
        and decay.all_binary
        and decay.min_prior_product > profile.eta
        and decay.max_coupling < profile.alpha
    ):
        return True, None
    nodes = tree.node_columns
    if set(nodes.priors) != {2}:
        k = next(i for i, n in enumerate(nodes.size) if n != 2)
        raise ApproxPreconditionError(
            f"{nodes.names[k]} has {nodes.size[k]} states; "
            "the decay argument needs an all-binary tree"
        )
    p = nodes.prior_stack(np.arange(tree.node_count), 2)
    products = p[:, 0] * p[:, 1]
    low = np.flatnonzero(~(products > profile.eta))
    if low.size:
        k = int(low[0])
        return False, f"node {nodes.names[k]}: p(false)p(true) = {products[k]:.4g} <= eta"
    first, value = len(tree.edge_ends), math.nan
    for stack in tree.factor_stacks:
        couplings = accept.binary_couplings(tree, stack)
        high = np.flatnonzero(~(couplings < profile.alpha))
        if high.size and stack.edges[high[0]] < first:
            first, value = int(stack.edges[high[0]]), float(couplings[high[0]])
    if first < len(tree.edge_ends):
        a, b = tree.edges[first]
        return (
            False,
            f"edge {nodes.names[a]} - {nodes.names[b]}: |coupling| = {value:.4g} >= alpha",
        )
    return True, None


def truncation_radius(profile: DecayProfile, n_evidence: int) -> int:
    """Hop count beyond which evidence is dropped."""
    if n_evidence <= 0:
        return 0
    arg = profile.eta * profile.epsilon / (2.0 * n_evidence)
    return int(math.ceil(math.log(arg) / math.log(profile.alpha)))


def hop_distances(tree: TreeNetwork, start: int, limit: int | None = None) -> dict[int, int]:
    """Breadth-first hop distances from ``start``, stopping at ``limit``.

    The paper's radius ball, searched node by node.  :func:`truncated_query`
    measures the distance to each evidence node instead; this stays public
    as the reference its selection is tested against, and the benchmark's
    traced run times it.
    """
    tree.check_node(start)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for node in frontier:
            d = dist[node]
            if limit is not None and d >= limit:
                continue
            for nb in tree.neighbors(node):
                if nb not in dist:
                    dist[nb] = d + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def truncated_query(
    session: QuerySession,
    query: int,
    evidence: Evidence,
    profile: DecayProfile,
    radius: int | None = None,
    verified: bool = False,
):
    """Approximate posterior using only the evidence within the radius.

    Returns (Distribution, guaranteed_bound, TruncationPlan).  The bound
    is exp(epsilon) - 1 on the relative error of any state whose exact
    probability is at least eta.
    """
    tree = session.tree
    if not verified:
        ok, witness = verify_profile(tree, profile)
        if not ok:
            raise ApproxPreconditionError(f"decay profile does not hold: {witness}")
    grouped = tree.group_evidence(evidence)
    if radius is None:
        radius = truncation_radius(profile, len(grouped))
    if radius < 0:
        raise ApproxPreconditionError(f"radius must be at least 0, got {radius}")
    kept = {
        n: a for n, a in sorted(grouped.items()) if tree.distance(query, n, radius) <= radius
    }
    plan = TruncationPlan(radius, tuple(kept), profile.guaranteed_bound)
    return session._query_grouped(query, kept), plan.guaranteed_bound, plan
