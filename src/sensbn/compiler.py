"""Convert a DAG belief network into a tree of compound nodes.

The plan step chooses a *partition* of the simple nodes into clusters and
a tree over the clusters such that collapsing the moralized graph by the
partition yields (a subgraph of) that tree.  Equivalently: every family
{child} ∪ parents lies inside one cluster or inside the union of two
adjacent clusters.  Separation in the collapsed moral graph implies the
conditional independences the tree factorization needs, so inference on
the compiled tree is exact.

The compile step computes every cluster prior and every pairwise joint of
adjacent clusters by exact sum-product over the cluster tree (never the
full joint), prunes zero-probability compound states, and stores one
mutually consistent factor pair per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .accept import (
    EdgeBatch,
    _edge_ends,
    accept_batches,
    accept_precompiled,
    check_tree_consistency,
    factor_pairs,
)
from .errors import NetworkValidationError, UnknownLabelError
from .model import (
    ENTRY_TOL,
    SUM_TOL,
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    NodeColumns,
    StateSpace,
    TreeNetwork,
    Violation,
    normalized_stacks,
    validate_network,
)

# the load pass lives in ``accept``; its entry points are re-exported here
__all__ = [
    "ClusterPlan",
    "CompileReport",
    "EdgeReport",
    "PRUNE_EPS",
    "accept_batches",
    "accept_precompiled",
    "check_tree_consistency",
    "compile_network",
    "factor_pairs",
    "moralize",
    "plan_clusters",
    "plan_violations",
]

#: compound states whose prior is at or below this are discarded
PRUNE_EPS = 1e-12


def moralize(net: BeliefNetwork) -> dict[str, set[str]]:
    """Undirected adjacency: DAG edges plus marriages between co-parents."""
    adj: dict[str, set[str]] = {l: set() for l in net.labels}
    for child in net.labels:
        parents = net.parents[child]
        for p in parents:
            adj[child].add(p)
            adj[p].add(child)
        for i in range(len(parents)):
            for j in range(i + 1, len(parents)):
                adj[parents[i]].add(parents[j])
                adj[parents[j]].add(parents[i])
    return adj


@dataclass(frozen=True)
class ClusterPlan:
    """A partition of the simple nodes plus a tree over the clusters."""

    clusters: tuple[tuple[str, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]


def plan_violations(plan: ClusterPlan, net: BeliefNetwork) -> list[Violation]:
    """Check the plan invariants; empty list means the plan is usable."""
    out: list[Violation] = []
    seen: dict[str, int] = {}
    for ci, cluster in enumerate(plan.clusters):
        for label in cluster:
            if label in seen:
                out.append(Violation("overlap", label, "member of two clusters"))
            seen[label] = ci
    missing = [l for l in net.labels if l not in seen]
    if missing:
        out.append(Violation("coverage", ",".join(missing), "not in any cluster"))
        return out
    n = len(plan.clusters)
    nb: dict[int, set[int]] = {i: set() for i in range(n)}
    if len(plan.tree_edges) != n - 1:
        out.append(Violation("tree", "plan", f"{len(plan.tree_edges)} edges for {n} clusters"))
    adjacent = set()
    for a, b in plan.tree_edges:
        nb[a].add(b)
        nb[b].add(a)
        adjacent.add(frozenset((a, b)))
    if n:
        stack, reached = [0], {0}
        while stack:
            for x in nb[stack.pop()]:
                if x not in reached:
                    reached.add(x)
                    stack.append(x)
        if len(reached) != n:
            out.append(Violation("tree", "plan", "cluster tree is not connected"))
    for child in net.labels:
        family = {child, *net.parents[child]}
        homes = {seen[m] for m in family}
        if len(homes) == 1:
            continue
        if len(homes) == 2 and frozenset(homes) in adjacent:
            continue
        out.append(
            Violation(
                "family",
                child,
                f"family {sorted(family)} spans non-adjacent clusters {sorted(homes)}",
            )
        )
    return out


def _log_cluster_size(cluster: tuple[str, ...], net: BeliefNetwork) -> float:
    return sum(math.log(net.card(m)) for m in cluster)


def plan_clusters(
    moral: dict[str, set[str]],
    net: BeliefNetwork,
    forced_groups: tuple[tuple[str, ...], ...] = (),
) -> ClusterPlan:
    """Partition the simple nodes so the collapsed moral graph is a tree.

    Starts from singletons (honoring any forced groupings), then merges
    adjacent clusters along cycles of the collapsed graph until it is
    acyclic, always preferring the merge with the smallest resulting
    state space.  Deterministic for a fixed input.
    """
    labels = list(net.labels)
    cluster_of = {l: i for i, l in enumerate(labels)}
    members: dict[int, list[str]] = {i: [l] for i, l in enumerate(labels)}
    for group in forced_groups:
        group = tuple(group)
        for l in group:
            if l not in cluster_of:
                raise UnknownLabelError(f"forced group names unknown node {l!r}")
        target = cluster_of[group[0]]
        for l in group[1:]:
            _merge(cluster_of, members, target, cluster_of[l])

    def quotient_edges() -> dict[int, set[int]]:
        q: dict[int, set[int]] = {c: set() for c in members}
        for a, nbs in moral.items():
            for b in nbs:
                ca, cb = cluster_of[a], cluster_of[b]
                if ca != cb:
                    q[ca].add(cb)
                    q[cb].add(ca)
        return q

    while True:
        q = quotient_edges()
        cycle = _find_cycle(q)
        if cycle is None:
            break
        best = None
        for k in range(len(cycle)):
            a, b = cycle[k], cycle[(k + 1) % len(cycle)]
            size = _log_cluster_size(tuple(members[a] + members[b]), net)
            key = (size, min(a, b), max(a, b))
            if best is None or key < best:
                best = key
        _, a, b = best
        _merge(cluster_of, members, a, b)

    # stable cluster order: by first-declared member
    decl = {l: i for i, l in enumerate(labels)}
    order = sorted(members, key=lambda c: min(decl[m] for m in members[c]))
    renumber = {c: i for i, c in enumerate(order)}
    clusters = tuple(
        tuple(sorted(members[c], key=decl.get)) for c in order
    )
    q = quotient_edges()
    edges = sorted(
        {(min(renumber[a], renumber[b]), max(renumber[a], renumber[b]))
         for a in q for b in q[a]}
    )
    # connect any independent components through their lowest-index clusters
    nb: dict[int, set[int]] = {i: set() for i in range(len(clusters))}
    for a, b in edges:
        nb[a].add(b)
        nb[b].add(a)
    root_comp, reached = [], set()
    for i in range(len(clusters)):
        if i in reached:
            continue
        root_comp.append(i)
        stack = [i]
        reached.add(i)
        while stack:
            for x in nb[stack.pop()]:
                if x not in reached:
                    reached.add(x)
                    stack.append(x)
    for extra in root_comp[1:]:
        edges.append((root_comp[0], extra))
    return ClusterPlan(clusters, tuple(sorted(edges)))


def _merge(cluster_of, members, keep, drop):
    if keep == drop:
        return
    for l in members[drop]:
        cluster_of[l] = keep
    members[keep].extend(members[drop])
    del members[drop]


def _find_cycle(adj: dict[int, set[int]]):
    """Return the vertices of one cycle of a simple graph, or None."""
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for start in sorted(adj):
        if start in color:
            continue
        stack = [(start, None)]
        parent[start] = None
        while stack:
            node, from_ = stack.pop()
            if node in color:
                continue
            color[node] = 1
            parent[node] = from_
            for nxt in sorted(adj[node]):
                if nxt == from_:
                    continue
                if nxt in color:
                    # walk both endpoints up to their common ancestor
                    path_a = []
                    x = node
                    while x is not None:
                        path_a.append(x)
                        x = parent[x]
                    cycle = [nxt]
                    x = nxt
                    seen_a = {v: k for k, v in enumerate(path_a)}
                    while x not in seen_a:
                        x = parent[x]
                        cycle.append(x)
                    return path_a[: seen_a[cycle[-1]]] + list(reversed(cycle[:-1]))
                stack.append((nxt, node))
    return None


@dataclass(frozen=True)
class EdgeReport:
    """Size accounting for one compiled edge."""

    child: str
    parent: str
    dense_shape: tuple[int, int]
    rank: int

    @property
    def dense_count(self) -> int:
        return self.dense_shape[0] * self.dense_shape[1]

    @property
    def qr_count(self) -> int:
        return (self.dense_shape[0] + self.dense_shape[1]) * self.rank

    @property
    def compression(self) -> float:
        return self.dense_count / self.qr_count if self.qr_count else float("inf")


@dataclass(frozen=True)
class CompileReport:
    edges: tuple[EdgeReport, ...]
    pruned: tuple[tuple[str, tuple[int, ...]], ...]

    def format(self) -> str:
        lines = ["edge          dense        rank  qr-size  ratio"]
        for e in self.edges:
            dense = f"{e.dense_shape[0]}x{e.dense_shape[1]}"
            ratio = "inf" if not e.qr_count else f"{e.compression:.2f}"
            lines.append(
                f"{e.child} | {e.parent:<6} {dense:<12} {e.rank:<5} {e.qr_count:<8} {ratio}"
            )
        for name, states in self.pruned:
            lines.append(f"pruned {name}: original states {' '.join(map(str, states))}")
        if not self.pruned:
            lines.append("pruned: none")
        return "\n".join(lines)


def _family_table(net: BeliefNetwork, label: str, axes: tuple[str, ...]) -> np.ndarray:
    """The CPT of ``label`` laid onto the node axes ``axes``, with length
    one on every axis outside its family."""
    src = (label,) + net.parents[label]
    fam = net.cpts[label].reshape(tuple(net.card(x) for x in src))
    position = {x: k for k, x in enumerate(axes)}
    shape = [1] * len(axes)
    for x in src:
        shape[position[x]] = net.card(x)
    return fam.transpose(sorted(range(len(src)), key=lambda k: position[src[k]])).reshape(shape)


def _cluster_marginals(
    net: BeliefNetwork,
    clusters: tuple[tuple[str, ...], ...],
    order: list[int],
    parent_of: dict[int, int | None],
) -> tuple[list[np.ndarray], dict[int, np.ndarray]]:
    """Exact priors of every cluster and joints of every (child, parent)
    cluster pair, by two-pass sum-product over the rooted cluster tree.

    ``order`` lists the clusters root first, every cluster after its
    parent.  Returns the prior of each cluster over its full (unpruned)
    space and, keyed by child cluster, the joint p(child, parent) of each
    edge as an (n_child, n_parent) table.

    Each family lies in one cluster or in a cluster and its parent (the
    plan invariant), so every CPT multiplies into a cluster table psi_C or
    into the table psi_C,pa of the edge to C's parent.  The upward pass
    sends m_C = (psi_C * prod of C's children's m) @ psi_C,pa; the downward
    pass gives each child the rest of the tree seen from its parent, from
    prefix and suffix products of its siblings' messages, so no division
    is needed and exact zeros stay exact.
    """
    home = {m: c for c, cluster in enumerate(clusters) for m in cluster}
    cards = [tuple(net.card(m) for m in cluster) for cluster in clusters]
    psi = [np.ones(shape) for shape in cards]
    edge_psi = {c: np.ones(cards[c] + cards[parent_of[c]]) for c in order[1:]}
    for label in net.labels:
        homes = {home[x] for x in (label,) + net.parents[label]}
        if len(homes) == 1:
            (c,) = homes
            psi[c] = psi[c] * _family_table(net, label, clusters[c])
        else:
            c = next(h for h in homes if parent_of[h] in homes)
            axes = clusters[c] + clusters[parent_of[c]]
            edge_psi[c] = edge_psi[c] * _family_table(net, label, axes)
    flat = [t.reshape(-1) for t in psi]
    edge_psi = {c: t.reshape(flat[c].size, -1) for c, t in edge_psi.items()}
    children: dict[int, list[int]] = {c: [] for c in order}
    for c in order[1:]:
        children[parent_of[c]].append(c)

    # upward: inside[C] is psi_C times the messages of C's children
    inside: dict[int, np.ndarray] = {}
    up: dict[int, np.ndarray] = {}
    for c in reversed(order):
        belief = flat[c]
        for d in children[c]:
            belief = belief * up[d]
        inside[c] = belief
        if parent_of[c] is not None:
            up[c] = belief @ edge_psi[c]

    # downward: outside[C] is the message from C's parent into C
    priors: list[np.ndarray] = [None] * len(clusters)
    pairs: dict[int, np.ndarray] = {}
    outside = {order[0]: np.ones(flat[order[0]].size)}
    for pa in order:
        priors[pa] = inside[pa] * outside[pa]
        kids = children[pa]
        if not kids:
            continue
        msgs = np.array([up[d] for d in kids])
        before = np.ones_like(msgs)
        after = np.ones_like(msgs)
        before[1:] = np.cumprod(msgs[:-1], axis=0)
        after[:-1] = np.cumprod(msgs[:0:-1], axis=0)[::-1]
        rest = flat[pa] * outside[pa] * before * after
        for d, beyond in zip(kids, rest):
            pairs[d] = inside[d][:, None] * edge_psi[d] * beyond[None, :]
            outside[d] = edge_psi[d] @ beyond
    return priors, pairs


def compile_network(
    net: BeliefNetwork, forced_groups: tuple[tuple[str, ...], ...] = ()
) -> tuple[TreeNetwork, CompileReport]:
    """Build the compound tree: sum-product priors, pruning, factored couplings.

    The clusters are those of :func:`plan_clusters` with ``forced_groups``,
    checked by :func:`plan_violations`; the tree takes the network's
    name, and every rank follows :func:`algebra.rank_counts`.  Compound
    nodes are named X_1.. in order of their first-declared member; each
    edge is authored in the direction child = node farther from X_1.
    Priors and pairwise conditionals come from :func:`_cluster_marginals`,
    in time linear in the number of edges for bounded cluster sizes; the
    full joint is never built.  The edges are factored per shape, one
    singular value decomposition per (n_child, n_parent) stack (see
    :func:`_factor_edges`), and the stacks go through
    :func:`accept.accept_batches`, which stores and checks them as it does
    for a loaded tree.
    """
    problems = validate_network(net)
    if problems:
        raise NetworkValidationError("; ".join(map(str, problems)))
    plan = plan_clusters(moralize(net), net, forced_groups)
    bad = plan_violations(plan, net)
    if bad:
        raise NetworkValidationError("invalid plan: " + "; ".join(map(str, bad)))

    # orient every edge away from the first compound node
    nb: dict[int, list[int]] = {c: [] for c in range(len(plan.clusters))}
    for a, b in plan.tree_edges:
        nb[a].append(b)
        nb[b].append(a)
    parent_of: dict[int, int | None] = {0: None}
    order = [0]
    for node in order:
        for nxt in sorted(nb[node]):
            if nxt not in parent_of:
                parent_of[nxt] = node
                order.append(nxt)

    full_priors, joints = _cluster_marginals(net, plan.clusters, order, parent_of)
    spaces: list[StateSpace] = []
    names = [f"X_{idx + 1}" for idx in range(len(plan.clusters))]
    pruned_record: list[tuple[str, tuple[int, ...]]] = []
    for idx, cluster in enumerate(plan.clusters):
        cards = tuple(net.card(m) for m in cluster)
        pruned = tuple(int(i) for i in np.nonzero(full_priors[idx] <= PRUNE_EPS)[0])
        spaces.append(StateSpace(cluster, cards, pruned))
        if pruned:
            pruned_record.append((names[idx], pruned))
    priors = _normalized_priors(
        [full[list(space.retained)] for full, space in zip(full_priors, spaces)]
    )

    nodes = NodeColumns.of(spaces, priors, names)
    edges = [(c, parent_of[c]) for c in order[1:]]
    batches, ranks = _factor_edges(edges, spaces, joints)
    reports = [
        EdgeReport(names[i], names[j], (nodes.size[i], nodes.size[j]), rank)
        for (i, j), rank in zip(edges, ranks.tolist())
    ]
    tree = accept_batches(nodes, _edge_ends(edges), batches, net.name)
    return tree, CompileReport(tuple(reports), tuple(pruned_record))


def _normalized_priors(raw: list[np.ndarray]) -> list[Distribution]:
    """:meth:`Distribution.normalized` of every vector of ``raw``, one
    stack per length (see :func:`normalized_stacks`)."""
    sizes: dict[int, list[int]] = {}
    for k, row in enumerate(raw):
        sizes.setdefault(len(row), []).append(k)
    stacks = normalized_stacks({n: (np.array([raw[k] for k in at]), at) for n, at in sizes.items()})
    priors: list = [None] * len(raw)
    for n, at in sizes.items():
        stacks[n].setflags(write=False)
        for k, row in zip(at, stacks[n]):
            priors[k] = Distribution._of_checked(row)
    return priors


def _retained_joint(joint: np.ndarray, child: StateSpace, parent: StateSpace) -> np.ndarray:
    """The rows and columns of a pairwise joint that pruning kept."""
    if child.pruned:
        joint = joint[list(child.retained)]
    if parent.pruned:
        joint = joint[:, list(parent.retained)]
    return joint


def _factor_edges(
    edges: list[tuple[int, int]],
    spaces: list[StateSpace],
    joints: dict[int, np.ndarray],
) -> tuple[list[EdgeBatch], np.ndarray]:
    """The factor pairs of the couplings p(X_i | X_j) of ``edges`` (i, j),
    from the pairwise joints keyed by child i, and the rank of each edge.

    The edges are grouped by (n_i, n_j): each group's conditionals and
    sensitivities are formed with one broadcast each and factored by one
    :func:`algebra.svd_factors` call, and every rank in it becomes one
    :class:`EdgeBatch`.  A conditional that
    :meth:`ConditionalMatrix.from_joint` refuses is refused by that method,
    the first such edge in ``edges`` order, before anything is factored.
    """
    pairs = [_retained_joint(joints[i], spaces[i], spaces[j]) for i, j in edges]
    grouped: dict[tuple[int, int], list[int]] = {}
    for pos, pair in enumerate(pairs):
        grouped.setdefault(pair.shape, []).append(pos)
    conditionals = []
    suspect: list[int] = []
    for positions in grouped.values():
        positions = np.array(positions)
        joint = np.array([pairs[pos] for pos in positions.tolist()])
        colsums = joint.sum(axis=1, keepdims=True)
        with np.errstate(all="ignore"):
            cond = joint / colsums
            # the checks of from_joint and ConditionalMatrix, written so
            # that a NaN fails them here (from_joint then decides)
            fine = (
                (colsums.min(axis=(1, 2)) > 0.0)
                & (cond.min(axis=(1, 2)) >= -ENTRY_TOL)
                & (np.abs(cond.sum(axis=1) - 1.0).max(axis=1) <= SUM_TOL)
            )
        suspect.extend(positions[~fine].tolist())
        conditionals.append((positions, cond))
    for pos in sorted(suspect):
        i, j = edges[pos]
        ConditionalMatrix.from_joint(pairs[pos], spaces[i], spaces[j])
    batches: list[EdgeBatch] = []
    ranks = np.zeros(len(edges), dtype=np.intp)
    for positions, cond in conditionals:
        for at, q, r in algebra.svd_factors(algebra.center_rows(cond)):
            batches.append(EdgeBatch(positions[at], q, r))
            ranks[positions[at]] = q.shape[1]
    return batches, ranks
