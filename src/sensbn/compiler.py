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
from .algebra import QRFactors
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    NetworkValidationError,
    UnknownLabelError,
)
from .model import (
    BeliefNetwork,
    BinaryScalars,
    CompoundNode,
    ConditionalMatrix,
    DecayConstants,
    Distribution,
    StateSpace,
    TreeNetwork,
    Violation,
    validate_network,
)

#: compound states whose prior is at or below this are discarded
PRUNE_EPS = 1e-12

CONSISTENCY_TOL = 1e-9


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


def _reverse_factor(q: np.ndarray, p_i: np.ndarray) -> np.ndarray:
    """R factor of the flipped coupling: Q_ij diag(p_i)^{-1} (I - E/n_i).

    Takes one edge (Q of shape (r, n_i), p_i of shape (n_i,)) or a stack
    of edges ((E, r, n_i) and (E, n_i)).
    """
    inv_i = algebra.inverse_weights(p_i)
    return algebra.center_rows(q * inv_i[..., None, :])


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
    net: BeliefNetwork,
    plan: ClusterPlan | None = None,
    forced_groups: tuple[tuple[str, ...], ...] = (),
    rank_tol: float = algebra.RANK_TOL,
    name: str | None = None,
) -> tuple[TreeNetwork, CompileReport]:
    """Build the compound tree: sum-product priors, pruning, factored couplings.

    Compound nodes are named X_1.. in order of their first-declared member;
    each edge is authored in the direction child = node farther from X_1.
    Priors and pairwise conditionals come from :func:`_cluster_marginals`,
    in time linear in the number of edges for bounded cluster sizes; the
    full joint is never built.
    """
    problems = validate_network(net)
    if problems:
        raise NetworkValidationError("; ".join(map(str, problems)))
    if plan is None:
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
    compounds: list[CompoundNode] = []
    pruned_record: list[tuple[str, tuple[int, ...]]] = []
    for idx, cluster in enumerate(plan.clusters):
        cards = tuple(net.card(m) for m in cluster)
        full = full_priors[idx]
        pruned = tuple(int(i) for i in np.nonzero(full <= PRUNE_EPS)[0])
        space = StateSpace(cluster, cards, pruned)
        prior = Distribution.normalized(full[list(space.retained)])
        name_i = f"X_{idx + 1}"
        compounds.append(CompoundNode(idx, name_i, space, prior))
        if pruned:
            pruned_record.append((name_i, pruned))

    edges: list[tuple[int, int]] = []
    factors: dict[tuple[int, int], np.ndarray] = {}
    reports: list[EdgeReport] = []
    for child_id in order[1:]:
        parent_id = parent_of[child_id]
        child, parent = compounds[child_id], compounds[parent_id]
        pair_joint = joints[child_id][np.ix_(child.space.retained, parent.space.retained)]
        cond = ConditionalMatrix.from_joint(pair_joint, child.space, parent.space)
        sens = algebra.cpt_to_sensitivity(cond)
        pair = algebra.qr_factor(sens, rank_tol)
        factors[(child_id, parent_id)] = pair.r_mat
        factors[(parent_id, child_id)] = _reverse_factor(pair.q, child.prior.probs)
        edges.append((child_id, parent_id))
        reports.append(
            EdgeReport(child.name, parent.name, sens.shape, pair.rank)
        )

    tree = TreeNetwork(tuple(compounds), tuple(edges), factors, name=name or net.name)
    check_tree_consistency(tree)
    return tree, CompileReport(tuple(reports), tuple(pruned_record))


@dataclass(frozen=True)
class EdgeBatch:
    """Factor pairs of edges that share one (n_i, n_j, rank) shape, stacked.

    ``q[k]`` (rank x n_i) and ``r[k]`` (rank x n_j) are the factor pair of
    edge ``edges[positions[k]]`` of the list passed to
    :func:`accept_batches` with the batch.
    """

    positions: tuple[int, ...]
    q: np.ndarray
    r: np.ndarray


def accept_precompiled(
    spaces: list[StateSpace],
    priors: list[Distribution],
    edge_factors: dict[tuple[int, int], QRFactors],
    names: list[str] | None = None,
    name: str = "tree",
) -> TreeNetwork:
    """Build a TreeNetwork directly from per-edge factor pairs.

    ``edge_factors[(i, j)]`` is the coupling of node i with respect to
    node j.  The opposite-direction stored factor is derived from Q and
    the prior of node i, and factor rows are re-centered so the zero-sum
    invariant survives rounded input (e.g. four-digit published tables).

    The work is done per edge shape, not per edge: the pairs are grouped
    by (n_i, n_j, rank) and each group is stacked into 3-D arrays, so that
    re-centering, deriving the reverse factors and the consistency check
    cost a few numpy calls per group (see :func:`accept_batches`).
    """
    grouped: dict[tuple, tuple[list[int], list, list]] = {}
    for pos, pair in enumerate(edge_factors.values()):
        positions, qs, rs = grouped.setdefault((pair.q.shape, pair.r_mat.shape), ([], [], []))
        positions.append(pos)
        qs.append(pair.q)
        rs.append(pair.r_mat)
    batches = [
        EdgeBatch(tuple(positions), np.array(qs), np.array(rs))
        for positions, qs, rs in grouped.values()
    ]
    return accept_batches(spaces, priors, list(edge_factors), batches, names, name)


def accept_batches(
    spaces: list[StateSpace],
    priors: list[Distribution],
    edges: list[tuple[int, int]],
    batches: list[EdgeBatch],
    names: list[str] | None = None,
    name: str = "tree",
) -> TreeNetwork:
    """Build a TreeNetwork from factor pairs already stacked by edge shape.

    ``edges[k]`` is (i, j) for the coupling of node i with respect to node
    j, and every position of ``edges`` appears in exactly one batch.  Each
    batch is re-centered and its reverse factors derived with one
    broadcast, then :func:`check_tree_consistency` checks the tree.  The
    result is what :func:`accept_precompiled` returns for the same pairs.
    """
    if len(spaces) != len(priors):
        raise DimensionMismatchError("one prior per compound node is required")
    compounds = tuple(
        CompoundNode(i, names[i] if names else f"X_{i + 1}", sp, pr)
        for i, (sp, pr) in enumerate(zip(spaces, priors))
    )
    located: list[tuple[EdgeBatch, int]] = [None] * len(edges)
    for batch in batches:
        for k, pos in enumerate(batch.positions):
            located[pos] = (batch, k)
    for (i, j), (batch, _) in zip(edges, located):
        ni = compounds[i].space.cardinality
        nj = compounds[j].space.cardinality
        if batch.q.shape[2] != ni or batch.r.shape[2] != nj:
            raise DimensionMismatchError(
                f"edge ({i},{j}): factor shapes {batch.q.shape[1:]}x{batch.r.shape[1:]} "
                f"do not match cardinalities {ni}, {nj}"
            )
    derived: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for batch in batches:
        p_i = np.array([compounds[edges[pos][0]].prior.probs for pos in batch.positions])
        r_ij = algebra.center_rows(batch.r)
        r_ji = _reverse_factor(algebra.center_rows(batch.q), p_i)
        # frozen before any view is taken, so no view of them is writable
        r_ij.setflags(write=False)
        r_ji.setflags(write=False)
        derived.update(zip(batch.positions, zip(r_ij, r_ji)))
    stored: dict[tuple[int, int], np.ndarray] = {}
    for pos, (i, j) in enumerate(edges):
        stored[(i, j)], stored[(j, i)] = derived[pos]
    tree = TreeNetwork(compounds, tuple(edges), stored, name=name)
    check_tree_consistency(tree)
    return tree


def _weights(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T for every row of a stack of priors: (E, n) -> (E, n, n)."""
    column = p[:, :, None]
    return column * np.eye(p.shape[1]) - column * p[:, None, :]


def _dense_couplings(r_ab: np.ndarray, r_ba: np.ndarray, p_a: np.ndarray) -> np.ndarray:
    """Dense couplings of a stack of edges: the coupling of each a with
    respect to its b, (R_ba W(p_a))^T R_ab, from stored factors of shapes
    (E, r, n_b) and (E, r, n_a) and priors of shape (E, n_a)."""
    q_ab = r_ba @ _weights(p_a)
    return q_ab.transpose(0, 2, 1) @ r_ab


def _reversed_dense(s: np.ndarray, p_i: np.ndarray, p_j: np.ndarray) -> np.ndarray:
    """:func:`algebra.reverse_dense` of every coupling in a stack."""
    with np.errstate(divide="ignore"):
        inv_i = 1.0 / p_i
    return _weights(p_j) @ algebra.center_rows(s.transpose(0, 2, 1) * inv_i[:, None, :])


def reconstruct_dense(tree: TreeNetwork, i: int, j: int) -> np.ndarray:
    """Dense coupling of node i with respect to adjacent node j, from the
    stored factors and the priors.

    The one-edge case of the kernel :func:`check_tree_consistency` runs on
    stacks, so both compute every coupling with the same arithmetic.
    """
    r_ij = tree.r_factors[(i, j)]
    r_ji = tree.r_factors[(j, i)]
    return _dense_couplings(r_ij[None], r_ji[None], tree.compound(i).prior.probs[None])[0]


def check_tree_consistency(tree: TreeNetwork, tol: float = CONSISTENCY_TOL) -> None:
    """Verify that the two stored factors of every edge agree.

    Reconstructs the dense coupling in both directions and requires each
    to be the marginal-weighted reversal of the other, within ``tol``
    times the larger of one and the coupling's largest entry.  An edge
    whose error is not within that bound, NaN included, fails; the first
    failing edge in ``tree.edges`` order is named.  When every edge
    agrees, records the tree's decay constants, read off the same dense
    couplings, on ``tree.decay``; and when every compound has two states
    and every edge rank 1, the tree's float form on ``tree.scalars``, with
    one slice per shape group, for the engine's float kernel.

    Edges are checked per shape: those of one (n_a, n_b, rank) are
    stacked into 3-D arrays, and one batched product per direction
    rebuilds all their couplings.
    """
    card = [c.space.cardinality for c in tree.compounds]
    all_binary = all(n == 2 for n in card)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for pos, (a, b) in enumerate(tree.edges):
        groups.setdefault((card[a], card[b], tree.rank(a, b)), []).append(pos)
    priors = [c.prior.probs for c in tree.compounds]
    first_bad, bad_err = len(tree.edges), math.nan
    couplings: list[float] = []
    scalar = all_binary and all(shape == (2, 2, 1) for shape in groups)
    factors: dict[tuple[int, int], float] = {}
    for positions in groups.values():
        pairs = [tree.edges[pos] for pos in positions]
        r_ab = np.array([tree.r_factors[(a, b)] for a, b in pairs])
        r_ba = np.array([tree.r_factors[(b, a)] for a, b in pairs])
        p_a = np.array([priors[a] for a, _ in pairs])
        p_b = np.array([priors[b] for _, b in pairs])
        s_ab = _dense_couplings(r_ab, r_ba, p_a)
        s_ba = _dense_couplings(r_ba, r_ab, p_b)
        with np.errstate(invalid="ignore"):
            err = np.maximum(
                np.abs(s_ba - _reversed_dense(s_ab, p_a, p_b)).max(axis=(1, 2)),
                np.abs(s_ab - _reversed_dense(s_ba, p_b, p_a)).max(axis=(1, 2)),
            )
        scale = np.maximum(1.0, np.abs(s_ab).max(axis=(1, 2)))
        failed = np.flatnonzero(~(err <= tol * scale))
        if failed.size and positions[failed[0]] < first_bad:
            first_bad, bad_err = positions[failed[0]], float(err[failed[0]])
        if all_binary:
            couplings.append(float(np.abs(s_ab[:, 1, 1] - s_ab[:, 1, 0]).max()))
        if scalar:
            c_ab = (r_ab[:, 0, 1] - r_ab[:, 0, 0]).tolist()
            c_ba = (r_ba[:, 0, 1] - r_ba[:, 0, 0]).tolist()
            for pair, x, y in zip(pairs, c_ab, c_ba):
                factors[pair] = x
                factors[pair[::-1]] = y
    if first_bad < len(tree.edges):
        a, b = tree.edges[first_bad]
        # a zero prior entry fails its edge; report it as the scalar check does
        algebra.inverse_weights(priors[a])
        algebra.inverse_weights(priors[b])
        na, nbm = tree.compound(a).name, tree.compound(b).name
        raise ConsistencyError(f"edge {na} - {nbm}: stored factors disagree by {bad_err:.3g}")
    scalars = None
    if all_binary:
        p = np.array(priors)
        decay = DecayConstants(
            True, float(np.max(couplings, initial=0.0)), float((p[:, 0] * p[:, 1]).min())
        )
        if scalar:
            scalars = BinaryScalars(dict(enumerate(p[:, 1].tolist())), factors)
    else:
        decay = DecayConstants(False, math.nan, math.nan)
    tree.record_decay(decay, scalars)
