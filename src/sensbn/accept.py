"""The load pass: a tree from stacked factor pairs, checked.

Compiling, loading a tree file and :func:`accept_precompiled` all build
their tree through :func:`accept_batches`, which derives each edge's
reverse factors from its stored ones and the priors, then runs
:func:`check_tree_consistency` on the result.  The check refuses factors
that disagree or that are no sensitivity, and records what the engine
and the truncation read off the tree (see ``TreeNetwork.record_decay``).
This module needs only the tree model and the factor algebra, so a
process that loads a tree loads no network compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Sequence

import numpy as np

from . import algebra
from .algebra import QRFactors
from .errors import ConsistencyError, DimensionMismatchError
from .model import (
    BinaryScalars,
    DecayConstants,
    Distribution,
    FactorStack,
    NodeColumns,
    StateSpace,
    TreeNetwork,
)

#: how far the two stored factors of an edge may disagree (relative)
CONSISTENCY_TOL = 1e-9

#: how far a reconstructed conditional table may leave [0, 1] at load: room
#: for factors published to four digits (those of asia_tables.tree rebuild
#: an entry at -7.5e-5)
TABLE_TOL = 1e-3


@dataclass(frozen=True)
class EdgeBatch:
    """Factor pairs of edges that share one (n_i, n_j, rank) shape, stacked.

    ``q[k]`` (rank x n_i) and ``r[k]`` (rank x n_j) are the factor pair of
    the edge in row ``positions[k]`` of the ends passed to
    :func:`accept_batches` with the batch.
    """

    positions: Sequence[int]
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
    node j.  The pairs are stacked per (n_i, n_j, rank) shape for
    :func:`accept_batches`, which re-centres the rows (so the zero-sum
    invariant survives rounded input, e.g. four-digit published tables),
    derives the opposite-direction factors from Q and the priors, and
    checks the tree with a few numpy calls per shape.
    """
    nodes = NodeColumns.of(spaces, priors, names)
    grouped: dict[tuple, tuple[list[int], list, list]] = {}
    for pos, ((i, j), pair) in enumerate(edge_factors.items()):
        if pair.q.shape[1] != nodes.size[i] or pair.r_mat.shape[1] != nodes.size[j]:
            raise DimensionMismatchError(
                f"edge ({i},{j}): factor shapes {pair.q.shape}x{pair.r_mat.shape} "
                f"do not match cardinalities {nodes.size[i]}, {nodes.size[j]}"
            )
        positions, qs, rs = grouped.setdefault((pair.q.shape, pair.r_mat.shape), ([], [], []))
        positions.append(pos)
        qs.append(pair.q)
        rs.append(pair.r_mat)
    batches = [
        EdgeBatch(positions, np.array(qs), np.array(rs))
        for positions, qs, rs in grouped.values()
    ]
    return accept_batches(nodes, _edge_ends(edge_factors.keys()), batches, name)


def _edge_ends(edges: Collection[tuple[int, int]]) -> np.ndarray:
    """The edges (i, j) as an (E, 2) array."""
    return np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)


def accept_batches(
    nodes: NodeColumns,
    ends: np.ndarray,
    batches: list[EdgeBatch],
    name: str = "tree",
) -> TreeNetwork:
    """Build a TreeNetwork from factor pairs already stacked by edge shape.

    ``ends`` is an (E, 2) integer array whose row k is (i, j) for the
    coupling of node i with respect to node j, every row appears in
    exactly one batch, and a batch's factor widths are the sizes of its
    edges' nodes.  Each batch is re-centered and its reverse factors
    derived with one broadcast into the tree's :class:`FactorStack` of
    that shape, then :func:`check_tree_consistency` checks the tree.  The
    result is what :func:`accept_precompiled` returns for the same pairs.
    """
    stacks = []
    for batch in batches:
        pos = np.array(batch.positions, dtype=np.intp)
        p_i = nodes.prior_stack(ends[pos, 0], batch.q.shape[2])
        # the R factor of the flipped coupling: Q_ij diag(p_i)^{-1} (I - E/n_i)
        q_ij = algebra.center_rows(batch.q)
        r_ji = algebra.center_rows(q_ij * algebra.inverse_weights(p_i)[:, None, :])
        stacks.append(FactorStack(pos, algebra.center_rows(batch.r), r_ji))
    tree = TreeNetwork(nodes, ends, stacks, name)
    check_tree_consistency(tree)
    return tree


def _dense_couplings(q_ba: np.ndarray, r_ab: np.ndarray) -> np.ndarray:
    """Dense couplings of a stack of edges: the coupling of each a with
    respect to its b, (R_ba W(p_a))^T R_ab, from the weighted factors
    R_ba W(p_a) of shape (E, r, n_a), which :func:`algebra.weighted` forms
    without the (E, n_a, n_a) weights, and the stored factors R_ab of
    shape (E, r, n_b)."""
    return q_ba.transpose(0, 2, 1) @ r_ab


def factor_pairs(tree: TreeNetwork) -> dict[tuple[int, int], QRFactors]:
    """The factor pair of every edge (i, j), Q = R_ji W(p_i) and R_ij, in
    ``tree.edges`` order: what a tree file holds, and what
    :func:`accept_precompiled` takes to rebuild ``tree``.  Q is computed
    with one batched product per factor stack."""
    nodes, ends = tree.node_columns, tree.edge_ends
    pairs: list = [None] * len(tree.edges)
    for stack in tree.factor_stacks:
        p_i = nodes.prior_stack(ends[stack.edges, 0], stack.bwd.shape[2])
        qs = stack.bwd @ algebra.weight_matrix(p_i)
        for k, q, r in zip(stack.edges.tolist(), qs, stack.fwd):
            pairs[k] = QRFactors(q, r)
    return dict(zip(tree.edges, pairs))


def _reversed_dense(s: np.ndarray, p_i: np.ndarray, p_j: np.ndarray) -> np.ndarray:
    """:func:`algebra.reverse_dense` of every coupling in a stack, with
    W(p_j) X formed as diag(p_j) (X - 1 p_j^T X).  A zero entry of p_i is
    not refused: its edge comes out infinite or NaN."""
    flipped = algebra.center_rows(s.transpose(0, 2, 1) * (1.0 / p_i)[:, None, :])
    return (flipped - p_j[:, None, :] @ flipped) * p_j[:, :, None]


def reconstruct_dense(tree: TreeNetwork, i: int, j: int) -> np.ndarray:
    """Dense coupling of node i with respect to adjacent node j, from the
    stored factors and the priors.

    The one-edge case of the kernel :func:`check_tree_consistency` runs on
    stacks, so both compute every coupling with the same arithmetic.
    """
    r_ij = tree.r_factors[(i, j)]
    r_ji = tree.r_factors[(j, i)]
    q_ji = algebra.weighted(r_ji[None], tree.node_columns.prior(i)[None])
    return _dense_couplings(q_ji, r_ij[None])[0]


def binary_couplings(tree: TreeNetwork, stack: FactorStack) -> np.ndarray:
    """|s[1, 1] - s[1, 0]| of the dense coupling s of every edge (a, b) of
    a stack of binary edges, a with respect to b: what
    :func:`reconstruct_dense` gives edge by edge."""
    a = tree.edge_ends[stack.edges, 0]
    q_ba = algebra.weighted(stack.bwd, tree.node_columns.prior_stack(a, 2))
    s_ab = _dense_couplings(q_ba, stack.fwd)
    return np.abs(s_ab[:, 1, 1] - s_ab[:, 1, 0])


def _spill(s: np.ndarray, p_i: np.ndarray, p_j: np.ndarray) -> np.ndarray | None:
    """How far the conditional table of i given j of each edge of a stack,
    s + (p_i - s p_j) 1^T (see algebra.sensitivity_to_cpt), leaves [0, 1],
    from dense couplings s of shape (E, n_i, n_j) and priors of shapes
    (E, n_i) and (E, n_j); None when two reductions find every table
    within :data:`TABLE_TOL` of [0, 1]."""
    tables = s + (p_i - (s @ p_j[:, :, None])[:, :, 0])[:, :, None]
    lo, hi = np.minimum.reduce(tables, axis=None), np.maximum.reduce(tables, axis=None)
    if lo >= -TABLE_TOL and hi <= 1.0 + TABLE_TOL:
        return None
    return np.maximum(_stack_max(-tables), _stack_max(tables) - 1.0)


def _stack_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=(1, 2))`` of a stack x of matrices, NaN where a matrix
    holds one, reduced down a transposed copy: the inner loop then runs
    along the stack instead of along the few entries of one matrix."""
    return np.maximum.reduce(x.T.copy(), axis=(0, 1))


def check_tree_consistency(tree: TreeNetwork) -> None:
    """Verify that the two stored factors of every edge agree and are a
    sensitivity.

    Reconstructs the dense coupling in both directions and requires each
    to be the marginal-weighted reversal of the other, within
    :data:`CONSISTENCY_TOL` times the larger of one and the coupling's
    largest entry.  An edge whose error is not within that bound, NaN
    included, fails; the first failing edge in ``tree.edges`` order is
    named.  When every edge agrees, the conditional tables the couplings
    rebuild, in both directions, must lie in [0, 1] within
    :data:`TABLE_TOL`; the first edge whose tables do not is named.  When every edge passes, records
    the tree's decay constants, read off the same dense couplings, on
    ``tree.decay``; and when every compound has two states and every edge
    rank 1, the tree's columnar float form and its runs on
    ``tree.scalars`` (see :class:`BinaryScalars`), for the engine's float
    kernel.  A tree with no float form also gets the weighted factors at
    the priors that rebuilt its couplings, which the array kernel reads
    through ``tree.weighted_factors``.

    Edges are checked per shape, on the tree's factor stacks: one batched
    product per direction rebuilds all the couplings of a stack.
    """
    nodes, ends = tree.node_columns, tree.edge_ends
    n_edges = len(ends)
    all_binary = set(nodes.priors) == {2}
    first_bad, bad_err = n_edges, math.nan
    first_wild, wild_by = n_edges, math.nan
    couplings: list[float] = []
    scalar = all_binary and all(st.fwd.shape[1] == 1 for st in tree.factor_stacks)
    # the float kernel reads no weighted factor, so a float form keeps none
    weighted: list[tuple[np.ndarray, np.ndarray]] | None = None if scalar else []
    for stack in tree.factor_stacks:
        positions, r_ab, r_ba = stack.edges, stack.fwd, stack.bwd
        p_a = nodes.prior_stack(ends[positions, 0], r_ba.shape[2])
        p_b = nodes.prior_stack(ends[positions, 1], r_ab.shape[2])
        q_ba, q_ab = algebra.weighted(r_ba, p_a), algebra.weighted(r_ab, p_b)
        s_ab = _dense_couplings(q_ba, r_ab)
        s_ba = _dense_couplings(q_ab, r_ba)
        if weighted is not None:
            weighted.append((q_ba, q_ab))
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.maximum(
                _stack_max(np.abs(s_ba - _reversed_dense(s_ab, p_a, p_b))),
                _stack_max(np.abs(s_ab - _reversed_dense(s_ba, p_b, p_a))),
            )
            spills = [x for x in (_spill(s_ab, p_a, p_b), _spill(s_ba, p_b, p_a)) if x is not None]
        scale = np.maximum(1.0, _stack_max(np.abs(s_ab)))
        failed = (~(err <= CONSISTENCY_TOL * scale)).nonzero()[0]
        if failed.size and positions[failed[0]] < first_bad:
            first_bad, bad_err = int(positions[failed[0]]), float(err[failed[0]])
        if spills:
            spill = np.max(spills, axis=0)
            wild = (spill > TABLE_TOL).nonzero()[0]
            if wild.size and positions[wild[0]] < first_wild:
                first_wild, wild_by = int(positions[wild[0]]), float(spill[wild[0]])
        if all_binary:
            couplings.append(float(np.maximum.reduce(np.abs(s_ab[:, 1, 1] - s_ab[:, 1, 0]))))
    if first_bad < n_edges:
        a, b = tree.edges[first_bad]
        # a zero prior entry fails its edge; report it as the scalar check does
        algebra.inverse_weights(nodes.prior(a))
        algebra.inverse_weights(nodes.prior(b))
        raise ConsistencyError(
            f"edge {nodes.names[a]} - {nodes.names[b]}: stored factors disagree by {bad_err:.3g}"
        )
    if first_wild < n_edges:
        a, b = tree.edges[first_wild]
        raise ConsistencyError(
            f"edge {nodes.names[a]} - {nodes.names[b]}: the factors are no sensitivity; "
            f"a conditional table they rebuild leaves [0, 1] by {wild_by:.3g}"
        )
    scalars = None
    if all_binary:
        p = nodes.prior_stack(np.arange(tree.node_count), 2)
        decay = DecayConstants(
            True,
            float(np.max(couplings, initial=0.0)),
            float(np.minimum.reduce(p[:, 0] * p[:, 1])),
        )
        if scalar:
            scalars = BinaryScalars.from_tree(tree, p[:, 1].copy())
    else:
        decay = DecayConstants(False, math.nan, math.nan)
    tree.record_decay(decay, scalars, weighted)
