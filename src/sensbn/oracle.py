"""Brute-force reference inference by joint enumeration.

This module exists to be obviously correct, not fast: it materializes the
full joint distribution (guarded at desk scale) and answers every query by
summation.  Every other module is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, UnknownLabelError, ZeroEvidenceError, ZeroMassError
from .model import (
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    Evidence,
    StateSpace,
    frozen_array,
    SUM_TOL,
)

#: largest joint table the oracle will materialize
SIZE_GUARD = 2**22


@dataclass(frozen=True)
class JointTable:
    """Full joint distribution; one axis per node, topological order."""

    values: np.ndarray
    axes: tuple[str, ...]

    def __post_init__(self):
        arr = frozen_array(self.values)
        if arr.ndim != len(self.axes):
            raise UnknownLabelError("axis names do not match table dimensions")
        object.__setattr__(self, "values", arr)

    def axis(self, label: str) -> int:
        try:
            return self.axes.index(label)
        except ValueError:
            raise UnknownLabelError(f"node {label!r} not in the joint table") from None


def joint(net: BeliefNetwork) -> JointTable:
    """p(X_1..X_n) as the product of all conditional tables."""
    order = net.topological_order()
    total = 1
    for label in order:
        total *= net.card(label)
        if total > SIZE_GUARD:
            raise SizeLimitError(
                f"joint table would exceed {SIZE_GUARD} states; "
                "use sampling-based validation instead"
            )
    axis_of = {label: i for i, label in enumerate(order)}
    shape = tuple(net.card(l) for l in order)
    table = np.ones(shape)
    for label in order:
        parents = net.parents[label]
        cpt = net.cpts[label]
        # reshape the child-major CPT onto (child, parents...) axes, then
        # broadcast over the remaining joint axes
        fam_shape = (net.card(label),) + tuple(net.card(p) for p in parents)
        fam = cpt.reshape(fam_shape) if parents else cpt[:, 0].reshape(fam_shape)
        src = (label,) + parents
        expand = [1] * len(order)
        for name in src:
            expand[axis_of[name]] = net.card(name)
        perm_sorted = sorted(range(len(src)), key=lambda k: axis_of[src[k]])
        table = table * fam.transpose(perm_sorted).reshape(expand)
    return JointTable(table, tuple(order))


def marginalize_out(jt: JointTable, label: str) -> JointTable:
    """Sum over every state of one node; total mass is preserved."""
    ax = jt.axis(label)
    values = jt.values.sum(axis=ax)
    axes = tuple(a for a in jt.axes if a != label)
    if not axes:
        values = values.reshape(())
    return JointTable(values, axes)


def marginal(jt: JointTable, labels) -> np.ndarray:
    """Joint marginal over ``labels`` with axes in the given order."""
    keep = tuple(labels)
    for l in keep:
        jt.axis(l)
    out = jt.values
    axes = list(jt.axes)
    for l in list(axes):
        if l not in keep:
            out = out.sum(axis=axes.index(l))
            axes.remove(l)
    perm = [axes.index(l) for l in keep]
    return out.transpose(perm)


def _restricted(jt: JointTable, evidence: Evidence) -> np.ndarray:
    """Joint with evidence-inconsistent states zeroed; shape is preserved."""
    out = np.array(jt.values)
    for label, state in evidence.assignments:
        ax = jt.axis(label)
        if not 0 <= state < jt.values.shape[ax]:
            raise UnknownLabelError(f"state {state} outside node {label!r} range")
        pick = np.zeros(jt.values.shape[ax])
        pick[state] = 1.0
        expand = [1] * jt.values.ndim
        expand[ax] = jt.values.shape[ax]
        out = out * pick.reshape(expand)
    return out


def posterior(net: BeliefNetwork, evidence: Evidence, query: str) -> Distribution:
    """Exact conditional distribution of one node by enumeration."""
    jt = joint(net)
    restricted = _restricted(jt, evidence)
    ax = jt.axis(query)
    other = tuple(i for i in range(jt.values.ndim) if i != ax)
    weights = restricted.sum(axis=other)
    mass = float(weights.sum())
    if mass <= 0.0:
        raise ZeroEvidenceError(f"evidence {evidence.as_dict()} has probability zero")
    return Distribution(weights / mass)


def posterior_over_space(
    net: BeliefNetwork,
    evidence: Evidence,
    space: StateSpace,
    jt: JointTable | None = None,
) -> Distribution:
    """Exact posterior over a compound space, in its compacted ordering."""
    if jt is None:
        jt = joint(net)
    restricted = JointTable(_restricted(jt, evidence), jt.axes)
    table = marginal(restricted, space.members)
    flat = table.reshape(-1)
    mass = float(flat.sum())
    if mass <= 0.0:
        raise ZeroEvidenceError(f"evidence {evidence.as_dict()} has probability zero")
    kept = flat[list(space.retained)]
    dropped = mass - float(kept.sum())
    if dropped > SUM_TOL * mass:
        raise ZeroMassError(
            f"pruned states of {space.members} carry posterior mass {dropped!r}"
        )
    return Distribution.normalized(kept)


def arc_reverse_cpt(
    p_ij: ConditionalMatrix, p_j: Distribution
) -> tuple[ConditionalMatrix, Distribution]:
    """Re-express the pairwise joint with the conditioning flipped (Bayes).

    Returns (p(X_j | X_i), p(X_i)) with the defining property
    p(X_j|X_i) p(X_i) = p(X_i|X_j) p(X_j) entrywise.
    """
    pair = p_ij.entries * p_j.probs[None, :]
    p_i = pair.sum(axis=1)
    if p_i.min(initial=np.inf) <= 0.0:
        dead = int(np.argmin(p_i))
        raise ZeroMassError(
            f"state {dead} of the child has zero marginal; prune it before reversing"
        )
    flipped = (pair / p_i[:, None]).T
    return ConditionalMatrix(flipped, child=p_ij.parent, parent=p_ij.child), Distribution(p_i)


def pairwise_joint(
    net: BeliefNetwork,
    child: StateSpace,
    parent: StateSpace,
    jt: JointTable | None = None,
) -> np.ndarray:
    """Joint mass table p(child state, parent state) over retained states."""
    overlap = bool(set(child.members) & set(parent.members))
    if overlap and (child.members, child.pruned) != (parent.members, parent.pruned):
        raise UnknownLabelError("overlapping member sets are not supported")
    if jt is None:
        jt = joint(net)
    if overlap:
        flat = marginal(jt, child.members).reshape(-1)
        return np.diag(flat[list(child.retained)])
    table = marginal(jt, child.members + parent.members)
    flat = table.reshape(child.full_cardinality, parent.full_cardinality)
    return flat[np.ix_(list(child.retained), list(parent.retained))]


def pairwise_conditional(
    net: BeliefNetwork,
    child: StateSpace,
    parent: StateSpace,
    jt: JointTable | None = None,
) -> ConditionalMatrix:
    """p(child set | parent set) computed from the joint; unit-sum columns."""
    return ConditionalMatrix.from_joint(pairwise_joint(net, child, parent, jt), child, parent)
