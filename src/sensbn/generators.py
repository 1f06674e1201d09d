"""Seeded random models for validation suites and benchmarks."""

from __future__ import annotations

import math

import numpy as np

from . import compiler
from .model import BeliefNetwork, Evidence, NodeColumns, TreeNetwork

_INV_RT2 = 1.0 / math.sqrt(2.0)


def random_cpt(rng: np.random.Generator, rows: int, cols: int, floor: float = 0.05) -> np.ndarray:
    """Column-normalized table with entries bounded away from zero."""
    raw = floor + rng.random((rows, cols))
    return raw / raw.sum(axis=0, keepdims=True)


def random_tree_network(
    rng: np.random.Generator, n_nodes: int, max_states: int = 2
) -> BeliefNetwork:
    """Random tree-shaped DAG (each node has at most one parent)."""
    labels = [f"v{i}" for i in range(n_nodes)]
    cards = [int(rng.integers(2, max_states + 1)) for _ in labels]
    parents: dict[str, tuple[str, ...]] = {labels[0]: ()}
    for i in range(1, n_nodes):
        parents[labels[i]] = (labels[int(rng.integers(0, i))],)
    cpts = {}
    for i, label in enumerate(labels):
        cols = cards[labels.index(parents[label][0])] if parents[label] else 1
        cpts[label] = random_cpt(rng, cards[i], cols)
    return BeliefNetwork(tuple(zip(labels, cards)), parents, cpts, name="random-tree")


def random_groupings(
    rng: np.random.Generator, net: BeliefNetwork, max_groups: int = 3
) -> tuple[tuple[str, ...], ...]:
    """Up to ``max_groups`` disjoint clusters of 2-3 nodes each."""
    labels = list(net.labels)
    rng.shuffle(labels)
    groups: list[tuple[str, ...]] = []
    k = int(rng.integers(0, max_groups + 1))
    pos = 0
    for _ in range(k):
        size = int(rng.integers(2, 4))
        if pos + size > len(labels):
            break
        groups.append(tuple(labels[pos : pos + size]))
        pos += size
    return tuple(groups)


def random_evidence(
    rng: np.random.Generator, net: BeliefNetwork, size: int
) -> Evidence:
    labels = list(net.labels)
    rng.shuffle(labels)
    picked = labels[:size]
    return Evidence.of({l: int(rng.integers(0, net.card(l))) for l in picked})


def binary_chain_network(
    rng: np.random.Generator,
    length: int,
    alpha: float = 0.9,
    marginal_lo: float = 0.11,
    marginal_hi: float = 0.89,
    coupling_lo: float = 0.05,
) -> BeliefNetwork:
    """Chain DAG v0 -> v1 -> ... with |coupling| < alpha on every edge and
    every marginal inside [marginal_lo, marginal_hi]."""
    priors, couplings, p_false_col, p_true_col = _chain_params(
        rng, length, alpha, marginal_lo, marginal_hi, coupling_lo
    )
    labels = [f"v{i}" for i in range(length)]
    parents = {labels[0]: ()}
    cpts = {labels[0]: np.array([[1 - priors[0]], [priors[0]]])}
    for k in range(1, length):
        parents[labels[k]] = (labels[k - 1],)
        a, b = p_false_col[k - 1], p_true_col[k - 1]
        cpts[labels[k]] = np.array([[1 - a, 1 - b], [a, b]])
    return BeliefNetwork(tuple((l, 2) for l in labels), parents, cpts, name="chain")


def binary_chain_tree(
    rng: np.random.Generator,
    length: int,
    alpha: float = 0.9,
    marginal_lo: float = 0.11,
    marginal_hi: float = 0.89,
    coupling_lo: float = 0.05,
) -> TreeNetwork:
    """Same distribution as :func:`binary_chain_network`, built directly as
    a compiled tree (no enumeration), so long chains are cheap.

    Drawing is sequential in chain position, so two chains of different
    lengths from generators seeded the same way share their prefix.
    """
    priors, couplings, _, _ = _chain_params(
        rng, length, alpha, marginal_lo, marginal_hi, coupling_lo
    )
    # one column per attribute and one factor stack: no object per node
    p = np.array(priors)
    nodes = NodeColumns(
        [f"X_{i + 1}" for i in range(length)],
        [f"v{i}" for i in range(length)],
        range(length + 1),
        {},
        {},
        [2] * length,
        {2: np.stack([1.0 - p, p], axis=1)},
        np.arange(length, dtype=np.intp),
    )
    unit = np.array([[-_INV_RT2, _INV_RT2]])
    edges = [(k, k - 1) for k in range(1, length)]
    batch = compiler.EdgeBatch(
        range(len(edges)),
        np.repeat(unit[None], len(edges), axis=0),
        np.array(couplings)[:, None, None] * unit,
    )
    return compiler.accept_batches(nodes, edges, [batch] if edges else [], name="chain")


def _chain_params(rng, length, alpha, lo, hi, coupling_lo=0.05):
    """Marginals v0..; per-edge couplings and CPT columns, drawn so every
    marginal stays inside [lo, hi] and |coupling| stays below alpha."""
    p = float(rng.uniform(lo, hi))
    priors = [p]
    couplings: list[float] = []
    col_false: list[float] = []
    col_true: list[float] = []
    for _ in range(length - 1):
        for _attempt in range(200):
            s = float(rng.uniform(coupling_lo, alpha - 1e-3)) * (1 if rng.random() < 0.5 else -1)
            a_lo = max(0.005, 0.005 - s, lo - s * p)
            a_hi = min(0.995, 0.995 - s, hi - s * p)
            if a_hi > a_lo:
                break
        else:
            raise RuntimeError("could not draw a feasible chain edge")
        a = float(rng.uniform(a_lo, a_hi))
        p = a + s * p
        priors.append(p)
        couplings.append(s)
        col_false.append(a)
        col_true.append(a + s)
    return priors, couplings, col_false, col_true
