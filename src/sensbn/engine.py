"""Message-passing inference on a compound-node tree.

Two propagation modes share one mutable session:

* ``instantiate`` + ``commit``: one piece of evidence at a time, updating
  the posterior of *every* node (depth-first from the instantiated node).
* ``query``: a whole evidence set at once, updating only the query node.
  Barren branches (no evidence behind them) are skipped, and chains of
  uninstantiated pass-through nodes are collapsed into a single rank-by-
  rank transfer matrix without touching their state.

Messages between adjacent nodes are always the factored form
``r_factor @ delta_p`` and therefore exactly rank-of-the-edge numbers
long.  Updates are exact, not approximate: a conditional distribution is
linear in the distribution it conditions on, so pushing a change through
the stored factors reproduces brute-force posteriors to rounding error.

The session's distributions and factors are copy-on-write overlays over
the tree's own dicts, so setting up a session costs O(1) whatever the
size of the tree, and entries are replaced, never mutated in place, so
many sessions can share one immutable TreeNetwork.  Every ``query`` and
every ``instantiate`` starts from the committed baseline (the priors plus
whatever :meth:`QuerySession.commit` froze), so one session can answer
any number of queries.  A session itself is single-writer: never call
into one session from two threads.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import algebra
from .errors import (
    DimensionMismatchError,
    PrunedStateError,
    SingularWeightError,
    UnknownLabelError,
    ZeroEvidenceError,
    ZeroMassError,
)
from .model import Distribution, Evidence, TreeNetwork, restrict_distribution

#: probabilities driven below this by an update are clamped to exactly zero
CLAMP_EPS = 1e-12


class Overlay(dict):
    """Copy-on-write view of a shared dict.

    Writes land in the overlay itself; a key it does not hold is read from
    ``base`` through ``__missing__``, so a lookup stays a plain dict
    lookup.  Keys must be keys of ``base``.  Iteration, ``len``, ``in`` and
    ``get`` see every key of ``base`` with the overlay's values.
    """

    __slots__ = ("base",)

    def __init__(self, base: Mapping, own: Mapping = ()):
        super().__init__(own)
        self.base = base

    def __missing__(self, key):
        return self.base[key]

    def fork(self) -> "Overlay":
        """An independent overlay with this one's own entries, over the same base."""
        # dict.items, not dict.copy: a copy would go through the merged view
        return Overlay(self.base, dict.items(self))

    def get(self, key, default=None):
        return self[key] if key in self.base else default

    def __contains__(self, key) -> bool:
        return key in self.base

    def __iter__(self) -> Iterator:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)

    keys = Mapping.keys
    items = Mapping.items
    values = Mapping.values


class BarrenMarks(Mapping):
    """Read-only ``node -> barren`` map over the set of non-barren nodes.

    ``live=None`` marks nothing barren.
    """

    def __init__(self, size: int, live: set[int] | None = None):
        self._size = size
        self._live = live

    def __getitem__(self, node: int) -> bool:
        if not 0 <= node < self._size:
            raise KeyError(node)
        return self._live is not None and node not in self._live

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._size))

    def __len__(self) -> int:
        return self._size


@dataclass
class Instrumentation:
    """Counters exposed for the message-economy and traversal contracts.

    ``traversals`` and ``touched`` describe the most recent operation;
    ``mode`` says whether that was a single-query recursion ("misq", which
    promises at most two crossings per edge) or an instantiation flood
    ("simq", which revisits edges once per evidence node).  ``messages``
    accumulates over the whole session.
    """

    messages: list[tuple[tuple[int, int], int]] = field(default_factory=list)
    traversals: Counter = field(default_factory=Counter)
    touched: set = field(default_factory=set)
    mode: str | None = None

    def start_operation(self, mode: str):
        if mode != self.mode:
            self.traversals = Counter()
            self.touched = set()
        self.mode = mode


class QuerySession:
    """Mutable inference state layered over an immutable TreeNetwork."""

    def __init__(self, tree: TreeNetwork, record_trace: bool = False):
        self.tree = tree
        #: committed baseline: distributions, and factors refreshed by floods
        self.p0 = Overlay(tree.prior_probs)
        self._r0 = Overlay(tree.r_factors)
        #: working state of the current operation
        self.p = self.p0.fork()
        self.r = self._r0.fork()
        self.p1: dict[int, np.ndarray] = {}
        self._live: set[int] = set()
        self.barren: Mapping[int, bool] = BarrenMarks(len(tree.compounds))
        self.instr = Instrumentation()
        self.trace: list[tuple[str, int, np.ndarray]] = []
        self._record_trace = record_trace
        limit = 4 * len(tree.compounds) + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

    # -- accessors ---------------------------------------------------------

    def posterior(self, ident: int) -> Distribution:
        return Distribution(self.p[ident])

    def member_posterior(self, label: str) -> Distribution:
        home = self.tree.member_home(label)
        return Distribution(self.tree.member_marginal(home, label, self.p[home]))

    def dense_sensitivity(self, i: int, j: int) -> np.ndarray:
        """Current dense coupling of adjacent node i with respect to j,
        reconstructed from the working factors and current distributions."""
        q_ij = self.r[(j, i)] @ algebra.weight_matrix(self.p[i])
        return q_ij.T @ self.r[(i, j)]

    # -- shared update steps -------------------------------------------------

    def _restart(self) -> None:
        """Drop uncommitted work, so the operation starts from the baseline."""
        self.p = self.p0.fork()
        self.r = self._r0.fork()

    def _trace(self, event: str, node: int):
        if self._record_trace:
            self.trace.append((event, node, np.array(self.p[node])))

    def _clamp(self, values: np.ndarray, node: int) -> np.ndarray:
        out = np.where(values < CLAMP_EPS, 0.0, values)
        total = float(out.sum())
        if total <= 0.0 or abs(total - 1.0) > 1e-6:
            name = self.tree.compound(node).name
            raise ZeroMassError(f"update left {name} without a valid distribution")
        return out

    def _refresh_factor(self, q_up: np.ndarray, p_new: np.ndarray, node: int) -> np.ndarray:
        """Post-update factor toward the sender: q diag(p)^{-1} (I - E/n).

        Columns whose probability collapsed to zero must carry no factor
        mass; otherwise the inverse weight is undefined and the state has
        to be pruned at compile time instead.
        """
        out = np.array(q_up)
        dead = p_new <= 0.0
        if dead.any():
            live_mass = float(np.abs(out[:, dead]).max(initial=0.0))
            if live_mass > 1e-9:
                name = self.tree.compound(node).name
                raise SingularWeightError(
                    f"a state of {name} reached probability zero but still couples "
                    "to its neighbors; re-compile with that state pruned"
                )
            out[:, dead] = 0.0
        alive = ~dead
        out[:, alive] = out[:, alive] / p_new[alive][None, :]
        return algebra.center_rows(out)

    def _send(self, receiver: int, sender: int, payload: np.ndarray) -> np.ndarray:
        expected = self.tree.rank(receiver, sender)
        if payload.shape != (expected,):
            raise DimensionMismatchError(
                f"message {sender}->{receiver} has length {payload.shape}, "
                f"edge rank is {expected}"
            )
        self.instr.messages.append(((sender, receiver), int(payload.shape[0])))
        self.instr.traversals[frozenset((sender, receiver))] += 1
        return payload

    def _instantiated_value(self, node: int, assignment: Mapping[str, int]) -> np.ndarray:
        comp = self.tree.compound(node)
        space = comp.space
        if set(assignment) == set(space.members):
            try:
                state = space.index(assignment)
            except PrunedStateError as exc:
                raise ZeroEvidenceError(str(exc)) from exc
            if self.p[node][state] <= 0.0:
                raise ZeroEvidenceError(
                    f"state {dict(assignment)} of {comp.name} has probability zero"
                )
            out = np.zeros(space.cardinality)
            out[state] = 1.0
            return out
        try:
            return restrict_distribution(
                Distribution(self.p[node]), space, assignment
            ).probs.copy()
        except ZeroMassError as exc:
            raise ZeroEvidenceError(str(exc)) from exc

    # -- single instantiation, all posteriors (depth-first flood) -----------

    def instantiate(self, node: int, assignment: Mapping[str, int]) -> "QuerySession":
        """Fix evidence on one node and update every posterior in the tree.

        Call :meth:`commit` before instantiating further evidence; the
        propagation measures changes against the committed baseline, and
        uncommitted work of an earlier operation is dropped.
        """
        self._restart()
        self.instr.start_operation("simq")
        self.instr.touched.add(node)
        self.p[node] = self._instantiated_value(node, assignment)
        self._trace("instantiate", node)
        for below in self.tree.neighbors(node):
            payload = self._send(below, node, self.r[(below, node)] @ (self.p[node] - self.p0[node]))
            self.simq_step(below, node, payload)
        return self

    def simq_step(self, receiver: int, sender: int, payload: np.ndarray) -> None:
        """One received update: refresh this node, then fan out.

        The factor toward the sender is recomputed from the post-update
        distribution so a later instantiation sees posterior couplings.
        """
        self.instr.touched.add(receiver)
        q_up = self.r[(sender, receiver)] @ algebra.weight_matrix(self.p[receiver])
        self.p[receiver] = self._clamp(self.p0[receiver] + q_up.T @ payload, receiver)
        self.r[(sender, receiver)] = self._refresh_factor(q_up, self.p[receiver], receiver)
        self._trace("simq-update", receiver)
        for below in self.tree.neighbors(receiver):
            if below == sender:
                continue
            fwd = self._send(below, receiver, self.r[(below, receiver)] @ (self.p[receiver] - self.p0[receiver]))
            self.simq_step(below, receiver, fwd)

    def commit(self) -> "QuerySession":
        """Freeze the current posteriors and factors as the baseline for
        more evidence."""
        self.p0 = self.p.fork()
        self._r0 = self.r.fork()
        return self

    def multi_evidence_simq(self, evidence: Evidence, order=None) -> "QuerySession":
        """Incremental instantiation: one flood-and-commit per evidence node."""
        grouped = self.tree.group_evidence(evidence)
        if order is None:
            order = sorted(grouped)
        else:
            order = list(order)
            if sorted(order) != sorted(grouped):
                raise UnknownLabelError("order must list exactly the evidence nodes")
        for node in order:
            self.instantiate(node, grouped[node])
            self.commit()
        return self

    # -- many instantiations, one query (barren-pruned recursion) -----------

    def mark_barren(
        self, query: int, evidence_nodes: set[int], within: set[int] | None = None
    ) -> Mapping[int, bool]:
        """Mark nodes whose whole branch away from the query carries no evidence.

        ``within`` optionally restricts attention to a subset of nodes;
        anything outside is barren by fiat (used by radius truncation), and
        only nodes inside it are visited.
        """
        self._live = self._live_nodes(query, evidence_nodes, within)
        self.barren = BarrenMarks(len(self.tree.compounds), self._live)
        return self.barren

    def _live_nodes(self, query: int, evidence_nodes, within: set[int] | None) -> set[int]:
        """The query plus every node whose branch away from it holds evidence."""
        live = {query}
        if within is not None and query not in within:
            return live
        neighbors = self.tree.neighbors
        parent: dict[int, int | None] = {query: None}
        order = [query]
        for node in order:
            for nxt in neighbors(node):
                if nxt != parent[node] and (within is None or nxt in within):
                    parent[nxt] = node
                    order.append(nxt)
        for node in reversed(order):
            if node in live or node in evidence_nodes:
                live.add(node)
                if parent[node] is not None:
                    live.add(parent[node])
        return live

    def query(
        self,
        query_node: int,
        evidence: Evidence,
        within: set[int] | None = None,
    ) -> Distribution:
        """Posterior of one node given an evidence set, touching only the
        chains between the query and the evidence."""
        grouped = self.tree.group_evidence(evidence)
        if within is not None:
            grouped = {n: a for n, a in grouped.items() if n in within}
        self._restart()
        self.p1 = {}
        self.instr.start_operation("misq")
        self.instr.traversals = Counter()
        self.instr.touched = set()
        self.mark_barren(query_node, grouped.keys(), within)
        self.instr.touched.add(query_node)
        for below in self.tree.neighbors(query_node):
            if below not in self._live:
                continue
            payload = self._send(
                below, query_node,
                self.r[(below, query_node)] @ (self.p[query_node] - self.p0[query_node]),
            )
            reply = self._misq(below, query_node, grouped, payload)
            self._send(query_node, below, reply)
            q_down = self.r[(below, query_node)] @ algebra.weight_matrix(self.p[query_node])
            self.p[query_node] = self._clamp(self.p[query_node] + q_down.T @ reply, query_node)
            self._trace("query-accumulate", query_node)
        if query_node in grouped:
            self.p[query_node] = self._instantiated_value(query_node, grouped[query_node])
            self._trace("query-instantiate", query_node)
        return Distribution(self.p[query_node])

    def _misq(
        self,
        this: int,
        above: int,
        grouped: Mapping[int, Mapping[str, int]],
        payload: np.ndarray,
    ) -> np.ndarray:
        live = self._live
        assert this in live, "a message reached a barren node"
        self.instr.touched.add(this)
        below_nodes = [n for n in self.tree.neighbors(this) if n != above and n in live]
        in_evidence = this in grouped
        if in_evidence or len(below_nodes) > 1:
            q_up = self.r[(above, this)] @ algebra.weight_matrix(self.p[this])
            self.p[this] = self._clamp(self.p0[this] + q_up.T @ payload, this)
            self.r[(above, this)] = self._refresh_factor(q_up, self.p[this], this)
            self.p1[this] = self.p[this]
            self._trace("misq-enter", this)
            for below in below_nodes:
                fwd = self._send(
                    below, this, self.r[(below, this)] @ (self.p[this] - self.p0[this])
                )
                reply = self._misq(below, this, grouped, fwd)
                self._send(this, below, reply)
                q_down = self.r[(below, this)] @ algebra.weight_matrix(self.p[this])
                self.p[this] = self._clamp(self.p[this] + q_down.T @ reply, this)
                self._trace("misq-accumulate", this)
            if in_evidence:
                self.p[this] = self._instantiated_value(this, grouped[this])
                self._trace("misq-instantiate", this)
            return self.r[(above, this)] @ (self.p[this] - self.p1[this])
        # pass-through: collapse this node without updating its state
        below = below_nodes[0]
        q_up = self.r[(above, this)] @ algebra.weight_matrix(self.p[this])
        transfer = self.r[(below, this)] @ q_up.T
        fwd = self._send(below, this, transfer @ payload)
        reply = self._misq(below, this, grouped, fwd)
        self._send(this, below, reply)
        return transfer.T @ reply
