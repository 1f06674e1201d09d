"""Message-passing inference on a compound-node tree.

Two operations share one mutable session:

* the instantiation flood (``instantiate`` + ``commit``, and
  ``multi_evidence_simq``): one piece of evidence at a time, updating the
  posterior of *every* node;
* the single query (``query``): a whole evidence set at once, updating
  only the query node.  Barren branches (no evidence behind them) are
  skipped, and chains of uninstantiated pass-through nodes are collapsed
  into a single rank-by-rank transfer without touching their state.

Both run on one traversal, :meth:`QuerySession._walk`: a depth-first walk
over an explicit stack of frames, with no Python recursion, so a tree of
any depth runs under the interpreter's default recursion limit.  The walk
owns everything the two operations share: barren pruning, the
instrumentation record, the posterior bookkeeping (``p``, ``p0``, ``p1``),
trace events, and the restart and commit baselines.

The arithmetic comes in two kernels with the same five steps: message,
weighted factor, update with clamp, refreshed factor and pass-through
transfer.

* The array kernel is the general form: distributions are ndarrays and
  a stored factor is a rank x n matrix R.  The weighted factor
  ``R (diag(p) - p p^T)`` is computed as ``R*p - (R@p)[:, None]*p``,
  without building the n x n weight.
* The float kernel serves trees whose compounds all have two states and
  whose edges all have rank 1.  There a distribution is the one number
  p = P(state 1) and a stored factor the one number c = R[0,1] - R[0,0].
  A message is ``c * dp``, an update ``p0 + p(1-p) c m``, the refreshed
  factor ``p(1-p) c / (p'(1-p'))`` and a pass-through transfer
  ``p(1-p) c_above c_below``.  The clamp, the dead-state rule and the
  zero-mass and zero-evidence rules are the array kernel's.

A state that an update drives to zero stays at zero: its column of the
refreshed factor is zeroed, which is exact because that column is never
read again (the state's weighted column and its baseline entry are zero).

The tree picks the kernel.  The load pass (compiler.check_tree_consistency)
records the float priors and factors on ``TreeNetwork.scalars`` when the
tree qualifies, so a session chooses in O(1); a tree that skipped the
load pass runs the array kernel.  Callers see ndarrays either way: when a
public operation returns, ``p`` and ``p0`` hold ndarray posteriors,
converted once per operation, and ``r`` and ``p1`` convert on read.

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

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from . import algebra
from .errors import (
    DimensionMismatchError,
    PrunedStateError,
    UnknownLabelError,
    ZeroEvidenceError,
    ZeroMassError,
)
from .model import Distribution, Evidence, TreeNetwork, restrict_distribution

#: probabilities driven below this by an update are clamped to exactly zero
CLAMP_EPS = 1e-12
#: an update whose clamped entries do not sum to one within this is refused
MASS_TOL = 1e-6


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


class _Converted(Mapping):
    """ndarray view of a float-kernel dict, converted on every read.

    The own entries of ``floats`` are converted with ``convert``; any other
    key is read from ``arrays``.
    """

    def __init__(self, floats: dict, arrays: Mapping, convert: Callable):
        self._floats = floats
        self._arrays = arrays
        self._convert = convert

    def __getitem__(self, key):
        value = dict.get(self._floats, key)
        return self._arrays[key] if value is None else self._convert(value)

    def __iter__(self) -> Iterator:
        return iter(self._floats)

    def __len__(self) -> int:
        return len(self._floats)


@dataclass
class Instrumentation:
    """Counters exposed for the message-economy and traversal contracts.

    ``messages`` (one ``((sender, receiver), length)`` per message) and
    ``touched`` describe the most recent public operation (``query``,
    ``instantiate`` or ``multi_evidence_simq``, which counts all of its
    floods), so they stay bounded on a reused session.  ``mode`` says
    whether that was a single query ("misq", which promises at most two
    crossings per edge) or an instantiation flood ("simq", which revisits
    edges once per evidence node).
    """

    messages: list[tuple[tuple[int, int], int]] = field(default_factory=list)
    touched: set = field(default_factory=set)
    mode: str | None = None

    @property
    def traversals(self) -> Counter:
        """Crossings of every undirected edge, counted from ``messages``."""
        return Counter(frozenset(edge) for edge, _ in self.messages)

    def start_operation(self, mode: str):
        """Forget the previous operation's record."""
        self.messages = []
        self.touched = set()
        self.mode = mode


class _ArrayKernel:
    """The general arithmetic: ndarray distributions, rank x n factors.

    ``update`` returns None where the session must raise.
    """

    @staticmethod
    def bases(tree: TreeNetwork) -> tuple[Mapping, Mapping]:
        return tree.prior_probs, tree.r_factors

    @staticmethod
    def message(r: np.ndarray, p: np.ndarray, base: np.ndarray) -> np.ndarray:
        return r @ (p - base)

    @staticmethod
    def weighted(r: np.ndarray, p: np.ndarray) -> np.ndarray:
        """R (diag(p) - p p^T), in O(rank * n)."""
        return r * p - (r @ p)[:, None] * p

    @staticmethod
    def update(base: np.ndarray, q: np.ndarray, m: np.ndarray) -> np.ndarray | None:
        """base + Q^T m with entries below CLAMP_EPS set to zero."""
        values = base + q.T @ m
        if values.min() < CLAMP_EPS:
            values = np.where(values < CLAMP_EPS, 0.0, values)
        total = float(values.sum())
        return values if abs(total - 1.0) <= MASS_TOL else None

    @staticmethod
    def refresh(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Post-update factor toward the sender: q diag(p)^{-1} (I - E/n).

        A column whose probability collapsed to zero is zeroed: a dead
        state stays dead, since its weighted column and its baseline entry
        are zero from then on, so that column is never read.
        """
        if p.min() > 0.0:
            return algebra.center_rows(q / p)
        alive = p > 0.0
        out = np.zeros_like(q)
        out[:, alive] = q[:, alive] / p[alive]
        return algebra.center_rows(out)

    @staticmethod
    def transfer(r_above: np.ndarray, r_below: np.ndarray, p: np.ndarray) -> np.ndarray:
        return r_below @ _ArrayKernel.weighted(r_above, p).T

    @staticmethod
    def forward(t: np.ndarray, m: np.ndarray) -> np.ndarray:
        return t @ m

    @staticmethod
    def backward(t: np.ndarray, m: np.ndarray) -> np.ndarray:
        return t.T @ m

    @staticmethod
    def to_array(p: np.ndarray) -> np.ndarray:
        return p

    @staticmethod
    def from_array(p: np.ndarray) -> np.ndarray:
        return p


class _FloatKernel:
    """All-binary trees with rank-1 edges: a distribution is P(state 1)
    and a stored factor the number c = R[0,1] - R[0,0] (see the module
    docstring); the rules are those of :class:`_ArrayKernel`."""

    @staticmethod
    def bases(tree: TreeNetwork) -> tuple[Mapping, Mapping]:
        return tree.scalars.priors, tree.scalars.factors

    @staticmethod
    def message(c: float, p: float, base: float) -> float:
        return c * (p - base)

    @staticmethod
    def weighted(c: float, p: float) -> float:
        return p * (1.0 - p) * c

    @staticmethod
    def update(base: float, q: float, m: float) -> float | None:
        p = base + q * m
        if p >= CLAMP_EPS and 1.0 - p >= CLAMP_EPS:
            return p
        if -MASS_TOL <= p < CLAMP_EPS:
            return 0.0
        if 1.0 - p < CLAMP_EPS and p - 1.0 <= MASS_TOL:
            return 1.0
        return None  # out of range, or NaN

    @staticmethod
    def refresh(q: float, p: float) -> float:
        weight = p * (1.0 - p)
        # a dead state: the array kernel's zeroed column leaves c = q
        return q / weight if weight > 0.0 else q

    @staticmethod
    def transfer(c_above: float, c_below: float, p: float) -> float:
        return p * (1.0 - p) * c_above * c_below

    @staticmethod
    def forward(t: float, m: float) -> float:
        return t * m

    backward = forward

    @staticmethod
    def to_array(p: float) -> np.ndarray:
        return np.array((1.0 - p, p))

    @staticmethod
    def from_array(p: np.ndarray) -> float:
        return float(p[1])

    @staticmethod
    def factor_array(c: float) -> np.ndarray:
        return np.array(((-0.5 * c, 0.5 * c),))


def _choose_kernel(tree: TreeNetwork) -> type:
    """The float kernel when the load pass recorded the tree's scalars."""
    return _ArrayKernel if tree.scalars is None else _FloatKernel


def _posterior_arrays(floats: Overlay, shown_floats: Overlay, shown: Overlay) -> Overlay:
    """``shown``, the ndarray form of the float overlay ``shown_floats``,
    brought up to date with ``floats``: one conversion per changed entry."""
    out = shown.fork()
    changed = [
        (node, p) for node, p in dict.items(floats) if dict.get(shown_floats, node) is not p
    ]
    if changed:
        probs = np.array([p for _, p in changed])
        rows = np.stack((1.0 - probs, probs), axis=1)
        for (node, _), row in zip(changed, rows):
            out[node] = row
    return out


class QuerySession:
    """Mutable inference state layered over an immutable TreeNetwork.

    ``p``, ``p0``, ``r`` and ``p1`` show the state of the last public
    operation as ndarrays.  On a float-kernel session they are converted
    copies of the kernel's state, so writing to them does not feed later
    operations.
    """

    def __init__(self, tree: TreeNetwork, record_trace: bool = False):
        self.tree = tree
        self._kernel = _choose_kernel(tree)
        priors, factors = self._kernel.bases(tree)
        #: kernel state: the committed baseline (distributions, and factors
        #: refreshed by floods) and the current operation's working copy
        self._p0 = Overlay(priors)
        self._r0 = Overlay(factors)
        self._p = self._p0.fork()
        self._r = self._r0.fork()
        self._p1: dict = {}
        #: the float baseline that ``p0`` shows (float kernel only)
        self._shown = self._p0
        self.p0 = Overlay(tree.prior_probs)
        self._live: set[int] = set()
        self.barren: Mapping[int, bool] = BarrenMarks(len(tree.compounds))
        self.instr = Instrumentation()
        self.trace: list[tuple[str, int, np.ndarray]] = []
        self._record_trace = record_trace
        self._publish()

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

    # -- shared state steps ------------------------------------------------

    def _restart(self) -> None:
        """Drop uncommitted work, so the operation starts from the baseline."""
        self._p = self._p0.fork()
        self._r = self._r0.fork()
        self._p1 = {}

    def _publish(self) -> None:
        """Show the kernel state as ``p``, ``p0``, ``r`` and ``p1``."""
        if self._kernel is _ArrayKernel:
            self.p, self.p0, self.r, self.p1 = self._p, self._p0, self._r, self._p1
            return
        if self._p0 is not self._shown:  # committed since p0 was shown
            self.p0 = _posterior_arrays(self._p0, self._shown, self.p0)
            self._shown = self._p0
        self.p = _posterior_arrays(self._p, self._p0, self.p0)
        self.r = _Converted(self._r, self.tree.r_factors, _FloatKernel.factor_array)
        self.p1 = _Converted(self._p1, {}, _FloatKernel.to_array)

    def _trace(self, event: str, node: int):
        self.trace.append((event, node, np.array(self._kernel.to_array(self._p[node]))))

    def _zero_mass(self, node: int) -> ZeroMassError:
        name = self.tree.compound(node).name
        return ZeroMassError(f"update left {name} without a valid distribution")

    def _observe(self, node: int, assignment: Mapping[str, int]):
        """The node's distribution once the evidence on it is fixed."""
        kernel = self._kernel
        probs = kernel.to_array(self._p[node])
        return kernel.from_array(self._instantiated_value(node, assignment, probs))

    def _instantiated_value(
        self, node: int, assignment: Mapping[str, int], probs: np.ndarray
    ) -> np.ndarray:
        comp = self.tree.compound(node)
        space = comp.space
        if set(assignment) == set(space.members):
            try:
                state = space.index(assignment)
            except PrunedStateError as exc:
                raise ZeroEvidenceError(str(exc)) from exc
            if probs[state] <= 0.0:
                raise ZeroEvidenceError(
                    f"state {dict(assignment)} of {comp.name} has probability zero"
                )
            out = np.zeros(space.cardinality)
            out[state] = 1.0
            return out
        try:
            return restrict_distribution(Distribution(probs), space, assignment).probs.copy()
        except ZeroMassError as exc:
            raise ZeroEvidenceError(str(exc)) from exc

    # -- the traversal ------------------------------------------------------

    def _walk(self, root: int, above: int | None, payload, grouped) -> None:
        """Depth-first propagation from ``root``, entered from ``above``.

        ``grouped=None`` runs the flood: every node reached is updated from
        its message and forwards to all of its other neighbors.  Otherwise
        the walk answers a query over the live nodes (see
        :meth:`mark_barren`): a node that holds evidence or branches is
        updated on entry, accumulates its branches' replies and replies to
        ``above``; any other node is a pass-through, collapsed into one
        transfer.  ``above=None`` makes ``root`` the operation's own node,
        which is not updated on entry: the instantiated node of a flood,
        or the query node, which accumulates and never replies.

        A frame is ``[node, above, children, next child, transfer or None,
        message received]``; a node's next message is computed only when
        its previous branch has replied, as a recursion would.
        """
        kernel = self._kernel
        flat = kernel is _FloatKernel
        message, weighted, update = kernel.message, kernel.weighted, kernel.update
        p, p0, r, p1 = self._p, self._p0, self._r, self._p1
        neighbors = self.tree.neighbors
        sent = self.instr.messages.append
        touch = self.instr.touched.add
        flood = grouped is None
        live = self._live
        tracing = self._record_trace
        stack: list[list] = []
        node, parent, m = root, above, payload
        while True:
            # enter `node` from `parent` with the message `m`
            touch(node)
            if flood:
                children = [n for n in neighbors(node) if n != parent]
            else:
                children = [n for n in neighbors(node) if n != parent and n in live]
            transfer = None
            if parent is None:
                pass  # the operation's own node: its state is the caller's
            elif not flood and node not in grouped and len(children) == 1:
                # a pass-through: collapsed without updating its state
                transfer = kernel.transfer(r[(parent, node)], r[(children[0], node)], p[node])
            else:
                key = (parent, node)
                q = weighted(r[key], p[node])
                value = update(p0[node], q, m)
                if value is None:
                    raise self._zero_mass(node)
                p[node] = value
                r[key] = kernel.refresh(q, value)
                if not flood:
                    p1[node] = value
                if tracing:
                    self._trace("simq-update" if flood else "misq-enter", node)
            stack.append([node, parent, children, 0, transfer, m])
            # resume the innermost frame until one sends a message down
            while stack:
                frame = stack[-1]
                node, parent, children, i, transfer, m = frame
                if i < len(children):
                    child = children[i]
                    frame[3] = i + 1
                    if flood and i + 1 == len(children):
                        stack.pop()  # nothing left for the frame to do
                    if transfer is None:
                        m = message(r[(child, node)], p[node], p0[node])
                    else:
                        m = kernel.forward(transfer, m)
                    sent(((node, child), 1 if flat else m.shape[0]))
                    node, parent = child, node
                    break
                stack.pop()
                if flood:
                    continue
                if transfer is not None:
                    reply = kernel.backward(transfer, reply)
                else:
                    stage = "misq" if parent is not None else "query"
                    if node in grouped:
                        p[node] = self._observe(node, grouped[node])
                        if tracing:
                            self._trace(f"{stage}-instantiate", node)
                    if parent is None:
                        continue
                    reply = message(r[(parent, node)], p[node], p1[node])
                sent(((node, parent), 1 if flat else reply.shape[0]))
                if stack[-1][4] is None:
                    # a junction or the query node takes the reply in now; a
                    # pass-through turns it into its own reply when it finishes
                    q = weighted(r[(node, parent)], p[parent])
                    value = update(p[parent], q, reply)
                    if value is None:
                        raise self._zero_mass(parent)
                    p[parent] = value
                    if tracing:
                        stage = "misq" if stack[-1][1] is not None else "query"
                        self._trace(f"{stage}-accumulate", parent)
            else:
                return

    # -- single instantiation, all posteriors (flood) -----------------------

    def instantiate(self, node: int, assignment: Mapping[str, int]) -> "QuerySession":
        """Fix evidence on one node and update every posterior in the tree.

        Call :meth:`commit` before instantiating further evidence; the
        propagation measures changes against the committed baseline, and
        uncommitted work of an earlier operation is dropped.
        """
        self.instr.start_operation("simq")
        try:
            self._flood(node, assignment)
        finally:
            self._publish()
        return self

    def _flood(self, node: int, assignment: Mapping[str, int]) -> None:
        self._restart()
        self._p[node] = self._observe(node, assignment)
        if self._record_trace:
            self._trace("instantiate", node)
        self._walk(node, None, None, None)

    def simq_step(self, receiver: int, sender: int, payload: np.ndarray) -> None:
        """One received update: refresh this node, then fan out.

        ``payload`` is the message from ``sender``, an ndarray of the
        edge's rank.  The factor toward the sender is recomputed from the
        post-update distribution so a later instantiation sees posterior
        couplings.
        """
        expected = self.tree.rank(receiver, sender)
        if np.shape(payload) != (expected,):
            raise DimensionMismatchError(
                f"message {sender}->{receiver} has length {np.shape(payload)}, "
                f"edge rank is {expected}"
            )
        if self._kernel is _FloatKernel:
            payload = float(payload[0])
        try:
            self._walk(receiver, sender, payload, None)
        finally:
            self._publish()

    def _commit(self) -> None:
        self._p0 = self._p.fork()
        self._r0 = self._r.fork()

    def commit(self) -> "QuerySession":
        """Freeze the current posteriors and factors as the baseline for
        more evidence."""
        self._commit()
        self._publish()
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
        self.instr.start_operation("simq")
        try:
            for node in order:
                self._flood(node, grouped[node])
                self._commit()
        finally:
            self._publish()
        return self

    # -- many instantiations, one query (barren-pruned walk) ----------------

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
        self.instr.start_operation("misq")
        try:
            self.mark_barren(query_node, grouped.keys(), within)
            self._walk(query_node, None, None, grouped)
        finally:
            self._publish()
        return Distribution(self.p[query_node])
