"""Message-passing inference on a compound-node tree.

Two operations share one mutable session:

* the instantiation flood (``instantiate`` + ``commit``, and
  ``multi_evidence_simq``): one piece of evidence at a time, updating the
  posterior of *every* node;
* the single query (``query``): a whole evidence set at once, updating
  only the query node.  Only the paths from the query to the evidence
  are live: the walk enters a neighbour only when evidence lies on its
  side of the edge, one test of entry and exit times (see
  ``mark_barren``).  Every other branch is barren and never read, and
  chains of uninstantiated pass-through nodes are collapsed into a
  single rank-by-rank transfer without touching their state.

Both run on one traversal, :meth:`QuerySession._walk`: a depth-first walk
over an explicit stack of frames, with no Python recursion, so a tree of
any depth runs under the interpreter's default recursion limit.  The walk
owns everything the two operations share: barren pruning, the
instrumentation record, the posterior bookkeeping (``p``, ``p0``, ``p1``),
trace events, and the restart and commit baselines.

The arithmetic comes in two kernels with the same four steps: message,
entry step, accumulate and pass-through transfer.  The entry step of a
node reached by a message computes the weighted factor toward the
sender, the update with its clamp and mass check, and the refreshed
factor, in one kernel call; accumulating a branch's reply computes the
weighted factor and the update only.

* The array kernel is the general form: distributions are ndarrays and
  a stored factor is a rank x n matrix R.  The weighted factor
  ``R (diag(p) - p p^T)`` is computed as ``(R - (R@p)[:, None]) * p``,
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
records the float form on ``TreeNetwork.scalars`` when the tree qualifies,
so a session chooses in O(1); a tree that skipped the load pass runs the
array kernel.

Walking by runs.  On the float kernel a message is one number, so a run
of the tree (a maximal path whose interior nodes have degree 2, see
:class:`~sensbn.model.BinaryScalars`) is crossed as a whole.  A flood
entering a run with message m changes its nodes by the prefix products
``dp = m * cumprod(p(1-p) c_in * c_out of the node before)`` and refreshes
their factors ``q / (p'(1-p'))`` with ``q = p(1-p) c_in``, in a few numpy
calls; a query collapses each stretch of pass-through nodes, cut at
evidence nodes, at the query node and at the live boundary, into the one
product ``prod p(1-p) c_above c_below``.  Junctions, run ends and evidence
nodes take the scalar steps.  The arithmetic only differs in rounding, so
a walk by runs keeps every value inside the clamp-free band
[CLAMP_EPS, 1 - CLAMP_EPS] (a value already exactly 0 or 1 that does not
move excepted); if one leaves it, the operation starts over one node at a
time, so clamped values, error types and error texts are those of the
scalar steps.  ``record_trace=True`` always walks one node at a time.

Messages between adjacent nodes are always the factored form
``r_factor @ delta_p`` and therefore exactly rank-of-the-edge numbers
long.  Updates are exact, not approximate: a conditional distribution is
linear in the distribution it conditions on, so pushing a change through
the stored factors reproduces brute-force posteriors to rounding error.

Session state never writes the tree's own, so setting up a session costs
O(1) whatever the size of the tree and many sessions can share one
immutable TreeNetwork.  On both kernels the committed baseline is a pair
of bases, the distributions by node and the factors by half edge (see
``TreeNetwork.twin``): a dict of ndarrays and the tree's
``half_edge_factors`` on the array kernel, flat float arrays (factors
through ``BinaryScalars.slot``) on the float kernel, and the tree's own
until the session first commits a write.  An operation writes single
values into small layers over them, and copies the float arrays only when
it writes whole runs.  Restart puts new empty layers over the baseline;
commit copies a base only while the tree holds it, moves the layers'
values into it and makes it the baseline, so neither copies what earlier
operations wrote.  ``p``, ``p0``, ``r`` and ``p1`` are read-only views
that convert the state to ndarrays on every read; ``r[(i, j)]`` reads the
half edge from j to i.  Every ``query`` and every ``instantiate`` starts
from the committed baseline (the priors plus whatever
:meth:`QuerySession.commit` froze), so one session can answer any number
of queries.  A session itself is single-writer: never call into one
session from two threads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial
from operator import getitem
from typing import Callable, Collection, Iterable, Iterator, Mapping

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


class BarrenMarks(Mapping):
    """Read-only ``node -> barren`` map of a query, answered per node by
    the query's edge rule ``beyond`` (see
    :meth:`TreeNetwork.evidence_side`): a node other than the query is
    live when evidence lies on its side of the edge from its neighbour
    toward the query.  The walk reads ``beyond`` itself.

    ``beyond=None`` marks nothing barren.
    """

    def __init__(
        self, tree: TreeNetwork, query: int = 0, beyond: Callable[[int, int], bool] | None = None
    ):
        self._tree = tree
        self._query = query
        self.beyond = beyond

    def __getitem__(self, node: int) -> bool:
        if not 0 <= node < self._tree.node_count:
            raise KeyError(node)
        if self.beyond is None or node == self._query:
            return False
        return not self.beyond(self._tree.toward(node, self._query), node)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._tree.node_count))

    def __len__(self) -> int:
        return self._tree.node_count


class _Layer(dict):
    """One operation's writes over a base of committed values.

    ``layer[key]`` is the value written under ``key``, or else
    ``read(base, key)``, or ``read(base, index[key])`` when an index array
    is given.  The base is the tree's own until the session first writes
    to it, and is read by its kernel's ``read``.
    """

    __slots__ = ("base", "read", "index")

    def __init__(self, base, read: Callable, index: np.ndarray | None = None):
        self.base = base
        self.read = read
        self.index = index

    def __missing__(self, key):
        return self.read(self.base, key if self.index is None else self.index[key])

    def empty(self) -> "_Layer":
        """A layer with no writes over the same base."""
        return _Layer(self.base, self.read, self.index)

    def flush(self) -> None:
        """Move the written values into the base, which must be writable."""
        base, index = self.base, self.index
        for key, value in self.items():
            base[key if index is None else index[key]] = value
        self.clear()


class _StateView(Mapping):
    """Read-only ndarray view of session state, converted on every read.

    ``state()`` is the layer read and ``keys()`` its keys, both looked up
    on every read, so a view follows the session across operations.
    """

    def __init__(
        self, state: Callable[[], Mapping], keys: Callable[[], Collection], convert: Callable
    ):
        self._state = state
        self._keys = keys
        self._convert = convert

    def __getitem__(self, key):
        if key not in self._keys():
            raise KeyError(key)
        return self._convert(self._state()[key])

    def __iter__(self) -> Iterator:
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())


class _FactorView(Mapping):
    """Read-only ndarray view of a session's working factors by the keys
    of ``TreeNetwork.r_factors``, in their order, converted on every read:
    key (i, j) reads the half edge from j to i."""

    def __init__(self, session: "QuerySession"):
        self._session = session

    def __getitem__(self, key):
        session = self._session
        try:
            i, j = key
            h = session.tree.half_edge(j, i)
        except (TypeError, ValueError, UnknownLabelError):
            raise KeyError(key) from None  # not a pair of node ids of the tree
        return session._kernel.factor_array(session._r[h])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        adjacent, twin = self._session.tree.csr[1], self._session.tree.twin
        return zip(adjacent.tolist(), adjacent[twin].tolist())

    def __len__(self) -> int:
        return self._session.tree.twin.size


class _LeftBand(Exception):
    """A value of a walk by runs left the clamp-free band."""


class Instrumentation:
    """The record of the most recent public operation.

    ``query``, ``instantiate`` and ``multi_evidence_simq`` (which counts
    all of its floods) each start a new record, so it stays bounded on a
    reused session.  ``mode`` says whether the operation was a single
    query ("misq", which promises at most two crossings per edge) or an
    instantiation flood ("simq", which revisits edges once per evidence
    node).

    ``log`` holds what was sent, in order: ``((sender, receiver),
    length)`` for one message, or ``(first, count, step)`` for a stretch of
    ``count`` one-number messages along a run, sent by the nodes at
    positions ``first, first + step, ...`` of ``runs`` (the tree's
    ``BinaryScalars.run_nodes``), each to the node ``step`` further on.
    ``roots`` holds the node each walk started from.  ``messages``,
    ``touched`` and ``traversals`` are built from the record when read; the
    counts are read off it without building them.
    """

    def __init__(self, runs: np.ndarray | None = None):
        self.runs = runs
        self.log: list[tuple] = []
        self.roots: list[int] = []
        self.mode: str | None = None

    def start_operation(self, mode: str):
        """Forget the previous operation's record."""
        self.log = []
        self.roots = []
        self.mode = mode

    def mark(self) -> tuple[int, int]:
        return len(self.log), len(self.roots)

    def rewind(self, mark: tuple[int, int]) -> None:
        """Drop what was recorded since ``mark``."""
        del self.log[mark[0] :]
        del self.roots[mark[1] :]

    def _stretch(self, item: tuple[int, int, int]) -> np.ndarray:
        """The nodes of a stretch, from its first sender to its last receiver."""
        first, count, step = item
        return self.runs[first + step * np.arange(count + 1)]

    @property
    def messages(self) -> list[tuple[tuple[int, int], int]]:
        """One ``((sender, receiver), length)`` per message, in order."""
        out = []
        for item in self.log:
            if len(item) == 2:
                out.append(item)
            else:
                seq = self._stretch(item).tolist()
                out.extend(((a, b), 1) for a, b in zip(seq, seq[1:]))
        return out

    @property
    def touched(self) -> set[int]:
        """Every node a walk started from or sent a message to."""
        out = set(self.roots)
        for item in self.log:
            if len(item) == 2:
                out.add(item[0][1])
            else:
                out.update(self._stretch(item)[1:].tolist())
        return out

    @property
    def traversals(self) -> Counter:
        """Crossings of every undirected edge, counted from ``messages``."""
        return Counter(frozenset(edge) for edge, _ in self.messages)

    @property
    def message_count(self) -> int:
        return sum(1 if len(item) == 2 else item[1] for item in self.log)

    @property
    def ranks(self) -> list[int]:
        """The distinct message lengths, sorted."""
        return sorted({item[1] if len(item) == 2 else 1 for item in self.log})

    @property
    def touched_count(self) -> int:
        """``len(touched)``, counted in numpy."""
        parts = [
            np.array(self.roots, dtype=np.intp),
            np.array([item[0][1] for item in self.log if len(item) == 2], dtype=np.intp),
        ]
        parts.extend(self._stretch(item)[1:] for item in self.log if len(item) == 3)
        # sorted, not np.unique, which imports numpy.ma into every CLI process
        nodes = np.sort(np.concatenate(parts))
        return int(nodes.size and 1 + np.count_nonzero(nodes[1:] != nodes[:-1]))


class _ArrayKernel:
    """The general arithmetic: ndarray distributions, rank x n factors.

    ``enter`` and ``update`` return None where the session must raise.
    Their reductions call the ufuncs' ``reduce`` directly, not the
    ndarray methods, which add a Python-level wrapper to every call.
    Session state is a dict of distributions by node and a tuple (a list
    once written) of factors by half edge, both read by ``read``.
    """

    read = getitem

    @staticmethod
    def message(r: np.ndarray, p: np.ndarray, base: np.ndarray) -> np.ndarray:
        return r @ (p - base)

    @staticmethod
    def weighted(r: np.ndarray, p: np.ndarray) -> np.ndarray:
        """R (diag(p) - p p^T), in O(rank * n)."""
        return (r - (r @ p)[:, None]) * p

    @staticmethod
    def update(base: np.ndarray, q: np.ndarray, m: np.ndarray) -> np.ndarray | None:
        """base + Q^T m with entries below CLAMP_EPS set to zero."""
        values = base + q.T @ m
        if np.minimum.reduce(values) < CLAMP_EPS:
            values = np.where(values < CLAMP_EPS, 0.0, values)
        total = float(np.add.reduce(values))
        return values if abs(total - 1.0) <= MASS_TOL else None

    @staticmethod
    def enter(
        r: np.ndarray, p: np.ndarray, base: np.ndarray, m: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The step of a node entered with the message ``m`` through the
        factor ``r`` toward the sender: the weighted factor
        ``Q = (R - (R@p) 1^T) diag(p)``, the update ``base + Q^T m`` with
        its clamp, and the refreshed factor ``Q diag(p')^{-1} (I - E/n)``
        toward the sender.  Returns ``(p', refreshed)``, or None where the
        session must raise.

        A column whose probability collapsed to zero is zeroed: a dead
        state stays dead, since its weighted column and its baseline entry
        are zero from then on, so that column is never read.
        """
        q = (r - (r @ p)[:, None]) * p  # weighted, inlined
        values = base + q.T @ m
        clamped = np.minimum.reduce(values) < CLAMP_EPS
        if clamped:
            values = np.where(values < CLAMP_EPS, 0.0, values)
        # written so that a NaN total is refused too
        if not abs(float(np.add.reduce(values)) - 1.0) <= MASS_TOL:
            return None
        if clamped:
            x = np.divide(q, values, out=np.zeros_like(q), where=values > 0.0)
        else:
            x = q / values
        return values, x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]

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

    from_array = factor_array = to_array


class _FloatKernel:
    """All-binary trees with rank-1 edges: a distribution is P(state 1)
    and a stored factor the number c = R[0,1] - R[0,0] (see the module
    docstring); the rules are those of :class:`_ArrayKernel`.  Session
    state is held in flat float arrays, read by ``read``."""

    read = np.ndarray.item

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
    def banded(base: float, q: float, m: float) -> float:
        """:meth:`update` for a walk by runs, which leaves it where the
        value would leave the clamp-free band."""
        p = base + q * m
        if p >= CLAMP_EPS and 1.0 - p >= CLAMP_EPS:
            return p
        if p == base and (p == 0.0 or p == 1.0):
            return p
        raise _LeftBand

    @staticmethod
    def check_band(values: np.ndarray, bases: np.ndarray) -> None:
        """:meth:`banded` for the values of a run against their bases."""
        inside = (values >= CLAMP_EPS) & (1.0 - values >= CLAMP_EPS)
        if not inside.all():
            held = (values == bases) & ((bases == 0.0) | (bases == 1.0))
            if not (inside | held).all():
                raise _LeftBand

    @staticmethod
    def enter(c: float, p: float, base: float, m: float) -> tuple[float, float] | None:
        """:meth:`_ArrayKernel.enter`: ``q = p(1-p) c``, the update, then
        the refreshed factor ``q / (p'(1-p'))``."""
        q = p * (1.0 - p) * c
        value = _FloatKernel.update(base, q, m)
        return None if value is None else (value, _FloatKernel.refresh(q, value))

    @staticmethod
    def enter_banded(c: float, p: float, base: float, m: float) -> tuple[float, float]:
        """:meth:`enter` through :meth:`banded`, for a walk by runs."""
        q = p * (1.0 - p) * c
        value = _FloatKernel.banded(base, q, m)
        return value, _FloatKernel.refresh(q, value)

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


def _stop_ahead(positions: list[int] | None, at: int, step: int, end: int) -> int:
    """The first of the sorted ``positions`` from ``at`` on in the
    direction ``step``, or ``end`` if there is none."""
    if positions:
        if step > 0:
            k = bisect_left(positions, at)
            if k < len(positions):
                return positions[k]
        else:
            k = bisect_right(positions, at) - 1
            if k >= 0:
                return positions[k]
    return end


class QuerySession:
    """Mutable inference state layered over an immutable TreeNetwork.

    ``p``, ``p0``, ``r`` and ``p1`` show the state of the last public
    operation as read-only views that convert the kernel's state to
    ndarrays on every read.
    """

    def __init__(self, tree: TreeNetwork, record_trace: bool = False):
        self.tree = tree
        self._kernel = _choose_kernel(tree)
        # the tree's own state, as the kernel reads it
        if self._kernel is _ArrayKernel:
            bases, index, runs = (tree.prior_probs, tree.half_edge_factors), None, None
        else:
            scalars = tree.scalars
            bases = (scalars.prior, scalars.factor.reshape(-1))
            index, runs = scalars.slot, scalars.run_nodes
        self._shared = bases
        #: the committed baseline (distributions, and factors refreshed by
        #: floods), as layers that stay empty; an operation writes into
        #: layers of its own over the same bases
        self._p0 = _Layer(bases[0], self._kernel.read)
        self._r0 = _Layer(bases[1], self._kernel.read, index)
        self.instr = Instrumentation(runs)
        self._restart()
        self.barren = BarrenMarks(tree)
        self.trace: list[tuple[str, int, np.ndarray]] = []
        self._record_trace = record_trace

    # -- accessors ---------------------------------------------------------

    @property
    def p(self) -> Mapping[int, np.ndarray]:
        """Working distributions."""
        return self._nodes_view(lambda: self._p)

    @property
    def p0(self) -> Mapping[int, np.ndarray]:
        """Committed distributions."""
        return self._nodes_view(lambda: self._p0)

    @property
    def r(self) -> Mapping[tuple[int, int], np.ndarray]:
        """Working factors, by key."""
        return _FactorView(self)

    @property
    def p1(self) -> Mapping[int, np.ndarray]:
        """A query's distributions as updated on entry, before any reply."""
        return _StateView(lambda: self._p1, lambda: self._p1, self._kernel.to_array)

    def _nodes_view(self, state: Callable[[], Mapping]) -> _StateView:
        nodes = range(self.tree.node_count)
        return _StateView(state, lambda: nodes, self._kernel.to_array)

    def posterior(self, ident: int) -> Distribution:
        self.tree.check_node(ident)
        return Distribution(self.p[ident])

    def dense_sensitivity(self, i: int, j: int) -> np.ndarray:
        """Current dense coupling of adjacent node i with respect to j,
        reconstructed from the working factors and current distributions."""
        self._half_edge(i, j)
        q_ij = self.r[(j, i)] @ algebra.weight_matrix(self.p[i])
        return q_ij.T @ self.r[(i, j)]

    def _half_edge(self, i: int, j: int) -> int:
        """``tree.half_edge(i, j)``, naming the nodes if they are not adjacent."""
        try:
            return self.tree.half_edge(i, j)
        except KeyError:
            raise UnknownLabelError(f"nodes {i} and {j} are not adjacent") from None

    # -- shared state steps ------------------------------------------------

    def _restart(self) -> None:
        """Drop uncommitted work, so the operation starts from the baseline."""
        self._p, self._r = self._p0.empty(), self._r0.empty()
        self._p1: dict = {}

    def _settle(self, stretch: bool) -> None:
        """Flush the working layers into their bases.  A base the tree
        holds is copied before it is written, and so, for a ``stretch``
        (which writes whole runs into the bases), is the baseline's."""
        pairs = zip((self._p, self._r), (self._p0, self._r0), self._shared)
        for layer, committed, shared in pairs:
            if layer.base is committed.base and (stretch or layer and layer.base is shared):
                base = layer.base
                layer.base = list(base) if type(base) is tuple else base.copy()
            layer.flush()

    def _commit(self) -> None:
        self._settle(stretch=False)
        self._p0, self._r0 = self._p.empty(), self._r.empty()

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

    def _evidence_stops(self, nodes) -> dict[int, list[int]]:
        """The run positions of those of ``nodes`` inside runs, sorted per run."""
        scalars = self.tree.scalars
        stops: dict[int, list[int]] = {}
        for node in nodes:
            run = scalars.run_of.item(node)
            if run >= 0:
                stops.setdefault(run, []).append(scalars.place.item(node))
        for positions in stops.values():
            positions.sort()
        return stops

    # -- the traversal ------------------------------------------------------

    def _propagate(self, root: int, grouped, start: Callable[[], None], stops) -> None:
        """``start()``, then the walk from ``root``: by runs where the
        session can, and over again one node at a time if a value leaves
        the clamp-free band."""
        if self._kernel is _FloatKernel and not self._record_trace:
            mark = self.instr.mark()
            start()
            try:
                # the band check refuses what overflows or turns NaN
                with np.errstate(all="ignore"):
                    self._walk(root, None, None, grouped, stops)
                return
            except _LeftBand:
                self.instr.rewind(mark)
        start()
        self._walk(root, None, None, grouped)

    def _walk(self, root: int, h_root: int | None, payload, grouped, stops=None) -> None:
        """Depth-first propagation from ``root``, entered along the half
        edge ``h_root``.

        ``grouped=None`` runs the flood: every node reached is updated from
        its message and forwards to all of its other neighbors.  Otherwise
        the walk answers a query over the live nodes (see
        :meth:`mark_barren`): a node that holds evidence or branches is
        updated on entry, accumulates its branches' replies and replies to
        its parent; any other node is a pass-through, collapsed into one
        transfer.  ``h_root=None`` makes ``root`` the operation's own node,
        which is not updated on entry: the instantiated node of a flood,
        or the query node, which accumulates and never replies.

        A node's children are half edges out of it.  Entered along
        ``h_in``, it stores its factor toward the parent on ``twin[h_in]``.

        ``stops`` (float kernel only) walks by runs: each run interior the
        walk enters is crossed by :meth:`_stretch`, and a query's stretch
        ends at the run positions ``stops[run]`` of its evidence nodes.
        ``None`` walks one node at a time.

        A frame is ``[node, parent, h_in, children, next child, transfer
        or None, message received, reply stretch or None]``; a node's next
        message is computed only when its previous branch has replied, as
        a recursion would.
        """
        kernel = self._kernel
        flat = kernel is _FloatKernel
        message, weighted = kernel.message, kernel.weighted
        if stops is None:
            enter, update = kernel.enter, kernel.update
        else:
            enter, update = _FloatKernel.enter_banded, _FloatKernel.banded
        p, r, p1 = self._p, self._r, self._p1
        # the baseline's layer is always empty, so its base is read directly
        p0 = partial(kernel.read, self._p0.base)
        neighbors = self.tree.neighbors
        offsets, adjacent = self.tree.csr
        first, target, twin = offsets.item, adjacent.item, self.tree.twin.item
        sent = self.instr.log.append
        self.instr.roots.append(root)
        flood = grouped is None
        beyond = self.barren.beyond
        tracing = self._record_trace
        run_of = None if stops is None else self.tree.scalars.run_of
        stack: list[list] = []
        node, h_in, m = root, h_root, payload
        parent = None if h_in is None else target(twin(h_in))
        while True:
            if (
                run_of is not None
                and parent is not None
                and run_of.item(node) >= 0
                and (flood or node not in grouped)
            ):
                node, parent, h_in, m = self._stretch(node, parent, h_in, m, stops, flood, stack)
            # enter `node` from `parent` along `h_in` with the message `m`
            out = enumerate(neighbors(node), first(node))
            children = [h for h, n in out if n != parent and (flood or beyond(node, n))]
            transfer = None
            if parent is None:
                pass  # the operation's own node: its state is the caller's
            elif not flood and node not in grouped and len(children) == 1:
                # a pass-through: collapsed without updating its state
                transfer = kernel.transfer(r[twin(h_in)], r[children[0]], p[node])
            else:
                back = twin(h_in)
                entered = enter(r[back], p[node], p0(node), m)
                if entered is None:
                    raise self._zero_mass(node)
                p[node], r[back] = entered
                if not flood:
                    p1[node] = entered[0]
                if tracing:
                    self._trace("simq-update" if flood else "misq-enter", node)
            stack.append([node, parent, h_in, children, 0, transfer, m, None])
            # resume the innermost frame until one sends a message down
            while stack:
                frame = stack[-1]
                node, parent, h_in, children, i, transfer, m, stretch = frame
                if i < len(children):
                    h = children[i]
                    frame[4] = i + 1
                    if flood and i + 1 == len(children):
                        stack.pop()  # nothing left for the frame to do
                    if transfer is None:
                        m = message(r[h], p[node], p0(node))
                    else:
                        m = kernel.forward(transfer, m)
                    child = target(h)
                    sent(((node, child), 1 if flat else m.shape[0]))
                    node, parent, h_in = child, node, h
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
                    reply = message(r[twin(h_in)], p[node], p1[node])
                if stretch is None:
                    sent(((node, parent), 1 if flat else reply.shape[0]))
                else:
                    sent(stretch)
                if stack[-1][5] is None:
                    # a junction or the query node takes the reply in now; a
                    # pass-through turns it into its own reply when it finishes
                    q = weighted(r[h_in], p[parent])
                    value = update(p[parent], q, reply)
                    if value is None:
                        raise self._zero_mass(parent)
                    p[parent] = value
                    if tracing:
                        stage = "misq" if stack[-1][1] is not None else "query"
                        self._trace(f"{stage}-accumulate", parent)
            else:
                return

    def _stretch(self, node: int, parent: int, h_in: int, m: float, stops, flood, stack: list):
        """Cross the run of the interior node ``node``, entered from
        ``parent`` along the half edge ``h_in`` with the message ``m``, up
        to the run's end or, in a query, to the first evidence node on the
        way.

        A flood updates the stretch's nodes and refreshes their factors; a
        query collapses them into one transfer and pushes their frame.
        Returns the node the stretch reaches, the stretch's last node, the
        half edge between them and the message the reached node receives.
        """
        scalars = self.tree.scalars
        nodes = scalars.run_nodes
        run = scalars.run_of.item(node)
        at = scalars.place.item(node)
        step = 1 if nodes.item(at - 1) == parent else -1
        end = scalars.run_start.item(run + 1) - 1 if step > 0 else scalars.run_start.item(run)
        if not flood:
            end = _stop_ahead(stops.get(run), at, step, end)
        count = (end - at) * step
        # positions lo..hi-1 ascending, taken in walk order
        lo, hi, order = (at, end, slice(None)) if step > 0 else (end + 1, at + 1, slice(None, None, -1))
        ids = nodes[lo:hi][order]
        last, reached = ids.item(-1), nodes.item(end)
        h_out = self.tree.half_edge(last, reached)
        self.instr.log.append((at, count, step))
        if flood:
            self._settle(stretch=True)
        probs, factors = self._p.base, self._r.base
        # each node's factors toward its run neighbors: edge g - run joins
        # positions g and g + 1, and the key toward the lower one is in row 0
        offset = scalars.factor.shape[1] - run
        lower = factors[lo - 1 - run : hi - 1 - run][order]
        upper = factors[lo + offset : hi + offset][order]
        c_in, c_out = (lower, upper) if step > 0 else (upper, lower)
        old = probs[ids]
        if flood:
            base = self._p0.base[ids]
            q = old * (1.0 - old) * c_in
            gain = q.copy()
            gain[1:] *= c_out[:-1]
            values = base + m * np.cumprod(gain)
            _FloatKernel.check_band(values, base)
            weight = values * (1.0 - values)
            c_in[:] = np.divide(q, weight, out=q, where=weight > 0.0)
            probs[ids] = values
            sent = _FloatKernel.message(c_out.item(-1), values.item(-1), base.item(-1))
            return reached, last, h_out, sent
        transfer = float(np.prod(old * (1.0 - old) * c_in * c_out))
        stack.append([node, parent, h_in, [h_out], 1, transfer, m, (end - step, count, -step)])
        return reached, last, h_out, transfer * m

    # -- single instantiation, all posteriors (flood) -----------------------

    def instantiate(self, node: int, assignment: Mapping[str, int]) -> "QuerySession":
        """Fix evidence on one node and update every posterior in the tree.

        Call :meth:`commit` before instantiating further evidence; the
        propagation measures changes against the committed baseline, and
        uncommitted work of an earlier operation is dropped.
        """
        self.tree.check_node(node)
        self.instr.start_operation("simq")
        self._flood(node, assignment)
        return self

    def _flood(self, node: int, assignment: Mapping[str, int]) -> None:
        def start():
            self._restart()
            self._p[node] = self._observe(node, assignment)
            if self._record_trace:
                self._trace("instantiate", node)

        self._propagate(node, None, start, {})

    def simq_step(self, receiver: int, sender: int, payload: np.ndarray) -> None:
        """One received update: refresh this node, then fan out.

        ``payload`` is the message from ``sender``, an ndarray of the
        edge's rank.  The factor toward the sender is recomputed from the
        post-update distribution so a later instantiation sees posterior
        couplings.  It walks one node at a time.
        """
        h = self._half_edge(receiver, sender)
        expected = self.tree.rank(receiver, sender)
        if np.shape(payload) != (expected,):
            raise DimensionMismatchError(
                f"message {sender}->{receiver} has length {np.shape(payload)}, "
                f"edge rank is {expected}"
            )
        if self._kernel is _FloatKernel:
            payload = float(payload[0])
        self._walk(receiver, self.tree.twin.item(h), payload, None)

    def commit(self) -> "QuerySession":
        """Freeze the current posteriors and factors as the baseline for
        more evidence."""
        self._commit()
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
        for node in order:
            self._flood(node, grouped[node])
            self._commit()
        return self

    # -- many instantiations, one query (barren-pruned walk) ----------------

    def mark_barren(
        self, query: int, evidence_nodes: Iterable[int], within: set[int] | None = None
    ) -> Mapping[int, bool]:
        """Mark barren every node off the paths from the query to
        ``evidence_nodes``.  Nothing is recorded per node: the marks and
        the walk read one edge rule (:meth:`TreeNetwork.evidence_side`), a
        neighbour being live when evidence lies on its side of the edge.
        It keeps the evidence nodes' entry times sorted, O(k log k) for k
        evidence nodes, and answers each edge in O(log k).

        ``within`` keeps only the evidence inside it, and must be closed
        under paths from the query (a radius ball, or a union of paths from
        it); a query node outside it leaves only itself live.
        """
        # read once: an iterator would be used up by the check
        evidence = tuple(evidence_nodes)
        for node in (query, *evidence):
            self.tree.check_node(node)
        if within is not None:
            evidence = tuple(n for n in evidence if n in within) if query in within else ()
        self.barren = BarrenMarks(self.tree, query, self.tree.evidence_side(evidence))
        return self.barren

    def query(
        self,
        query_node: int,
        evidence: Evidence,
        within: set[int] | None = None,
    ) -> Distribution:
        """Posterior of one node given an evidence set, touching only the
        chains between the query and the evidence; ``within`` is as in
        :meth:`mark_barren`."""
        grouped = self.tree.group_evidence(evidence)
        if within is not None:
            grouped = {n: a for n, a in grouped.items() if n in within and query_node in within}
        return self._query_grouped(query_node, grouped)

    def _query_grouped(self, query_node: int, grouped: dict[int, dict[str, int]]) -> Distribution:
        """:meth:`query` on evidence already grouped by compound node."""
        self.instr.start_operation("misq")
        self.mark_barren(query_node, grouped)
        stops = self._evidence_stops(grouped) if self._kernel is _FloatKernel else None
        self._propagate(query_node, grouped, self._restart, stops)
        return Distribution(self._kernel.to_array(self._p[query_node]))
