"""Core data model: distributions, state spaces, belief networks, compound trees.

Everything here is immutable after construction (arrays are marked
read-only), so values can be shared freely between concurrent query
sessions.

State enumeration convention
----------------------------
A compound state space lists its member nodes in a fixed order.  A joint
assignment maps to the index ``sum_k state_k * stride_k`` where the *last*
listed member varies fastest (C-order raveling).  For binary members this
is the bitmask ``sum_i 2**(i-1) x_i`` with ``i`` counted from the right of
the member sequence, so e.g. members ``(c, e, g)`` enumerate states as
``c̄ēḡ, c̄ēg, c̄eḡ, ..., ceg``.  Multi-parent conditional tables use the
same rule over the ordered parent list to lay out their columns.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    PrunedStateError,
    UnknownLabelError,
    ZeroMassError,
)

#: absolute tolerance for "sums to one" / "sums to zero" checks
SUM_TOL = 1e-9
#: absolute tolerance for single probability entries
ENTRY_TOL = 1e-12


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate_network`."""

    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


def space_cardinality(
    members: Sequence[str], cards: Sequence[int], pruned: Iterable[int] = ()
) -> int:
    """Number of retained states of a space whose ``members`` have the
    cardinalities ``cards`` once the original states ``pruned`` are
    discarded; refuses what :class:`StateSpace` refuses for them."""
    if len(members) != len(cards):
        raise DimensionMismatchError(f"{len(members)} members but {len(cards)} cardinalities")
    if any(c < 2 for c in cards):
        raise DimensionMismatchError("member cardinalities must be >= 2")
    full = math.prod(cards)
    bad = [p for p in sorted(pruned) if not 0 <= p < full]
    if bad:
        raise PrunedStateError(f"pruned indices {bad} outside [0, {full})")
    kept = full - len(set(pruned))
    if not kept:
        raise ZeroMassError("all states of the space are pruned")
    return kept


@dataclass(frozen=True)
class StateSpace:
    """Ordered member nodes of a (possibly compound) node, with pruning.

    ``pruned`` records *original* state indices that were discarded; all
    arrays elsewhere in the system are laid out over the compacted space,
    which preserves the relative order of the retained states.
    """

    members: tuple[str, ...]
    cards: tuple[int, ...]
    pruned: tuple[int, ...] = ()
    _retained: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _compact: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        object.__setattr__(self, "pruned", tuple(sorted(int(p) for p in self.pruned)))
        space_cardinality(self.members, self.cards, self.pruned)
        pruned_set = set(self.pruned)
        retained = tuple(i for i in range(self.full_cardinality) if i not in pruned_set)
        object.__setattr__(self, "_retained", retained)
        object.__setattr__(self, "_compact", {o: c for c, o in enumerate(retained)})

    @classmethod
    def binary(cls, members: Sequence[str], pruned: Iterable[int] = ()) -> "StateSpace":
        members = tuple(members)
        return cls(members, (2,) * len(members), tuple(pruned))

    @property
    def full_cardinality(self) -> int:
        return math.prod(self.cards)

    @property
    def cardinality(self) -> int:
        return len(self._retained)

    @property
    def retained(self) -> tuple[int, ...]:
        return self._retained

    def original_index(self, assignment: Mapping[str, int]) -> int:
        """Index of a full member assignment in the unpruned enumeration."""
        try:
            values = [assignment[m] for m in self.members]
        except KeyError:
            values = None
        if values is None or len(assignment) != len(values):
            missing = [m for m in self.members if m not in assignment]
            if missing:
                raise UnknownLabelError(f"assignment missing members {missing}")
            extra = [k for k in assignment if k not in self.members]
            raise UnknownLabelError(f"assignment names non-members {extra}")
        idx = 0
        for member, card, value in zip(self.members, self.cards, values):
            state = int(value)
            if not 0 <= state < card:
                raise PrunedStateError(
                    f"state {state} of {member} outside [0, {card})"
                )
            idx = idx * card + state
        return idx

    def index(self, assignment: Mapping[str, int]) -> int:
        """Compacted index of a full assignment; error if the state is pruned."""
        orig = self.original_index(assignment)
        try:
            return self._compact[orig]
        except KeyError:
            raise PrunedStateError(
                f"assignment maps to pruned state {orig} of {self.members}"
            ) from None

    def assignment(self, compact_index: int) -> dict[str, int]:
        """Inverse of :meth:`index` for a retained state."""
        orig = self._retained[compact_index]
        out: dict[str, int] = {}
        for member, card in zip(reversed(self.members), reversed(self.cards)):
            out[member] = orig % card
            orig //= card
        return {m: out[m] for m in self.members}

    def member_states(self, member: str) -> np.ndarray:
        """The state of ``member`` in every retained state, in state order:
        its mixed-radix digit of each retained original index.  A read-only
        row of the space's digit table, computed once per space."""
        return self._digits[self.members.index(member)]

    @cached_property
    def _digits(self) -> np.ndarray:
        """Every member's digit of every retained original index, one
        read-only row per member, built on first use: a space that never
        takes partial evidence or a member query never pays for it."""
        strides = [math.prod(self.cards[k + 1 :]) for k in range(len(self.cards))]
        retained = np.array(self._retained, dtype=int)
        digits = retained // np.array(strides)[:, None] % np.array(self.cards)[:, None]
        digits.setflags(write=False)
        return digits

    def consistent_mask(self, partial: Mapping[str, int]) -> np.ndarray:
        """Boolean mask over retained states matching a partial assignment."""
        if not all(k in self.members for k in partial):
            extra = [k for k in partial if k not in self.members]
            raise UnknownLabelError(f"partial assignment names non-members {extra}")
        digits = self._digits
        mask = None
        for member, value in partial.items():
            match = digits[self.members.index(member)] == int(value)
            mask = match if mask is None else mask & match
        return np.ones(self.cardinality, dtype=bool) if mask is None else mask


def _refuse_non_finite(arr: np.ndarray) -> None:
    """Raise for the first NaN or infinite entry of ``arr``, if it has one."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        k = int(bad[0])
        raise ZeroMassError(f"distribution entry {k} is {float(arr.flat[k])!r}, not finite")


# The rules of Distribution, stated once on the least entry, the greatest
# entry and the sum of one vector (floats) or of every row of a stack
# (arrays): the class checks one vector with them, normalized_rows a stack.
# NaN fails every comparison, so a NaN entry is not finite.


def _finite(lo, hi):
    return (lo > -math.inf) & (hi < math.inf)


def _has_mass(total):
    return total > 0.0


def _sums_to_one(total):
    return abs(total - 1.0) <= SUM_TOL


def _in_unit_range(lo, hi):
    return (lo >= -ENTRY_TOL) & (hi <= 1.0 + ENTRY_TOL)


@dataclass(frozen=True)
class Distribution:
    """A probability column: non-negative entries summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.probs)
        if arr.ndim != 1:
            raise DimensionMismatchError("a distribution must be a vector")
        # min and max are NaN or infinite iff an entry is, and unlike the
        # sum they do not warn on inf - inf
        lo = float(np.minimum.reduce(arr, initial=0.0))
        hi = float(np.maximum.reduce(arr, initial=0.0))
        if not _finite(lo, hi):
            _refuse_non_finite(arr)
        total = float(np.add.reduce(arr))
        if not _sums_to_one(total):
            raise ZeroMassError(f"distribution sums to {total!r}, not 1")
        if not _in_unit_range(lo, hi):
            raise ZeroMassError("distribution entries outside [0, 1]")
        object.__setattr__(self, "probs", arr)

    @classmethod
    def normalized(cls, values) -> "Distribution":
        """Build from raw non-negative weights, renormalizing exactly once."""
        arr = np.asarray(values, dtype=float)
        lo = float(np.minimum.reduce(arr, axis=None, initial=0.0))
        if not _finite(lo, float(np.maximum.reduce(arr, axis=None, initial=0.0))):
            _refuse_non_finite(arr)
        total = float(np.add.reduce(arr, axis=None))
        if not _has_mass(total):
            raise ZeroMassError("cannot normalize a zero-mass vector")
        return cls(arr / total)

    @classmethod
    def binary(cls, p: float) -> "Distribution":
        """``cls(np.array((1 - p, p)))`` for a float p, checked by its rules
        on floats; a p they refuse goes to the constructor, for its error."""
        q = 1.0 - p
        probs = np.array((q, p))
        if _finite(p, p) and _sums_to_one(q + p) and _in_unit_range(min(q, p, 0.0), max(q, p, 0.0)):
            probs.setflags(write=False)
            return cls._of_checked(probs)
        return cls(probs)

    @classmethod
    def _of_checked(cls, probs: np.ndarray) -> "Distribution":
        """Wrap ``probs``, a read-only vector that has already passed the
        checks of this class, without copying or checking it again."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", probs)
        return dist

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])


def row_sums(arr: np.ndarray) -> np.ndarray:
    """``np.add.reduce(arr, axis=-1)``, bit for bit.  numpy adds a row of
    fewer than eight numbers one by one, so such rows are summed down a
    transposed copy, whose inner loop runs across the rows instead of
    along each short one."""
    if arr.shape[-1] < 8:
        return np.add.reduce(arr.T.copy(), axis=0).T
    return np.add.reduce(arr, axis=-1)


def normalized_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of the weights ``raw`` divided by its sum, bit for bit as
    :meth:`Distribution.normalized` divides it, and a mask of the rows
    that method refuses, by the same rules (pass those to it for the
    error)."""
    with np.errstate(all="ignore"):
        total = row_sums(raw)
        probs = raw / total[:, None]
        # one row per column: the least and greatest entries of each row
        # come from reductions that run across the rows
        columns, prob_columns = raw.T.copy(), probs.T.copy()
        lo = np.minimum.reduce(prob_columns, axis=0, initial=0.0)
        hi = np.maximum.reduce(prob_columns, axis=0, initial=0.0)
        accepted = (
            _finite(
                np.minimum.reduce(columns, axis=0, initial=0.0),
                np.maximum.reduce(columns, axis=0, initial=0.0),
            )
            & _has_mass(total)
            & _finite(lo, hi)
            & _sums_to_one(row_sums(probs))
            & _in_unit_range(lo, hi)
        )
    return probs, ~accepted


def normalized_stacks(stacks: Mapping[int, tuple]) -> dict[int, np.ndarray]:
    """:func:`normalized_rows` of every stack of weights in ``stacks``, a map
    to (rows, the order key of each row).  The rows that
    :meth:`Distribution.normalized` refuses are passed to it in key order,
    so the first of them raises that method's own error."""
    out: dict[int, np.ndarray] = {}
    refused: list[tuple[int, np.ndarray]] = []
    for size, (raw, keys) in stacks.items():
        out[size], bad = normalized_rows(raw)
        refused.extend((keys[r], raw[r]) for r in np.flatnonzero(bad).tolist())
    for _, row in sorted(refused, key=lambda item: item[0]):
        Distribution.normalized(row)
    return out


@dataclass(frozen=True)
class ConditionalMatrix:
    """Conditional table p(child | parent): one unit-sum column per parent state."""

    entries: np.ndarray
    child: str | None = None
    parent: str | None = None

    def __post_init__(self):
        arr = frozen_array(self.entries)
        if arr.ndim != 2:
            raise DimensionMismatchError("a conditional table must be a matrix")
        if arr.min(initial=0.0) < -ENTRY_TOL:
            raise ZeroMassError("conditional table has a negative entry")
        colsums = arr.sum(axis=0)
        if np.abs(colsums - 1.0).max(initial=0.0) > SUM_TOL:
            bad = int(np.abs(colsums - 1.0).argmax())
            raise ZeroMassError(
                f"column {bad} of p({self.child}|{self.parent}) sums to {colsums[bad]!r}"
            )
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_joint(
        cls, pair: np.ndarray, child: "StateSpace", parent: "StateSpace"
    ) -> "ConditionalMatrix":
        """p(child | parent) from the joint mass table p(child, parent)
        over retained states; a parent state without mass is refused."""
        colsums = pair.sum(axis=0)
        if colsums.min(initial=np.inf) <= 0.0:
            dead = int(np.argmin(colsums))
            raise ZeroMassError(
                f"parent configuration {dead} of {parent.members} has zero "
                "probability; prune that state first"
            )
        return cls(
            pair / colsums[None, :],
            child="+".join(child.members),
            parent="+".join(parent.members),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def restrict_distribution(
    dist: Distribution, space: StateSpace, partial: Mapping[str, int]
) -> Distribution:
    """Condition a compound distribution on a partial member assignment.

    Zeroes every state inconsistent with ``partial`` and renormalizes.
    """
    if len(dist) != space.cardinality:
        raise DimensionMismatchError(
            f"distribution length {len(dist)} != space cardinality {space.cardinality}"
        )
    mask = space.consistent_mask(partial)
    kept = np.where(mask, dist.probs, 0.0)
    mass = float(kept.sum())
    if mass <= ENTRY_TOL:
        raise ZeroMassError(
            f"no probability mass consistent with {dict(partial)} on {space.members}"
        )
    return Distribution(kept / mass)


@dataclass(frozen=True)
class Evidence:
    """Observed simple-node states, keyed by node label."""

    assignments: tuple[tuple[str, int], ...]

    def __post_init__(self):
        pairs = tuple((str(k), int(v)) for k, v in self.assignments)
        labels = [k for k, _ in pairs]
        if len(set(labels)) != len(labels):
            raise UnknownLabelError("a label appears more than once in the evidence")
        object.__setattr__(self, "assignments", pairs)

    @classmethod
    def of(cls, mapping: Mapping[str, int] | None = None, **kw) -> "Evidence":
        items = list((mapping or {}).items()) + list(kw.items())
        return cls(tuple(items))

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def __bool__(self) -> bool:
        return bool(self.assignments)


@dataclass(frozen=True)
class BeliefNetwork:
    """A DAG of discrete nodes with one conditional table per node.

    ``nodes`` fixes the declaration order used for compound-state and
    CPT column enumeration.  CPTs are child-major: ``cpts[x]`` has
    ``card(x)`` rows and one column per configuration of ``parents[x]``
    enumerated by the mixed-radix rule above.
    """

    nodes: tuple[tuple[str, int], ...]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, np.ndarray]
    name: str = "network"

    def __post_init__(self):
        nodes = tuple((str(l), int(c)) for l, c in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        parents = {l: tuple(self.parents.get(l, ())) for l, _ in nodes}
        object.__setattr__(self, "parents", parents)
        cpts = {l: frozen_array(t) for l, t in self.cpts.items()}
        object.__setattr__(self, "cpts", cpts)
        # a repeated label keeps its first declaration, as a scan would find
        cards: dict[str, int] = {}
        index: dict[str, int] = {}
        for i, (l, c) in enumerate(nodes):
            cards.setdefault(l, c)
            index.setdefault(l, i)
        object.__setattr__(self, "_cards", cards)
        object.__setattr__(self, "_index", index)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.nodes)

    def card(self, label: str) -> int:
        try:
            return self._cards[label]
        except KeyError:
            raise UnknownLabelError(f"unknown node {label!r}") from None

    def parent_config_count(self, label: str) -> int:
        n = 1
        for p in self.parents[label]:
            n *= self.card(p)
        return n

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with declaration-order tie breaking."""
        labels = self.labels
        indeg = {l: 0 for l in labels}
        children: dict[str, list[str]] = {l: [] for l in labels}
        for child in labels:
            for p in self.parents[child]:
                if p not in indeg:
                    raise UnknownLabelError(f"parent {p!r} of {child!r} is not a node")
                indeg[child] += 1
                children[p].append(child)
        # a heap of (declaration index, label): the earliest-declared ready node first
        ready = [(self._index[l], l) for l in labels if indeg[l] == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for c in children[node]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, (self._index[c], c))
        if len(order) != len(labels):
            raise NetworkCycleError("the graph has a directed cycle")
        return tuple(order)


class NetworkCycleError(Exception):
    """Internal marker; surfaced as a Violation by validate_network."""


def validate_network(net: BeliefNetwork) -> list[Violation]:
    """Collect all structural violations of a belief network.

    Returns an empty list iff the graph is acyclic, every node has a CPT
    of the right shape, and every CPT column sums to one within tolerance.
    """
    out: list[Violation] = []
    labels = set(net.labels)
    for child in net.labels:
        for p in net.parents[child]:
            if p not in labels:
                out.append(Violation("unknown-parent", child, f"parent {p!r} undeclared"))
    try:
        net.topological_order()
    except NetworkCycleError:
        out.append(Violation("cycle", net.name, "the directed graph has a cycle"))
    except UnknownLabelError:
        pass  # already reported above
    for label, card in net.nodes:
        table = net.cpts.get(label)
        if table is None:
            out.append(Violation("missing-cpt", label, "no conditional table"))
            continue
        want = (card, net.parent_config_count(label)) if all(
            p in labels for p in net.parents[label]
        ) else None
        if table.ndim != 2 or (want is not None and table.shape != want):
            out.append(
                Violation(
                    "bad-shape",
                    label,
                    f"table shape {table.shape} does not match {want}",
                )
            )
            continue
        if table.min(initial=0.0) < -ENTRY_TOL:
            out.append(Violation("negative-entry", label, "table has a negative entry"))
        colsums = table.sum(axis=0)
        for col in np.nonzero(np.abs(colsums - 1.0) > SUM_TOL)[0]:
            out.append(
                Violation(
                    "normalization",
                    label,
                    f"column {int(col)} sums to {colsums[col]:.12g}, not 1",
                )
            )
    return out


@dataclass(frozen=True)
class CompoundNode:
    """One multi-valued node of a compiled tree."""

    ident: int
    name: str
    space: StateSpace
    prior: Distribution

    def __post_init__(self):
        if len(self.prior) != self.space.cardinality:
            raise DimensionMismatchError(
                f"{self.name}: prior length {len(self.prior)} != "
                f"cardinality {self.space.cardinality}"
            )


@dataclass(frozen=True)
class DecayConstants:
    """Decay constants of a tree, recorded by the load-time consistency pass.

    ``max_coupling`` is the largest |s[1,1] - s[1,0]| of any edge's dense
    coupling and ``min_prior_product`` the smallest p(false)p(true) of any
    node's prior.  Both are NaN unless ``all_binary``.
    """

    all_binary: bool
    max_coupling: float
    min_prior_product: float


@dataclass(frozen=True)
class BinaryScalars:
    """Columnar float form of an all-binary tree whose edges all have rank 1.

    Recorded by the load-time consistency pass.

    * ``prior[i]`` is the prior probability of state 1 of node i.
    * Runs: the tree's edges split into maximal paths whose interior nodes
      have degree 2.  ``run_nodes`` lists every run's nodes in order, both
      ends included, run after run, and run r fills positions
      ``run_start[r]`` to ``run_start[r + 1] - 1``.  Each run starts at
      its end of smaller id, and the runs are in the order of the half
      edges out of those ends.  A node of degree 2 is interior to exactly
      one run: ``run_of[i]`` is that run and ``place[i]`` its position;
      both are -1 for any other node.  The runs are read off the preorder
      of the tree's walk with numpy, with no second walk: see
      :meth:`from_tree`.
    * Edge ids follow the runs: the edge from position g to g + 1 of run r
      has id ``g - r``.  ``factor[0, e]`` is the stored factor under key
      (x, y) and ``factor[1, e]`` the one under (y, x), where x precedes y
      in the run, each as the one number c = R[0, 1] - R[0, 0]: the
      message from y toward x is c times the change in y's probability of
      state 1.  ``slot[h]`` is the index in ``factor.ravel()`` of the
      factor that half edge h of ``TreeNetwork.csr`` holds.
    * ``transfer[0, g]`` and ``transfer[1, g]`` are the pass-through
      transfer ``p(1-p) c_in c_out`` at the priors of the node at run
      position g, crossed toward higher and toward lower positions: with
      c_lower and c_upper its factors toward its run neighbours,
      ``p(1-p) c_lower c_upper`` and ``p(1-p) c_upper c_lower``, each in
      the order a query multiplies them (0 at run ends).  They depend on
      the tree only, so a query on the tree's own state reads a stretch's
      product off one slice.
    """

    prior: np.ndarray
    factor: np.ndarray
    slot: np.ndarray
    transfer: np.ndarray
    run_nodes: np.ndarray
    run_start: np.ndarray
    run_of: np.ndarray
    place: np.ndarray

    @classmethod
    def from_tree(cls, tree: "TreeNetwork", prior: np.ndarray) -> "BinaryScalars":
        """The float form of ``tree``, whose factors all have one row."""
        n, n_edges = tree.node_count, len(tree.edge_ends)
        offsets, adjacent = tree.csr
        twin, degree = tree.twin, np.diff(offsets)
        parent, _, enter, _ = (view.obj for view in tree._links)
        preorder = np.empty(n, np.intp)
        preorder[enter] = np.arange(n)
        # up[v]: the half edge from v to its parent (0 at the root)
        source = np.repeat(np.arange(n), degree)
        rising = np.flatnonzero(adjacent == parent[source])
        up = np.zeros(n, np.intp)
        up[source[rising]] = rising
        # The walk is rooted at an end (a node of degree other than 2), and
        # an interior node's only child is entered right after it, so each
        # run is its upper end and then a preorder slice down to its lower
        # end; a slice begins at each node whose parent is an end.
        first = np.flatnonzero(degree[parent[preorder[1:]]] != 2) + 1
        stop = np.append(first, n)[1:]
        top, bottom = parent[preorder[first]], preorder[stop - 1]
        size = stop - first + 1
        # every run top down, one after another in preorder; run r's top end
        # is at position head[r]
        down = np.insert(preorder[1:], first - 1, top)
        head = first - 1 + np.arange(first.size)
        # runs go from their smaller end, ordered by the half edge out of it
        forward = top < bottom
        rank = np.argsort(np.where(forward, twin[up[preorder[first]]], up[bottom]))
        size, head, forward = size[rank], head[rank], forward[rank]
        run_start = np.zeros(first.size + 1, dtype=np.intp)
        np.cumsum(size, out=run_start[1:])
        # position g of run r is head[r] + (g - run_start[r]) of ``down`` if
        # it goes top down, and head[r] + size[r] - 1 - (g - run_start[r]) if not
        base = np.where(forward, head - run_start[:-1], head + size - 1 + run_start[:-1])
        step = np.where(forward, 1, -1)
        run_nodes = down[np.repeat(base, size) + np.repeat(step, size) * np.arange(run_start[-1])]
        inner = np.ones(run_nodes.size, dtype=bool)
        inner[run_start[:-1]] = inner[run_start[1:] - 1] = False
        run_of = np.full(n, -1, dtype=np.intp)
        place = run_of.copy()
        run_of[run_nodes[inner]] = np.repeat(np.arange(first.size), size - 2)
        place[run_nodes[inner]] = np.flatnonzero(inner)
        # ahead[e]: the half edge from x to y, the ends of edge e with x
        # first in its run; it goes down to y, or up from x
        last = np.zeros(run_nodes.size, dtype=bool)
        last[run_start[1:] - 1] = True
        x, y = run_nodes[:-1][~last[:-1]], run_nodes[1:][~last[:-1]]
        ahead = np.where(parent[y] == x, twin[up[y]], up[x])
        # the number of the factor that each half edge holds
        c = np.empty(2 * n_edges)
        for stack in tree.factor_stacks:
            rows = np.concatenate((stack.bwd, stack.fwd))[:, 0]
            c[tree._halves[stack.edges].T.ravel()] = rows[:, 1] - rows[:, 0]
        # ahead[e] holds key (y, x), and its twin key (x, y)
        held = np.concatenate((twin[ahead], ahead))
        factor = c[held].reshape(2, n_edges)
        slot = np.empty(2 * n_edges, dtype=np.intp)
        slot[held] = np.arange(2 * n_edges)
        at = np.flatnonzero(inner)
        run = run_of[run_nodes[at]]
        lower, upper = factor[0, at - 1 - run], factor[1, at - run]
        p = prior[run_nodes[at]]
        weight = p * (1.0 - p)
        transfer = np.zeros((2, run_nodes.size))
        transfer[0, at] = weight * lower * upper
        transfer[1, at] = weight * upper * lower
        for arr in (prior, factor, slot, transfer, run_nodes, run_start, run_of, place):
            arr.setflags(write=False)
        return cls(prior, factor, slot, transfer, run_nodes, run_start, run_of, place)

    @cached_property
    def views(self) -> tuple[memoryview, ...]:
        """``run_nodes``, ``run_start``, ``run_of``, ``place`` and ``slot``."""
        columns = (self.run_nodes, self.run_start, self.run_of, self.place, self.slot)
        return tuple(map(memoryview, columns))


@dataclass(frozen=True)
class NodeColumns:
    """The compound nodes of a tree, one column per attribute.

    * ``names[i]`` names node i, and its member labels are
      ``members[member_start[i]:member_start[i + 1]]``.
    * ``cards[i]`` and ``pruned[i]`` are the member cardinalities and the
      pruned original states of node i, listed only for the nodes that
      have them: members are binary and nothing is pruned otherwise.
    * ``size[i]`` is the number of retained states of node i.  Its prior
      is row ``prior_row[i]`` of ``priors[size[i]]``, the stack of the
      priors of that size.
    * ``index`` maps each name to its node: the loader passes the dict it
      built while reading, and it is built from ``names`` otherwise.

    The columns are read-only: the lists are kept as tuples, the dicts as
    mapping proxies and the arrays with their write flag cleared.
    """

    names: tuple[str, ...]
    members: tuple[str, ...]
    member_start: tuple[int, ...]
    cards: Mapping[int, tuple[int, ...]]
    pruned: Mapping[int, tuple[int, ...]]
    size: tuple[int, ...]
    priors: Mapping[int, np.ndarray]
    prior_row: np.ndarray
    index: Mapping[str, int] | None = None

    def __post_init__(self):
        for key in ("names", "members", "member_start", "size"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        index = self.index
        if index is None:
            index = dict(zip(self.names, range(len(self.names))))
        object.__setattr__(self, "index", MappingProxyType(index))
        for key in ("cards", "pruned", "priors"):
            object.__setattr__(self, key, MappingProxyType(dict(getattr(self, key))))
        for arr in (self.prior_row, *self.priors.values()):
            arr.setflags(write=False)

    @classmethod
    def of(
        cls,
        spaces: Sequence[StateSpace],
        priors: Sequence[Distribution],
        names: Sequence[str] | None = None,
    ) -> "NodeColumns":
        """The columns of per-node objects; node i is named ``X_{i+1}``
        unless ``names`` is given."""
        if len(spaces) != len(priors):
            raise DimensionMismatchError("one prior per compound node is required")
        names = list(names) if names else [f"X_{i + 1}" for i in range(len(spaces))]
        members: list[str] = []
        member_start = [0]
        cards: dict[int, tuple[int, ...]] = {}
        pruned: dict[int, tuple[int, ...]] = {}
        size: list[int] = []
        rows: dict[int, list[np.ndarray]] = {}
        prior_row: list[int] = []
        for i, (space, prior) in enumerate(zip(spaces, priors)):
            if len(prior) != space.cardinality:
                raise DimensionMismatchError(
                    f"{names[i]}: prior length {len(prior)} != "
                    f"cardinality {space.cardinality}"
                )
            members.extend(space.members)
            member_start.append(len(members))
            if any(c != 2 for c in space.cards):
                cards[i] = space.cards
            if space.pruned:
                pruned[i] = space.pruned
            size.append(space.cardinality)
            stack = rows.setdefault(space.cardinality, [])
            prior_row.append(len(stack))
            stack.append(prior.probs)
        return cls(
            names, members, member_start, cards, pruned, size,
            {k: np.array(v) for k, v in rows.items()},
            np.array(prior_row, dtype=np.intp),
        )

    def prior(self, i: int) -> np.ndarray:
        """The prior of node i, a read-only view into its stack."""
        return self.priors[self.size[i]][self.prior_row[i]]

    def prior_stack(self, nodes: np.ndarray, size: int) -> np.ndarray:
        """The priors of ``nodes``, all of ``size`` states, as one array."""
        return self.priors[size][self.prior_row[nodes]]

    def space(self, i: int) -> StateSpace:
        members = tuple(self.members[self.member_start[i] : self.member_start[i + 1]])
        cards = self.cards.get(i, (2,) * len(members))
        return StateSpace(members, cards, self.pruned.get(i, ()))


@dataclass(frozen=True)
class FactorStack:
    """The stored factors of the tree edges that share one (n_i, n_j, rank)
    shape, stacked and read-only.

    Row k belongs to edge ``(i, j) = tree.edges[edges[k]]``, for both of
    its directions: ``fwd[k]`` (rank x n_j) is the factor under key
    (i, j) and ``bwd[k]`` (rank x n_i) the one under (j, i).
    """

    edges: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray

    def __post_init__(self):
        # frozen before any view is taken, so no view of them is writable
        for arr in (self.edges, self.fwd, self.bwd):
            arr.setflags(write=False)


def _first_bad_edge(ends: np.ndarray, n: int) -> int:
    """Position of the first edge that is a loop, leaves 0..n-1 or repeats
    an earlier edge in either direction; ``len(ends)`` if there is none."""
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    # a stable sort keeps the first of equal keys first
    bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    hit = np.flatnonzero(bad)
    return int(hit[0]) if hit.size else len(ends)


class TreeNetwork:
    """A tree of compound nodes with low-rank factored edge couplings.

    For every undirected edge {i, j} two matrices are stored.  The factor
    under key ``(i, j)`` lives at node j and is the R part of the coupling
    of node i with respect to node j; a message from j toward i is the
    vector ``r_factors[(i, j)] @ delta_p_j`` of length ``rank(i, j)``.
    The two directions of an edge must be mutually consistent: together
    with the node priors each one determines the full dense coupling of
    the other (see accept.check_tree_consistency).

    ``edges`` and ``edge_ends`` keep the canonical direction (i, j) in
    which the coupling was authored; serialization writes that direction.

    The tree is stored by columns, not by node objects:

    * ``node_columns``: names, member labels, and the priors stacked per
      number of states (see :class:`NodeColumns`);
    * ``factor_stacks``: the stored factors, one :class:`FactorStack` per
      (n_i, n_j, rank) shape of the edges;
    * ``edge_ends``, the edges as an (E, 2) array, and ``csr``, the
      adjacency as compressed sparse rows: the neighbours of node i are
      ``adjacent[offsets[i]:offsets[i + 1]]`` in edge order;
    * ``twin``, beside ``csr``: position h of ``adjacent`` is the half
      edge from its source x to ``adjacent[h]``, which holds the factor
      under key (adjacent[h], x), and ``twin[h]`` is the half edge back.
      ``half_edge(i, j)`` finds the half edge from i to j;
    * four columns from the one Python walk over ``csr`` that checks the
      tree is connected, rooted at the first node whose degree is not 2:
      each node's parent (-1 at the root), depth in hops, and entry and
      exit times in the walk's preorder, an O(1) ancestor test, read by
      ``evidence_side``, ``toward`` and ``distance``, which answer alike
      from any root.  These and the walks (through ``index_views`` and
      ``BinaryScalars.views``) read single items through memoryviews of
      the columns: no copy, and cheaper than ``ndarray.item``.

    The constructor builds no Python object per node.  ``neighbors(i)``
    builds the tuple of node i's neighbours on its first call, ``edges``
    the edge tuples and ``member_home`` its label index on first use;
    ``by_name`` reads ``node_columns.index``.  ``compound(i)``, ``compounds``,
    ``prior_probs``, ``half_edge_factors`` (the stored factors by half
    edge) and ``r_factors`` (the same factors by key) are read-only views
    built from the columns on first use and kept.  ``weighted_factors``
    holds the weighted factor at the priors of every half edge, by half
    edge, built on first read from the stacks the load pass formed, or per
    factor stack when it formed none.

    ``decay`` is None until accept.check_tree_consistency has passed on
    the tree; that pass records the tree's :class:`DecayConstants`, and
    ``scalars``, the tree's :class:`BinaryScalars` when every compound has
    two states and every edge rank 1 (None otherwise).  Compiling, loading
    and accept.accept_precompiled all build trees through
    accept.accept_batches, which runs that pass.
    """

    def __init__(
        self,
        nodes: NodeColumns,
        ends: np.ndarray,
        stacks: Sequence[FactorStack],
        name: str = "tree",
    ):
        """The tree of columns that are already stacked: ``ends`` holds the
        edges as an (E, 2) integer array, and every edge is in exactly one
        stack.  The factors are taken as given, unchecked."""
        n = len(nodes.names)
        _check_edge_count(len(ends), n)
        bad = _first_bad_edge(ends, n)
        if bad < len(ends):
            raise DimensionMismatchError(f"bad edge {tuple(ends[bad].tolist())}")
        ends.setflags(write=False)
        # neighbours in edge order: a stable sort of the half edges by source
        src = ends.reshape(-1)
        order = np.argsort(src, kind="stable")
        adjacent = ends[:, ::-1].reshape(-1)[order]
        degree = np.bincount(src, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degree, out=offsets[1:])
        # edge k's half edges, from ends[k, 0] and from ends[k, 1]
        halves = np.empty_like(order)
        halves[order] = np.arange(order.size)
        halves = halves.reshape(-1, 2)
        twin = halves[:, ::-1].reshape(-1)[order]
        # the factor stack of each half edge, in the order of ``adjacent``
        cover = np.bincount(
            np.concatenate([np.zeros(0, np.intp), *(group.edges for group in stacks)]),
            minlength=len(ends),
        )
        if (cover != 1).any():
            k = int(np.flatnonzero(cover != 1)[0])
            raise DimensionMismatchError(
                f"edge {tuple(ends[k].tolist())} is in {cover[k]} factor stacks"
            )
        stack_of = np.full(len(ends), -1, dtype=np.intp)
        for k, group in enumerate(stacks):
            stack_of[group.edges] = k
        stack_at = stack_of[order // 2]
        # rooted at the first node whose degree is not 2, so that each run
        # of BinaryScalars hangs below one of its ends
        parent, preorder, below = _walk(
            offsets.tolist(), adjacent.tolist(), int(np.argmax(degree != 2)), n
        )
        if len(set(nodes.members)) != len(nodes.members):
            seen: set[str] = set()
            for m in nodes.members:
                if m in seen:
                    raise DimensionMismatchError(f"member {m!r} appears in two compounds")
                seen.add(m)
        # entry times, the stack's floor entered last, at n: a subtree is
        # left just before the node under its root on the stack enters
        enter = np.empty(n + 1, np.intp)
        enter[preorder] = np.arange(n)
        enter[n] = n
        leave = np.empty(n, np.intp)
        leave[preorder] = enter[below] - 1
        enter = enter[:n]
        # the depth of the node entered at time t: the t nodes entered
        # before it, less those whose subtrees were left before t
        left = np.cumsum(np.bincount(leave, minlength=n))
        depth = np.empty(n, np.intp)
        depth[preorder[0]] = 0
        depth[preorder[1:]] = np.arange(1, n) - left[:-1]
        for arr in (offsets, adjacent, twin, halves, stack_at, parent, depth, enter, leave):
            arr.setflags(write=False)
        vars(self).update(
            name=name,
            node_count=n,
            _nodes=nodes,
            _stacks=tuple(stacks),
            _ends=ends,
            _csr=(offsets, adjacent),
            _views=tuple(map(memoryview, (offsets, adjacent, twin))),
            _twin=twin,
            _halves=halves,
            _neighbors={},
            _stack_at=stack_at,
            _links=tuple(map(memoryview, (parent, depth, enter, leave))),
            _built={},
            _decay=None,
            _scalars=None,
            _weighted=None,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a TreeNetwork is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"TreeNetwork({self.name!r}, {self.node_count} nodes)"

    @property
    def node_columns(self) -> NodeColumns:
        return self._nodes

    @property
    def factor_stacks(self) -> tuple[FactorStack, ...]:
        return self._stacks

    @property
    def edge_ends(self) -> np.ndarray:
        return self._ends

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, adjacent): the neighbours of node i are
        ``adjacent[offsets[i]:offsets[i + 1]]``."""
        return self._csr

    @property
    def twin(self) -> np.ndarray:
        """The reverse of every half edge, from ``adjacent[h]`` back."""
        return self._twin

    @property
    def index_views(self) -> tuple[memoryview, memoryview, memoryview]:
        """``offsets``, ``adjacent`` and ``twin`` as memoryviews."""
        return self._views

    def half_edge(self, i: int, j: int) -> int:
        """The half edge from node i to node j, which holds the factor
        under key (j, i); ``KeyError((i, j))`` if the nodes are not
        adjacent."""
        self.check_node(i)
        self.check_node(j)
        try:
            return self._csr[0].item(i) + self.neighbors(i).index(j)
        except ValueError:
            raise KeyError((i, j)) from None

    def check_node(self, ident: int) -> None:
        """Refuse an id outside [0, node_count), which a column would wrap."""
        n = self.node_count
        if not 0 <= ident < n:
            raise UnknownLabelError(f"node id {ident} outside a tree of {n} nodes")

    def compound(self, ident: int) -> CompoundNode:
        node = self._built.get(ident)
        if node is None:
            self.check_node(ident)
            nodes = self._nodes
            prior = Distribution._of_checked(nodes.prior(ident))
            node = CompoundNode(ident, nodes.names[ident], nodes.space(ident), prior)
            self._built[ident] = node
        return node

    @cached_property
    def compounds(self) -> tuple[CompoundNode, ...]:
        return tuple(self.compound(i) for i in range(self.node_count))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (i, j) in the direction its coupling was authored,
        in edge order: ``edge_ends`` as tuples, built on first read."""
        return tuple(map(tuple, self._ends.tolist()))

    def by_name(self, name: str) -> CompoundNode:
        try:
            return self.compound(self._nodes.index[name])
        except KeyError:
            raise UnknownLabelError(f"unknown compound node {name!r}") from None

    def neighbors(self, ident: int) -> tuple[int, ...]:
        """The neighbours of node ``ident``, in edge order, as a tuple built
        on first call and kept.  The id is not checked: the walks call this
        once per node they reach, with ids the tree itself gave."""
        got = self._neighbors.get(ident)
        if got is None:
            first, target, _ = self._views
            got = self._neighbors[ident] = tuple(target[first[ident] : first[ident + 1]])
        return got

    def evidence_side(self, nodes: Iterable[int]) -> Callable[[int, int], bool]:
        """The edge rule of a query on the evidence at ``nodes``:
        ``beyond(u, n)`` says whether one of ``nodes`` lies on n's side of
        the edge between the adjacent nodes u and n.  Only the nodes' entry
        times are kept, sorted.  If n is u's child, its side is its
        subtree, which holds an evidence node if one of those times lies in
        ``[enter[n], exit[n]]`` (one bisect); if n is u's parent, its side
        is everything outside u's subtree (a min and max compare)."""
        parent, _, enter, leave = self._links
        times = sorted(map(enter.__getitem__, nodes))
        if not times:
            return lambda u, n: False
        first, last, k = times[0], times[-1], len(times)

        def beyond(u: int, n: int) -> bool:
            if parent[n] == u:
                at = bisect_left(times, enter[n])
                return at < k and times[at] <= leave[n]
            return first < enter[u] or last > leave[u]

        return beyond

    def toward(self, i: int, j: int) -> int:
        """The neighbour of node i on the path to node j, which is not i:
        i's parent, unless i is an ancestor of j, and then the child of i
        whose entry and exit times enclose j's entry time."""
        parent, _, enter, leave = self._links
        at = enter[j]
        if not enter[i] <= at <= leave[i]:
            return parent[i]
        above = parent[i]
        return next(n for n in self.neighbors(i) if n != above and enter[n] <= at <= leave[n])

    def distance(self, i: int, j: int, limit: int) -> int:
        """The number of edges between nodes i and j, ``depth(i) +
        depth(j) - 2 depth(LCA)``, capped at ``limit + 1``: O(limit)
        whatever the size of the tree, since the climb from j to the lowest
        common ancestor (LCA) stops once that lies too high.  Two interior
        nodes of one run are their distance in run positions apart."""
        self.check_node(i)
        self.check_node(j)
        if self._scalars is not None:
            _, _, run_of, place, _ = self._scalars.views
            if 0 <= run_of[i] == run_of[j]:
                return min(abs(place[i] - place[j]), limit + 1)
        parent, depth, enter, leave = self._links
        di, dj = depth[i], depth[j]
        if abs(di - dj) > limit:
            return limit + 1
        # within `limit` exactly when the LCA lies at depth (di + dj - limit) / 2 or below
        floor = (di + dj - limit + 1) // 2
        at = enter[i]
        while not enter[j] <= at <= leave[j]:
            if depth[j] <= floor:
                return limit + 1
            j = parent[j]
        return min(di + dj - 2 * depth[j], limit + 1)

    @cached_property
    def prior_probs(self) -> dict[int, np.ndarray]:
        """Prior probability vector of every node, by ident (read-only views)."""
        nodes = self._nodes
        rows = {k: list(stack) for k, stack in nodes.priors.items()}
        return {
            i: rows[k][r] for i, (k, r) in enumerate(zip(nodes.size, nodes.prior_row.tolist()))
        }

    @cached_property
    def half_edge_factors(self) -> tuple[np.ndarray, ...]:
        """The stored factor of every half edge, by half edge (read-only
        views of the stacks)."""
        out: list = [None] * self._twin.size
        halves = self._halves.tolist()
        for stack in self._stacks:
            for k, f, b in zip(stack.edges.tolist(), stack.fwd, stack.bwd):
                out[halves[k][0]], out[halves[k][1]] = b, f
        return tuple(out)

    @cached_property
    def weighted_factors(self) -> tuple[np.ndarray, ...]:
        """The weighted factor ``Q_h = R_h (diag(p) - p p^T)`` of every half
        edge h, by half edge, with R_h its stored factor and p the prior of
        its source: what a session weighs at that source (on entry, in a
        pass-through or for a reply) while the source holds its prior.
        Built on first read, as read-only views, from the stacks that the
        load pass recorded (see :meth:`record_decay`), or else from one
        ``algebra.weighted`` call per factor stack and direction."""
        pairs = self._weighted
        if pairs is None:
            from .algebra import weighted  # algebra imports this module

            pairs = [
                [
                    weighted(rows, self._nodes.prior_stack(ends, rows.shape[2]))
                    for ends, rows in zip(self._ends[stack.edges].T, (stack.bwd, stack.fwd))
                ]
                for stack in self._stacks
            ]
        out: list = [None] * self._twin.size
        for stack, pair in zip(self._stacks, pairs):
            halves = self._halves[stack.edges].T.tolist()
            for side, q in enumerate(pair):
                q.setflags(write=False)
                for h, row in zip(halves[side], q):
                    out[h] = row
        return tuple(out)

    @cached_property
    def r_factors(self) -> dict[tuple[int, int], np.ndarray]:
        """Both stored factors of every edge, by key: the entries of
        ``half_edge_factors`` in half-edge order."""
        keys = zip(self._csr[1].tolist(), self._csr[1][self._twin].tolist())
        return dict(zip(keys, self.half_edge_factors))

    @property
    def decay(self) -> DecayConstants | None:
        return self._decay

    @property
    def scalars(self) -> BinaryScalars | None:
        return self._scalars

    def record_decay(
        self,
        constants: DecayConstants,
        scalars: BinaryScalars | None = None,
        weighted: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        """Attach what the consistency pass derived from this tree: its
        decay constants, its float form if it has one, and, if given, the
        weighted factors at the priors of every factor stack, in stack
        order, as the pair (from ``bwd``, from ``fwd``), which
        ``weighted_factors`` then reads instead of computing them."""
        vars(self).update(_decay=constants, _scalars=scalars, _weighted=weighted)

    @cached_property
    def _member_home(self) -> dict[str, int]:
        """The node of every member label, built on first use."""
        nodes = self._nodes
        counts = np.diff(nodes.member_start)
        return dict(zip(nodes.members, np.repeat(np.arange(self.node_count), counts).tolist()))

    def member_home(self, label: str) -> int:
        try:
            return self._member_home[label]
        except KeyError:
            raise UnknownLabelError(f"unknown simple node {label!r}") from None

    @property
    def member_labels(self) -> tuple[str, ...]:
        return tuple(self._member_home)

    def rank(self, i: int, j: int) -> int:
        """The rank of edge {i, j}: the row count of its factor stack."""
        return self._stacks[self._stack_at.item(self.half_edge(i, j))].fwd.shape[1]

    def resolve_query(self, label: str) -> tuple[int, str | None]:
        """Map a query label to (compound ident, member label or None)."""
        index = self._nodes.index
        if label in index:
            return index[label], None
        return self.member_home(label), label

    def member_marginal(self, ident: int, member: str, probs: np.ndarray) -> np.ndarray:
        """Marginal of one member from a compound distribution."""
        space = self.compound(ident).space
        states = space.member_states(member)
        out = np.zeros(space.cards[space.members.index(member)])
        # unbuffered, in state order: the sums of a loop over the states
        np.add.at(out, states, probs)
        return out

    def group_evidence(self, evidence: Evidence) -> dict[int, dict[str, int]]:
        """Split simple-node evidence by owning compound node."""
        grouped: dict[int, dict[str, int]] = {}
        for label, value in evidence.assignments:
            home = self.member_home(label)
            space = self.compound(home).space
            card = space.cards[space.members.index(label)]
            if not 0 <= value < card:
                raise UnknownLabelError(f"state {value} outside node {label!r} range")
            grouped.setdefault(home, {})[label] = value
        return grouped


def _walk(start: list[int], adjacent: list[int], root: int, n: int):
    """One depth-first walk from ``root`` over the adjacency in compressed
    sparse rows (``start`` the offsets): each node's parent (-1 at the
    root), the preorder, and for each node in preorder the node that lies
    under it on the walk's stack as it is entered, which is the next node
    entered once its subtree is done (n, the stack's floor, if none is).
    Refuses an edge set that is not connected."""
    # parent[m] < 0 until m is reached; n marks the root as reached
    parent = [-1] * n
    parent[root] = n
    preorder: list[int] = []
    below: list[int] = []
    stack = [n, root]
    pop, push, visit, mark = stack.pop, stack.append, preorder.append, below.append
    while (node := pop()) != n:
        visit(node)
        mark(stack[-1])
        for m in adjacent[start[node] : start[node + 1]]:
            if parent[m] < 0:
                parent[m] = node
                push(m)
    if len(preorder) != n:
        raise DimensionMismatchError("the edge set is not connected")
    parent[root] = -1
    return tuple(np.array(column, np.intp) for column in (parent, preorder, below))


def _check_edge_count(n_edges: int, n: int) -> None:
    if n_edges != n - 1:
        raise DimensionMismatchError(f"{n_edges} edges cannot form a tree over {n} nodes")
