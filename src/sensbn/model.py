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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


def _unaliased_frozen(arr) -> bool:
    """True for a read-only float64 ndarray whose base arrays are read-only
    too, so that no writable array reaches its memory through the base."""
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _as_bool_int(value) -> int:
    if isinstance(value, bool):
        return int(value)
    return int(value)


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate_network`."""

    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


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
        if len(self.members) != len(self.cards):
            raise DimensionMismatchError(
                f"{len(self.members)} members but {len(self.cards)} cardinalities"
            )
        if any(c < 2 for c in self.cards):
            raise DimensionMismatchError("member cardinalities must be >= 2")
        full = self.full_cardinality
        bad = [p for p in self.pruned if not 0 <= p < full]
        if bad:
            raise PrunedStateError(f"pruned indices {bad} outside [0, {full})")
        pruned_set = set(self.pruned)
        retained = tuple(i for i in range(full) if i not in pruned_set)
        if not retained:
            raise ZeroMassError("all states of the space are pruned")
        object.__setattr__(self, "_retained", retained)
        object.__setattr__(self, "_compact", {o: c for c, o in enumerate(retained)})

    @classmethod
    def binary(cls, members: Sequence[str], pruned: Iterable[int] = ()) -> "StateSpace":
        members = tuple(members)
        return cls(members, (2,) * len(members), tuple(pruned))

    @property
    def full_cardinality(self) -> int:
        n = 1
        for c in self.cards:
            n *= c
        return n

    @property
    def cardinality(self) -> int:
        return len(self._retained)

    @property
    def retained(self) -> tuple[int, ...]:
        return self._retained

    def original_index(self, assignment: Mapping[str, int]) -> int:
        """Index of a full member assignment in the unpruned enumeration."""
        missing = [m for m in self.members if m not in assignment]
        if missing:
            raise UnknownLabelError(f"assignment missing members {missing}")
        extra = [k for k in assignment if k not in self.members]
        if extra:
            raise UnknownLabelError(f"assignment names non-members {extra}")
        idx = 0
        for member, card in zip(self.members, self.cards):
            state = _as_bool_int(assignment[member])
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

    def consistent_mask(self, partial: Mapping[str, int]) -> np.ndarray:
        """Boolean mask over retained states matching a partial assignment."""
        extra = [k for k in partial if k not in self.members]
        if extra:
            raise UnknownLabelError(f"partial assignment names non-members {extra}")
        mask = np.ones(self.cardinality, dtype=bool)
        for i in range(self.cardinality):
            assign = self.assignment(i)
            for member, value in partial.items():
                if assign[member] != _as_bool_int(value):
                    mask[i] = False
                    break
        return mask


def state_index(assignment: Mapping[str, int], space: StateSpace) -> int:
    """Compacted state index of a full member assignment."""
    return space.index(assignment)


def _refuse_non_finite(arr: np.ndarray) -> None:
    """Raise for the first NaN or infinite entry of ``arr``, if it has one."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        k = int(bad[0])
        raise ZeroMassError(f"distribution entry {k} is {float(arr.flat[k])!r}, not finite")


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
        lo, hi = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            _refuse_non_finite(arr)
        total = float(arr.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise ZeroMassError(f"distribution sums to {total!r}, not 1")
        if lo < -ENTRY_TOL or hi > 1 + ENTRY_TOL:
            raise ZeroMassError("distribution entries outside [0, 1]")
        object.__setattr__(self, "probs", arr)

    @classmethod
    def normalized(cls, values) -> "Distribution":
        """Build from raw non-negative weights, renormalizing exactly once."""
        arr = np.asarray(values, dtype=float)
        if not np.isfinite(arr).all():
            _refuse_non_finite(arr)
        total = float(arr.sum())
        if total <= 0:
            raise ZeroMassError("cannot normalize a zero-mass vector")
        return cls(arr / total)

    @classmethod
    def indicator(cls, size: int, state: int) -> "Distribution":
        arr = np.zeros(size)
        arr[state] = 1.0
        return cls(arr)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])


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
        pairs = tuple((str(k), _as_bool_int(v)) for k, v in self.assignments)
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

    def declaration_index(self, label: str) -> int:
        try:
            return self._index[label]
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
    """Float form of an all-binary tree whose edges all have rank 1.

    Recorded by the load-time consistency pass.  ``priors[i]`` is the prior
    probability of state 1 of node i, and ``factors[(i, j)]`` is the stored
    factor under key (i, j) as the one number c = R[0, 1] - R[0, 0]: the
    message from j toward i is c times the change in j's probability of
    state 1.
    """

    priors: Mapping[int, float]
    factors: Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class TreeNetwork:
    """A tree of compound nodes with low-rank factored edge couplings.

    For every undirected edge {i, j} two matrices are stored.  The factor
    under key ``(i, j)`` lives at node j and is the R part of the coupling
    of node i with respect to node j; a message from j toward i is the
    vector ``r_factors[(i, j)] @ delta_p_j`` of length ``ranks[(i, j)]``.
    The two directions of an edge must be mutually consistent: together
    with the node priors each one determines the full dense coupling of
    the other (see compiler.check_tree_consistency).

    ``edges`` keeps the canonical direction (i, j) in which the coupling
    was authored; serialization writes that direction.

    ``decay`` is None until compiler.check_tree_consistency has passed on
    the tree; that pass records the tree's :class:`DecayConstants`, and
    ``scalars``, the tree's :class:`BinaryScalars` when every compound has
    two states and every edge rank 1 (None otherwise).
    """

    compounds: tuple[CompoundNode, ...]
    edges: tuple[tuple[int, int], ...]
    r_factors: Mapping[tuple[int, int], np.ndarray]
    name: str = "tree"

    def __post_init__(self):
        comps = tuple(self.compounds)
        object.__setattr__(self, "compounds", comps)
        idents = [c.ident for c in comps]
        if sorted(idents) != list(range(len(comps))):
            raise DimensionMismatchError("compound idents must be 0..n-1")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) != len(comps) - 1:
            raise DimensionMismatchError(
                f"{len(edges)} edges cannot form a tree over {len(comps)} nodes"
            )
        # factors that are already frozen, such as the loader's, are shared
        factors = {
            (int(a), int(b)): m if _unaliased_frozen(m) else frozen_array(m)
            for (a, b), m in self.r_factors.items()
        }
        object.__setattr__(self, "r_factors", factors)
        nb: dict[int, list[int]] = {c.ident: [] for c in comps}
        card = [c.space.cardinality for c in comps]
        seen = set()
        for a, b in edges:
            if a == b or frozenset((a, b)) in seen:
                raise DimensionMismatchError(f"bad edge ({a}, {b})")
            seen.add(frozenset((a, b)))
            nb[a].append(b)
            nb[b].append(a)
            for i, j in ((a, b), (b, a)):
                mat = factors.get((i, j))
                if mat is None:
                    raise DimensionMismatchError(f"edge ({a},{b}) missing factor ({i},{j})")
                if mat.shape[1] != card[j]:
                    raise DimensionMismatchError(
                        f"factor ({i},{j}) has width {mat.shape[1]}, expected {card[j]}"
                    )
            if factors[(a, b)].shape[0] != factors[(b, a)].shape[0]:
                raise DimensionMismatchError(f"edge ({a},{b}) factor ranks disagree")
        # connectivity
        if comps:
            stack, reached = [comps[0].ident], {comps[0].ident}
            while stack:
                for n in nb[stack.pop()]:
                    if n not in reached:
                        reached.add(n)
                        stack.append(n)
            if len(reached) != len(comps):
                raise DimensionMismatchError("the edge set is not connected")
        object.__setattr__(self, "_neighbors", {k: tuple(v) for k, v in nb.items()})
        object.__setattr__(self, "_prior_probs", {c.ident: c.prior.probs for c in comps})
        object.__setattr__(self, "_decay", None)
        object.__setattr__(self, "_scalars", None)
        object.__setattr__(self, "_by_name", {c.name: c for c in comps})
        home: dict[str, int] = {}
        for c in comps:
            for m in c.space.members:
                if m in home:
                    raise DimensionMismatchError(f"member {m!r} appears in two compounds")
                home[m] = c.ident
        object.__setattr__(self, "_member_home", home)

    def compound(self, ident: int) -> CompoundNode:
        return self.compounds[ident]

    def by_name(self, name: str) -> CompoundNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownLabelError(f"unknown compound node {name!r}") from None

    def neighbors(self, ident: int) -> tuple[int, ...]:
        return self._neighbors[ident]

    @property
    def prior_probs(self) -> dict[int, np.ndarray]:
        """Prior probability vector of every node, by ident (shared; do not mutate)."""
        return self._prior_probs

    @property
    def decay(self) -> DecayConstants | None:
        return self._decay

    @property
    def scalars(self) -> BinaryScalars | None:
        return self._scalars

    def record_decay(
        self, constants: DecayConstants, scalars: BinaryScalars | None = None
    ) -> None:
        """Attach what the consistency pass derived from this tree."""
        object.__setattr__(self, "_decay", constants)
        object.__setattr__(self, "_scalars", scalars)

    def member_home(self, label: str) -> int:
        try:
            return self._member_home[label]
        except KeyError:
            raise UnknownLabelError(f"unknown simple node {label!r}") from None

    @property
    def member_labels(self) -> tuple[str, ...]:
        return tuple(self._member_home)

    def rank(self, i: int, j: int) -> int:
        return self.r_factors[(i, j)].shape[0]

    def resolve_query(self, label: str) -> tuple[int, str | None]:
        """Map a query label to (compound ident, member label or None)."""
        if label in self._by_name:
            return self._by_name[label].ident, None
        return self.member_home(label), label

    def member_marginal(self, ident: int, member: str, probs: np.ndarray) -> np.ndarray:
        """Marginal of one member from a compound distribution."""
        comp = self.compound(ident)
        card = comp.space.cards[comp.space.members.index(member)]
        out = np.zeros(card)
        for i in range(comp.space.cardinality):
            out[comp.space.assignment(i)[member]] += probs[i]
        return out

    def group_evidence(self, evidence: Evidence) -> dict[int, dict[str, int]]:
        """Split simple-node evidence by owning compound node."""
        grouped: dict[int, dict[str, int]] = {}
        for label, value in evidence.assignments:
            home = self.member_home(label)
            card = self.compound(home).space.cards[
                self.compound(home).space.members.index(label)
            ]
            if not 0 <= value < card:
                raise UnknownLabelError(f"state {value} outside node {label!r} range")
            grouped.setdefault(home, {})[label] = value
        return grouped
