"""The four benchmark workloads: inputs, set-up, operations and checks.

Every workload draws its inputs from the seed, writes them as files under
its work directory, and defines

* ``setup()``: the timed set-up a user pays before the first answer;
* ``round()``: one round of operations, each an ``Op`` whose ``run`` is
  timed and whose ``check`` compares the result, untimed, with an answer
  computed apart from the engine (see ``reference``);
* the inputs that the traced run times layer by layer (``trees``,
  ``networks``, ``items``).

Each operation uses a fresh ``QuerySession``: a reused session returns
stale answers (see CHANGES.md).  The shapes of networks, the number of
evidence items and their distances are fixed; the seed draws the
probabilities, the states observed and, on chains and for the CLI, the
positions.  So every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sensbn import cli, compiler, fileio, generators, truncation
from sensbn.engine import QuerySession
from sensbn.model import BeliefNetwork, Evidence, TreeNetwork

import calibrate
import reference

#: chain generator settings: strong couplings, so dropped evidence matters
CHAIN_ALPHA = 0.9
CHAIN_COUPLING_LO = 0.8
#: decay profile of the bounded-error queries; radius 58 for two evidence items
PROFILE = truncation.DecayProfile(alpha=CHAIN_ALPHA, eta=0.09, epsilon=0.1)
APPROX_FLAGS = (
    "--approx", f"epsilon={PROFILE.epsilon}", f"alpha={PROFILE.alpha}", f"eta={PROFILE.eta}",
)
#: chain length on which the traced run times the compile layers
SHORT_CHAIN = 12

ASIA_GROUPS = (("x_C", "x_E", "x_G"),)


@dataclass
class Item:
    """One query: a tree file, the queried label and its evidence."""

    tree_path: Path
    label: str
    evidence: Evidence
    #: ``sensbn query`` flags that ask the CLI for the same answer
    flags: tuple[str, ...] = ("--engine", "misq")
    tree: TreeNetwork | None = None

    @property
    def node(self) -> int:
        return self.tree.resolve_query(self.label)[0]

    def query_argv(self) -> list[str]:
        evidence = ",".join(f"{k}={v}" for k, v in self.evidence.assignments)
        return ["query", str(self.tree_path), "--query", self.label,
                "--evidence", evidence, *self.flags]


@dataclass
class Op:
    kind: str  # "op1" or "op2"
    run: Callable[[], object]
    check: Callable[[object], bool]
    #: a child process, bracketed by the process kernel
    process: bool = False
    #: index of the item in ``Workload.items`` the operation answers
    item: int = 0


@dataclass
class Workload:
    name: str
    #: what op1 and op2 are, for the printed report
    kinds: dict[str, str]
    #: set-ups per run; setup_s is their median
    setup_reps: int = 5
    #: the set-up runs a child process
    setup_process: bool = False
    #: whether op1 is a bounded-error query (decides how mark_barren is traced)
    truncated: bool = False
    trees: list[Path] = field(default_factory=list)
    #: (network file, forced groups) compiled by the traced run
    networks: list[tuple[Path, tuple]] = field(default_factory=list)
    items: list[Item] = field(default_factory=list)

    def setup(self):
        raise NotImplementedError

    def release(self) -> None:
        """Drop the set-up's result, so that the next set-up starts afresh."""
        for item in self.items:
            item.tree = None

    def round(self) -> list[Op]:
        raise NotImplementedError


def exact_op(index: int, item: Item, want: np.ndarray) -> Op:
    """Exact single-query recursion on a fresh session."""
    tree, node, ev = item.tree, item.node, item.evidence
    return Op(
        "op1",
        lambda: QuerySession(tree).query(node, ev),
        lambda got: reference.close(got.probs, want),
        item=index,
    )


def flood_op(index: int, item: Item, want: dict[int, np.ndarray]) -> Op:
    """Instantiation flood on a fresh session; every node's posterior is checked."""
    tree, ev = item.tree, item.evidence
    expected = np.concatenate(list(want.values()))
    return Op(
        "op2",
        lambda: QuerySession(tree).multi_evidence_simq(ev),
        lambda session: reference.close(np.concatenate([session.p[k] for k in want]), expected),
        item=index,
    )


# -- chains ---------------------------------------------------------------


def _chain_inputs(wl: Workload, seed: int, length: int, work: Path) -> BeliefNetwork:
    """Write the chain's tree file and the short chain's network file;
    return the chain network whose tables the reference sweeps."""
    tree = generators.binary_chain_tree(
        np.random.default_rng(seed), length, alpha=CHAIN_ALPHA, coupling_lo=CHAIN_COUPLING_LO
    )
    net = generators.binary_chain_network(
        np.random.default_rng(seed), length, alpha=CHAIN_ALPHA, coupling_lo=CHAIN_COUPLING_LO
    )
    ok, witness = truncation.verify_profile(tree, PROFILE)
    if not ok:
        raise RuntimeError(f"chain does not satisfy the decay profile: {witness}")
    path = work / f"chain{length}.tree"
    fileio.save(path, fileio.serialize_tree(tree))
    wl.trees = [path]
    # chains drawn from one seed share their prefix, so this is the
    # first SHORT_CHAIN nodes of the workload's chain
    short = generators.binary_chain_network(
        np.random.default_rng(seed), SHORT_CHAIN, alpha=CHAIN_ALPHA, coupling_lo=CHAIN_COUPLING_LO
    )
    short_path = work / f"chain{SHORT_CHAIN}.net"
    fileio.save(short_path, fileio.serialize_network(short))
    wl.networks = [(short_path, ())]
    return net


def _chain_item(path: Path, query: int, evidence: dict[int, int], flags=Item.flags) -> Item:
    labelled = Evidence.of({f"v{k}": v for k, v in evidence.items()})
    return Item(path, f"v{query}", labelled, flags)


class _Chain(Workload):
    def setup(self):
        tree = fileio.load_tree(self.trees[0])
        for item in self.items:
            item.tree = tree


class ChainExact(_Chain):
    """Exact queries and floods on one binary chain loaded from a tree file.

    Evidence always sits on both chain ends plus one interior node, so a
    query visits every node and a flood runs three full sweeps whatever
    the seed.
    """

    LENGTH = 2000
    ITEMS = 4

    def __init__(self, seed: int, work: Path):
        super().__init__(
            "chain-exact",
            {"op1": "exact query (misq)", "op2": "instantiation flood (simq)"},
        )
        length = self.LENGTH
        net = _chain_inputs(self, seed, length, work)
        rng = np.random.default_rng([seed, 1])
        self.refs = []
        for _ in range(self.ITEMS):
            query, inner = (int(x) for x in rng.choice(np.arange(1, length - 1), 2, replace=False))
            evidence = {pos: int(rng.integers(0, 2)) for pos in (0, inner, length - 1)}
            self.items.append(_chain_item(self.trees[0], query, evidence))
            self.refs.append(reference.chain_posteriors(net, evidence))

    def round(self) -> list[Op]:
        ops = []
        for index, (item, ref) in enumerate(zip(self.items, self.refs)):
            ops.append(exact_op(index, item, ref[item.node]))
            ops.append(flood_op(index, item, dict(enumerate(ref))))
        return ops


class ChainTruncated(_Chain):
    """Bounded-error queries on a long chain loaded from a tree file.

    The query has one evidence item 20 hops to one side and one beyond
    the truncation radius on the other side, with nothing nearer, so the
    radius drops real evidence.  op1 verifies the decay profile first, as
    ``sensbn query --approx`` does; op2 skips that O(N) check.
    """

    LENGTH = 10_000
    ITEMS = 4
    NEAR = 20
    FAR = 80

    def __init__(self, seed: int, work: Path):
        super().__init__(
            "chain-truncated",
            {
                "op1": "bounded-error query, default profile verification",
                "op2": "bounded-error query, profile verified beforehand",
            },
            setup_reps=3,
            truncated=True,
        )
        length = self.LENGTH
        net = _chain_inputs(self, seed, length, work)
        self.radius = truncation.truncation_radius(PROFILE, 2)
        if not self.NEAR <= self.radius < self.FAR:
            raise RuntimeError(f"radius {self.radius} does not split near and far evidence")
        rng = np.random.default_rng([seed, 1])
        self.refs = []
        for _ in range(self.ITEMS):
            query = int(rng.integers(self.FAR + 1, length - self.FAR - 1))
            side = 1 if rng.random() < 0.5 else -1
            positions = (query + side * self.NEAR, query - side * self.FAR)
            evidence = {pos: int(rng.integers(0, 2)) for pos in positions}
            self.items.append(_chain_item(self.trees[0], query, evidence, APPROX_FLAGS))
            self.refs.append(reference.chain_posteriors(net, evidence)[query])

    def _check(self, result, node: int, exact: np.ndarray) -> bool:
        """Relative error within the bound on states at or above eta, one
        evidence item retained, and nothing touched outside the radius."""
        session, (dist, bound, plan) = result
        if plan.radius != self.radius or len(plan.retained_evidence) != 1:
            return False
        mask = exact >= PROFILE.eta
        rel = np.abs(dist.probs[mask] - exact[mask]) / exact[mask]
        return bool(rel.max(initial=0.0) <= bound) and all(
            abs(n - node) <= self.radius for n in session.instr.touched
        )

    def round(self) -> list[Op]:
        ops = []
        for index, (item, exact) in enumerate(zip(self.items, self.refs)):
            tree, node, ev = item.tree, item.node, item.evidence
            for kind, verified in (("op1", False), ("op2", True)):

                def run(tree=tree, node=node, ev=ev, verified=verified):
                    session = QuerySession(tree)
                    return session, truncation.truncated_query(
                        session, node, ev, PROFILE, verified=verified
                    )

                ops.append(Op(kind, run, lambda result, node=node, exact=exact:
                              self._check(result, node, exact), item=index))
        return ops


# -- compiled networks ----------------------------------------------------

#: (label, states, parents); tables are drawn from the seed
LADDER = (
    ("a0", 3, ()), ("a1", 2, ("a0",)), ("a2", 2, ("a0",)), ("a3", 3, ("a1", "a2")),
    ("a4", 2, ("a3",)), ("a5", 2, ("a3", "a4")), ("a6", 3, ("a4",)), ("a7", 2, ("a6",)),
    ("a8", 2, ("a5", "a7")), ("a9", 2, ("a8",)), ("a10", 3, ("a9",)),
    ("a11", 2, ("a9", "a10")), ("a12", 2, ("a11",)), ("a13", 3, ("a8",)),
    ("a14", 2, ("a12", "a13")),
)
FORK = (
    ("m0", 2, ()), ("m1", 3, ()), ("m2", 2, ("m0", "m1")), ("m3", 3, ("m2",)),
    ("m4", 2, ("m2",)), ("m5", 2, ("m3", "m4")), ("m6", 2, ("m5",)), ("m7", 3, ("m6",)),
    ("m8", 2, ("m6",)), ("m9", 2, ("m7",)), ("m10", 2, ("m8",)), ("m11", 3, ("m1",)),
    ("m12", 2, ("m11",)), ("m13", 2, ("m11", "m12")), ("m14", 3, ("m13",)),
    ("m15", 2, ("m10",)),
)
SHAPES = {"ladder": LADDER, "fork": FORK}
#: per network: forced groups, then (query, evidence labels) of each item.
#: Asia evidence avoids x_B and x_C, on which the flood refuses evidence
#: the oracle accepts (see CHANGES.md).
COMPOUND_NETWORKS = {
    "asia": (
        ASIA_GROUPS,
        (("x_H", ("x_A", "x_D")), ("x_A", ("x_H", "x_F")),
         ("x_C", ("x_D", "x_G")), ("x_F", ("x_A", "x_D", "x_H"))),
    ),
    "ladder": (
        (("a6", "a7"),),
        (("a14", ("a0", "a4")), ("a0", ("a14", "a6")),
         ("a5", ("a1", "a12", "a7")), ("a2", ("a10",))),
    ),
    "fork": (
        (("m9", "m10"),),
        (("m15", ("m14", "m5")), ("m0", ("m10", "m7")),
         ("m6", ("m14", "m2", "m9")), ("m4", ("m0",))),
    ),
}


def shaped_network(shape, rng: np.random.Generator, name: str) -> BeliefNetwork:
    nodes = tuple((label, states) for label, states, _ in shape)
    card = dict(nodes)
    cpts = {
        label: generators.random_cpt(rng, states, int(np.prod([card[p] for p in parents])))
        for label, states, parents in shape
    }
    return BeliefNetwork(nodes, {l: p for l, _, p in shape}, cpts, name=name)


def asia_path(root: Path) -> Path:
    return root / "src" / "sensbn" / "fixtures" / "asia.net"


def _draw_evidence(rng, net: BeliefNetwork, labels) -> Evidence:
    return Evidence.of({l: int(rng.integers(0, net.card(l))) for l in labels})


class Compound(Workload):
    """Exact queries and floods on compiled networks with multi-parent
    families, forced groupings and edges of rank above one."""

    def __init__(self, seed: int, work: Path, root: Path):
        super().__init__(
            "compound",
            {"op1": "exact query (misq)", "op2": "instantiation flood (simq)"},
        )
        rng = np.random.default_rng([seed, 1])
        self.oracles = []
        for name, (groups, queries) in COMPOUND_NETWORKS.items():
            if name == "asia":
                path = asia_path(root)
                net = fileio.load_network(path)
            else:
                net_rng = np.random.default_rng([seed, 2, len(self.networks)])
                net = shaped_network(SHAPES[name], net_rng, name)
                path = work / f"{name}.net"
                fileio.save(path, fileio.serialize_network(net))
            self.networks.append((path, groups))
            self.oracles.append(reference.Oracle(net))
            self.trees.append(work / f"{name}.tree")
            self.items.extend(
                Item(self.trees[-1], q, _draw_evidence(rng, net, ev)) for q, ev in queries
            )

    def setup(self):
        per = len(self.items) // len(self.networks)
        for k, (path, groups) in enumerate(self.networks):
            tree, _report = compiler.compile_network(fileio.load_network(path), forced_groups=groups)
            for item in self.items[k * per : (k + 1) * per]:
                item.tree = tree

    def round(self) -> list[Op]:
        per = len(self.items) // len(self.networks)
        # the traced run parses the compiled trees
        for path, item in zip(self.trees, self.items[::per]):
            fileio.save(path, fileio.serialize_tree(item.tree))
        ops = []
        for index, item in enumerate(self.items):
            oracle = self.oracles[index // per]
            want = {c.ident: oracle.over_space(item.evidence, c.space) for c in item.tree.compounds}
            ops.append(exact_op(index, item, want[item.node]))
            ops.append(flood_op(index, item, want))
        return ops


# -- command line ---------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    """``sensbn.cli.main`` inside this process; returns what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise calibrate.ExitStatus(["sensbn", *argv], code, "")
    return out.getvalue()


class CliQuery(Workload):
    """``sensbn query`` on the compiled asia tree: as a process (op1), and
    as ``sensbn.cli.main`` inside a running interpreter (op2), which is
    the parsing, inference and printing that a process spends after its
    imports.  The items are those of asia in ``compound``; their engines
    alternate, starting with misq."""

    #: in-process repetitions per process, so op2 gets enough samples
    MAIN_REPS = 10

    def __init__(self, seed: int, work: Path, root: Path):
        super().__init__(
            "cli-query",
            {"op1": "`python -m sensbn query` process",
             "op2": "`sensbn.cli.main(['query', ...])` in process"},
            setup_process=True,
        )
        self.env = calibrate.child_env(root)
        net = fileio.load_network(asia_path(root))
        self.networks = [(asia_path(root), ASIA_GROUPS)]
        self.trees = [work / "asia.tree"]
        self.oracle = reference.Oracle(net)
        rng = np.random.default_rng([seed, 1])
        for k, (label, evidence) in enumerate(COMPOUND_NETWORKS["asia"][1]):
            engine = ("misq", "simq")[k % 2]
            self.items.append(Item(self.trees[0], label, _draw_evidence(rng, net, evidence),
                                   ("--engine", engine)))

    def _python_m(self, *args) -> list[str]:
        return [sys.executable, "-m", "sensbn", *map(str, args)]

    def setup(self):
        path, groups = self.networks[0]
        calibrate.run_child(
            self._python_m("compile", path, "--group", ",".join(groups[0]), "-o", self.trees[0]),
            self.env,
        )

    def round(self) -> list[Op]:
        # the traced run times the engine on the compiled tree in process
        tree = fileio.load_tree(self.trees[0])
        ops = []
        for index, item in enumerate(self.items):
            item.tree = tree
            want = self.oracle.member(item.evidence, item.label)

            def check(out, want=want):
                printed = reference.parse_printed_posterior(out)
                return reference.close(printed, want, reference.PRINTED_TOL)

            argv = item.query_argv()
            ops.append(Op("op1", lambda argv=argv: calibrate.run_child(self._python_m(*argv), self.env),
                          check, process=True, item=index))
            ops.extend(Op("op2", lambda argv=argv: run_cli(argv), check, item=index)
                       for _ in range(self.MAIN_REPS))
        return ops


WORKLOADS = ("chain-exact", "chain-truncated", "compound", "cli-query")


def make(name: str, seed: int, work: Path, root: Path) -> Workload:
    if name == "chain-exact":
        return ChainExact(seed, work)
    if name == "chain-truncated":
        return ChainTruncated(seed, work)
    if name == "compound":
        return Compound(seed, work, root)
    if name == "cli-query":
        return CliQuery(seed, work, root)
    raise ValueError(f"unknown workload {name!r}")
