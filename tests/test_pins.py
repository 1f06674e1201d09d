"""Byte-for-byte pins of session state on both kernels.

Each case runs a fixed sequence of queries, a committed multi-evidence
flood and the same queries again on one session, and hashes with SHA-256
every answer, ``p``, ``p0``, ``p1``, ``r``, the operation record and, with
``record_trace=True``, the trace.  The digests were taken before the tree
cached anything a session reads (numpy 2.4 on x86-64 with OpenBLAS 0.3;
another BLAS may round a product differently), so a cache must leave every
value, message and refusal as computing it afresh does, on a cold tree and
on one that earlier sessions warmed.  The same property is also checked in
process, byte for byte, against a session that reads no cache, so it is
checked on every build whether or not the digests hold there.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sensbn import compiler, engine, fileio, fixtures
from sensbn.engine import QuerySession
from sensbn.errors import SensBnError
from sensbn.generators import binary_chain_tree, random_evidence, random_tree_network
from sensbn.model import Evidence

DATA = Path(__file__).parent / "data"

ASIA_OPERATIONS = (
    [
        ("x_H", {"x_A": 1, "x_D": 1}),
        ("x_B", {"x_C": 1}),
        ("x_A", {"x_E": 0, "x_D": 0}),
        ("x_G", {}),
        ("x_C", {"x_C": 1, "x_G": 0}),
        ("x_D", {"x_F": 0}),
    ],
    {"x_F": 1, "x_H": 0},
)

CHAIN_OPERATIONS = (
    [
        ("v150", {"v144": 1, "v157": 0}),
        ("v100", {"v95": 0, "v108": 1, "v299": 1}),
        ("v0", {"v6": 1}),
        ("v299", {"v290": 0, "v100": 1}),
        ("v120", {"v120": 1, "v121": 0}),
        ("v60", {"v50": 0}),
    ],
    {"v50": 1, "v104": 1, "v147": 0, "v294": 1},
)


def random_operations(net, seed):
    """Four queries of random nodes on 1-4 random evidence members, three
    other members for the flood, and a query that the flood refutes."""
    rng = np.random.default_rng(seed)
    labels = list(net.labels)
    queries = [
        (labels[int(rng.integers(len(labels)))], random_evidence(rng, net, k).as_dict())
        for k in (1, 2, 3, 4)
    ]
    used = {label for query in queries for label in (query[0], *query[1])}
    free = [label for label in labels if label not in used]
    flood = {str(label): int(rng.integers(net.card(label))) for label in rng.choice(free, 3)}
    # answered before the flood, refused after it
    first = next(iter(flood))
    queries.append((queries[0][0], {first: (flood[first] + 1) % net.card(first)}))
    return queries, flood


def asia_compiled():
    net = fixtures.asia_network()
    tree, _ = compiler.compile_network(net, forced_groups=(("x_C", "x_E", "x_G"),))
    return tree, ASIA_OPERATIONS


def asia_grouped():
    return fileio.load_tree(DATA / "asia_grouped.tree"), ASIA_OPERATIONS


def ternary_random():
    net = random_tree_network(np.random.default_rng(3), 200, max_states=3)
    tree, _ = compiler.compile_network(net)
    return tree, random_operations(net, 11)


def chain():
    return binary_chain_tree(np.random.default_rng(5), 300), CHAIN_OPERATIONS


def binary_random():
    net = random_tree_network(np.random.default_rng(4), 400)
    tree, _ = compiler.compile_network(net)
    assert tree.scalars is not None
    return tree, random_operations(net, 12)


TREES = {
    "asia-compiled": asia_compiled,
    "asia-grouped": asia_grouped,
    "ternary-random": ternary_random,
    "chain": chain,
    "binary-random": binary_random,
}


def absorb(digest, session, answer):
    """Feed one operation's outcome and the session's state to ``digest``."""
    add = lambda arr: digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    if isinstance(answer, str):
        digest.update(answer.encode())
    elif answer is not None:
        add(answer)
    for ident in range(session.tree.node_count):
        add(session.p[ident])
        add(session.p0[ident])
    for ident in sorted(session.p1):
        digest.update(str(ident).encode())
        add(session.p1[ident])
    for key in session.r:
        add(session.r[key])
    digest.update(repr((session.instr.log, session.instr.roots)).encode())
    for event, node, probs in session.trace:
        digest.update(f"{event} {node}".encode())
        add(probs)


def fingerprint(session, operations) -> str:
    """The SHA-256 of the queries, the committed flood and the queries
    again, each with the session's state after it."""
    queries, flood = operations
    tree = session.tree
    digest = hashlib.sha256()
    steps = [*queries, (None, flood), *queries]
    for label, evidence in steps:
        try:
            if label is None:
                session.multi_evidence_simq(Evidence.of(evidence))
                answer = None
            else:
                node = tree.resolve_query(label)[0]
                answer = session.query(node, Evidence.of(evidence)).probs
        except SensBnError as exc:
            answer = f"{type(exc).__name__}: {exc}"
        absorb(digest, session, answer)
    return digest.hexdigest()


def session_on(monkeypatch, tree, kernel, trace):
    with monkeypatch.context() as patch:
        if kernel == "array":
            patch.setattr(engine, "_choose_kernel", lambda tree: engine._ArrayKernel)
        session = QuerySession(tree, record_trace=trace)
    assert (session._kernel is engine._ArrayKernel) == (kernel == "array")
    return session


#: (record_trace off, record_trace on) digest of every case
PINS = {
    ("asia-compiled", "array"): (
        "e61fa01dd24c8ee2cc8e5370386f08e2c48765e3ae2a12c8e766edf5858ea8fe",
        "08068651272a2a1cfa48c2a582dffec14f1e4f5b32a717509e30e9d04fd0adf3",
    ),
    ("asia-grouped", "array"): (
        "5bcceb22e2b13978bc5b9b2e582844c9d10dd15afd19fb4dfb610559749bd8d6",
        "43cd027e07f65a3ab54fe178ee3ec79926cc63d9e930209bcfdba46d8d11feb6",
    ),
    ("ternary-random", "array"): (
        "cd1bf0287729e698996ef0ba441f14ce0aeddb2309b78ad2f87f9d7edf05aa59",
        "6b305e27b97d8d208dd0d8733f0ff1e1d143bd4847162f00a541ca1f8390a91e",
    ),
    ("chain", "float"): (
        "cd8d70754a2e958d0b36f8137c727b6e42bfe6f36bd2bcff14cd2afc148a18fd",
        "b8c74708cb6a734472c808ace7796babfafdae52af853cbfcb6a1468260f61cf",
    ),
    ("chain", "array"): (
        "0d9beb7a5003238254b341484b8b374c70116d08f6ed394fabb27eb8df551953",
        "2da0fdf97a3f8327348455ea060ffa06a7df2d71c95ba4d094f2b6ede634826c",
    ),
    ("binary-random", "float"): (
        "c64018cbc22ebf03c122524faa68e28b70324840b9e322654e637a443bf12ee7",
        "06e822acb453d3d1e5141053b814b74a073c4b13c58110f13437ebbe5e7c6893",
    ),
    ("binary-random", "array"): (
        "52f8cf1b2efb46ca5b66d17dfc1aaf13d638c62307cd9f46d6cf96a44c79c5fc",
        "c2fcfb55a53350b5ac61109037fddf1937554c2370691932bbeccf6611f1992d",
    ),
}


@pytest.mark.parametrize("name,kernel", list(PINS))
def test_state_is_pinned_on_cold_and_warmed_trees(monkeypatch, name, kernel):
    tree, operations = TREES[name]()
    for _ in range(2):  # a cold tree, then the same tree warmed by three sessions
        for trace in (False, True):
            session = session_on(monkeypatch, tree, kernel, trace)
            assert fingerprint(session, operations) == PINS[name, kernel][trace]


@pytest.mark.parametrize("name,kernel", list(PINS))
def test_caches_change_no_byte_on_this_build(monkeypatch, name, kernel):
    """The pins' property checked against this build's own arithmetic, so
    it holds whatever BLAS rounds the products: a session on a cold tree,
    one on the tree it warmed and one that reads neither
    ``TreeNetwork.weighted_factors`` nor ``BinaryScalars.transfer`` give
    the same fingerprint."""
    for trace in (False, True):
        tree, operations = TREES[name]()
        cold = fingerprint(session_on(monkeypatch, tree, kernel, trace), operations)
        warmed = fingerprint(session_on(monkeypatch, tree, kernel, trace), operations)
        with monkeypatch.context() as patch:
            patch.setattr(QuerySession, "_on_tree", lambda self: False)
            free = fingerprint(session_on(monkeypatch, tree, kernel, trace), operations)
        assert cold == warmed == free
