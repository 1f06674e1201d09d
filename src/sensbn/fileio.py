"""Line-oriented text formats for networks and compiled trees.

Both formats are token-per-line with ``#`` comments, explicit dimension
headers, and the state-enumeration rule fixed by the data model (see
model module docstring), so fixture files can be reviewed by eye.

Network format::

    network <name>
    node <label> <n_states>
    parents <child> <parent> [<parent> ...]
    cpt <child> dims <rows> <cols>
    <row of cols floats>          # one line per child state

Tree format::

    tree <name>
    compound <name> members <label> [...] [cards <k> [...]] [pruned <i> [...]]
    prior <name> <float...>       # one value per retained state
    edge <name_i> <name_j> rank <r>
    q <float...>                  # r rows, |X_i| values each
    r <float...>                  # r rows, |X_j| values each

Number tokens may carry a ``/rt2`` suffix (divide by sqrt(2)) so that
published factor tables can be entered verbatim.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import compiler
from .errors import ParseError
from .model import (
    BeliefNetwork,
    Distribution,
    StateSpace,
    TreeNetwork,
)

_RT2 = math.sqrt(2.0)


def _num(token: str, path, line) -> float:
    text = token
    scale = 1.0
    if text.endswith("/rt2"):
        text = text[: -len("/rt2")]
        scale = _RT2
    try:
        return float(text) / scale
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", path, line) from None


def _nums(tokens: list[str], path, line) -> list[float]:
    """The numbers of a row of tokens; plain tokens take one ``float`` each."""
    try:
        return list(map(float, tokens))
    except ValueError:  # a /rt2 suffix, or not a number
        return [_num(t, path, line) for t in tokens]


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield i, stripped.split()


def parse_network(text: str, path=None) -> BeliefNetwork:
    nodes: list[tuple[str, int]] = []
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, np.ndarray] = {}
    name = "network"
    pending: tuple[str, int, int, list[list[float]], int] | None = None

    def flush(line):
        nonlocal pending
        if pending is None:
            return
        label, rows, cols, data, at = pending
        if len(data) != rows:
            raise ParseError(
                f"cpt {label}: expected {rows} rows, got {len(data)}", path, at
            )
        cpts[label] = np.array(data)
        pending = None

    for line, tokens in _lines(text):
        key = tokens[0]
        if pending is not None and key not in ("network", "node", "parents", "cpt"):
            label, rows, cols, data, at = pending
            values = _nums(tokens, path, line)
            if len(values) != cols:
                raise ParseError(
                    f"cpt {label}: row has {len(values)} values, expected {cols}",
                    path,
                    line,
                )
            data.append(values)
            if len(data) == rows:
                flush(line)
            continue
        flush(line)
        if key == "network":
            name = tokens[1] if len(tokens) > 1 else name
        elif key == "node":
            if len(tokens) != 3:
                raise ParseError("node line needs: node <label> <n_states>", path, line)
            try:
                card = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad state count {tokens[2]!r}", path, line) from None
            nodes.append((tokens[1], card))
        elif key == "parents":
            if len(tokens) < 2:
                raise ParseError("parents line needs a child label", path, line)
            parents[tokens[1]] = tuple(tokens[2:])
        elif key == "cpt":
            if len(tokens) != 5 or tokens[2] != "dims":
                raise ParseError("cpt line needs: cpt <child> dims <rows> <cols>", path, line)
            try:
                rows, cols = int(tokens[3]), int(tokens[4])
            except ValueError:
                raise ParseError("cpt dims must be integers", path, line) from None
            pending = (tokens[1], rows, cols, [], line)
        else:
            raise ParseError(f"unknown directive {key!r}", path, line)
    flush(None)
    declared = {l for l, _ in nodes}
    for label in list(parents) + list(cpts):
        if label not in declared:
            raise ParseError(f"table or parents for undeclared node {label!r}", path)
    missing = [l for l in declared if l not in cpts]
    if missing:
        raise ParseError(f"nodes without a cpt: {sorted(missing)}", path)
    return BeliefNetwork(tuple(nodes), parents, cpts, name=name)


_ORDER_NOTE = (
    "# state and column enumeration: last listed member/parent varies fastest"
)


def serialize_network(net: BeliefNetwork) -> str:
    out = [_ORDER_NOTE, f"network {net.name}"]
    for label, card in net.nodes:
        out.append(f"node {label} {card}")
    for label, _ in net.nodes:
        if net.parents[label]:
            out.append(f"parents {label} {' '.join(net.parents[label])}")
    for label, _ in net.nodes:
        table = net.cpts[label]
        out.append(f"cpt {label} dims {table.shape[0]} {table.shape[1]}")
        for row in table:
            out.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def load_network(path) -> BeliefNetwork:
    path = Path(path)
    return parse_network(path.read_text(), path=str(path))


def parse_tree(text: str, path=None) -> TreeNetwork:
    name = "tree"
    comp_names: list[str] = []
    spaces: dict[str, StateSpace] = {}
    priors: dict[str, Distribution] = {}
    edges: list[tuple[str, str, int, int]] = []  # (name_i, name_j, rank, line)
    matrix_rows: list[list[list[float]]] = []  # per edge: [q rows, r rows]
    current_edge = None  # (rank, q_rows, r_rows, line)

    def flush_edge(line):
        nonlocal current_edge
        if current_edge is None:
            return
        rank, q_rows, r_rows, at = current_edge
        if len(q_rows) != rank or len(r_rows) != rank:
            raise ParseError(
                f"edge block needs {rank} q rows and {rank} r rows", path, at
            )
        matrix_rows.append([q_rows, r_rows])
        current_edge = None

    for line, tokens in _lines(text):
        key = tokens[0]
        if key == "tree":
            flush_edge(line)
            name = tokens[1] if len(tokens) > 1 else name
        elif key == "compound":
            flush_edge(line)
            if len(tokens) < 4 or tokens[2] != "members":
                raise ParseError(
                    "compound line needs: compound <name> members <label...>", path, line
                )
            cname = tokens[1]
            rest = tokens[3:]
            members: list[str] = []
            cards: list[int] = []
            pruned: list[int] = []
            bucket = "members"
            for tok in rest:
                if tok in ("cards", "pruned"):
                    bucket = tok
                elif bucket == "members":
                    members.append(tok)
                elif bucket == "cards":
                    cards.append(int(tok))
                else:
                    pruned.append(int(tok))
            if not cards:
                cards = [2] * len(members)
            if cname in spaces:
                raise ParseError(f"duplicate compound {cname!r}", path, line)
            spaces[cname] = StateSpace(tuple(members), tuple(cards), tuple(pruned))
            comp_names.append(cname)
        elif key == "prior":
            flush_edge(line)
            if len(tokens) < 3 or tokens[1] not in spaces:
                raise ParseError("prior line needs a declared compound name", path, line)
            values = _nums(tokens[2:], path, line)
            if len(values) != spaces[tokens[1]].cardinality:
                raise ParseError(
                    f"prior for {tokens[1]} has {len(values)} values, expected "
                    f"{spaces[tokens[1]].cardinality}",
                    path,
                    line,
                )
            priors[tokens[1]] = Distribution.normalized(values)
        elif key == "edge":
            flush_edge(line)
            if len(tokens) != 5 or tokens[3] != "rank":
                raise ParseError(
                    "edge line needs: edge <name_i> <name_j> rank <r>", path, line
                )
            for cname in tokens[1:3]:
                if cname not in spaces:
                    raise ParseError(f"edge names unknown compound {cname!r}", path, line)
            rank = int(tokens[4])
            edges.append((tokens[1], tokens[2], rank, line))
            current_edge = (rank, [], [], line)
        elif key in ("q", "r"):
            if current_edge is None:
                raise ParseError("factor row outside an edge block", path, line)
            rank, q_rows, r_rows, at = current_edge
            values = _nums(tokens[1:], path, line)
            (q_rows if key == "q" else r_rows).append(values)
        else:
            raise ParseError(f"unknown directive {key!r}", path, line)
    flush_edge(None)

    if len(matrix_rows) != len(edges):
        raise ParseError("incomplete edge block at end of file", path)
    missing = [c for c in comp_names if c not in priors]
    if missing:
        raise ParseError(f"compounds without a prior: {missing}", path)
    index = {c: i for i, c in enumerate(comp_names)}
    # the last block of a repeated edge wins, at the place of its first
    blocks: dict[tuple[int, int], tuple[int, int, int, list, list]] = {}
    for (ni, nj, rank, at), (q_rows, r_rows) in zip(edges, matrix_rows):
        n_i = spaces[ni].cardinality
        n_j = spaces[nj].cardinality
        for rows, width, tag in ((q_rows, n_i, "q"), (r_rows, n_j, "r")):
            for row in rows:
                if len(row) != width:
                    raise ParseError(
                        f"edge {ni} {nj}: {tag} row has {len(row)} values, expected {width}",
                        path,
                        at,
                    )
        blocks[(index[ni], index[nj])] = (n_i, n_j, rank, q_rows, r_rows)
    # numbers go straight into one flat list per edge shape
    grouped: dict[tuple[int, int, int], tuple[list[int], list[float], list[float]]] = {}
    for pos, (n_i, n_j, rank, q_rows, r_rows) in enumerate(blocks.values()):
        positions, qs, rs = grouped.setdefault((n_i, n_j, rank), ([], [], []))
        positions.append(pos)
        for row in q_rows:
            qs.extend(row)
        for row in r_rows:
            rs.extend(row)
    batches = [
        compiler.EdgeBatch(
            tuple(positions),
            np.array(qs).reshape(len(positions), rank, n_i),
            np.array(rs).reshape(len(positions), rank, n_j),
        )
        for (n_i, n_j, rank), (positions, qs, rs) in grouped.items()
    ]
    return compiler.accept_batches(
        [spaces[c] for c in comp_names],
        [priors[c] for c in comp_names],
        list(blocks),
        batches,
        names=comp_names,
        name=name,
    )


def serialize_tree(tree: TreeNetwork) -> str:
    out = [_ORDER_NOTE, f"tree {tree.name}"]
    for comp in tree.compounds:
        line = f"compound {comp.name} members {' '.join(comp.space.members)}"
        if any(c != 2 for c in comp.space.cards):
            line += " cards " + " ".join(map(str, comp.space.cards))
        if comp.space.pruned:
            line += " pruned " + " ".join(map(str, comp.space.pruned))
        out.append(line)
    for comp in tree.compounds:
        out.append(
            f"prior {comp.name} " + " ".join(repr(float(v)) for v in comp.prior.probs)
        )
    for i, j in tree.edges:
        rank = tree.rank(i, j)
        r_ij = tree.r_factors[(i, j)]
        r_ji = tree.r_factors[(j, i)]
        q_ij = r_ji @ _weight(tree, i)
        out.append(
            f"edge {tree.compound(i).name} {tree.compound(j).name} rank {rank}"
        )
        for row in q_ij:
            out.append("q " + " ".join(repr(float(v)) for v in row))
        for row in r_ij:
            out.append("r " + " ".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def _weight(tree: TreeNetwork, ident: int) -> np.ndarray:
    from . import algebra

    return algebra.weight_matrix(tree.compound(ident).prior.probs)


def load_tree(path) -> TreeNetwork:
    path = Path(path)
    return parse_tree(path.read_text(), path=str(path))


def save(path, text: str) -> None:
    Path(path).write_text(text)
