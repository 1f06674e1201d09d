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
    edge <name_i> <name_j> rank <r>  # once per edge, in either direction
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
from .errors import ParseError, SensBnError
from .model import (
    BeliefNetwork,
    Distribution,
    NodeColumns,
    TreeNetwork,
    normalized_rows,
    space_cardinality,
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


def _read(path: Path) -> str:
    """The text of an input file; one that cannot be read or decoded
    is a :class:`ParseError` naming the file."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read the file: {reason}", str(path)) from exc


def load_network(path) -> BeliefNetwork:
    path = Path(path)
    return parse_network(_read(path), path=str(path))


def parse_tree(text: str, path=None) -> TreeNetwork:
    """Load a tree file into columns, without one object per node.

    One pass over the lines collects flat lists: compound names, member
    labels and their offsets, cards and pruned states where a line gives
    them, prior numbers in one list per number of states, and factor
    rows in one list per (n_i, n_j, rank) edge shape.  The priors are
    then checked and normalised one stack per size, and
    :func:`compiler.accept_batches` derives and checks the factors.

    Errors are raised in file order: a prior that
    :meth:`Distribution.normalized` refuses or a token that is not a
    number raises before any error of a later line, and errors that need
    the whole file (missing priors, then row widths, then the tree's
    structure) come after.
    """
    nodes, edges, batches, name = _tree_columns(text, path)
    return compiler.accept_batches(nodes, edges, batches, name=name)


def _tree_columns(text: str, path):
    """The columns of a tree file: (nodes, edges, edge batches, name)."""
    name = "tree"
    names: list[str] = []
    index: dict[str, int] = {}
    members: list[str] = []
    member_start = [0]
    cards: dict[int, tuple[int, ...]] = {}
    pruned: dict[int, tuple[int, ...]] = {}
    size: list[int] = []
    # node -> its row among the prior rows of its size (-1: no prior yet);
    # size -> (numbers, line of each row)
    prior_at: list[int] = []
    prior_rows: dict[int, tuple[list[float], list[int]]] = {}
    edges: list[tuple[int, int]] = []
    # shape -> (edge positions, q numbers, r numbers), each a flat list
    groups: dict[tuple[int, int, int], tuple[list[int], list[float], list[float]]] = {}
    bad_width: ParseError | None = None
    # the open edge block: (i, j, rank, line), its rows so far, the lists
    # its numbers go to, and (tag, length) of each row of a wrong width
    block = None
    q_count = r_count = q_width = r_width = 0
    q_out = r_out = wrong = None

    def close_block():
        nonlocal block, bad_width
        i, j, rank, at = block
        block = None
        if q_count != rank or r_count != rank:
            raise ParseError(f"edge block needs {rank} q rows and {rank} r rows", path, at)
        if wrong and bad_width is None:
            # q rows are checked before r rows
            tag, length = min(wrong, key=lambda row: row[0] == "r")
            bad_width = ParseError(
                f"edge {names[i]} {names[j]}: {tag} row has {length} values, "
                f"expected {q_width if tag == 'q' else r_width}",
                path,
                at,
            )

    try:
        for line, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            key = tokens[0]
            if key == "q" or key == "r":
                if block is None:
                    raise ParseError("factor row outside an edge block", path, line)
                values = _nums(tokens[1:], path, line)
                if len(values) != (q_width if key == "q" else r_width):
                    wrong = (wrong or []) + [(key, len(values))]
                if key == "q":
                    q_count += 1
                    q_out.extend(values)
                else:
                    r_count += 1
                    r_out.extend(values)
            elif key == "edge":
                if block is not None:
                    close_block()
                if len(tokens) != 5 or tokens[3] != "rank":
                    raise ParseError(
                        "edge line needs: edge <name_i> <name_j> rank <r>", path, line
                    )
                i = index.get(tokens[1])
                j = index.get(tokens[2])
                if i is None or j is None:
                    cname = tokens[1] if i is None else tokens[2]
                    raise ParseError(f"edge names unknown compound {cname!r}", path, line)
                rank = int(tokens[4])
                q_width, r_width = size[i], size[j]
                shape = (q_width, r_width, rank)
                group = groups.get(shape)
                if group is None:
                    group = groups[shape] = ([], [], [])
                positions, q_out, r_out = group
                positions.append(len(edges))
                edges.append((i, j))
                block = (i, j, rank, line)
                q_count = r_count = 0
                wrong = None
            elif key == "prior":
                if block is not None:
                    close_block()
                if len(tokens) < 3 or tokens[1] not in index:
                    raise ParseError("prior line needs a declared compound name", path, line)
                ident = index[tokens[1]]
                values = _nums(tokens[2:], path, line)
                k = size[ident]
                if len(values) != k:
                    raise ParseError(
                        f"prior for {tokens[1]} has {len(values)} values, expected {k}",
                        path,
                        line,
                    )
                rows = prior_rows.get(k)
                if rows is None:
                    rows = prior_rows[k] = ([], [])
                numbers, lines = rows
                prior_at[ident] = len(lines)
                lines.append(line)
                numbers.extend(values)
            elif key == "compound":
                if block is not None:
                    close_block()
                if len(tokens) < 4 or tokens[2] != "members":
                    raise ParseError(
                        "compound line needs: compound <name> members <label...>", path, line
                    )
                cname, listed = tokens[1], tokens[3:]
                given: dict[str, list[int]] = {}
                if "cards" in listed or "pruned" in listed:
                    labels: list[str] = []
                    bucket = None
                    for tok in listed:
                        if tok in ("cards", "pruned"):
                            bucket = given.setdefault(tok, [])
                        elif bucket is None:
                            labels.append(tok)
                        else:
                            bucket.append(int(tok))
                    listed = labels
                if cname in index:
                    raise ParseError(f"duplicate compound {cname!r}", path, line)
                ident = len(names)
                given_cards, given_pruned = given.get("cards"), given.get("pruned")
                if given_cards or given_pruned:
                    k = space_cardinality(
                        listed, given_cards or [2] * len(listed), given_pruned or ()
                    )
                    if given_cards:
                        cards[ident] = tuple(given_cards)
                    if given_pruned:
                        pruned[ident] = tuple(given_pruned)
                else:
                    # binary members, nothing pruned
                    k = 1 << len(listed)
                index[cname] = ident
                names.append(cname)
                members.extend(listed)
                member_start.append(len(members))
                size.append(k)
                prior_at.append(-1)
            elif key == "tree":
                if block is not None:
                    close_block()
                name = tokens[1] if len(tokens) > 1 else name
            else:
                raise ParseError(f"unknown directive {key!r}", path, line)
        if block is not None:
            close_block()
    except (SensBnError, ValueError) as exc:
        error = exc
    else:
        error = None
    # a prior refused on an earlier line raises before the error, if any
    priors = _prior_stacks(prior_rows)
    if error is not None:
        raise error
    missing = [c for c, at in zip(names, prior_at) if at < 0]
    if missing:
        raise ParseError(f"compounds without a prior: {missing}", path)
    if bad_width is not None:
        raise bad_width
    batches = [
        compiler.EdgeBatch(
            positions,
            np.array(qs).reshape(len(positions), rank, n_i),
            np.array(rs).reshape(len(positions), rank, n_j),
        )
        for (n_i, n_j, rank), (positions, qs, rs) in groups.items()
    ]
    nodes = NodeColumns(
        names, members, member_start, cards, pruned, size, priors,
        np.array(prior_at, dtype=np.intp),
    )
    return nodes, edges, batches, name


def _prior_stacks(rows: dict[int, tuple[list[float], list[int]]]) -> dict[int, np.ndarray]:
    """The prior rows of each size normalised as one stack.

    Rows that :meth:`Distribution.normalized` refuses are passed to it in
    file order, so the first of them raises that method's own error.
    """
    stacks: dict[int, np.ndarray] = {}
    refused: list[tuple[int, np.ndarray]] = []
    for k, (numbers, lines) in rows.items():
        raw = np.array(numbers).reshape(len(lines), k)
        probs, bad = normalized_rows(raw)
        refused.extend((lines[r], raw[r]) for r in np.flatnonzero(bad).tolist())
        stacks[k] = probs
    for _, row in sorted(refused, key=lambda item: item[0]):
        Distribution.normalized(row)
    return stacks


def serialize_tree(tree: TreeNetwork) -> str:
    """The tree file of ``tree``, written from its columns: no node
    object is built, and the q rows come from :func:`compiler.factor_pairs`."""
    nodes = tree.node_columns
    names = nodes.names
    out = [_ORDER_NOTE, f"tree {tree.name}"]
    for i, cname in enumerate(names):
        members = nodes.members[nodes.member_start[i] : nodes.member_start[i + 1]]
        line = f"compound {cname} members {' '.join(members)}"
        # as StateSpace keeps them: cards only if not all binary, pruned sorted
        cards = nodes.cards.get(i, ())
        if any(c != 2 for c in cards):
            line += " cards " + " ".join(map(str, cards))
        if i in nodes.pruned:
            line += " pruned " + " ".join(map(str, sorted(nodes.pruned[i])))
        out.append(line)
    for i, cname in enumerate(names):
        out.append(f"prior {cname} " + " ".join(map(repr, nodes.prior(i).tolist())))
    for (i, j), pair in compiler.factor_pairs(tree).items():
        out.append(f"edge {names[i]} {names[j]} rank {pair.rank}")
        for row in pair.q.tolist():
            out.append("q " + " ".join(map(repr, row)))
        for row in pair.r_mat.tolist():
            out.append("r " + " ".join(map(repr, row)))
    return "\n".join(out) + "\n"


def load_tree(path) -> TreeNetwork:
    path = Path(path)
    return parse_tree(_read(path), path=str(path))


def save(path, text: str) -> None:
    Path(path).write_text(text)
