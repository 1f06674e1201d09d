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
published factor tables can be entered verbatim.  :func:`load_tree` reads
a tree file line by line, converting each line as it comes.
"""

from __future__ import annotations

import io
import math
from array import array
from pathlib import Path

import numpy as np

from . import accept
from .errors import ParseError, SensBnError
from .model import BeliefNetwork, NodeColumns, TreeNetwork, normalized_stacks, space_cardinality

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
    # the label and line of every parents and cpt directive, in file order
    named: list[tuple[str, int]] = []
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
            named.append((tokens[1], line))
        elif key == "cpt":
            if len(tokens) != 5 or tokens[2] != "dims":
                raise ParseError("cpt line needs: cpt <child> dims <rows> <cols>", path, line)
            try:
                rows, cols = int(tokens[3]), int(tokens[4])
            except ValueError:
                raise ParseError("cpt dims must be integers", path, line) from None
            pending = (tokens[1], rows, cols, [], line)
            named.append((tokens[1], line))
        else:
            raise ParseError(f"unknown directive {key!r}", path, line)
    flush(None)
    declared = {l for l, _ in nodes}
    for label, at in named:
        if label not in declared:
            raise ParseError(f"table or parents for undeclared node {label!r}", path, at)
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


def _unreadable(path: Path, exc: Exception) -> ParseError:
    """The error of an input file that cannot be read or decoded."""
    reason = getattr(exc, "strerror", None) or exc
    return ParseError(f"cannot read the file: {reason}", str(path))


def _read(path: Path) -> str:
    """The text of an input file; one that cannot be read or decoded
    is a :class:`ParseError` naming the file."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc


def load_network(path) -> BeliefNetwork:
    path = Path(path)
    return parse_network(_read(path), path=str(path))


def parse_tree(text: str, path=None) -> TreeNetwork:
    """Load a tree file into columns, without one object per node.

    One pass over the lines (ended by ``\\n``, ``\\r\\n`` or ``\\r``) converts
    each line as it comes into flat columns: names, member labels and
    their offsets, cards and pruned states where a line gives them, the
    edge ends in one ``array('q')``, and the numbers, prior rows in one
    ``array('d')`` per number of states and factor rows in one per
    (n_i, n_j, rank) edge shape.  The dict of names the loop looks edges up
    in becomes ``NodeColumns.index``.  The priors are
    normalised one stack per size and :func:`accept.accept_batches`
    derives and checks the factors, each reading the buffers through
    ``np.frombuffer``; no array of the tree keeps a buffer.

    Errors are raised in file order: a prior that
    :meth:`Distribution.normalized` refuses or a token that is not a
    number raises before any error of a later line, and errors that need
    the whole file (missing priors, then row widths, then the tree's
    structure) come after.
    """
    return accept.accept_batches(*_parse_lines(io.StringIO(text, newline=None), path))


def _parse_lines(lines, path):
    """The columns (nodes, ends, batches, name) that :func:`parse_tree`
    accepts, from the iterator ``lines``.  After an error the rest of
    ``lines`` is read, so that a line that cannot be read or decoded
    raises its own error, whatever the lines before it hold."""
    name = "tree"
    index: dict[str, int] = {}
    members: list[str] = []
    member_start = [0]
    cards: dict[int, tuple[int, ...]] = {}
    pruned: dict[int, tuple[int, ...]] = {}
    size: list[int] = []
    # node -> its row among the prior rows of its size (-1: no prior yet);
    # size -> (numbers, line of each row)
    prior_at = array("q")
    prior_rows: dict[int, tuple[array, array]] = {}
    # the ends of every edge, two numbers per edge
    ends = array("q")
    # shape -> (edge positions, q numbers, r numbers)
    groups: dict[tuple[int, int, int], tuple[array, array, array]] = {}
    bad_width: ParseError | None = None
    # the open edge block (name_i, name_j, line), its rank, rows so far, the
    # buffers and row widths of its q and r rows, and (tag, length, width) of
    # its rows of a wrong width; the next directive or the file's end closes it
    block = None
    rank, q_count, r_count, q_width, r_width = 0, 0, 0, -1, -1
    q_out = r_out = wrong = None
    try:
        for line, raw in enumerate(lines, start=1):
            if "#" in raw:
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            key = tokens[0]
            if key == "q" or key == "r":
                if key == "q":
                    out, width = q_out, q_width
                    q_count += 1
                else:
                    out, width = r_out, r_width
                    r_count += 1
                if len(tokens) != width + 1:
                    # no block is open while the widths are -1
                    if block is None:
                        raise ParseError("factor row outside an edge block", path, line)
                    wrong = (wrong or []) + [(key, len(tokens) - 1, width)]
                del tokens[0]
                try:
                    out.fromlist(list(map(float, tokens)))
                except ValueError:  # a /rt2 suffix, or not a number
                    out.fromlist([_num(t, path, line) for t in tokens])
                continue
            if block is not None and key in ("edge", "prior", "compound", "tree"):
                if q_count != rank or r_count != rank or wrong:
                    bad_width = _closed_block(block, rank, q_count, r_count, wrong, bad_width, path)
                block, q_width, r_width = None, -1, -1
            if key == "edge":
                if len(tokens) != 5 or tokens[3] != "rank":
                    raise ParseError("edge line needs: edge <name_i> <name_j> rank <r>", path, line)
                i = index.get(tokens[1])
                j = index.get(tokens[2])
                if i is None or j is None:
                    cname = tokens[1] if i is None else tokens[2]
                    raise ParseError(f"edge names unknown compound {cname!r}", path, line)
                rank = int(tokens[4])
                q_width = size[i]
                r_width = size[j]
                group = groups.get((q_width, r_width, rank))
                if group is None:
                    group = groups[q_width, r_width, rank] = (array("q"), array("d"), array("d"))
                positions, q_out, r_out = group
                positions.append(len(ends) >> 1)
                ends.append(i)
                ends.append(j)
                block = (tokens[1], tokens[2], line)
                q_count = r_count = 0
                wrong = None
            elif key == "prior":
                ident = index.get(tokens[1]) if len(tokens) > 2 else None
                if ident is None:
                    raise ParseError("prior line needs a declared compound name", path, line)
                try:
                    values = list(map(float, tokens[2:]))
                except ValueError:
                    values = [_num(t, path, line) for t in tokens[2:]]
                k = size[ident]
                if len(values) != k:
                    raise ParseError(
                        f"prior for {tokens[1]} has {len(values)} values, expected {k}", path, line
                    )
                rows = prior_rows.get(k)
                if rows is None:
                    rows = prior_rows[k] = (array("d"), array("q"))
                prior_at[ident] = len(rows[1])
                rows[1].append(line)
                rows[0].fromlist(values)
            elif key == "compound":
                if len(tokens) < 4 or tokens[2] != "members":
                    raise ParseError(
                        "compound line needs: compound <name> members <label...>", path, line
                    )
                cname, listed = tokens[1], tokens[3:]
                if "cards" in listed or "pruned" in listed:
                    listed, k = _stated_space(cname, listed, index, cards, pruned, path, line)
                elif cname in index:
                    raise ParseError(f"duplicate compound {cname!r}", path, line)
                else:
                    # binary members, nothing pruned
                    k = 1 << len(listed)
                index[cname] = len(size)
                members += listed
                member_start.append(len(members))
                size.append(k)
                prior_at.append(-1)
            elif key == "tree":
                name = tokens[1] if len(tokens) > 1 else name
            else:
                raise ParseError(f"unknown directive {key!r}", path, line)
        if block is not None and (q_count != rank or r_count != rank or wrong):
            bad_width = _closed_block(block, rank, q_count, r_count, wrong, bad_width, path)
    except (SensBnError, ValueError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            raise
        error = exc
        for _ in lines:
            pass
    else:
        error = None
    # a prior refused on an earlier line raises before the error, if any
    priors = normalized_stacks(
        {k: (np.frombuffer(nums).reshape(len(at), k), at) for k, (nums, at) in prior_rows.items()}
    )
    if error is not None:
        raise error
    names = list(index)
    prior_row = np.array(prior_at, dtype=np.intp)
    missing = np.flatnonzero(prior_row < 0).tolist()
    if missing:
        raise ParseError(f"compounds without a prior: {[names[i] for i in missing]}", path)
    if bad_width is not None:
        raise bad_width
    batches = [
        accept.EdgeBatch(
            positions,
            np.frombuffer(qs).reshape(len(positions), rank, n_i),
            np.frombuffer(rs).reshape(len(positions), rank, n_j),
        )
        for (n_i, n_j, rank), (positions, qs, rs) in groups.items()
    ]
    nodes = NodeColumns(names, members, member_start, cards, pruned, size, priors, prior_row, index)
    return nodes, np.array(ends, np.intp).reshape(-1, 2), batches, name


def _closed_block(block, rank, q_count, r_count, wrong, bad_width, path):
    """The first row-width error of the file once the edge block ``block``
    closes: ``bad_width`` if one is already known.  Raises at once if the
    block lacks q or r rows."""
    name_i, name_j, at = block
    if q_count != rank or r_count != rank:
        raise ParseError(f"edge block needs {rank} q rows and {rank} r rows", path, at)
    # q rows are checked before r rows
    tag, length, width = min(wrong, key=lambda row: row[0] == "r")
    return bad_width or ParseError(
        f"edge {name_i} {name_j}: {tag} row has {length} values, expected {width}", path, at
    )


def _stated_space(cname, listed, index, cards, pruned, path, line):
    """The member labels and the number of states of a compound line that
    gives cards or pruned states, entered in ``cards`` and ``pruned``."""
    labels: list[str] = []
    given: dict[str, list[int]] = {}
    bucket = None
    for tok in listed:
        if tok in ("cards", "pruned"):
            bucket = given.setdefault(tok, [])
        elif bucket is None:
            labels.append(tok)
        else:
            bucket.append(int(tok))
    if cname in index:
        raise ParseError(f"duplicate compound {cname!r}", path, line)
    given_cards, given_pruned = given.get("cards"), given.get("pruned")
    if given_cards:
        cards[len(index)] = tuple(given_cards)
    if given_pruned:
        pruned[len(index)] = tuple(given_pruned)
    return labels, space_cardinality(labels, given_cards or [2] * len(labels), given_pruned or ())


def serialize_tree(tree: TreeNetwork) -> str:
    """The tree file of ``tree``, written from its columns: no node
    object is built, and the q rows come from :func:`accept.factor_pairs`."""
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
    for (i, j), pair in accept.factor_pairs(tree).items():
        out.append(f"edge {names[i]} {names[j]} rank {pair.rank}")
        for row in pair.q.tolist():
            out.append("q " + " ".join(map(repr, row)))
        for row in pair.r_mat.tolist():
            out.append("r " + " ".join(map(repr, row)))
    return "\n".join(out) + "\n"


def load_tree(path) -> TreeNetwork:
    """:func:`parse_tree` of the file at ``path``, read line by line.  A
    file that cannot be read or decoded, on any line, is a
    :class:`ParseError` naming the file, whatever its other lines hold."""
    path = Path(path)
    try:
        with path.open() as lines:
            columns = _parse_lines(lines, str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    return accept.accept_batches(*columns)


def save(path, text: str) -> None:
    Path(path).write_text(text)
