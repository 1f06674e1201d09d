import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tree_corpus
from sensbn import algebra, cli, compiler, fileio
from sensbn.errors import ParseError, ZeroMassError
from sensbn.generators import binary_chain_tree, random_groupings, random_tree_network
from sensbn.model import CompoundNode, Distribution, StateSpace, validate_network


class TestNetworkFormat:
    def test_fixture_parses_and_validates(self, asia_net):
        assert validate_network(asia_net) == []
        assert asia_net.labels == (
            "x_A", "x_B", "x_C", "x_D", "x_E", "x_F", "x_G", "x_H",
        )

    @given(seed=st.integers(0, 2**31), n=st.integers(2, 10))
    def test_round_trip_is_identity_on_the_model(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree_network(rng, n, max_states=3)
        back = fileio.parse_network(fileio.serialize_network(net))
        assert back.nodes == net.nodes
        assert back.parents == net.parents
        for label in net.labels:
            assert np.array_equal(back.cpts[label], net.cpts[label])

    def test_parse_error_reports_line(self):
        text = "node a 2\ncpt a dims 2 1\n0.5\nfrog\n"
        with pytest.raises(ParseError) as err:
            fileio.parse_network(text, path="bad.net")
        assert "bad.net" in str(err.value)
        assert ":4:" in str(err.value)

    def test_missing_cpt_is_an_error(self):
        with pytest.raises(ParseError, match="without a cpt"):
            fileio.parse_network("node a 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "node a 2\ncpt a dims 2 1\n0.5\nnode b 2\n",
                "bad.net:2: cpt a: expected 2 rows, got 1",
            ),
            (
                "node a 2\ncpt a dims 2 1\n0.5\n0.25 0.25\n",
                "bad.net:4: cpt a: row has 2 values, expected 1",
            ),
            ("node a 2\nnode b\n", "bad.net:2: node line needs: node <label> <n_states>"),
            ("node a two\n", "bad.net:1: bad state count 'two'"),
            ("node a 2\nparents\n", "bad.net:2: parents line needs a child label"),
            ("node a 2\ncpt a 2 1\n", "bad.net:2: cpt line needs: cpt <child> dims <rows> <cols>"),
            ("node a 2\ncpt a dims 2 one\n", "bad.net:2: cpt dims must be integers"),
            (
                "node a 2\ncpt a dims 2 1\n0.5\n0.5\ncpt b dims 2 1\n0.5\n0.5\n",
                "bad.net: table or parents for undeclared node 'b'",
            ),
        ],
    )
    def test_malformed_network_file_names_its_line(self, text, message):
        with pytest.raises(ParseError) as caught:
            fileio.parse_network(text, path="bad.net")
        assert str(caught.value) == message

    def test_unknown_directive_is_an_error(self):
        with pytest.raises(ParseError, match="unknown directive"):
            fileio.parse_network("wibble a b c\n")


class TestTreeFormat:
    def test_tables_fixture_round_trips(self, asia_tables):
        text = fileio.serialize_tree(asia_tables)
        back = fileio.parse_tree(text)
        assert [c.name for c in back.compounds] == [
            c.name for c in asia_tables.compounds
        ]
        for comp, orig in zip(back.compounds, asia_tables.compounds):
            assert comp.space == orig.space
            assert np.abs(comp.prior.probs - orig.prior.probs).max() <= 1e-15
        for key, mat in asia_tables.r_factors.items():
            assert np.abs(back.r_factors[key] - mat).max() <= 1e-12

    @given(seed=st.integers(0, 2**31))
    def test_compiled_trees_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        net = random_tree_network(rng, int(rng.integers(2, 8)))
        groups = random_groupings(rng, net, max_groups=2)
        tree, _ = compiler.compile_network(net, forced_groups=groups)
        back = fileio.parse_tree(fileio.serialize_tree(tree))
        assert back.edges == tree.edges
        for key, mat in tree.r_factors.items():
            assert np.abs(back.r_factors[key] - mat).max() <= 1e-12

    def test_rt2_tokens(self):
        assert fileio._num("-0.04/rt2", None, 1) == pytest.approx(
            -0.04 / np.sqrt(2.0)
        )
        assert fileio._num("1", None, 1) == 1.0

    def test_prior_length_mismatch(self):
        text = (
            "tree t\n"
            "compound A members a\n"
            "prior A 0.5 0.25 0.25\n"
        )
        with pytest.raises(ParseError, match="expected 2"):
            fileio.parse_tree(text)

    @pytest.mark.parametrize("prior", ["nan 1.0", "nan nan", "inf 1.0"])
    def test_non_finite_prior_is_refused(self, prior, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text(f"tree t\ncompound A members a\nprior A {prior}\n")
        with pytest.raises(ZeroMassError):
            fileio.load_tree(path)

    def test_factor_width_mismatch(self):
        text = (
            "tree t\n"
            "compound A members a\n"
            "compound B members b\n"
            "prior A 0.5 0.5\n"
            "prior B 0.5 0.5\n"
            "edge A B rank 1\n"
            "q -0.7 0.7 0.1\n"
            "r -0.1 0.1\n"
        )
        with pytest.raises(ParseError, match="q row"):
            fileio.parse_tree(text)

    def test_serialization_is_deterministic(self, asia_tables):
        assert fileio.serialize_tree(asia_tables) == fileio.serialize_tree(asia_tables)


DATA = Path(__file__).parent / "data"

#: the load of each file of ``DATA`` by the per-node loader that preceded
#: the columnar one, as ``load_digest`` reads it.  The files are
#: ``serialize_tree`` of the asia network compiled with x_C, x_E, x_G
#: grouped, of two random compiled tree networks (one with groups, one
#: all-binary) and of a 120-node binary chain.
PER_NODE_LOADS = {
    "asia_grouped": "0a6241ebdcafb04ab69befe2dc46d5f3907fb5db4fabb7d898d34dfd739ac8c6",
    "random_grouped": "c7a7e8cb2c0c12ab8b66c77d7247e88a6409e18c75d0ea6931efa6154de8a6b2",
    "random_binary": "ff9fcc3f1564cbbf748145a4207a77241fe39f08276cfd58e563a9abc50baf14",
    "chain": "055b4b6a6da2dd761573e0eaefd53e11cf98d04656b465d9e29334642029f851",
}


def load_digest(tree) -> str:
    """SHA-256 of the exact bits of a loaded tree: every prior, both stored
    factors of every edge, the decay constants (the largest coupling
    aside: it goes through a BLAS product, whose last bits may vary
    between machines) and the float form."""
    parts = []

    def add(values):
        parts.extend(float(v).hex() for v in np.ravel(values))

    for i in range(len(tree.prior_probs)):
        add(tree.prior_probs[i])
    for i, j in tree.edges:
        add(tree.r_factors[(i, j)])
        add(tree.r_factors[(j, i)])
    parts.append(repr(tree.decay.all_binary))
    add([tree.decay.min_prior_product])
    sc = tree.scalars
    if sc is not None:
        add(sc.prior)
        add(sc.factor)
        for arr in (sc.run_nodes, sc.run_start, sc.run_of, sc.place):
            parts.append(repr(arr.tolist()))
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()


class TestColumnarLoad:
    @pytest.mark.parametrize("name", sorted(tree_corpus.RAISES))
    def test_malformed_files_raise_as_before(self, name):
        kind, message, line = tree_corpus.RAISES[name]
        with pytest.raises(Exception) as err:
            fileio.parse_tree(tree_corpus.CORPUS[name], path="t.tree")
        assert type(err.value) is kind
        assert str(err.value) == message
        assert getattr(err.value, "line", None) == line

    @pytest.mark.parametrize("name", sorted(tree_corpus.LOADS))
    def test_unusual_files_load_as_before(self, name):
        edges, factors = tree_corpus.LOADS[name]
        tree = fileio.parse_tree(tree_corpus.CORPUS[name], path="t.tree")
        assert tree.edges == tuple(edges)
        assert tree.r_factors.keys() == factors.keys()
        for key, rows in factors.items():
            assert tree.r_factors[key].tolist() == rows

    def test_the_last_prior_line_of_a_node_wins(self):
        tree = fileio.parse_tree(tree_corpus.CORPUS["prior given twice, last wins"])
        assert tree.prior_probs[0].tolist() == [0.2, 0.8]
        assert tree.compound(0).prior.probs.tolist() == [0.2, 0.8]

    @pytest.mark.parametrize("name", sorted(PER_NODE_LOADS))
    def test_serialized_trees_load_bit_identical(self, name):
        tree = fileio.load_tree(DATA / f"{name}.tree")
        assert load_digest(tree) == PER_NODE_LOADS[name]
        if tree.decay.all_binary:
            couplings = [
                abs(float(d[1, 1] - d[1, 0]))
                for d in (compiler.reconstruct_dense(tree, a, b) for a, b in tree.edges)
            ]
            assert tree.decay.max_coupling == max(couplings)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_of_compiled_trees_keeps_every_bit(self, seed):
        """A tree compiled here loads from its text with the numbers the
        text holds, divided and re-centred as one node and one edge at a
        time would."""
        rng = np.random.default_rng(seed)
        net = random_tree_network(rng, 12, max_states=3)
        tree, _ = compiler.compile_network(net, forced_groups=random_groupings(rng, net))
        text = fileio.serialize_tree(tree)
        back = fileio.parse_tree(text)
        rows = [line.split() for line in text.splitlines() if line[:1] in ("p", "q", "r")]
        priors = [r[2:] for r in rows if r[0] == "prior"]
        for i, values in enumerate(priors):
            want = Distribution.normalized([float(v) for v in values]).probs
            assert np.array_equal(back.prior_probs[i], want)
            assert np.array_equal(back.compound(i).prior.probs, want)
        blocks = iter(r for r in rows if r[0] in ("q", "r"))
        for i, j in back.edges:
            rank = back.rank(i, j)
            q = np.array([[float(v) for v in next(blocks)[1:]] for _ in range(rank)])
            r = np.array([[float(v) for v in next(blocks)[1:]] for _ in range(rank)])
            inv_i = algebra.inverse_weights(back.prior_probs[i])
            assert np.array_equal(back.r_factors[(i, j)], algebra.center_rows(r))
            assert np.array_equal(
                back.r_factors[(j, i)],
                algebra.center_rows(algebra.center_rows(q) * inv_i[None, :]),
            )

    def test_loading_a_chain_builds_no_node_objects(self, monkeypatch):
        """Chains of 2·10³ and 2·10⁴ nodes load without one StateSpace,
        Distribution or CompoundNode, in the same number of numpy calls."""
        texts = {
            n: fileio.serialize_tree(
                binary_chain_tree(np.random.default_rng(4), n, alpha=0.9, coupling_lo=0.5)
            )
            for n in (2_000, 20_000)
        }
        built = Counter()
        for cls in (StateSpace, Distribution, CompoundNode):
            original = cls.__post_init__

            def spy(self, original=original, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        calls = {}
        for n, text in texts.items():
            tree, calls[n] = numpy_calls(lambda text=text: fileio.parse_tree(text))
            assert tree.node_count == n and tree.scalars is not None
        assert built == {}
        assert calls[2_000] == calls[20_000] > 0



class TestLineLoop:
    """The loader reads a file line by line, as ``parse_tree`` reads a text."""

    @pytest.mark.parametrize("name", sorted(PER_NODE_LOADS))
    def test_crlf_twin_loads_bit_identical(self, tmp_path, name):
        twin = (DATA / f"{name}.tree").read_bytes().replace(b"\n", b"\r\n")
        assert twin.count(b"\r\n") > 10
        path = tmp_path / f"{name}.tree"
        path.write_bytes(twin)
        assert load_digest(fileio.load_tree(path)) == PER_NODE_LOADS[name]
        assert load_digest(fileio.parse_tree(twin.decode())) == PER_NODE_LOADS[name]

    @pytest.mark.parametrize(
        "early",
        [
            None,
            "bogus line",
            "prior X_1 nan 1",
            "prior X_1 0.5 0.x5",
            "edge X_1 X_999 rank 1",
            "compound X_1 members z",
        ],
    )
    def test_a_bad_byte_after_valid_lines_is_a_read_error(self, tmp_path, capsys, early):
        """Whatever the earlier lines hold, an undecodable byte 20 kB into
        the file (past the first block the reader decodes) makes the load
        a ParseError that names the file, and the CLI exits 2."""
        lines = (DATA / "chain.tree").read_text().splitlines()
        if early is not None:
            lines.insert(5, early)
        path = tmp_path / "late.tree"
        path.write_bytes("\n".join(lines).encode() + b"\nq 0.1 \xff\xfe 0.2\n")
        assert path.stat().st_size > 20_000
        with pytest.raises(ParseError) as err:
            fileio.load_tree(path)
        assert str(err.value).startswith(f"{path}: cannot read the file: ")
        assert err.value.line is None
        assert cli.main(["query", str(path), "--query", "v0"]) == cli.EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {path}: cannot read the file: ")

    def test_a_bad_number_on_a_late_line_names_that_line(self, tmp_path):
        lines = (DATA / "chain.tree").read_text().splitlines()
        assert lines[-1].startswith("r ")
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " -0.3x6"
        text = "\n".join(lines) + "\n"
        path = tmp_path / "late.tree"
        path.write_text(text)
        for load in (lambda: fileio.load_tree(path), lambda: fileio.parse_tree(text, str(path))):
            with pytest.raises(ParseError) as err:
                load()
            assert err.value.line == len(lines) == 599
            assert str(err.value) == f"{path}:{len(lines)}: expected a number, got '-0.3x6'"


def numpy_calls(fn):
    """``fn()`` and the number of calls it made into numpy: numpy's own
    Python functions, its builtins and the methods of its arrays and
    ufuncs."""
    root = str(Path(np.__file__).parent)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += frame.f_code.co_filename.startswith(root)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            count += (getattr(arg, "__module__", None) or "").startswith("numpy") or isinstance(
                owner, (np.ndarray, np.generic, np.ufunc)
            )

    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, count
