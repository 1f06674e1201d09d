import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensbn import compiler, fileio
from sensbn.errors import ParseError, ZeroMassError
from sensbn.generators import random_groupings, random_tree_network
from sensbn.model import validate_network


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
