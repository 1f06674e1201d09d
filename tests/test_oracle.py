import numpy as np
import pytest

from sensbn import oracle
from sensbn.errors import SizeLimitError, ZeroEvidenceError, ZeroMassError
from sensbn.generators import random_cpt, random_tree_network
from sensbn.model import (
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    Evidence,
    StateSpace,
)


def single_node(p_true=0.7):
    return BeliefNetwork(
        (("x", 2),), {}, {"x": np.array([[1 - p_true], [p_true]])}
    )


def chain3(rng=None):
    rng = rng or np.random.default_rng(0)
    return BeliefNetwork(
        (("x1", 2), ("x2", 2), ("x3", 2)),
        {"x2": ("x1",), "x3": ("x2",)},
        {
            "x1": random_cpt(rng, 2, 1),
            "x2": random_cpt(rng, 2, 2),
            "x3": random_cpt(rng, 2, 2),
        },
    )


class TestJoint:
    def test_single_binary_node(self):
        jt = oracle.joint(single_node(0.7))
        assert np.allclose(jt.values, [0.3, 0.7])

    def test_two_independent_fair_coins(self):
        net = BeliefNetwork(
            (("a", 2), ("b", 2)),
            {},
            {"a": np.array([[0.5], [0.5]]), "b": np.array([[0.5], [0.5]])},
        )
        jt = oracle.joint(net)
        assert np.allclose(jt.values, 0.25)

    def test_asia_marginals_match_published_table(self, asia_net):
        jt = oracle.joint(net=asia_net)
        for label, want in (("x_D", 0.1103), ("x_H", 0.4360), ("x_B", 0.0104)):
            ax = jt.axis(label)
            other = tuple(i for i in range(8) if i != ax)
            got = jt.values.sum(axis=other)[1]
            assert got == pytest.approx(want, abs=5e-5)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            net = random_tree_network(rng, int(rng.integers(2, 10)), max_states=3)
            assert oracle.joint(net).values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_size_guard(self):
        n = 23
        labels = [f"v{i}" for i in range(n)]
        cpts = {l: np.array([[0.5], [0.5]]) for l in labels}
        net = BeliefNetwork(tuple((l, 2) for l in labels), {}, cpts)
        with pytest.raises(SizeLimitError):
            oracle.joint(net)


class TestMarginalizeOut:
    def test_chain_reduction_identity(self):
        net = chain3()
        jt = oracle.joint(net)
        reduced = oracle.marginalize_out(jt, "x2")
        # p(x1, x3) = p(x3|x1) p(x1) with p(x3|x1) = sum_j p(x3|j) p(j|x1)
        p31 = net.cpts["x3"] @ net.cpts["x2"]
        want = p31 * net.cpts["x1"][:, 0][None, :]
        got = oracle.marginal(reduced, ("x3", "x1"))
        assert np.abs(got - want).max() <= 1e-12

    def test_marginalizing_everything_gives_one(self):
        jt = oracle.joint(chain3())
        for label in ("x1", "x2", "x3"):
            jt = oracle.marginalize_out(jt, label)
        assert jt.values == pytest.approx(1.0)

    def test_two_summation_orders_agree(self):
        rng = np.random.default_rng(2)
        net = random_tree_network(rng, 5, max_states=3)
        jt = oracle.joint(net)
        for query in net.labels:
            one = jt
            for label in net.labels:
                if label != query:
                    one = oracle.marginalize_out(one, label)
            other = jt
            for label in reversed(net.labels):
                if label != query:
                    other = oracle.marginalize_out(other, label)
            assert np.abs(one.values - other.values).max() <= 1e-12


class TestArcReverse:
    def test_independent_pair(self):
        cpt = ConditionalMatrix(np.array([[0.3, 0.3], [0.7, 0.7]]))
        p_j = Distribution(np.array([0.4, 0.6]))
        flipped, p_i = oracle.arc_reverse_cpt(cpt, p_j)
        assert np.allclose(flipped.entries, p_j.probs[:, None])
        assert np.allclose(p_i.probs, [0.3, 0.7])

    def test_deterministic_identity_link(self):
        cpt = ConditionalMatrix(np.eye(2))
        p_j = Distribution(np.array([0.2, 0.8]))
        flipped, p_i = oracle.arc_reverse_cpt(cpt, p_j)
        assert np.allclose(flipped.entries, np.eye(2))
        assert np.allclose(p_i.probs, [0.2, 0.8])

    def test_double_reversal_round_trips(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ni, nj = rng.integers(2, 6, size=2)
            cpt = ConditionalMatrix(random_cpt(rng, ni, nj))
            p_j = Distribution.normalized(0.05 + rng.random(nj))
            flipped, p_i = oracle.arc_reverse_cpt(cpt, p_j)
            back, p_j_back = oracle.arc_reverse_cpt(flipped, p_i)
            assert np.abs(back.entries - cpt.entries).max() <= 1e-9
            assert np.abs(p_j_back.probs - p_j.probs).max() <= 1e-9

    def test_zero_marginal_errors(self):
        cpt = ConditionalMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroMassError):
            oracle.arc_reverse_cpt(cpt, Distribution(np.array([0.5, 0.5])))


class TestPosterior:
    def test_empty_evidence_is_prior(self):
        net = chain3()
        jt = oracle.joint(net)
        for label in net.labels:
            prior = oracle.posterior(net, Evidence.of({}), label)
            ax = jt.axis(label)
            other = tuple(i for i in range(3) if i != ax)
            assert np.abs(prior.probs - jt.values.sum(axis=other)).max() <= 1e-12

    def test_asia_visit_given_dyspnea(self, asia_net):
        post = oracle.posterior(asia_net, Evidence.of({"x_H": 1}), "x_A")
        prior = oracle.posterior(asia_net, Evidence.of({}), "x_A")
        assert post.probs[1] - prior.probs[1] == pytest.approx(3.3e-4, abs=1e-5)

    def test_asia_dyspnea_given_visit_and_xray(self, asia_net):
        post = oracle.posterior(asia_net, Evidence.of({"x_A": 1, "x_D": 1}), "x_H")
        assert post.probs[1] == pytest.approx(0.68, abs=5e-3)

    def test_impossible_evidence_errors(self):
        net = BeliefNetwork(
            (("a", 2), ("b", 2)),
            {"b": ("a",)},
            {"a": np.array([[0.0], [1.0]]), "b": np.eye(2)},
        )
        with pytest.raises(ZeroEvidenceError):
            oracle.posterior(net, Evidence.of({"b": 0}), "a")


class TestPairwiseConditional:
    def test_disjoint_independent_sets(self):
        net = BeliefNetwork(
            (("a", 2), ("b", 2)),
            {},
            {"a": np.array([[0.3], [0.7]]), "b": np.array([[0.4], [0.6]])},
        )
        cond = oracle.pairwise_conditional(
            net, StateSpace.binary(("a",)), StateSpace.binary(("b",))
        )
        assert np.allclose(cond.entries, [[0.3, 0.3], [0.7, 0.7]])

    def test_a_given_joint_gives_the_same_tables(self, asia_net):
        jt = oracle.joint(asia_net)
        child = StateSpace.binary(("x_C", "x_E", "x_G"), pruned=(2, 3))
        for parent in (StateSpace.binary(("x_B",)), child):
            want = oracle.pairwise_conditional(asia_net, child, parent).entries
            got = oracle.pairwise_conditional(asia_net, child, parent, jt=jt).entries
            assert np.array_equal(got, want)

    def test_same_set_gives_identity(self):
        net = chain3()
        space = StateSpace.binary(("x1", "x2"))
        cond = oracle.pairwise_conditional(net, space, space)
        assert np.allclose(cond.entries, np.eye(4))

    def test_asia_compound_edge_matches_published_row(self, asia_net):
        from sensbn.algebra import cpt_to_sensitivity

        child = StateSpace.binary(("x_C", "x_E", "x_G"), pruned=(2, 3))
        parent = StateSpace.binary(("x_B",))
        cond = oracle.pairwise_conditional(asia_net, child, parent)
        got = cpt_to_sensitivity(cond).entries
        rt2 = np.sqrt(2.0)
        q = np.array([[-0.5535, -0.4400, 0.5535, 0.4400, 0.0, 0.0]])
        r = np.array([[-0.6726 / rt2, 0.6726 / rt2]])
        assert np.abs(got - q.T @ r).max() <= 1e-3
