import itertools
from collections import Counter
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sensbn import algebra, compiler, engine, oracle, truncation
from sensbn.engine import QuerySession
from sensbn.errors import (
    ConsistencyError,
    SensBnError,
    UnknownLabelError,
    ZeroEvidenceError,
    ZeroMassError,
)
from sensbn.generators import (
    binary_chain_tree,
    random_evidence,
    random_groupings,
    random_tree_network,
)
from sensbn.model import Distribution, Evidence, FactorStack, StateSpace, TreeNetwork
from tests.conftest import accepted_without_table_check, unchecked_copy


def fresh(tree, **kw):
    return QuerySession(tree, **kw)


def oracle_all_nodes(net, tree, evidence):
    return {
        comp.ident: oracle.posterior_over_space(net, evidence, comp.space).probs
        for comp in tree.compounds
    }


class TestInstantiate:
    def test_worked_example_first_step(self, asia_tables):
        s = fresh(asia_tables)
        s.instantiate(asia_tables.by_name("X_1").ident, {"x_A": 1})
        assert np.allclose(s.p[3], [0.8549, 0.1451], atol=1e-4)
        assert np.allclose(s.p[5], [0.5498, 0.4502], atol=1e-4)

    def test_instantiated_node_is_indicator(self, asia_tables):
        s = fresh(asia_tables)
        s.instantiate(0, {"x_A": 1})
        assert np.allclose(s.p[0], [0.0, 1.0])

    def test_single_evidence_matches_oracle_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            net = random_tree_network(rng, 10)
            tree, _ = compiler.compile_network(net)
            label = net.labels[int(rng.integers(0, 10))]
            value = int(rng.integers(0, 2))
            ev = Evidence.of({label: value})
            s = fresh(tree)
            s.instantiate(tree.member_home(label), {label: value})
            want = oracle_all_nodes(net, tree, ev)
            for ident, expected in want.items():
                assert np.abs(s.p[ident] - expected).max() <= 1e-9

    def test_zero_probability_instantiation_errors(self, asia_tables):
        s = fresh(asia_tables)
        s.instantiate(0, {"x_A": 1})
        s.commit()
        with pytest.raises(ZeroEvidenceError):
            s.instantiate(0, {"x_A": 0})

    def test_partial_compound_instantiation(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        ev = Evidence.of({"x_G": 1})
        s = fresh(tree)
        s.instantiate(tree.member_home("x_G"), {"x_G": 1})
        want = oracle_all_nodes(asia_net, tree, ev)
        for ident, expected in want.items():
            assert np.abs(s.p[ident] - expected).max() <= 1e-9


class TestSimqStep:
    def test_zero_message_is_noop(self, asia_tables):
        s = fresh(asia_tables)
        before = {k: v.copy() for k, v in s.p.items()}
        s.simq_step(2, 5, np.zeros(1))
        for ident, old in before.items():
            assert np.allclose(s.p[ident], old, atol=1e-15)

    def test_message_from_visit_updates_compound(self, asia_tables):
        s = fresh(asia_tables)
        # send the instantiation of x_A by hand along X_1 -> X_2 -> X_3
        payload = s.r[(1, 0)] @ (np.array([0.0, 1.0]) - s.p0[0])
        s.simq_step(1, 0, payload)
        assert np.allclose(
            s.p[2], [0.5002, 0.3975, 0.0263, 0.0210, 0.0235, 0.0315], atol=1e-4
        )

    def test_leaf_receiver_does_not_forward(self, asia_tables):
        s = fresh(asia_tables)
        n_before = len(s.instr.messages)
        s.simq_step(0, 1, np.zeros(1))  # X_1 is a leaf
        assert len(s.instr.messages) == n_before

    def test_nan_message_is_refused(self, asia_tables):
        s = fresh(asia_tables)
        assert s._kernel is engine._ArrayKernel
        with pytest.raises(ZeroMassError, match="^update left X_3 without a valid distribution$"):
            s.simq_step(2, 1, np.array([np.nan]))


class TestDeadStates:
    """Evidence x_B = 1 (tuberculosis) forces x_C (the OR gate) to 1, so the
    flood's update of the compound (x_C, x_E, x_G) drives its x_C = 0 states
    to rounding noise below CLAMP_EPS."""

    def test_clamped_states_and_their_factor_columns(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        home, group = tree.member_home("x_B"), tree.member_home("x_C")
        assert group in tree.neighbors(home)
        s = fresh(tree)
        assert s._kernel is engine._ArrayKernel
        p_before, r_before = s.p[group], s.r[(home, group)]
        s.instantiate(home, {"x_B": 1})
        p_after = s.p[group]
        dead = tree.compound(group).space.member_states("x_C") == 0
        assert dead.any() and (p_before[dead] > 0.0).all()
        assert (p_after[dead] == 0.0).all() and (p_after[~dead] > 0.0).all()
        # the refreshed factor divides the weighted factor by p' on the
        # live states only: its uncentered dead columns are zero
        q = r_before @ algebra.weight_matrix(p_before)
        uncentered = np.zeros_like(q)
        uncentered[:, ~dead] = q[:, ~dead] / p_after[~dead]
        assert np.abs(s.r[(home, group)] - algebra.center_rows(uncentered)).max() <= 1e-12
        s.commit()
        s.instantiate(tree.member_home("x_H"), {"x_H": 0})
        want = oracle_all_nodes(asia_net, tree, Evidence.of({"x_B": 1, "x_H": 0}))
        for ident, expected in want.items():
            assert np.abs(s.p[ident] - expected).max() <= 1e-9


class TestCommit:
    def test_commit_on_fresh_session_is_noop(self, asia_tables):
        s = fresh(asia_tables)
        s.commit()
        for comp in asia_tables.compounds:
            assert np.allclose(s.p0[comp.ident], comp.prior.probs)

    def test_commit_twice_equals_once(self, asia_tables):
        s = fresh(asia_tables)
        s.instantiate(0, {"x_A": 1})
        s.commit()
        snapshot = {k: v.copy() for k, v in s.p0.items()}
        s.commit()
        for k, v in snapshot.items():
            assert np.allclose(s.p0[k], v)

    def test_two_step_evidence_matches_oracle(self):
        rng = np.random.default_rng(22)
        net = random_tree_network(rng, 8)
        tree, _ = compiler.compile_network(net)
        ev = Evidence.of({"v2": 1, "v6": 0})
        s = fresh(tree)
        s.instantiate(tree.member_home("v2"), {"v2": 1})
        s.commit()
        s.instantiate(tree.member_home("v6"), {"v6": 0})
        s.commit()
        want = oracle_all_nodes(net, tree, ev)
        for ident, expected in want.items():
            assert np.abs(s.p[ident] - expected).max() <= 1e-9


class TestMarkBarren:
    def test_chain_interior_not_barren(self):
        rng = np.random.default_rng(23)
        net = random_tree_network(rng, 2)
        # build a 5-chain by hand
        from sensbn.generators import binary_chain_tree

        tree = binary_chain_tree(np.random.default_rng(1), 5)
        s = fresh(tree)
        marks = s.mark_barren(0, {4})
        assert not any(marks[i] for i in range(5))

    def test_leaf_without_evidence_is_barren(self, asia_tables):
        s = fresh(asia_tables)
        marks = s.mark_barren(asia_tables.by_name("X_6").ident, {0})  # evidence at X_1
        assert marks[asia_tables.by_name("X_5").ident]
        assert marks[asia_tables.by_name("X_4").ident]
        assert not marks[asia_tables.by_name("X_3").ident]

    @pytest.mark.parametrize("kernel", ["float", "array"])
    def test_evidence_nodes_are_read_once(self, monkeypatch, kernel):
        """An iterator or a generator of evidence nodes marks what a set
        does: the id check must not use it up."""
        tree = binary_chain_tree(np.random.default_rng(1), 6)
        if kernel == "array":
            monkeypatch.setattr(engine, "_choose_kernel", lambda tree: engine._ArrayKernel)
        want = dict(fresh(tree).mark_barren(0, {4}))
        assert [i for i, barren in want.items() if barren] == [5]
        for nodes in (iter([4]), (n for n in [4])):
            s = fresh(tree)
            assert s._kernel is (engine._ArrayKernel if kernel == "array" else engine._FloatKernel)
            assert dict(s.mark_barren(0, nodes)) == want

    def test_barren_marking_does_not_change_answers(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        ev = Evidence.of({"x_D": 1})
        want = oracle.posterior_over_space(asia_net, ev, tree.by_name("X_1").space)
        got = fresh(tree).query(tree.by_name("X_1").ident, ev)
        assert np.abs(got.probs - want.probs).max() <= 1e-9


class TestQuery:
    def test_empty_evidence_returns_prior(self, asia_tables):
        for comp in asia_tables.compounds:
            got = fresh(asia_tables).query(comp.ident, Evidence.of({}))
            assert np.allclose(got.probs, comp.prior.probs)

    def test_worked_example_full_query(self, asia_tables):
        s = fresh(asia_tables)
        got = s.query(5, Evidence.of({"x_A": 1, "x_D": 1}))
        assert got.probs[1] == pytest.approx(0.68, abs=5e-3)

    def test_query_node_with_own_evidence(self, asia_tables):
        got = fresh(asia_tables).query(0, Evidence.of({"x_A": 1, "x_D": 1}))
        assert np.allclose(got.probs, [0.0, 1.0])

    def test_random_trees_match_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            net = random_tree_network(rng, n)
            groups = random_groupings(rng, net)
            tree, _ = compiler.compile_network(net, forced_groups=groups)
            ev = random_evidence(rng, net, int(rng.integers(0, 5)))
            for comp in tree.compounds:
                want = oracle.posterior_over_space(net, ev, comp.space).probs
                got = fresh(tree).query(comp.ident, ev).probs
                assert np.abs(got - want).max() <= 1e-9

    def test_impossible_evidence_errors(self, asia_compiled):
        tree, _ = asia_compiled
        # the OR gate makes (x_C false, x_E true) impossible
        with pytest.raises(ZeroEvidenceError):
            fresh(tree).query(0, Evidence.of({"x_C": 0, "x_E": 1}))


class TestNodeIds:
    """Every public call that takes a node id refuses one outside the tree."""

    @pytest.fixture(params=["chain", "asia"])
    def case(self, request, asia_tables):
        if request.param == "chain":
            tree = binary_chain_tree(np.random.default_rng(0), 10)
            return tree, engine._FloatKernel, {"v9": 1}
        return asia_tables, engine._ArrayKernel, {"x_H": 1}

    @pytest.mark.parametrize("bad", ["negative", "past the end"])
    def test_out_of_range_ids_are_refused(self, case, bad):
        tree, kernel, assignment = case
        n = tree.node_count
        node = -1 if bad == "negative" else n
        s = fresh(tree)
        assert s._kernel is kernel
        calls = [
            lambda: s.query(node, Evidence.of(assignment)),
            lambda: s.instantiate(node, assignment),
            lambda: s.simq_step(node, 0, np.zeros(1)),
            lambda: s.simq_step(0, node, np.zeros(1)),
            lambda: s.mark_barren(node, set()),
            lambda: s.mark_barren(0, {node}),
            lambda: tree.compound(node),
            lambda: tree.distance(node, 3, 20),
            lambda: tree.distance(3, node, 20),
            lambda: truncation.hop_distances(tree, node),
            lambda: s.posterior(node),
            lambda: s.dense_sensitivity(node, 0),
            lambda: s.dense_sensitivity(0, node),
            lambda: tree.rank(node, 0),
            lambda: tree.rank(0, node),
            lambda: tree.half_edge(node, 0),
            lambda: tree.half_edge(0, node),
        ]
        for call in calls:
            with pytest.raises(UnknownLabelError, match=f"^node id {node} outside a tree of {n} nodes$"):
                call()

    def test_simq_step_between_nodes_that_are_not_adjacent(self, case):
        tree, kernel, _ = case
        assert 5 not in tree.neighbors(0)
        s = fresh(tree)
        assert s._kernel is kernel
        with pytest.raises(UnknownLabelError, match="^nodes 0 and 5 are not adjacent$"):
            s.simq_step(0, 5, np.zeros(1))

    def test_other_lookups_between_nodes_that_are_not_adjacent(self, case):
        tree, kernel, _ = case
        s = fresh(tree)
        assert s._kernel is kernel
        with pytest.raises(UnknownLabelError, match="^nodes 0 and 5 are not adjacent$"):
            s.dense_sensitivity(0, 5)
        for lookup in (tree.rank, tree.half_edge, lambda i, j: s.r[(j, i)]):
            with pytest.raises(KeyError) as caught:
                lookup(0, 5)
            assert caught.type is KeyError
        with pytest.raises(KeyError, match=r"^\(0, 5\)$"):
            tree.half_edge(0, 5)
        assert (5, 0) not in s.r and (0, tree.node_count) not in s.r and (-1, 0) not in s.r


class TestMultiEvidenceSimq:
    def test_worked_example_incremental(self, asia_tables):
        s = fresh(asia_tables)
        s.multi_evidence_simq(Evidence.of({"x_A": 1, "x_D": 1}), order=(0, 3))
        assert s.p[5][1] == pytest.approx(0.68, abs=5e-3)

    def test_order_invariance(self, asia_tables):
        one = fresh(asia_tables)
        one.multi_evidence_simq(Evidence.of({"x_A": 1, "x_D": 1}), order=(0, 3))
        two = fresh(asia_tables)
        two.multi_evidence_simq(Evidence.of({"x_A": 1, "x_D": 1}), order=(3, 0))
        for comp in asia_tables.compounds:
            assert np.abs(one.p[comp.ident] - two.p[comp.ident]).max() <= 1e-9

    def test_empty_evidence_is_noop(self, asia_tables):
        s = fresh(asia_tables)
        s.multi_evidence_simq(Evidence.of({}))
        for comp in asia_tables.compounds:
            assert np.allclose(s.p[comp.ident], comp.prior.probs)

    def test_agrees_with_misq_and_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            net = random_tree_network(rng, 9)
            groups = random_groupings(rng, net)
            tree, _ = compiler.compile_network(net, forced_groups=groups)
            ev = random_evidence(rng, net, int(rng.integers(1, 4)))
            sim = fresh(tree).multi_evidence_simq(ev)
            want = oracle_all_nodes(net, tree, ev)
            for comp in tree.compounds:
                misq = fresh(tree).query(comp.ident, ev).probs
                assert np.abs(sim.p[comp.ident] - want[comp.ident]).max() <= 1e-9
                assert np.abs(misq - want[comp.ident]).max() <= 1e-9
                assert np.abs(misq - sim.p[comp.ident]).max() <= 1e-9


class TestInstrumentation:
    def test_message_lengths_equal_edge_ranks(self, asia_tables):
        s = fresh(asia_tables)
        s.query(5, Evidence.of({"x_A": 1, "x_D": 1}))
        assert s.instr.messages
        for (a, b), length in s.instr.messages:
            assert length == asia_tables.rank(a, b)

    def test_each_edge_traversed_at_most_twice(self, asia_tables):
        s = fresh(asia_tables)
        s.query(5, Evidence.of({"x_A": 1, "x_D": 1, "x_F": 0}))
        assert max(s.instr.traversals.values()) <= 2

    def test_reused_session_keeps_one_operations_messages(self, asia_tables):
        evidence = Evidence.of({"x_A": 1, "x_D": 1})
        s = fresh(asia_tables)
        for _ in range(300):
            s.query(5, evidence)
        once = fresh(asia_tables)
        once.query(5, evidence)
        assert s.instr.messages == once.instr.messages
        assert len(s.instr.messages) == 8

    def test_flood_keeps_every_instantiations_messages(self, asia_tables):
        evidence = Evidence.of({"x_A": 1, "x_D": 1})
        s = fresh(asia_tables)
        s.query(5, evidence)
        s.multi_evidence_simq(evidence)
        # each instantiation floods the other five nodes of the tree
        assert len(s.instr.messages) == 2 * (len(asia_tables.compounds) - 1)
        s.instantiate(0, {"x_A": 1})
        assert len(s.instr.messages) == len(asia_tables.compounds) - 1

    def test_barren_nodes_receive_no_messages(self, asia_tables):
        s = fresh(asia_tables)
        s.query(5, Evidence.of({"x_A": 1}))
        barren = {i for i, b in s.barren.items() if b}
        for (a, b), _ in s.instr.messages:
            assert b not in barren

    def test_posteriors_stay_valid_distributions(self, asia_tables):
        s = fresh(asia_tables)
        s.multi_evidence_simq(Evidence.of({"x_A": 1, "x_D": 1, "x_G": 0}))
        for comp in asia_tables.compounds:
            s.posterior(comp.ident)  # constructor validates

    def test_working_factors_start_as_tree_factors(self, asia_tables):
        s = fresh(asia_tables)
        for key, mat in asia_tables.r_factors.items():
            assert s.r[key] is mat

    def test_neighbor_iteration_order_does_not_change_answers(self, asia_tables):
        last = len(asia_tables.edges) - 1
        # every stack keeps its rows in edge order
        stacks = [
            FactorStack((last - st.edges)[::-1], st.fwd[::-1], st.bwd[::-1])
            for st in asia_tables.factor_stacks
        ]
        reordered = TreeNetwork(
            asia_tables.node_columns,
            asia_tables.edges[::-1],
            asia_tables.edge_ends[::-1],
            stacks,
            asia_tables.name,
        )
        for key, mat in asia_tables.r_factors.items():
            assert np.array_equal(reordered.r_factors[key], mat)
        ev = Evidence.of({"x_A": 1, "x_D": 1, "x_F": 0})
        for comp in asia_tables.compounds:
            one = fresh(asia_tables).query(comp.ident, ev).probs
            two = fresh(reordered).query(comp.ident, ev).probs
            assert np.abs(one - two).max() <= 1e-9


class TestSessionReuse:
    """One session answers a sequence of operations as fresh sessions do."""

    def test_asia_queries_and_floods_match_fresh_sessions_and_oracle(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        reused = fresh(tree)
        steps = [
            ("query", "x_H", {"x_A": 1, "x_D": 1}),
            ("query", "x_H", {"x_D": 0}),  # answered stale before sessions restarted
            ("flood", "x_A", {"x_A": 1}),
            ("query", "x_F", {"x_H": 1}),
            ("flood", "x_D", {"x_D": 0}),
            ("flood", "x_H", {"x_H": 1}),
            ("query", "x_A", {"x_H": 0, "x_F": 1}),
            ("query", "x_H", {}),
        ]
        for kind, label, ev in steps:
            evidence = Evidence.of(ev)
            if kind == "query":
                ident = tree.member_home(label)
                got = reused.query(ident, evidence).probs
                assert np.abs(got - fresh(tree).query(ident, evidence).probs).max() <= 1e-9
                member = tree.member_marginal(ident, label, got)
                want = oracle.posterior(asia_net, evidence, label).probs
                assert np.abs(member - want).max() <= 1e-9
            else:
                reused.instantiate(tree.member_home(label), ev)
                one = fresh(tree).instantiate(tree.member_home(label), ev)
                want = oracle_all_nodes(asia_net, tree, evidence)
                for ident, expected in want.items():
                    assert np.abs(reused.p[ident] - one.p[ident]).max() <= 1e-9
                    assert np.abs(reused.p[ident] - expected).max() <= 1e-9

    def test_query_after_committed_flood_adds_evidence(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        s = fresh(tree)
        s.query(tree.member_home("x_F"), Evidence.of({"x_H": 0}))
        s.multi_evidence_simq(Evidence.of({"x_A": 1}))
        ident = tree.member_home("x_H")
        got = tree.member_marginal(ident, "x_H", s.query(ident, Evidence.of({"x_D": 1})).probs)
        want = oracle.posterior(asia_net, Evidence.of({"x_A": 1, "x_D": 1}), "x_H").probs
        assert np.abs(got - want).max() <= 1e-9

    def test_tree_state_is_never_written(self, asia_compiled):
        tree, _ = asia_compiled
        priors = dict(tree.prior_probs)
        factors = dict(tree.r_factors)
        s = fresh(tree)
        s.query(tree.member_home("x_H"), Evidence.of({"x_A": 1, "x_D": 1}))
        s.multi_evidence_simq(Evidence.of({"x_A": 1, "x_F": 0}))
        assert all(tree.prior_probs[k] is v for k, v in priors.items())
        assert all(tree.r_factors[k] is v for k, v in factors.items())
        assert len(s.p) == len(s.p0) == len(tree.compounds)


class TestLayer:
    def test_reads_fall_through_and_writes_stay_local(self):
        base = {k: k * 10 for k in range(5)}
        layer = engine._Layer(base, engine._ArrayKernel.read)
        layer[2] = -1
        assert base[2] == 20
        assert [layer[k] for k in range(5)] == [0, 10, -1, 30, 40]
        assert dict(layer) == {2: -1}
        layer.flush()
        assert base == {0: 0, 1: 10, 2: -1, 3: 30, 4: 40} and not layer

    def test_an_index_places_keys_in_an_array_base(self):
        base = np.array([0.1, 0.2, 0.3])
        layer = engine._Layer(base, engine._FloatKernel.read, np.array([2, 0], dtype=np.intp))
        layer[1] = 0.5
        assert (layer[0], layer[1], base[0]) == (0.3, 0.5, 0.1)
        assert type(layer[0]) is float
        layer.flush()
        assert base.tolist() == [0.5, 0.2, 0.3] and not layer

    def test_state_views_refuse_item_assignment(self, asia_tables):
        chain = binary_chain_tree(np.random.default_rng(5), 6)
        for tree, ev in ((asia_tables, {"x_D": 1}), (chain, {"v5": 1})):
            s = fresh(tree)
            s.query(0, Evidence.of(ev))
            key = next(iter(tree.r_factors))
            for view, at in ((s.p, 0), (s.p0, 0), (s.r, key), (s.p1, 0)):
                with pytest.raises(TypeError):
                    view[at] = np.zeros(2)

    def test_factor_view_keys_come_from_the_float_slots(self):
        """On a float-kernel session, ``r`` answers reads and membership
        from the kernel's own slots and never builds ``tree.r_factors``."""
        tree = binary_chain_tree(np.random.default_rng(7), 50)
        s = fresh(tree)
        assert s._kernel is engine._FloatKernel
        first = s.r[(0, 1)]
        assert (0, 1) in s.r and (49, 48) in s.r
        assert (0, 2) not in s.r and (0, 50) not in s.r
        assert all(key not in s.r for key in ("ab", (0, 1.5), (0,), None))
        with pytest.raises(KeyError):
            s.r[(0, 2)]
        assert "r_factors" not in tree.__dict__
        assert list(s.r) == list(tree.r_factors)
        assert np.abs(first - tree.r_factors[(0, 1)]).max() <= 1e-15

    def test_array_sessions_read_the_half_edge_table_only(self, asia_tables):
        """An array-kernel session reads the tree's factors by half edge
        and never builds ``tree.r_factors`` beside them."""
        tree = unchecked_copy(asia_tables)
        s = fresh(tree)
        assert s._kernel is engine._ArrayKernel
        s.query(5, Evidence.of({"x_A": 1, "x_D": 1}))
        s.multi_evidence_simq(Evidence.of({"x_H": 1}))
        s.simq_step(1, 0, np.zeros(1))
        s.dense_sensitivity(2, 5)
        assert s.r[(5, 2)].shape == (tree.rank(5, 2), 6)
        assert "half_edge_factors" in vars(tree) and "r_factors" not in vars(tree)


# -- the two kernels -----------------------------------------------------


def on_both_kernels(monkeypatch, tree, operation):
    """Run ``operation`` on a fresh float-kernel session and on a fresh
    session forced onto the array kernel; return both sessions."""
    fast = QuerySession(tree)
    assert fast._kernel is engine._FloatKernel
    operation(fast)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_choose_kernel", lambda tree: engine._ArrayKernel)
        slow = QuerySession(tree)
    assert slow._kernel is engine._ArrayKernel
    operation(slow)
    return fast, slow


def assert_same_state(fast, slow, tol=1e-12):
    tree = fast.tree
    for ident in range(len(tree.compounds)):
        assert isinstance(fast.p[ident], np.ndarray)
        assert np.abs(fast.p[ident] - slow.p[ident]).max() <= tol
        assert np.abs(fast.p0[ident] - slow.p0[ident]).max() <= tol
    assert set(fast.p1) == set(slow.p1)
    for ident in slow.p1:
        assert np.abs(fast.p1[ident] - slow.p1[ident]).max() <= tol
    for key in tree.r_factors:
        assert fast.r[key].shape == slow.r[key].shape
        assert np.abs(fast.r[key] - slow.r[key]).max() <= tol
    assert fast.instr.messages == slow.instr.messages
    assert fast.instr.traversals == slow.instr.traversals
    assert fast.instr.touched == slow.instr.touched
    assert fast.instr.mode == slow.instr.mode


def chain_evidence(rng, length, size):
    nodes = rng.choice(length, size=min(size, length), replace=False)
    return Evidence.of({f"v{int(n)}": int(rng.integers(0, 2)) for n in nodes})


class TestKernelChoice:
    def test_loaded_all_binary_rank_one_trees_pick_the_float_kernel(self):
        tree = binary_chain_tree(np.random.default_rng(0), 5)
        assert engine._choose_kernel(tree) is engine._FloatKernel
        sc = tree.scalars
        for i, c in enumerate(tree.compounds):
            assert sc.prior[i] == c.prior.probs[1]
        for (i, j), r in tree.r_factors.items():
            assert sc.factor.ravel()[sc.slot[tree.half_edge(j, i)]] == r[0, 1] - r[0, 0]

    def test_other_trees_pick_the_array_kernel(self, asia_tables, asia_compiled):
        chain = binary_chain_tree(np.random.default_rng(0), 5)
        unchecked = unchecked_copy(chain)
        for tree in (asia_tables, asia_compiled[0], unchecked):
            assert tree.scalars is None
            assert engine._choose_kernel(tree) is engine._ArrayKernel

    def test_rank_zero_edge_picks_the_array_kernel(self):
        spaces = [StateSpace.binary((f"v{i}",)) for i in range(3)]
        priors = [Distribution(np.array([0.4, 0.6]))] * 3
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        factors = {
            (1, 0): algebra.QRFactors(unit, 0.5 * unit),
            (2, 1): algebra.QRFactors(np.zeros((0, 2)), np.zeros((0, 2))),
        }
        tree = compiler.accept_precompiled(spaces, priors, factors)
        assert tree.decay.all_binary and tree.scalars is None
        s = QuerySession(tree)
        s.query(0, Evidence.of({"v1": 1, "v2": 0}))
        assert sorted(length for _, length in s.instr.messages) == [0, 0, 1, 1]
        # a flood crosses the rank-0 edge into a node whose state died
        s.instantiate(2, {"v2": 0}).commit()
        s.instantiate(1, {"v1": 1})
        assert np.array_equal(s.p[2], [1.0, 0.0])


class TestKernelEquivalence:
    """The float kernel computes what the array kernel computes."""

    @pytest.mark.parametrize("length", [2, 3, 4, 7, 30, 300])
    def test_binary_chains(self, monkeypatch, length):
        rng = np.random.default_rng(length)
        tree = binary_chain_tree(rng, length)
        for _ in range(3):
            ev = chain_evidence(rng, length, int(rng.integers(1, 4)))
            homes = sorted(tree.member_home(label) for label in ev.as_dict())
            queries = {0, length - 1, length // 2, homes[0], int(rng.integers(0, length))}
            for node in sorted(queries):
                fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.query(node, ev))
                assert_same_state(fast, slow)
            fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.multi_evidence_simq(ev))
            assert_same_state(fast, slow)

    def test_states_that_evidence_kills(self, monkeypatch):
        """A chain of copies and one 0.5 coupling: evidence drives states to
        zero that still couple to their neighbors, and both kernels refresh
        those factors alike."""
        spaces = [StateSpace.binary((f"v{i}",)) for i in range(4)]
        priors = [Distribution(np.array([0.6, 0.4]))] * 4
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        copy, half = algebra.QRFactors(unit, unit), algebra.QRFactors(unit, 0.5 * unit)
        pairs = {(1, 0): copy, (2, 1): half, (3, 2): copy}
        tree = compiler.accept_precompiled(spaces, priors, pairs)
        for ev in ({"v0": 1}, {"v3": 0}, {"v0": 1, "v3": 1}, {"v1": 0, "v2": 1}):
            ev = Evidence.of(ev)
            fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.multi_evidence_simq(ev))
            assert_same_state(fast, slow)
            for node in range(4):
                fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.query(node, ev))
                assert_same_state(fast, slow)

    def test_compiled_binary_random_trees(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(8):
            net = random_tree_network(rng, int(rng.integers(2, 11)))
            tree, _ = compiler.compile_network(net)
            ev = random_evidence(rng, net, int(rng.integers(0, 4)))
            for comp in tree.compounds:
                fast, slow = on_both_kernels(
                    monkeypatch, tree, lambda s: s.query(comp.ident, ev)
                )
                assert_same_state(fast, slow)
            fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.multi_evidence_simq(ev))
            assert_same_state(fast, slow)

    def test_instantiate_commit_and_simq_step(self, monkeypatch):
        tree = binary_chain_tree(np.random.default_rng(5), 40)

        def steps(s):
            s.instantiate(3, {"v3": 1})
            s.commit()
            s.instantiate(30, {"v30": 0})
            s.simq_step(11, 12, np.array([0.01]))

        fast, slow = on_both_kernels(monkeypatch, tree, steps)
        assert_same_state(fast, slow)

    def test_traced_events_agree(self, monkeypatch):
        tree = binary_chain_tree(np.random.default_rng(6), 12)
        ev = Evidence.of({"v0": 1, "v5": 0, "v9": 1, "v11": 0})

        def traced(s):
            s._record_trace = True
            s.query(7, ev)
            s.multi_evidence_simq(ev)

        fast, slow = on_both_kernels(monkeypatch, tree, traced)
        assert [e[:2] for e in fast.trace] == [e[:2] for e in slow.trace]
        for (_, _, one), (_, _, two) in zip(fast.trace, slow.trace):
            assert np.abs(one - two).max() <= 1e-12

    def test_truncated_query_balls(self, monkeypatch):
        profile = truncation.DecayProfile(0.9, 0.09, 0.1)
        rng = np.random.default_rng(7)
        tree = binary_chain_tree(rng, 200, alpha=0.9, coupling_lo=0.8)
        for radius in (1, 3, 10, 40):
            ev = chain_evidence(rng, 200, 4)
            node = int(rng.integers(0, 200))
            fast, slow = on_both_kernels(
                monkeypatch,
                tree,
                lambda s: truncation.truncated_query(s, node, ev, profile, radius=radius),
            )
            assert_same_state(fast, slow)
            assert all(abs(n - node) <= radius for n in fast.instr.touched)


class TestFloatKernelSessions:
    """TestSessionReuse and the zero-evidence rule on the float kernel."""

    @pytest.fixture(scope="class")
    def binary_net(self):
        return random_tree_network(np.random.default_rng(41), 9)

    def test_queries_and_floods_match_fresh_sessions_and_oracle(self, binary_net):
        tree, _ = compiler.compile_network(binary_net)
        reused = fresh(tree)
        assert reused._kernel is engine._FloatKernel
        steps = [
            ("query", "v4", {"v1": 1, "v7": 1}),
            ("query", "v4", {"v7": 0}),
            ("flood", "v1", {"v1": 1}),
            ("query", "v8", {"v2": 1}),
            ("flood", "v7", {"v7": 0}),
            ("query", "v0", {"v2": 0, "v8": 1}),
            ("query", "v4", {}),
        ]
        for kind, label, ev in steps:
            evidence = Evidence.of(ev)
            if kind == "query":
                ident = tree.member_home(label)
                got = reused.query(ident, evidence).probs
                assert np.abs(got - fresh(tree).query(ident, evidence).probs).max() <= 1e-9
                want = oracle.posterior(binary_net, evidence, label).probs
                assert np.abs(got - want).max() <= 1e-9
            else:
                reused.instantiate(tree.member_home(label), ev)
                one = fresh(tree).instantiate(tree.member_home(label), ev)
                want = oracle_all_nodes(binary_net, tree, evidence)
                for ident, expected in want.items():
                    assert np.abs(reused.p[ident] - one.p[ident]).max() <= 1e-9
                    assert np.abs(reused.p[ident] - expected).max() <= 1e-9

    def test_commit_and_query_after_committed_flood(self, binary_net):
        tree, _ = compiler.compile_network(binary_net)
        s = fresh(tree)
        s.query(tree.member_home("v3"), Evidence.of({"v5": 0}))
        s.instantiate(tree.member_home("v1"), {"v1": 1})
        s.commit()
        want = oracle_all_nodes(binary_net, tree, Evidence.of({"v1": 1}))
        for ident, expected in want.items():
            assert np.abs(s.p0[ident] - expected).max() <= 1e-9
        s.multi_evidence_simq(Evidence.of({"v6": 0}))
        evidence = Evidence.of({"v1": 1, "v6": 0, "v8": 1})
        ident = tree.member_home("v4")
        got = s.query(ident, Evidence.of({"v8": 1})).probs
        want = oracle.posterior(binary_net, evidence, "v4").probs
        assert np.abs(got - want).max() <= 1e-9

    def test_zero_probability_instantiation_errors(self):
        s = fresh(binary_chain_tree(np.random.default_rng(1), 6))
        assert s._kernel is engine._FloatKernel
        s.instantiate(0, {"v0": 1})
        s.commit()
        with pytest.raises(ZeroEvidenceError):
            s.instantiate(0, {"v0": 0})
        with pytest.raises(ZeroEvidenceError):
            s.query(0, Evidence.of({"v0": 0}))

    def test_errors_match_the_array_kernel(self, monkeypatch):
        spaces = [StateSpace.binary((f"v{i}",)) for i in range(4)]
        priors = [Distribution(np.array([0.6, 0.4]))] * 4
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        copy = algebra.QRFactors(unit, unit)  # each node equals its parent
        copies = compiler.accept_precompiled(
            spaces, priors, {(k, k - 1): copy for k in range(1, 4)}
        )
        # a coupling of 3 is no sensitivity: loading refuses it, so it is
        # built past that check to reach the engine's refusals
        wild_pair = {(1, 0): algebra.QRFactors(unit, 3 * unit)}
        with pytest.raises(ConsistencyError, match="no sensitivity"):
            compiler.accept_precompiled(spaces[:2], priors[:2], wild_pair)
        wild = accepted_without_table_check(spaces[:2], priors[:2], wild_pair)
        cases = [
            (copies, lambda s: s.multi_evidence_simq(Evidence.of({"v0": 1, "v3": 0}))),
            (copies, lambda s: s.query(1, Evidence.of({"v0": 1, "v3": 0}))),
            (copies, lambda s: s.query(2, Evidence.of({"v0": 1, "v1": 1, "v3": 1}))),
            (copies, lambda s: s.instantiate(2, {"v2": 0})),
            (copies, lambda s: s.query(3, Evidence.of({"v0": 1}))),
            (copies, lambda s: s.query(0, Evidence.of({"v3": 1}))),
            (wild, lambda s: s.query(1, Evidence.of({"v0": 1}))),
            (wild, lambda s: s.multi_evidence_simq(Evidence.of({"v0": 0}))),
        ]
        seen = set()
        for tree, case in cases:
            outcomes = []
            for force in (False, True):
                with monkeypatch.context() as patch:
                    if force:
                        patch.setattr(engine, "_choose_kernel", lambda t: engine._ArrayKernel)
                    s = QuerySession(tree)
                try:
                    case(s)
                    outcomes.append(("ok", s.instr.messages))
                except SensBnError as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0][0])
        assert seen == {"ok", "ZeroEvidenceError", "ZeroMassError"}


def test_deep_chains_keep_the_recursion_limit():
    """Queries and floods on deep chains, float and array kernels, run
    under a low recursion limit and leave it as it was."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from sensbn import algebra, compiler, engine, generators
        from sensbn.model import Distribution, Evidence, StateSpace

        sys.setrecursionlimit(300)
        binary = generators.binary_chain_tree(np.random.default_rng(0), 20000)
        T = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.2, 0.6]])
        pair = algebra.qr_factor(algebra.cpt_to_sensitivity(T))
        p, priors = np.array([0.5, 0.3, 0.2]), []
        for _ in range(3000):
            priors.append(Distribution(p))
            p = T @ p
        spaces = [StateSpace((f"t{k}",), (3,)) for k in range(3000)]
        three = compiler.accept_precompiled(
            spaces, priors, {(k, k - 1): pair for k in range(1, 3000)}
        )
        runs = [
            (binary, engine._FloatKernel, "v", 20000),
            (three, engine._ArrayKernel, "t", 3000),
        ]
        for tree, kernel, prefix, n in runs:
            ev = Evidence.of({f"{prefix}0": 1, f"{prefix}{n - 1}": 0})
            session = engine.QuerySession(tree)
            assert session._kernel is kernel
            exact = session.query(n // 2, ev).probs
            assert len(session.instr.touched) == n
            session.multi_evidence_simq(ev)
            assert np.abs(session.p[n // 2] - exact).max() <= 1e-9
        print(sys.getrecursionlimit())
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["300"]


def test_flood_answers_every_asia_evidence_set_the_oracle_answers(asia_net, asia_compiled):
    """Every set of one to three evidence nodes, in every state, on the
    asia tree with x_C, x_E, x_G grouped: the flood's posterior of every
    node matches the oracle, and evidence of probability zero is refused
    as such.  States that evidence kills keep couplings on this tree."""
    tree, _ = asia_compiled
    labels = asia_net.labels
    answered = refused = 0
    for k in (1, 2, 3):
        for nodes in itertools.combinations(labels, k):
            for states in itertools.product((0, 1), repeat=k):
                ev = Evidence.of(dict(zip(nodes, states)))
                try:
                    oracle.posterior(asia_net, ev, labels[0])
                except ZeroEvidenceError:
                    with pytest.raises(ZeroEvidenceError):
                        fresh(tree).multi_evidence_simq(ev)
                    refused += 1
                    continue
                s = fresh(tree).multi_evidence_simq(ev)
                for q in labels:
                    want = oracle.posterior(asia_net, ev, q).probs
                    home = tree.member_home(q)
                    got = tree.member_marginal(home, q, s.p[home])
                    assert np.abs(got - want).max() <= 1e-12, (ev, q)
                    answered += 1
    assert answered == 4400
    assert refused == 26


# -- walking by runs ----------------------------------------------------------


def binary_tree(rng, parents, flip=0.5):
    """An all-binary tree with rank-1 edges from ``accept_precompiled``:
    node k > 0 hangs off ``parents[k - 1]``, with random priors and
    couplings whose conditional tables stay inside [0.02, 0.98].  Node ids
    are shuffled, and each edge is given in a random direction."""
    n = len(parents) + 1
    ident = rng.permutation(n)
    p = [float(rng.uniform(0.2, 0.8))]
    unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
    factors = {}
    for k in range(1, n):
        j = parents[k - 1]
        s = float(rng.uniform(0.3, 0.9)) * (1 if rng.random() < 0.5 else -1)
        a = float(rng.uniform(max(0.02, 0.02 - s), min(0.98, 0.98 - s)))
        p.append(a + s * p[j])
        if rng.random() < flip:
            # the coupling of the parent with respect to the child
            s = s * p[j] * (1 - p[j]) / (p[k] * (1 - p[k]))
            factors[(int(ident[j]), int(ident[k]))] = algebra.QRFactors(unit, s * unit)
        else:
            factors[(int(ident[k]), int(ident[j]))] = algebra.QRFactors(unit, s * unit)
    spaces = [StateSpace.binary((f"v{i}",)) for i in range(n)]
    priors = [None] * n
    for k in range(n):
        priors[int(ident[k])] = Distribution(np.array([1 - p[k], p[k]]))
    return compiler.accept_precompiled(spaces, priors, factors)


def spider(rng, arms):
    parents = []
    for length in arms:
        parents.append(0)
        parents.extend(range(len(parents), len(parents) + length - 1))
    return binary_tree(rng, parents)


def caterpillar(rng, spine, legs):
    """A path of ``spine`` nodes; spine node k carries a leg of
    ``legs[k % len(legs)]`` nodes."""
    parents = list(range(spine - 1))
    for k in range(spine):
        hook = k
        for _ in range(legs[k % len(legs)]):
            parents.append(hook)
            hook = len(parents)
    return binary_tree(rng, parents)


def branching_trees():
    rng = np.random.default_rng(71)
    return {
        "spider": spider(rng, (1, 7, 60)),
        "caterpillar": caterpillar(rng, 30, (1, 0, 3, 0, 0)),
        "spider-of-spiders": binary_tree(
            rng, [0, 0, 0, 1, 4, 5, 5, 7, 8, 9, 6, 11, 12, 2, 14, 15, 16, 16, 18]
        ),
    }


def node_kinds(tree):
    """The tree's nodes by degree: leaves, run interiors, junctions."""
    kinds = {"leaf": [], "interior": [], "junction": []}
    for i in range(len(tree.compounds)):
        degree = len(tree.neighbors(i))
        kinds["leaf" if degree == 1 else "interior" if degree == 2 else "junction"].append(i)
    return kinds


def label(node):
    return f"v{node}"


def check_half_edges(tree):
    """Every half edge h of ``tree`` runs from its source x to
    ``adjacent[h]``: its twin runs back, ``half_edge`` finds it, it holds
    the factor under key (adjacent[h], x), and on a tree with a float form
    ``slot[h]`` addresses that factor's number."""
    offsets, adjacent = tree.csr
    twin = tree.twin
    halves = 2 * len(tree.edges)
    assert adjacent.size == twin.size == halves and twin.dtype == np.intp
    source = np.repeat(np.arange(tree.node_count), np.diff(offsets))
    assert np.array_equal(twin[twin], np.arange(halves))
    assert np.array_equal(adjacent[twin], source) and np.array_equal(source[twin], adjacent)
    assert not twin.flags.writeable
    table = tree.half_edge_factors
    assert len(table) == halves
    sc = tree.scalars
    if sc is not None:
        assert sc.slot.dtype == np.intp and not sc.slot.flags.writeable
        assert sorted(sc.slot.tolist()) == list(range(halves))
    for h in range(halves):
        x, y = int(source[h]), int(adjacent[h])
        assert tree.half_edge(x, y) == h
        r = tree.r_factors[(y, x)]
        assert table[h] is r
        if sc is not None:
            assert sc.factor.ravel()[sc.slot[h]] == r[0, 1] - r[0, 0]


class TestRuns:
    """The run decomposition recorded at load."""

    @pytest.mark.parametrize("name", ["spider", "caterpillar", "spider-of-spiders"])
    def test_runs_cover_every_edge_once(self, name):
        tree = branching_trees()[name]
        sc = tree.scalars
        assert sc is not None
        seen = set()
        for run in range(sc.run_start.size - 1):
            seq = sc.run_nodes[sc.run_start[run] : sc.run_start[run + 1]].tolist()
            assert len(seq) >= 2
            assert len(tree.neighbors(seq[0])) != 2 and len(tree.neighbors(seq[-1])) != 2
            for g, node in enumerate(seq[1:-1], start=int(sc.run_start[run]) + 1):
                assert len(tree.neighbors(node)) == 2
                assert sc.run_of[node] == run and sc.place[node] == g
            for a, b in zip(seq, seq[1:]):
                seen.add(frozenset((a, b)))
                e = int(sc.run_start[run]) + seq.index(a) - run
                # key (a, b) is held by the half edge from b to a
                assert sc.slot[tree.half_edge(b, a)] == e
                assert sc.slot[tree.half_edge(a, b)] == len(tree.edges) + e
        assert seen == {frozenset(edge) for edge in tree.edges}
        ends = [i for i in range(len(tree.compounds)) if len(tree.neighbors(i)) != 2]
        assert all(sc.run_of[i] == -1 and sc.place[i] == -1 for i in ends)
        check_half_edges(tree)

    def test_one_and_two_node_trees(self):
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        prior = Distribution(np.array([0.3, 0.7]))
        one = compiler.accept_precompiled([StateSpace.binary(("v0",))], [prior], {})
        assert one.scalars.run_nodes.size == 0
        s = QuerySession(one)
        assert np.allclose(s.query(0, Evidence.of({"v0": 1})).probs, [0.0, 1.0])
        s.multi_evidence_simq(Evidence.of({"v0": 0}))
        assert s.instr.messages == [] and s.instr.touched == {0}
        spaces = [StateSpace.binary((f"v{i}",)) for i in range(2)]
        two = compiler.accept_precompiled(
            spaces, [prior, prior], {(1, 0): algebra.QRFactors(unit, 0.2 * unit)}
        )
        assert two.scalars.run_nodes.tolist() == [0, 1]
        assert two.scalars.slot[two.half_edge(1, 0)] == 0
        assert two.scalars.slot[two.half_edge(0, 1)] == 1
        for tree in (one, two):
            check_half_edges(tree)

    def test_half_edges_of_a_chain_and_of_compiled_asia(self, asia_compiled):
        # the branching trees are checked with their runs above
        chain = binary_chain_tree(np.random.default_rng(3), 30)
        assert chain.scalars is not None and asia_compiled[0].scalars is None
        for tree in (chain, asia_compiled[0]):
            check_half_edges(tree)


class TestBranchingTreesOnBothKernels:
    """Walks by runs on trees with junctions compute what the array kernel
    computes, with the same messages in the same order."""

    @pytest.mark.parametrize("name", ["spider", "caterpillar", "spider-of-spiders"])
    def test_floods(self, monkeypatch, name):
        tree = branching_trees()[name]
        kinds = node_kinds(tree)
        rng = np.random.default_rng(72)
        starts = [kinds[kind][0] for kind in ("leaf", "interior", "junction")]
        starts += [kinds["interior"][-1], kinds["leaf"][-1]]
        for node in starts:
            fast, slow = on_both_kernels(
                monkeypatch, tree, lambda s: s.instantiate(node, {label(node): 1})
            )
            assert_same_state(fast, slow)
        for _ in range(3):
            nodes = rng.choice(len(tree.compounds), size=4, replace=False).tolist()
            ev = Evidence.of({label(n): int(rng.integers(0, 2)) for n in nodes})
            order = [int(n) for n in rng.permutation(nodes)]
            fast, slow = on_both_kernels(
                monkeypatch, tree, lambda s: s.multi_evidence_simq(ev, order=order)
            )
            assert_same_state(fast, slow)

        junction, interior = kinds["junction"][0], kinds["interior"][3]

        def steps(s):
            s.instantiate(interior, {label(interior): 0})
            s.commit()
            s.instantiate(junction, {label(junction): 1})
            s.simq_step(tree.neighbors(junction)[0], junction, np.array([0.02]))
            s.commit()
            s.multi_evidence_simq(Evidence.of({label(kinds["leaf"][1]): 1}))

        fast, slow = on_both_kernels(monkeypatch, tree, steps)
        assert_same_state(fast, slow)

    @pytest.mark.parametrize("name", ["spider", "caterpillar", "spider-of-spiders"])
    def test_queries(self, monkeypatch, name):
        tree = branching_trees()[name]
        kinds = node_kinds(tree)
        rng = np.random.default_rng(73)
        for _ in range(4):
            # evidence inside runs, at a junction and at a leaf
            nodes = set(rng.choice(kinds["interior"], size=3, replace=False).tolist())
            nodes |= {int(rng.choice(kinds["junction"])), int(rng.choice(kinds["leaf"]))}
            ev = Evidence.of({label(n): int(rng.integers(0, 2)) for n in nodes})
            queries = {kinds[kind][int(rng.integers(0, len(kinds[kind])))] for kind in kinds}
            queries.add(sorted(nodes)[0])
            for node in sorted(queries):
                fast, slow = on_both_kernels(monkeypatch, tree, lambda s: s.query(node, ev))
                assert_same_state(fast, slow)
                assert dict(fast.barren) == dict(slow.barren)

    def test_queries_after_committed_floods(self, monkeypatch):
        tree = branching_trees()["spider"]
        kinds = node_kinds(tree)

        def steps(s):
            s.multi_evidence_simq(Evidence.of({"v5": 1, label(kinds["leaf"][2]): 0}))
            s.query(kinds["junction"][0], Evidence.of({label(kinds["interior"][30]): 1}))

        fast, slow = on_both_kernels(monkeypatch, tree, steps)
        assert_same_state(fast, slow)

    def test_truncated_query_balls_cut_runs(self, monkeypatch):
        tree = branching_trees()["spider"]
        kinds = node_kinds(tree)
        profile = truncation.DecayProfile(0.95, 0.01, 0.1)
        rng = np.random.default_rng(74)
        for radius in (2, 5, 12, 30):
            nodes = rng.choice(len(tree.compounds), size=5, replace=False).tolist()
            ev = Evidence.of({label(n): int(rng.integers(0, 2)) for n in nodes})
            for node in (kinds["junction"][0], kinds["interior"][20], int(nodes[0])):
                fast, slow = on_both_kernels(
                    monkeypatch,
                    tree,
                    lambda s: truncation.truncated_query(
                        s, node, ev, profile, radius=radius, verified=True
                    ),
                )
                assert_same_state(fast, slow)
                ball = truncation.hop_distances(tree, node, limit=radius)
                assert fast.instr.touched <= set(ball)

    def test_live_nodes_match_the_node_by_node_marking(self, monkeypatch, asia_compiled):
        """The edge rule of entry and exit times gives the barren marks,
        the message log, the touched nodes and the posterior that the rule
        found by a search of the whole tree gives, on both kernels where
        the tree has a float form."""
        trees = dict(branching_trees())
        trees["chain"] = binary_chain_tree(np.random.default_rng(78), 40, alpha=0.9)
        trees["long legs"] = spider(np.random.default_rng(77), (200, 200, 200))
        trees["asia"] = asia_compiled[0]
        net = random_tree_network(np.random.default_rng(3), 2000, max_states=3)
        trees["ternary"] = compiler.compile_network(net)[0]
        net = random_tree_network(np.random.default_rng(4), 400)
        trees["binary"] = compiler.compile_network(net)[0]
        assert trees["ternary"].scalars is None and trees["binary"].scalars is not None

        def searched(self, nodes):
            return searched_evidence_side(self, set(nodes))

        kernels = (engine._FloatKernel, engine._ArrayKernel)
        checked = 0
        for name, tree in trees.items():
            rng = np.random.default_rng(75)
            labels = tree.member_labels
            cases = []
            for _ in range(12):
                picks = rng.choice(len(labels), size=int(rng.integers(0, 5)), replace=False)
                ev = Evidence.of({labels[k]: member_state(tree, labels[k], rng) for k in picks})
                cases.append((int(rng.integers(0, tree.node_count)), ev))
            if name == "long legs":
                # the query at one tip, the evidence at the other two
                tips = node_kinds(tree)["leaf"]
                cases.append((tips[0], Evidence.of({label(tips[1]): 1, label(tips[2]): 0})))
            for query, ev in cases:
                for kernel in kernels if tree.scalars is not None else kernels[1:]:
                    got, want = [], []
                    for out, patched in ((got, False), (want, True)):
                        with monkeypatch.context() as patch:
                            patch.setattr(engine, "_choose_kernel", lambda tree: kernel)
                            if patched:
                                patch.setattr(TreeNetwork, "evidence_side", searched)
                            s = QuerySession(tree)
                            try:
                                posterior = s.query(query, ev).probs.tobytes()
                            except ZeroEvidenceError as exc:
                                posterior = str(exc)
                        out.extend(
                            (posterior, dict(s.barren), s.instr.messages, s.instr.touched)
                        )
                    assert got == want, (name, kernel)
                    checked += 1
        assert checked == 12 * (2 * 6 + 2) + 2


def searched_evidence_side(tree, evidence):
    """The edge rule of a query on ``evidence``, found by a breadth-first
    search of the whole tree from its last node: evidence lies on n's
    side of the edge {u, n} when n's branch away from u holds some."""
    root = tree.node_count - 1
    parent = {root: None}
    order = [root]
    for node in order:
        for nxt in tree.neighbors(node):
            if nxt != parent[node]:
                parent[nxt] = node
                order.append(nxt)
    # the evidence nodes in each node's branch away from the root
    held = {node: int(node in evidence) for node in order}
    for node in reversed(order[1:]):
        held[parent[node]] += held[node]

    def beyond(u, n):
        return held[n] > 0 if parent[n] == u else held[root] > held[u]

    return beyond


def member_state(tree, label, rng):
    """A random state of the member ``label``."""
    space = tree.compound(tree.member_home(label)).space
    return int(rng.integers(0, space.cards[space.members.index(label)]))


def walk_modes(monkeypatch):
    """Record, for every call of ``_walk``, whether it walked by runs."""
    modes = []
    original = QuerySession._walk

    def spy(self, root, above, payload, grouped, stops=None):
        modes.append("runs" if stops is not None else "nodes")
        return original(self, root, above, payload, grouped, stops)

    monkeypatch.setattr(QuerySession, "_walk", spy)
    return modes


class TestLeavingTheBand:
    """A walk by runs whose values leave the clamp-free band starts over
    one node at a time, so both kernels clamp and refuse alike."""

    @staticmethod
    def chain(coupling, length=8):
        """A chain of equal couplings; one above 1 is no sensitivity, and
        is built past the load check that refuses it."""
        spaces = [StateSpace.binary((f"v{i}",)) for i in range(length)]
        priors = [Distribution(np.array([0.6, 0.4]))] * length
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        pair = algebra.QRFactors(unit, coupling * unit)
        build = compiler.accept_precompiled if coupling <= 1 else accepted_without_table_check
        return build(spaces, priors, {(k, k - 1): pair for k in range(1, length)})

    def outcomes(self, monkeypatch, tree, case):
        """Each kernel's outcome and the float session's walk modes."""
        results, modes = [], None
        for force in (False, True):
            with monkeypatch.context() as patch:
                if force:
                    patch.setattr(engine, "_choose_kernel", lambda t: engine._ArrayKernel)
                s = QuerySession(tree)
                seen = walk_modes(patch)
                try:
                    case(s)
                    results.append(("ok", s.instr.messages, s))
                except SensBnError as exc:
                    results.append((type(exc).__name__, str(exc), None))
            modes = modes if force else seen
        return results, modes

    def test_values_clamped_to_zero_inside_a_run(self, monkeypatch):
        # a chain of copies: evidence drives every interior node to 0 or 1,
        # up to rounding, so the clamp decides what they hold
        tree = self.chain(1.0)
        cases = [
            lambda s: s.multi_evidence_simq(Evidence.of({"v0": 0})),
            lambda s: s.multi_evidence_simq(Evidence.of({"v7": 1})),
            lambda s: s.instantiate(3, {"v3": 0}),
        ]
        for case in cases:
            (fast, slow), modes = self.outcomes(monkeypatch, tree, case)
            assert modes[:2] == ["runs", "nodes"]
            assert fast[0] == slow[0] == "ok" and fast[1] == slow[1]
            assert_same_state(fast[2], slow[2], tol=0.0)
            values = [fast[2].p[i][1] for i in range(8)]
            assert set(values) <= {0.0, 1.0}

    def test_values_out_of_range_inside_a_run(self, monkeypatch):
        # a coupling of 3 pushes the flood's values out of [0, 1]
        tree = self.chain(3.0)
        cases = [
            lambda s: s.multi_evidence_simq(Evidence.of({"v0": 0})),
            lambda s: s.instantiate(4, {"v4": 1}),
        ]
        for case in cases:
            (fast, slow), modes = self.outcomes(monkeypatch, tree, case)
            assert modes == ["runs", "nodes"]
            assert fast[:2] == slow[:2]
            assert fast[0] == "ZeroMassError"

    def test_queries_whose_updates_leave_the_band(self, monkeypatch):
        copies, wild = self.chain(1.0), self.chain(3.0)
        cases = [
            (copies, lambda s: s.query(5, Evidence.of({"v0": 1}))),
            (copies, lambda s: s.query(3, Evidence.of({"v0": 1, "v7": 0}))),
            (wild, lambda s: s.query(6, Evidence.of({"v0": 1}))),
        ]
        seen = set()
        for tree, case in cases:
            (fast, slow), modes = self.outcomes(monkeypatch, tree, case)
            assert modes == ["runs", "nodes"]
            assert fast[:2] == slow[:2]
            if fast[0] == "ok":
                assert_same_state(fast[2], slow[2])
            seen.add(fast[0])
        assert seen == {"ok", "ZeroEvidenceError", "ZeroMassError"}

    def test_walks_inside_the_band_do_not_start_over(self, monkeypatch):
        tree = binary_chain_tree(np.random.default_rng(3), 500)
        modes = walk_modes(monkeypatch)
        s = QuerySession(tree)
        s.multi_evidence_simq(Evidence.of({"v0": 1, "v250": 0, "v499": 1}))
        s.query(100, Evidence.of({"v0": 1, "v250": 0, "v499": 1}))
        assert modes == ["runs"] * 4
        s._record_trace = True
        s.query(100, Evidence.of({"v0": 1}))
        assert modes[-1] == "nodes"


class TestSizeIndependence:
    """Floods and exact queries take the same Python-level steps on a
    chain ten times longer, with the evidence at the same positions."""

    STEPS = (
        "message",
        "weighted",
        "update",
        "banded",
        "enter",
        "enter_banded",
        "refresh",
        "transfer",
        "check_band",
    )

    def count_steps(self, monkeypatch, tree, operation):
        calls = Counter()
        with monkeypatch.context() as patch:
            original = TreeNetwork.neighbors

            def neighbors(self, ident):
                calls["neighbors"] += 1
                return original(self, ident)

            patch.setattr(TreeNetwork, "neighbors", neighbors)
            for name in self.STEPS:
                step = getattr(engine._FloatKernel, name)

                def counted(*args, name=name, step=step):
                    calls[name] += 1
                    return step(*args)

                patch.setattr(engine._FloatKernel, name, staticmethod(counted))
            session = QuerySession(tree)
            result = operation(session)
        return calls, result

    @staticmethod
    def chain(length):
        return binary_chain_tree(np.random.default_rng(9), length, alpha=0.9, coupling_lo=0.8)

    def test_flood_and_query(self, monkeypatch):
        ev = Evidence.of({"v3": 1, "v400": 0, "v1500": 1})
        runs = {
            "flood": lambda s: s.multi_evidence_simq(ev).p[900],
            "query": lambda s: s.query(900, ev).probs,
        }
        for name, operation in runs.items():
            short, at_short = self.count_steps(monkeypatch, self.chain(2_000), operation)
            long, at_long = self.count_steps(monkeypatch, self.chain(20_000), operation)
            assert short == long, name
            assert short["neighbors"] > 0 and short["message"] > 0
            # nothing beyond the last evidence node changes the answer
            assert np.abs(at_short - at_long).max() <= 1e-12

    def test_query_across_spider_legs(self, monkeypatch):
        """An exact query at one tip of a spider with evidence at the other
        two: marking and walking take the same steps with legs ten times
        longer."""

        def query(tree):
            tips = node_kinds(tree)["leaf"]
            ev = Evidence.of({label(tips[1]): 1, label(tips[2]): 0})
            return lambda s: s.query(tips[0], ev)

        counts = []
        for length in (200, 2_000):
            tree = spider(np.random.default_rng(10), (length,) * 3)
            counts.append(self.count_steps(monkeypatch, tree, query(tree))[0])
        assert counts[0] == counts[1]
        assert counts[0]["neighbors"] > 0 and counts[0]["weighted"] > 0, counts[0]


class TestReusedFloatSessions:
    def test_truncated_query_after_a_committed_flood(self):
        tree = binary_chain_tree(np.random.default_rng(12), 10_000, alpha=0.9, coupling_lo=0.8)
        profile = truncation.DecayProfile(0.9, 0.09, 0.1)
        committed = Evidence.of({"v100": 1, "v5000": 0, "v9000": 1})
        asked = Evidence.of({"v4960": 1, "v4700": 0})
        s = QuerySession(tree)
        s.multi_evidence_simq(committed)
        baseline = s._p0.base, s._r0.base
        got, _, plan = truncation.truncated_query(s, 4950, asked, profile, verified=True)
        assert plan.retained_evidence == (4960,)
        # the restart copied nothing, and the query wrote single values only
        assert s._p.base is baseline[0] and s._r.base is baseline[1]
        assert len(s._p) + len(s._r) <= 2 * len(s.instr.touched)
        want = fresh(tree).query(
            4950, Evidence.of({**committed.as_dict(), "v4960": 1})
        ).probs
        assert np.abs(got.probs - want).max() <= 1e-9
        # and a later query still starts from the committed flood
        again = s.query(4950, Evidence.of({"v4960": 1})).probs
        assert np.abs(again - want).max() <= 1e-9


def entries(base):
    """The entries of an array-kernel base by key: a dict of distributions
    by node, or a sequence of factors by half edge."""
    return dict(base) if isinstance(base, dict) else dict(enumerate(base))


class TestReusedArraySessions:
    def test_query_after_a_committed_flood(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        shared = tree.prior_probs, tree.half_edge_factors
        tree_state = [entries(d) for d in shared]
        s = fresh(tree)
        s.multi_evidence_simq(Evidence.of({"x_A": 1}))
        baseline = s._p0.base, s._r0.base
        committed = [entries(d) for d in baseline]
        home = tree.member_home("x_H")
        got = s.query(home, Evidence.of({"x_D": 1})).probs
        # the restart copied no entry: the query wrote into layers over the
        # committed bases, which it left as they were
        assert s._p0.base is baseline[0] and s._r0.base is baseline[1]
        assert s._p.base is baseline[0] and s._r.base is baseline[1]
        assert len(s._p) <= len(s.instr.touched) and len(s._r) <= len(s.instr.touched)
        for base, saved in zip(baseline, committed):
            assert entries(base).keys() == saved.keys()
            assert all(base[k] is v for k, v in saved.items())
        want = fresh(tree).query(home, Evidence.of({"x_A": 1, "x_D": 1})).probs
        assert np.abs(got - want).max() <= 1e-9
        want = oracle.posterior(asia_net, Evidence.of({"x_A": 1, "x_D": 1}), "x_H").probs
        assert np.abs(tree.member_marginal(home, "x_H", got) - want).max() <= 1e-9
        # a commit merges the operation's writes into the same bases
        s.instantiate(tree.member_home("x_F"), {"x_F": 0})
        written = [dict(s._p), dict(s._r)]
        s.commit()
        assert s._p0.base is baseline[0] and s._r0.base is baseline[1]
        assert not s._p and not s._r
        for base, saved, new in zip(baseline, committed, written):
            assert entries(base).keys() == saved.keys()
            assert all(base[k] is new.get(k, v) for k, v in saved.items())
        # and the tree's own state was never written
        for base, saved in zip(shared, tree_state):
            assert entries(base).keys() == saved.keys()
            assert all(base[k] is v for k, v in saved.items())


class TestOperationRecord:
    """The record's counts agree with the messages it expands to."""

    def check(self, s):
        messages = s.instr.messages
        assert s.instr.message_count == len(messages)
        assert s.instr.message_count == sum(s.instr.traversals.values())
        assert s.instr.ranks == sorted({length for _, length in messages})
        assert s.instr.touched_count == len(s.instr.touched)

    def test_counts_on_both_kernels(self, asia_tables):
        ev = Evidence.of({"x_A": 1, "x_D": 1})
        s = fresh(asia_tables)
        s.query(5, ev)
        self.check(s)
        s.multi_evidence_simq(ev)
        self.check(s)
        tree = branching_trees()["caterpillar"]
        s = fresh(tree)
        s.query(0, Evidence.of({"v3": 1, "v40": 0}))
        self.check(s)
        s.multi_evidence_simq(Evidence.of({"v3": 1, "v40": 0}))
        self.check(s)

    def test_record_is_one_entry_per_stretch(self):
        tree = binary_chain_tree(np.random.default_rng(4), 20_000)
        s = fresh(tree)
        ev = Evidence.of({"v0": 1, "v9000": 0, "v19999": 1})
        s.query(5000, ev)
        assert s.instr.message_count == 2 * 19_999 and len(s.instr.log) <= 16
        assert s.instr.touched_count == 20_000
        s.multi_evidence_simq(ev)
        assert s.instr.message_count == 3 * 19_999 and len(s.instr.log) <= 16

    def test_cli_prints_the_line_without_building_messages(self, capsys, tmp_path, monkeypatch):
        from sensbn import cli, fileio

        tree = binary_chain_tree(np.random.default_rng(8), 3000)
        path = tmp_path / "chain.tree"
        fileio.save(path, fileio.serialize_tree(tree))
        ev = {"v0": 1, "v1700": 0, "v2999": 1}
        for engine_name in ("misq", "simq"):
            s = fresh(tree)
            if engine_name == "misq":
                s.query(1200, Evidence.of(ev))
            else:
                s.multi_evidence_simq(Evidence.of(ev))
            ranks = sorted({r for _, r in s.instr.messages})
            want = (
                f"instrumentation messages={len(s.instr.messages)} ranks={ranks} "
                f"edge_traversals={sum(s.instr.traversals.values())} "
                f"nodes_touched={len(s.instr.touched)}"
            )
            with monkeypatch.context() as patch:
                for name in ("messages", "touched", "traversals"):
                    patch.setattr(engine.Instrumentation, name, property(lambda self: 1 / 0))
                code = cli.main([
                    "query", str(path), "--query", "v1200",
                    "--evidence", ",".join(f"{k}={v}" for k, v in ev.items()),
                    "--engine", engine_name,
                ])
            assert code == 0
            assert want in capsys.readouterr().out.splitlines()
