import itertools
from collections import Counter
from pathlib import Path
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from sensbn import algebra, compiler, engine, fileio, oracle, truncation
from sensbn.engine import QuerySession
from sensbn.errors import (
    ConsistencyError,
    DimensionMismatchError,
    PrunedStateError,
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
from sensbn.model import (
    BeliefNetwork,
    Distribution,
    Evidence,
    FactorStack,
    StateSpace,
    TreeNetwork,
    restrict_distribution,
)
from tests.conftest import accepted_without_table_check, unchecked_copy

DATA = Path(__file__).parent / "data"


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

    def test_message_of_the_wrong_length_is_refused(self, asia_tables):
        s = fresh(asia_tables)
        assert asia_tables.rank(2, 5) == 1
        for payload in (np.zeros(2), np.zeros((1, 1)), np.float64(0.0)):
            with pytest.raises(DimensionMismatchError) as caught:
                s.simq_step(2, 5, payload)
            assert str(caught.value) == (
                f"message 5->2 has length {np.shape(payload)}, edge rank is 1"
            )
        assert not s.instr.messages

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

    @pytest.mark.parametrize("name", ["spider", "caterpillar", "spider-of-spiders"])
    def test_within_is_an_evidence_filter(self, name):
        """``within`` keeps the evidence inside it, whatever its shape: the
        marks and the answer are those of that evidence alone, for sets
        that are not closed under paths from the query, and a query
        outside ``within`` leaves only itself live."""
        tree = branching_trees()[name]
        n = tree.node_count
        rng = np.random.default_rng(79)
        unclosed = 0
        for _ in range(10):
            query = int(rng.integers(n))
            ev = {int(v) for v in rng.choice(n, size=4, replace=False)}
            # the query and some of the evidence, and none of the nodes between
            within = {query, *rng.choice(sorted(ev), size=2, replace=False).tolist()}
            kept = [e for e in ev if e in within]
            marks = dict(fresh(tree).mark_barren(query, ev, within))
            assert marks == dict(fresh(tree).mark_barren(query, kept))
            unclosed += any(not barren and node not in within for node, barren in marks.items())
            evidence = Evidence.of({label(e): int(rng.integers(0, 2)) for e in ev})
            s = fresh(tree)
            got = s.query(query, evidence, within).probs.tobytes()
            assert dict(s.barren) == marks
            kept_evidence = Evidence.of({label(e): evidence.as_dict()[label(e)] for e in kept})
            assert got == fresh(tree).query(query, kept_evidence).probs.tobytes()
            # the query outside `within`: no evidence is kept
            outside = set(ev) - {query}
            marks = fresh(tree).mark_barren(query, ev, outside)
            assert [node for node, barren in marks.items() if not barren] == [query]
            s = fresh(tree)
            got = s.query(query, evidence, outside).probs.tobytes()
            assert dict(s.barren) == dict(marks)
            assert got == fresh(tree).query(query, Evidence.of({})).probs.tobytes()
        assert unclosed

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

    @pytest.mark.parametrize("order", [(0,), (0, 3, 3), (0, 2), (3, 0, 1)])
    def test_order_must_list_exactly_the_evidence_nodes(self, asia_tables, order):
        s = fresh(asia_tables)
        with pytest.raises(
            UnknownLabelError, match="^order must list exactly the evidence nodes$"
        ):
            s.multi_evidence_simq(Evidence.of({"x_A": 1, "x_D": 1}), order=order)
        assert not s.instr.messages

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

    def test_node_views_refuse_what_is_not_a_node(self, asia_tables):
        """``p``, ``p0``, ``p1`` and ``barren`` raise KeyError for anything
        that is not one of their keys, and it is not in them."""
        chain = binary_chain_tree(np.random.default_rng(5), 6)
        for tree, ev in ((asia_tables, {"x_D": 1}), (chain, {"v5": 1})):
            n = tree.node_count
            s = fresh(tree)
            # before any query no node is barren
            assert dict(s.barren) == dict.fromkeys(range(n), False)
            s.query(0, Evidence.of(ev))
            for view in (s.p, s.p0, s.p1, s.barren):
                for key in (-1, n, "0", None, (0, 1)):
                    assert key not in view
                    with pytest.raises(KeyError):
                        view[key]
            assert list(s.barren) == list(range(n)) and len(s.barren) == n

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


class TestFloatPosterior:
    """A float-kernel query's answer, the one number p, is accepted by
    ``Distribution``'s own rules applied to floats: what they accept is
    the constructor's distribution byte for byte, and what they refuse
    raises the constructor's error."""

    @staticmethod
    def answer(p):
        """The answer of a query on a node whose committed state is ``p``."""
        tree = binary_chain_tree(np.random.default_rng(4), 6)
        s = fresh(tree)
        assert s._kernel is engine._FloatKernel
        s.instantiate(0, {"v0": 1}).commit()
        s._p0.base[3] = p
        return s.query(3, Evidence.of({}))

    @staticmethod
    def constructed(p):
        try:
            return Distribution(np.array((1 - p, p)))
        except SensBnError as exc:
            return exc

    VALUES = (
        0.0, -0.0, 1.0, 0.3, 0.7, 5e-324, 1e-300, 1 - 2**-53, 1e-12, -1e-12, -2e-12,
        1 + 1e-12, 1 + 2e-12, -1e-9, 1.5, -0.5, 1e308, np.nan, np.inf, -np.inf,
    )

    @pytest.mark.parametrize("p", VALUES)
    def test_answers_and_refusals_are_the_constructors(self, p):
        want = self.constructed(p)
        if isinstance(want, Distribution):
            got = self.answer(p)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.probs.shape == want.probs.shape and got.probs.dtype == want.probs.dtype
            assert not got.probs.flags.writeable
        else:
            with pytest.raises(SensBnError) as got:
                self.answer(p)
            assert type(got.value) is type(want) and str(got.value) == str(want)

    def test_out_of_range_states_are_refused(self):
        for p in (np.nan, 1.5, -1e-9):
            assert isinstance(self.constructed(p), ZeroMassError)


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


def test_published_tables_answer_what_clamped_steps_accept(asia_tables):
    """On the tree entered from the published four-digit tables, a clamp
    can zero a slightly negative state and leave the mass up to MASS_TOL
    off; the array kernel then divides by the total, so no query and no
    posterior after a flood is refused as a distribution that does not
    sum to one.  With x_C false, x_B is false for certain."""
    tree = asia_tables
    labels = tree.member_labels
    nodes_of_tree = range(tree.node_count)
    answered = 0
    for k in (1, 2, 3):
        for nodes in itertools.combinations(labels, k):
            for states in itertools.product((0, 1), repeat=k):
                ev = Evidence.of(dict(zip(nodes, states)))
                flood = fresh(tree)
                results = [outcome(lambda: flood.multi_evidence_simq(ev))]
                if not isinstance(results[0], tuple):
                    results += [outcome(lambda: flood.posterior(q)) for q in nodes_of_tree]
                results += [outcome(lambda: fresh(tree).query(q, ev)) for q in nodes_of_tree]
                for result in results:
                    if isinstance(result, tuple):
                        assert "sums to" not in result[1], (ev, result)
                    else:
                        answered += 1
    assert answered > 2000
    home = tree.member_home("x_B")
    ev = Evidence.of({"x_C": 0})
    for dist in (fresh(tree).query(home, ev), fresh(tree).multi_evidence_simq(ev).posterior(home)):
        assert dist.probs.tolist() == [1.0, 0.0]


def pair_network(flip):
    """x0 -> a -> b -> x3 and x0 -> x4, where b is a copy of a
    (``flip=False``) or its negation, and x3 a copy of b: grouping (a, b)
    when compiling prunes two of its four states, which leaves a
    two-state compound of two binary members."""
    det = np.array([[0.0, 1.0], [1.0, 0.0]]) if flip else np.eye(2)
    cpts = {
        "x0": np.array([[0.3], [0.7]]),
        "a": np.array([[0.8, 0.25], [0.2, 0.75]]),
        "b": det,
        "x3": np.eye(2),
        "x4": np.array([[0.6, 0.1], [0.4, 0.9]]),
    }
    labels = ("x0", "a", "b", "x3", "x4")
    parents = {"a": ("x0",), "b": ("a",), "x3": ("b",), "x4": ("x0",)}
    return BeliefNetwork(tuple((label, 2) for label in labels), parents, cpts)


def outcome(operation):
    """What ``operation()`` returns, or the type and text of the sensbn
    error it raises."""
    try:
        return operation()
    except SensBnError as exc:
        return type(exc).__name__, str(exc)


class TestObservation:
    """Evidence is observed in place on both kernels: a full assignment
    gives its state's indicator, a partial one the distribution that
    ``restrict_distribution`` gives, bit for bit, and both refuse what it
    refuses with the same text."""

    @pytest.mark.parametrize("flip", [False, True], ids=["copy", "negation"])
    def test_two_member_two_state_compound_on_the_float_kernel(self, flip):
        net = pair_network(flip)
        tree, _ = compiler.compile_network(net, forced_groups=(("a", "b"),))
        pair = tree.compound(tree.member_home("a")).space
        assert pair.members == ("a", "b") and pair.cardinality == 2
        assert pair.pruned == ((1, 2) if not flip else (0, 3))
        assert QuerySession(tree)._kernel is engine._FloatKernel
        cases = [{"a": v} for v in (0, 1)] + [{"b": v} for v in (0, 1)]
        cases += [{"a": v, "b": w} for v in (0, 1) for w in (0, 1)]
        cases += [{**case, "x4": 1} for case in cases]
        answered = 0
        for case in cases:
            ev = Evidence.of(case)
            try:
                want = oracle_all_nodes(net, tree, ev)
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    fresh(tree).multi_evidence_simq(ev)
                for q in range(tree.node_count):
                    with pytest.raises(ZeroEvidenceError):
                        fresh(tree).query(q, ev)
                continue
            s = fresh(tree).multi_evidence_simq(ev)
            for q, expected in want.items():
                assert np.abs(s.p[q] - expected).max() <= 1e-12, (case, q)
                got = fresh(tree).query(q, ev).probs
                assert np.abs(got - expected).max() <= 1e-12, (case, q)
                answered += 1
        assert answered == 12 * tree.node_count

    @pytest.mark.parametrize("seed", range(6))
    def test_observations_are_restrict_distribution_bit_for_bit(self, seed):
        """On one-node trees over random spaces with pruning, on the array
        kernel and, for two-state spaces, on the float kernel: instantiating
        every partial and full assignment gives what
        ``restrict_distribution`` gives, or refuses with its text."""
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(8):
            n = int(rng.integers(1, 4))
            members = tuple(f"m{k}" for k in range(n))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=n))
            full = int(np.prod(cards))
            # keep at least two states, and now and then exactly two
            keep = 2 if rng.random() < 0.4 else int(rng.integers(2, full + 1))
            pruned = rng.choice(full, size=full - keep, replace=False).tolist()
            space = StateSpace(members, cards, pruned)
            raw = rng.random(space.cardinality)
            raw[rng.random(space.cardinality) < 0.3] = 0.0
            raw[int(rng.integers(0, space.cardinality))] += 0.5
            prior = Distribution.normalized(raw)
            tree = compiler.accept_precompiled([space], [prior], {})
            flat = tree.scalars is not None
            assert flat == (space.cardinality == 2)
            probs = QuerySession(tree).p[0]
            for k in range(n + 1):
                for names in itertools.combinations(members, k):
                    for values in itertools.product(*(range(3) for _ in names)):
                        assignment = dict(zip(names, values))
                        got = outcome(lambda: QuerySession(tree).instantiate(0, assignment).p[0])
                        if k == n:
                            want = outcome(lambda: indicator(space, probs, assignment))
                        else:
                            want = outcome(lambda: restricted(space, probs, assignment))
                        if isinstance(want, np.ndarray):
                            assert isinstance(got, np.ndarray), (assignment, got)
                            # the float kernel keeps P(state 1) alone
                            got, want = (got[1:], want[1:]) if flat else (got, want)
                            assert got.tobytes() == want.tobytes(), (assignment, got, want)
                        else:
                            assert got == want, assignment
                        checked += 1
        assert checked > 100

    def test_refusals_on_both_kernels(self, monkeypatch):
        """The three refusals of an observation, with their texts, from a
        query and from a flood that observes the refused node last: a full
        assignment of a pruned state, a full assignment of a state that
        other evidence made impossible, and a partial one that no state of
        positive probability matches."""
        grouped = fileio.load_tree(DATA / "asia_grouped.tree")
        pair, _ = compiler.compile_network(pair_network(True), forced_groups=(("a", "b"),))
        cases = [
            (grouped, 2, {"x_C": 0, "x_E": 1, "x_G": 0}, [2],
             "assignment maps to pruned state 2 of ('x_C', 'x_E', 'x_G')"),
            (grouped, 0, {"x_B": 1, "x_C": 0}, [2, 1],
             "state {'x_B': 1} of X_2 has probability zero"),
            (grouped, 2, {"x_B": 1, "x_C": 0}, [1, 2],
             "no probability mass consistent with {'x_C': 0} on ('x_C', 'x_E', 'x_G')"),
            (pair, 0, {"a": 1, "b": 1}, [1], "assignment maps to pruned state 3 of ('a', 'b')"),
            (pair, 0, {"a": 1, "b": 0, "x3": 1}, [2, 1],
             "state {'a': 1, 'b': 0} of X_2 has probability zero"),
            (pair, 3, {"a": 1, "x3": 1}, [2, 1],
             "no probability mass consistent with {'a': 1} on ('a', 'b')"),
        ]
        kernels = set()
        for tree, query, case, order, text in cases:
            ev = Evidence.of(case)
            for force in (False, True):
                with monkeypatch.context() as patch:
                    if force:
                        patch.setattr(engine, "_choose_kernel", lambda t: engine._ArrayKernel)
                    kernels.add(QuerySession(tree)._kernel)
                    for operation in (
                        lambda: QuerySession(tree).query(query, ev),
                        lambda: QuerySession(tree).multi_evidence_simq(ev, order),
                    ):
                        assert outcome(operation) == ("ZeroEvidenceError", text), (case, force)
        assert kernels == {engine._ArrayKernel, engine._FloatKernel}


def indicator(space, probs, assignment):
    """The observation of a full assignment, from the space's index."""
    try:
        state = space.index(assignment)
    except PrunedStateError as exc:
        raise ZeroEvidenceError(str(exc)) from exc
    if probs[state] <= 0.0:
        raise ZeroEvidenceError(f"state {assignment} of X_1 has probability zero")
    out = np.zeros(space.cardinality)
    out[state] = 1.0
    return out


def restricted(space, probs, assignment):
    """The observation of a partial assignment: the reference form."""
    try:
        return restrict_distribution(Distribution(probs), space, assignment).probs
    except ZeroMassError as exc:
        raise ZeroEvidenceError(str(exc)) from exc


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

    def test_extreme_committed_factors_leak_no_warning(self, monkeypatch):
        """A query and a flood after a commit whose factors overflow the
        vector arithmetic of a run: the band check refuses what that gives
        and the operation starts over one node at a time, as a session
        that walks one node at a time answers, with no RuntimeWarning."""
        tree = self.chain(2_000)
        modes = walk_modes(monkeypatch)
        sessions = [fresh(tree), fresh(tree, record_trace=True)]
        operations = [
            lambda s: s.query(900, Evidence.of({"v3": 1, "v1500": 0})).probs,
            lambda s: s.instantiate(900, {"v900": 0}).p[1200],
        ]
        for s in sessions:
            s.multi_evidence_simq(Evidence.of({"v400": 1}))
            s._r0.base[:] *= 1e200
        for operation in operations:
            del modes[:]
            outcomes = []
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for s in sessions:
                    try:
                        outcomes.append(operation(s).tobytes())
                    except SensBnError as exc:
                        outcomes.append((type(exc), str(exc)))
            assert modes == ["runs", "nodes", "nodes"]
            assert outcomes[0] == outcomes[1]

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


# -- what the tree caches for sessions ------------------------------------


def asia_twin(asia_compiled):
    """A tree of its own, built again from the compiled asia tree's
    columns, whose caches no other test has filled; it runs the array
    kernel."""
    return unchecked_copy(asia_compiled[0])


def poison_weighted_factors(tree, scale=0.5):
    """Replace ``tree.weighted_factors`` by one holding ``scale`` times each
    entry: a wrong factor that still moves no probability mass."""
    vars(tree)["weighted_factors"] = tuple(scale * q for q in tree.weighted_factors)


class TestWeightedFactorCache:
    """The array kernel reads Q at the priors from the tree, and only
    while the session's bases are the tree's own."""

    def test_entries_are_the_walks_own_and_read_only(self, asia_compiled):
        trees = [
            asia_twin(asia_compiled),
            compiler.compile_network(
                random_tree_network(np.random.default_rng(3), 60, max_states=3)
            )[0],
        ]
        for tree in trees:
            adjacent, twin = tree.csr[1], tree.twin
            for h in range(twin.size):
                q = tree.weighted_factors[h]
                want = engine._ArrayKernel.weighted(
                    tree.half_edge_factors[h], tree.prior_probs[int(adjacent[twin[h]])]
                )
                assert not q.flags.writeable
                assert q.shape == want.shape and q.tobytes() == want.tobytes()
                assert tree.weighted_factors[h] is q

    def test_a_fresh_session_reads_the_entries(self, asia_compiled):
        ev = Evidence.of({"x_A": 1, "x_D": 1})
        home = asia_compiled[0].member_home("x_H")
        clean, poisoned = asia_twin(asia_compiled), asia_twin(asia_compiled)
        poison_weighted_factors(poisoned)
        want, got = fresh(clean).query(home, ev).probs, fresh(poisoned).query(home, ev).probs
        assert np.abs(want - got).max() > 1e-3
        want, got = fresh(clean).multi_evidence_simq(ev), fresh(poisoned).multi_evidence_simq(ev)
        assert np.abs(want.p[home] - got.p[home]).max() > 1e-3

    def test_a_committed_session_no_longer_reads_them(self, asia_net, asia_compiled):
        tree = asia_twin(asia_compiled)
        committed = {"x_A": 1}
        s = fresh(tree)
        s.multi_evidence_simq(Evidence.of(committed))
        poison_weighted_factors(tree)
        for query, asked in [("x_H", {"x_D": 1}), ("x_B", {"x_F": 0, "x_C": 1}), ("x_E", {})]:
            ev = Evidence.of({**committed, **asked})
            got = s.query(tree.member_home(query), Evidence.of(asked)).probs
            got = tree.member_marginal(tree.member_home(query), query, got)
            want = oracle.posterior(asia_net, ev, query).probs
            assert np.abs(got - want).max() <= 1e-9
        s.multi_evidence_simq(Evidence.of({"x_H": 0}))
        want = oracle_all_nodes(asia_net, tree, Evidence.of({**committed, "x_H": 0}))
        for ident, probs in want.items():
            assert np.abs(s.p[ident] - probs).max() <= 1e-9

    def test_nodes_an_operation_wrote_no_longer_read_them(self, asia_compiled):
        """``simq_step`` after an uncommitted flood enters nodes the flood
        wrote, on the tree's own bases: it weighs them at their working
        values, whatever the entries say."""
        states = []
        for poison in (False, True):
            tree = asia_twin(asia_compiled)
            s = fresh(tree)
            s.instantiate(tree.member_home("x_A"), {"x_A": 1})
            if poison:
                poison_weighted_factors(tree)
            s.simq_step(2, 5, np.full(tree.rank(2, 5), 0.01))
            probs = [s.p[i].tobytes() for i in range(tree.node_count)]
            states.append((probs, [r.tobytes() for r in s.r.values()]))
        assert states[0] == states[1]

    def test_threads_on_one_cold_tree_answer_as_one_thread(self, asia_compiled):
        import threading

        tree = asia_compiled[0]
        rng = np.random.default_rng(21)
        labels = tree.member_labels
        asked = [
            (int(rng.integers(tree.node_count)), {
                label: int(rng.integers(2)) for label in rng.choice(labels, 2, replace=False)
            })
            for _ in range(40)
        ]

        def answers(tree):
            out = []
            for node, ev in asked:
                try:
                    out.append(fresh(tree).query(node, Evidence.of(ev)).probs.tobytes())
                except ZeroEvidenceError as exc:
                    out.append(str(exc))
            return out

        want = answers(asia_twin(asia_compiled))
        shared = asia_twin(asia_compiled)
        got: list = [None] * 4

        def work(k):
            got[k] = answers(shared)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


class TestRunTransferColumns:
    """The float kernel reads a query stretch's product off the tree's
    run columns, and only while the session's bases are the tree's own."""

    def test_columns_are_their_formulas_and_read_only(self):
        trees = [binary_chain_tree(np.random.default_rng(2), 50), *branching_trees().values()]
        for tree in trees:
            sc = tree.scalars
            assert not sc.transfer.flags.writeable
            assert sc.transfer.shape == (2, sc.run_nodes.size)
            factor = sc.factor
            for run in range(sc.run_start.size - 1):
                first, stop = sc.run_start[run], sc.run_start[run + 1]
                assert (sc.transfer[:, [first, stop - 1]] == 0.0).all()
                for g in range(first + 1, stop - 1):
                    p = sc.prior[sc.run_nodes[g]]
                    lower, upper = factor[0, g - 1 - run], factor[1, g - run]
                    assert sc.transfer[0, g] == p * (1.0 - p) * lower * upper
                    assert sc.transfer[1, g] == p * (1.0 - p) * upper * lower

    def test_a_committed_session_no_longer_reads_them(self):
        def build():
            return binary_chain_tree(np.random.default_rng(12), 3000, alpha=0.9, coupling_lo=0.8)

        profile = truncation.DecayProfile(0.9, 0.09, 0.1)
        committed = Evidence.of({"v100": 1, "v1500": 0, "v2900": 1})
        asked = [
            (1450, Evidence.of({"v1460": 1, "v1200": 0})),
            (700, Evidence.of({"v10": 0, "v2000": 1})),
        ]

        def answers(tree, poison):
            s = QuerySession(tree)
            s.multi_evidence_simq(committed)
            if poison:
                tree.scalars.transfer.setflags(write=True)
                tree.scalars.transfer[:] = 0.0
            out = []
            for node, ev in asked:
                out.append(s.query(node, ev).probs.tobytes())
                got, _, _ = truncation.truncated_query(s, node, ev, profile, verified=True)
                out.append(got.probs.tobytes())
            return out

        poisoned = build()
        assert answers(poisoned, True) == answers(build(), False)
        # a fresh session reads the poisoned columns
        node, ev = asked[0]
        want = QuerySession(build()).query(node, ev).probs
        assert np.abs(QuerySession(poisoned).query(node, ev).probs - want).max() > 1e-3
        assert "weighted_factors" not in vars(poisoned)
