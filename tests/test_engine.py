import itertools
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sensbn import algebra, compiler, engine, oracle, truncation
from sensbn.engine import Overlay, QuerySession
from sensbn.errors import SensBnError, ZeroEvidenceError
from sensbn.generators import (
    binary_chain_tree,
    random_evidence,
    random_groupings,
    random_tree_network,
)
from sensbn.model import Distribution, Evidence, StateSpace, TreeNetwork


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
        s.p[0] = np.array([0.0, 1.0])
        payload = s.r[(1, 0)] @ (s.p[0] - s.p0[0])
        s.simq_step(1, 0, payload)
        assert np.allclose(
            s.p[2], [0.5002, 0.3975, 0.0263, 0.0210, 0.0235, 0.0315], atol=1e-4
        )

    def test_leaf_receiver_does_not_forward(self, asia_tables):
        s = fresh(asia_tables)
        n_before = len(s.instr.messages)
        s.simq_step(0, 1, np.zeros(1))  # X_1 is a leaf
        assert len(s.instr.messages) == n_before


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
        from sensbn.model import TreeNetwork

        reordered = TreeNetwork(
            asia_tables.compounds,
            tuple(reversed(asia_tables.edges)),
            asia_tables.r_factors,
            name=asia_tables.name,
        )
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


class TestOverlay:
    def test_reads_fall_through_and_writes_stay_local(self):
        base = {k: k * 10 for k in range(5)}
        view = Overlay(base)
        view[2] = -1
        assert base[2] == 20
        assert dict(view) == {0: 0, 1: 10, 2: -1, 3: 30, 4: 40}
        assert len(view) == 5 and 4 in view and 5 not in view
        assert view.get(3) == 30 and view.get(5, "none") == "none"

    def test_fork_copies_only_own_entries(self):
        view = Overlay({k: k for k in range(1000)})
        view[7] = "seven"
        twin = view.fork()
        assert dict.keys(twin) == {7}
        twin[8] = "eight"
        assert view[8] == 8 and twin[7] == "seven"


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
        assert tree.scalars.priors == {
            i: float(c.prior.probs[1]) for i, c in enumerate(tree.compounds)
        }
        for key, r in tree.r_factors.items():
            assert tree.scalars.factors[key] == float(r[0, 1] - r[0, 0])

    def test_other_trees_pick_the_array_kernel(self, asia_tables, asia_compiled):
        chain = binary_chain_tree(np.random.default_rng(0), 5)
        unchecked = TreeNetwork(chain.compounds, chain.edges, chain.r_factors)
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
        # a coupling of 3 is no sensitivity, but it loads
        wild = compiler.accept_precompiled(
            spaces[:2], priors[:2], {(1, 0): algebra.QRFactors(unit, 3 * unit)}
        )
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
                    assert np.abs(s.member_posterior(q).probs - want).max() <= 1e-12, (ev, q)
                    answered += 1
    assert answered == 4400
    assert refused == 26
