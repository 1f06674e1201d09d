import sys
from pathlib import Path

import numpy as np
import pytest

from sensbn import accept, algebra, compiler, fileio, oracle
from sensbn.algebra import QRFactors
from sensbn.accept import (
    accept_precompiled,
    check_tree_consistency,
    factor_pairs,
    reconstruct_dense,
)
from sensbn.compiler import (
    ClusterPlan,
    compile_network,
    moralize,
    plan_clusters,
    plan_violations,
)
from sensbn.errors import (
    ConsistencyError,
    DimensionMismatchError,
    ZeroEvidenceError,
    ZeroMassError,
)
from sensbn.engine import QuerySession
from sensbn.generators import (
    binary_chain_network,
    binary_chain_tree,
    random_cpt,
    random_evidence,
    random_groupings,
    random_tree_network,
)
from sensbn.model import BeliefNetwork, Distribution, Evidence, FactorStack, StateSpace
from tests.conftest import (
    accepted_without_table_check,
    bumped_factor,
    table1_priors,
    unchecked_copy,
)


def chain3_net():
    rng = np.random.default_rng(0)
    return BeliefNetwork(
        (("x1", 2), ("x2", 2), ("x3", 2)),
        {"x2": ("x1",), "x3": ("x2",)},
        {
            "x1": random_cpt(rng, 2, 1),
            "x2": random_cpt(rng, 2, 2),
            "x3": random_cpt(rng, 2, 2),
        },
    )


class TestMoralize:
    def test_chain_adds_nothing(self):
        adj = moralize(chain3_net())
        assert adj == {"x1": {"x2"}, "x2": {"x1", "x3"}, "x3": {"x2"}}

    def test_v_structure_marries_parents(self):
        net = BeliefNetwork(
            (("x1", 2), ("x2", 2), ("x3", 2)),
            {"x3": ("x1", "x2")},
            {
                "x1": np.array([[0.5], [0.5]]),
                "x2": np.array([[0.5], [0.5]]),
                "x3": random_cpt(np.random.default_rng(1), 2, 4),
            },
        )
        adj = moralize(net)
        assert adj["x1"] == {"x2", "x3"}
        assert adj["x2"] == {"x1", "x3"}

    def test_asia_marriages(self, asia_net):
        adj = moralize(asia_net)
        assert "x_E" in adj["x_B"]  # co-parents of the OR gate
        assert "x_G" in adj["x_C"]  # co-parents of dyspnea


class TestPlanClusters:
    def test_tree_dag_stays_singleton(self):
        net = chain3_net()
        plan = plan_clusters(moralize(net), net)
        assert plan.clusters == (("x1",), ("x2",), ("x3",))
        assert set(plan.tree_edges) == {(0, 1), (1, 2)}
        assert plan_violations(plan, net) == []

    def test_asia_forced_grouping_reproduces_six_node_layout(self, asia_net):
        plan = plan_clusters(
            moralize(asia_net), asia_net, forced_groups=(("x_C", "x_E", "x_G"),)
        )
        assert plan.clusters == (
            ("x_A",),
            ("x_B",),
            ("x_C", "x_E", "x_G"),
            ("x_D",),
            ("x_F",),
            ("x_H",),
        )
        assert set(plan.tree_edges) == {(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)}
        assert plan_violations(plan, asia_net) == []

    def test_random_dags_produce_valid_plans(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            labels = [f"v{i}" for i in range(n)]
            parents = {labels[0]: ()}
            cpts = {labels[0]: random_cpt(rng, 2, 1)}
            for i in range(1, n):
                k = int(rng.integers(0, min(i, 3) + 1))
                ps = tuple(
                    labels[j] for j in rng.choice(i, size=k, replace=False)
                )
                parents[labels[i]] = ps
                cpts[labels[i]] = random_cpt(rng, 2, 2 ** len(ps))
            net = BeliefNetwork(tuple((l, 2) for l in labels), parents, cpts)
            plan = plan_clusters(moralize(net), net)
            assert plan_violations(plan, net) == []

    def test_family_spanning_non_adjacent_clusters_is_flagged(self):
        net = chain3_net()
        bad = ClusterPlan((("x1",), ("x2",), ("x3",)), ((0, 2), (1, 2)))
        kinds = {v.kind for v in plan_violations(bad, net)}
        assert "family" in kinds


class TestCompile:
    def test_asia_priors_match_published_table(self, asia_compiled):
        tree, report = asia_compiled
        for comp in tree.compounds:
            want = table1_priors()[comp.name]
            assert np.abs(comp.prior.probs - want).max() <= 5e-5
        x3 = tree.by_name("X_3")
        assert x3.space.pruned == (2, 3)
        assert x3.space.members == ("x_C", "x_E", "x_G")

    def test_asia_xray_edge_report(self, asia_compiled):
        _, report = asia_compiled
        entry = next(e for e in report.edges if e.child == "X_4")
        assert entry.rank == 1
        assert entry.dense_shape == (2, 6)
        assert entry.dense_count == 12
        assert entry.qr_count == 8

    def test_single_node_network(self):
        net = BeliefNetwork(
            (("only", 2),), {}, {"only": np.array([[0.25], [0.75]])}
        )
        tree, report = compile_network(net)
        assert len(tree.compounds) == 1
        assert tree.edges == ()
        assert np.allclose(tree.compounds[0].prior.probs, [0.25, 0.75])

    def test_compiled_edges_reproduce_oracle_conditionals(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            net = random_tree_network(rng, int(rng.integers(3, 9)))
            tree, _ = compile_network(net)
            for i, j in tree.edges:
                ci, cj = tree.compound(i), tree.compound(j)
                want = oracle.pairwise_conditional(net, ci.space, cj.space).entries
                dense = reconstruct_dense(tree, i, j)
                got = dense + (ci.prior.probs - dense @ cj.prior.probs)[:, None]
                assert np.abs(got - want).max() <= 1e-9

    def test_pruning_soundness(self, asia_net, asia_compiled):
        tree, _ = asia_compiled
        jt = oracle.joint(asia_net)
        for comp in tree.compounds:
            full = oracle.marginal(jt, comp.space.members).reshape(-1)
            for orig in comp.space.pruned:
                assert full[orig] <= 1e-12
            for orig in comp.space.retained:
                assert full[orig] > 1e-12

    def test_disconnected_network_is_joined_by_rank_zero_edge(self):
        net = BeliefNetwork(
            (("a", 2), ("b", 2)),
            {},
            {"a": np.array([[0.3], [0.7]]), "b": np.array([[0.4], [0.6]])},
        )
        tree, report = compile_network(net)
        assert len(tree.edges) == 1
        assert report.edges[0].rank == 0


def random_network(rng, n_nodes, components=1):
    """Random DAG of two- and three-state nodes with up to two parents,
    split into ``components`` unconnected parts, where some CPT columns
    are deterministic so that some compound states have no mass."""
    labels = [f"v{i}" for i in range(n_nodes)]
    cards = [int(rng.integers(2, 4)) for _ in labels]
    part = [i % components for i in range(n_nodes)]
    parents, cpts = {}, {}
    for i, label in enumerate(labels):
        earlier = [j for j in range(i) if part[j] == part[i]]
        k = int(rng.integers(0, min(len(earlier), 2) + 1))
        ps = tuple(labels[j] for j in rng.choice(earlier, size=k, replace=False)) if k else ()
        cols = int(np.prod([cards[labels.index(p)] for p in ps], dtype=int))
        table = random_cpt(rng, cards[i], cols)
        for col in range(cols):
            if rng.random() < 0.3:
                table[:, col] = np.eye(cards[i])[int(rng.integers(0, cards[i]))]
        parents[label], cpts[label] = ps, table
    return BeliefNetwork(tuple(zip(labels, cards)), parents, cpts, name="random")


def assert_matches_oracle(net, tree, rng, tol=1e-12):
    """Priors, pruning, pairwise conditionals, and posteriors from the
    query and from the flood, of a compiled tree against the oracle."""
    jt = oracle.joint(net)
    for comp in tree.compounds:
        full = oracle.marginal(jt, comp.space.members).reshape(-1)
        assert comp.space.pruned == tuple(np.flatnonzero(full <= compiler.PRUNE_EPS))
        want = full[list(comp.space.retained)]
        assert np.abs(comp.prior.probs - want / want.sum()).max() <= tol
    for i, j in tree.edges:
        ci, cj = tree.compound(i), tree.compound(j)
        want = oracle.pairwise_conditional(net, ci.space, cj.space, jt).entries
        dense = reconstruct_dense(tree, i, j)
        got = dense + (ci.prior.probs - dense @ cj.prior.probs)[:, None]
        assert np.abs(got - want).max() <= 1e-9
    for size in (1, 2, 3):
        ev = random_evidence(rng, net, min(size, len(net.labels)))
        query = str(rng.choice(net.labels))
        try:
            want = oracle.posterior(net, ev, query).probs
        except ZeroEvidenceError:
            continue
        home = tree.member_home(query)
        got = tree.member_marginal(home, query, QuerySession(tree).query(home, ev).probs)
        assert np.abs(got - want).max() <= 1e-9
        flood = QuerySession(tree).multi_evidence_simq(ev)
        assert np.abs(tree.member_marginal(home, query, flood.p[home]) - want).max() <= 1e-9


class TestSumProductCompile:
    """compile_network works from the CPTs along the cluster tree; the
    full joint is never built."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grouped_networks_match_the_oracle(self, seed):
        rng = np.random.default_rng([seed, 17])
        pruned = 0
        for components in (1, 1, 2):
            net = random_network(rng, int(rng.integers(4, 10)), components)
            tree, report = compile_network(net, forced_groups=random_groupings(rng, net))
            pruned += len(report.pruned)
            assert_matches_oracle(net, tree, rng)
        assert seed != 0 or pruned > 0

    def test_random_trees_match_the_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            net = random_tree_network(rng, int(rng.integers(2, 13)), max_states=3)
            tree, _ = compile_network(net, forced_groups=random_groupings(rng, net))
            assert_matches_oracle(net, tree, rng)

    def test_asia_matches_the_oracle(self, asia_net, asia_compiled):
        assert_matches_oracle(asia_net, asia_compiled[0], np.random.default_rng(4))
        tree, _ = compile_network(asia_net)
        assert_matches_oracle(asia_net, tree, np.random.default_rng(5))

    def test_compile_never_builds_the_joint(self, asia_net, monkeypatch):
        def refuse(net):
            raise AssertionError("compile built the joint")

        monkeypatch.setattr(oracle, "joint", refuse)
        assert not hasattr(compiler, "oracle")
        compile_network(asia_net, forced_groups=(("x_C", "x_E", "x_G"),))
        compile_network(random_network(np.random.default_rng(2), 8, components=2))
        compile_network(random_tree_network(np.random.default_rng(0), 40))

    def test_chain_past_the_size_guard_matches_the_direct_tree(self):
        """A 2000-node chain, whose joint has 2**2000 states, compiles to
        the tree that binary_chain_tree builds from the same draws."""
        n = 2000
        net = binary_chain_network(np.random.default_rng(8), n)
        direct = binary_chain_tree(np.random.default_rng(8), n)
        tree, _ = compile_network(net)
        assert [c.space.members for c in tree.compounds] == [
            c.space.members for c in direct.compounds
        ]
        got = np.array([c.prior.probs for c in tree.compounds])
        want = np.array([c.prior.probs for c in direct.compounds])
        assert np.abs(got - want).max() <= 1e-12
        for i, j in tree.edges:
            assert (i, j) in direct.r_factors
            diff = reconstruct_dense(tree, i, j) - reconstruct_dense(direct, i, j)
            assert np.abs(diff).max() <= 1e-12
        ev = Evidence.of({"v3": 1, "v900": 0, "v1999": 1})
        for node in (0, 1000, 1999):
            a = QuerySession(tree).query(node, ev).probs
            b = QuerySession(direct).query(node, ev).probs
            assert np.abs(a - b).max() <= 1e-12


#: a multi-parent ladder with three-state nodes; a6 and a7 are grouped
LADDER = (
    ("a0", 3, ()), ("a1", 2, ("a0",)), ("a2", 2, ("a0",)), ("a3", 3, ("a1", "a2")),
    ("a4", 2, ("a3",)), ("a5", 2, ("a3", "a4")), ("a6", 3, ("a4",)), ("a7", 2, ("a6",)),
    ("a8", 2, ("a5", "a7")), ("a9", 3, ("a8", "a6")),
)


def ladder_network(rng):
    card = {label: states for label, states, _ in LADDER}
    cpts = {
        label: random_cpt(rng, states, int(np.prod([card[p] for p in parents], dtype=int)))
        for label, states, parents in LADDER
    }
    return BeliefNetwork(
        tuple(card.items()), {label: parents for label, _, parents in LADDER}, cpts, name="ladder"
    )


def centred_conditionals(net, tree):
    """The centred table p(X_a | X_b) of both directions (a, b) of every
    edge, built apart from the factoring: from the oracle's joint when
    its size guard allows, else from the sum-product pairwise joints of
    the compiled clusters."""
    spaces = [tree.compound(i).space for i in range(tree.node_count)]
    out = {}
    if np.prod([float(net.card(l)) for l in net.labels]) <= oracle.SIZE_GUARD:
        jt = oracle.joint(net)
        for i, j in tree.edges:
            for a, b in ((i, j), (j, i)):
                out[(a, b)] = oracle.pairwise_conditional(net, spaces[a], spaces[b], jt).entries
    else:
        order = [0] + [child for child, _ in tree.edges]
        clusters = tuple(space.members for space in spaces)
        _, joints = compiler._cluster_marginals(net, clusters, order, {0: None, **dict(tree.edges)})
        for i, j in tree.edges:
            pair = joints[i][np.ix_(spaces[i].retained, spaces[j].retained)]
            out[(i, j)] = pair / pair.sum(axis=0)
            out[(j, i)] = pair.T / pair.T.sum(axis=0)
    return {key: algebra.center_rows(table) for key, table in out.items()}


def assert_factored_as_parent(net, tree, report, rng=None):
    """Every edge's rank is the rank rule's on its centred table, and the
    stored factors rebuild that table in both directions to 1e-12; with
    ``rng``, exact queries and floods give the oracle's posteriors."""
    # stored factors are laid out as loaded ones are, whatever strides
    # the decomposition returned
    for stack in tree.factor_stacks:
        assert stack.fwd.flags.c_contiguous and stack.bwd.flags.c_contiguous
    tables = centred_conditionals(net, tree)
    assert [(e.child, e.parent) for e in report.edges] == [
        (tree.compound(i).name, tree.compound(j).name) for i, j in tree.edges
    ]
    for (i, j), entry in zip(tree.edges, report.edges):
        assert entry.dense_shape == tables[(i, j)].shape
        assert entry.rank == algebra.numerical_rank(tables[(i, j)]) == tree.rank(i, j)
        for a, b in ((i, j), (j, i)):
            assert np.abs(reconstruct_dense(tree, a, b) - tables[(a, b)]).max() <= 1e-12
    if rng is None:
        return
    for size in (1, 2, 3):
        ev = random_evidence(rng, net, size)
        query = str(rng.choice(net.labels))
        try:
            want = oracle.posterior(net, ev, query).probs
        except ZeroEvidenceError:
            continue
        home = tree.member_home(query)
        got = tree.member_marginal(home, query, QuerySession(tree).query(home, ev).probs)
        assert np.abs(got - want).max() <= 1e-12
        flood = QuerySession(tree).multi_evidence_simq(ev)
        assert np.abs(tree.member_marginal(home, query, flood.p[home]) - want).max() <= 1e-12


class TestStackedFactoring:
    """compile_network factors each edge shape with one singular value
    decomposition: the gauge of the factors changes, but no rank, coupling
    or posterior does."""

    def test_asia_report_is_pinned(self, asia_net, asia_compiled):
        tree, report = asia_compiled
        assert [(e.child, e.parent, e.dense_shape, e.rank) for e in report.edges] == [
            ("X_2", "X_1", (2, 2), 1),
            ("X_3", "X_2", (6, 2), 1),
            ("X_4", "X_3", (2, 6), 1),
            ("X_5", "X_3", (2, 6), 1),
            ("X_6", "X_3", (2, 6), 1),
        ]
        assert_factored_as_parent(asia_net, tree, report, np.random.default_rng(12))
        ungrouped, report = compile_network(asia_net)
        assert [e.rank for e in report.edges] == [1, 1, 1, 2]
        assert_factored_as_parent(asia_net, ungrouped, report, np.random.default_rng(13))

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_parent_networks_with_forced_groups(self, seed):
        rng = np.random.default_rng([seed, 41])
        ranks = set()
        tree, report = compile_network(ladder_network(rng), forced_groups=(("a6", "a7"),))
        assert_factored_as_parent(ladder_network(np.random.default_rng([seed, 41])), tree, report, rng)
        ranks.update(e.rank for e in report.edges)
        for components in (1, 2):
            net = random_network(rng, int(rng.integers(5, 10)), components)
            tree, report = compile_network(net, forced_groups=random_groupings(rng, net))
            assert_factored_as_parent(net, tree, report, rng)
            ranks.update(e.rank for e in report.edges)
        assert len(ranks) > 2

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees_past_the_size_guard(self, seed):
        net = random_tree_network(np.random.default_rng(seed), 200, max_states=3)
        tree, report = compile_network(net)
        assert len(tree.factor_stacks) > 2
        assert_factored_as_parent(net, tree, report)

    def test_the_first_refused_prior_is_named(self, asia_net, monkeypatch):
        """Priors are normalised one stack per size, and the first refused
        one in cluster order raises Distribution.normalized's error: X_3
        (four retained states) before X_4, whose stack comes first."""
        real = compiler._cluster_marginals

        def nan_priors(net, clusters, order, parent_of):
            priors, joints = real(net, clusters, order, parent_of)
            priors = [p.copy() for p in priors]
            priors[2][0] = priors[3][1] = np.nan
            return priors, joints

        monkeypatch.setattr(compiler, "_cluster_marginals", nan_priors)
        with pytest.raises(ZeroMassError, match="distribution entry 0 is nan"):
            compile_network(asia_net, forced_groups=(("x_C", "x_E", "x_G"),))

    def test_the_first_refused_edge_in_order_is_named(self, monkeypatch):
        """A dead parent column is refused by ConditionalMatrix.from_joint.
        Of two such edges the first in compile order is named, even when
        the later one's shape stack comes first."""
        rng = np.random.default_rng(2)
        cards = {"a": 2, "b": 3, "c": 2, "d": 3}
        net = BeliefNetwork(
            tuple(cards.items()),
            {"b": ("a",), "c": ("b",), "d": ("c",)},
            {"a": random_cpt(rng, 2, 1), "b": random_cpt(rng, 3, 2),
             "c": random_cpt(rng, 2, 3), "d": random_cpt(rng, 3, 2)},
        )
        real = compiler._cluster_marginals

        def dead_columns(net, clusters, order, parent_of):
            priors, joints = real(net, clusters, order, parent_of)
            # edges c | b (shape 2x3) and d | c (3x2, the shape of b | a)
            for child in order[2:]:
                joints[child] = joints[child].copy()
                joints[child][:, 0] = 0.0
            return priors, joints

        monkeypatch.setattr(compiler, "_cluster_marginals", dead_columns)
        with pytest.raises(ZeroMassError, match=r"parent configuration 0 of \('b',\)"):
            compile_network(net)


class TestAcceptPrecompiled:
    def test_tables_fixture_loads_and_checks(self, asia_tables):
        assert len(asia_tables.compounds) == 6
        check_tree_consistency(asia_tables)
        x3 = asia_tables.by_name("X_3")
        assert x3.space.pruned == (2, 3)

    def test_dimension_mismatch_is_rejected(self):
        spaces = [StateSpace.binary(("a",)), StateSpace.binary(("b",))]
        priors = [
            Distribution(np.array([0.5, 0.5])),
            Distribution(np.array([0.5, 0.5])),
        ]
        wide = QRFactors(np.array([[-0.7, 0.7, 0.1]]), np.array([[-0.1, 0.1]]))
        with pytest.raises(DimensionMismatchError):
            accept_precompiled(spaces, priors, {(0, 1): wide})

    def test_perturbed_factor_fails_consistency(self, asia_tables):
        broken = bumped_factor(asia_tables, (1, 0), 1e-5)
        assert broken.decay is None
        with pytest.raises(ConsistencyError):
            check_tree_consistency(broken)


class TestTables2Verbatim:
    def test_fixture_factors_match_published_rows(self, asia_tables):
        rt2 = np.sqrt(2.0)
        rows = {
            ("X_2", "X_1"): np.array([[-0.04 / rt2, 0.04 / rt2]]),
            ("X_3", "X_2"): np.array([[-0.6726 / rt2, 0.6726 / rt2]]),
            ("X_4", "X_3"): np.array(
                [[-0.8768, -0.8768, 0.4384, 0.4384, 0.4384, 0.4384]]
            ),
            ("X_5", "X_3"): np.array(
                [[-0.4069, 0.0220, -0.4069, 0.0220, 0.3132, 0.4565]]
            ),
            ("X_6", "X_3"): np.array(
                [[-0.8250, 0.1650, 0.0236, 0.3064, 0.0236, 0.3064]]
            ),
        }
        for (ni, nj), want in rows.items():
            i = asia_tables.by_name(ni).ident
            j = asia_tables.by_name(nj).ident
            got = asia_tables.r_factors[(i, j)]
            # rows are re-centered at load; published rows are zero-sum to
            # 4 digits, so entries move by at most a few 1e-5
            assert np.abs(got - want).max() <= 5e-5

    def test_compiled_tree_matches_tables_fixture_densely(
        self, asia_compiled, asia_tables
    ):
        tree, _ = asia_compiled
        for (a, b) in tree.edges:
            name_a = tree.compound(a).name
            name_b = tree.compound(b).name
            i = asia_tables.by_name(name_a).ident
            j = asia_tables.by_name(name_b).ident
            exact = reconstruct_dense(tree, a, b)
            published = reconstruct_dense(asia_tables, i, j)
            assert np.abs(exact - published).max() <= 2e-4


UNIT = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)


def two_binary_nodes():
    spaces = [StateSpace.binary(("a",)), StateSpace.binary(("b",))]
    priors = [Distribution(np.array([0.3, 0.7])), Distribution(np.array([0.6, 0.4]))]
    return spaces, priors


def mixed_shape_tree(seed):
    """A compiled tree whose edges come in several (n_i, n_j, rank) shapes."""
    rng = np.random.default_rng(seed)
    net = random_tree_network(rng, 9, max_states=3)
    tree, _ = compile_network(net, forced_groups=(tuple(net.labels[2:4]),))
    return tree


def edge_shape(tree, i, j):
    return (
        tree.compound(i).space.cardinality,
        tree.compound(j).space.cardinality,
        tree.rank(i, j),
    )


def scalar_error(tree, a, b):
    """The consistency error of one edge, computed edge by edge."""
    s_ab = reconstruct_dense(tree, a, b)
    s_ba = reconstruct_dense(tree, b, a)
    p_a = tree.compound(a).prior.probs
    p_b = tree.compound(b).prior.probs
    err = max(
        float(np.abs(s_ba - algebra.reverse_dense(s_ab, p_a, p_b)).max()),
        float(np.abs(s_ab - algebra.reverse_dense(s_ba, p_b, p_a)).max()),
    )
    return err / max(1.0, float(np.abs(s_ab).max()))


def load(tree, pairs):
    return accept_precompiled(
        [c.space for c in tree.compounds],
        [c.prior for c in tree.compounds],
        pairs,
        [c.name for c in tree.compounds],
    )


def per_edge_factors(tree, pairs):
    """The stored factors of ``pairs``, derived edge by edge."""
    stored = {}
    for (i, j), pair in pairs.items():
        inv_i = algebra.inverse_weights(tree.compound(i).prior.probs)
        stored[(i, j)] = algebra.center_rows(pair.r_mat)
        stored[(j, i)] = algebra.center_rows(algebra.center_rows(pair.q) * inv_i[None, :])
    return stored


def interleaved_edges(tree, edges):
    """An edge of ``edges``, and a later one whose shape group is checked
    first."""
    first_of = {}
    for pos, edge in enumerate(tree.edges):
        first_of.setdefault(edge_shape(tree, *edge), pos)
    order = [
        (e1, e2)
        for k, e1 in enumerate(edges)
        for e2 in edges[k + 1 :]
        if first_of[edge_shape(tree, *e2)] < first_of[edge_shape(tree, *e1)]
    ]
    assert order, "the tree's shape groups do not interleave"
    return order[0]


def bumped(tree, edge, delta):
    """``tree`` rebuilt without the load-time check, with the stored factor
    toward the first node of ``edge`` moved by ``delta`` in one entry."""
    return bumped_factor(tree, edge[::-1], delta)


class TestBatchedLoad:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stored_factors_match_the_per_edge_formulas(self, seed):
        tree = mixed_shape_tree(seed)
        assert len({edge_shape(tree, i, j) for i, j in tree.edges}) >= 2
        pairs = factor_pairs(tree)
        loaded = load(tree, pairs)
        assert loaded.edges == tuple(pairs)
        want = per_edge_factors(tree, pairs)
        assert loaded.r_factors.keys() == want.keys()
        for key, mat in want.items():
            assert loaded.r_factors[key].shape == mat.shape
            assert np.abs(loaded.r_factors[key] - mat).max(initial=0.0) <= 1e-14

    def test_stored_factors_are_frozen_with_no_writable_base(self):
        tree = mixed_shape_tree(4)
        for loaded in (load(tree, factor_pairs(tree)), fileio.parse_tree(fileio.serialize_tree(tree))):
            for mat in loaded.r_factors.values():
                view = mat
                while isinstance(view, np.ndarray):
                    assert not view.flags.writeable
                    view = view.base
                with pytest.raises(ValueError):
                    mat[...] = 0.0

    def test_writable_factors_are_copied(self, asia_tables):
        pairs = {
            key: QRFactors(np.array(pair.q), np.array(pair.r_mat))
            for key, pair in factor_pairs(asia_tables).items()
        }
        given = [a for pair in pairs.values() for a in (pair.q, pair.r_mat)]
        tree = load(asia_tables, pairs)
        for mat in tree.r_factors.values():
            assert not any(np.shares_memory(mat, a) for a in given)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_factor_fails_consistency(self):
        spaces, priors = two_binary_nodes()
        sound = accept_precompiled(spaces, priors, {(0, 1): QRFactors(UNIT, 0.5 * UNIT)})
        assert sound.decay.max_coupling == pytest.approx(0.5)
        for pair in (QRFactors(UNIT, np.nan * UNIT), QRFactors(np.nan * UNIT, UNIT),
                     QRFactors(UNIT, np.inf * UNIT)):
            with pytest.raises(ConsistencyError, match="edge X_1 - X_2"):
                accept_precompiled(spaces, priors, {(0, 1): pair})

    @pytest.mark.parametrize("seed", [5, 7, 9])
    def test_tolerance_boundary_and_first_bad_edge(self, seed):
        tree = mixed_shape_tree(seed)
        edges = [e for e in tree.edges if tree.rank(*e) > 0]

        def name(edge):
            return f"{tree.compound(edge[0]).name} - {tree.compound(edge[1]).name}"

        early, late = interleaved_edges(tree, edges)
        probe = 1e-6
        for edge in (early, late):
            per_delta = scalar_error(bumped(tree, edge, probe), *edge) / probe
            inside = bumped(tree, edge, 0.5 * accept.CONSISTENCY_TOL / per_delta)
            check_tree_consistency(inside)
            assert inside.decay is not None
            past = bumped(tree, edge, 2.0 * accept.CONSISTENCY_TOL / per_delta)
            with pytest.raises(
                ConsistencyError, match=f"^edge {name(edge)}: stored factors disagree by "
            ):
                check_tree_consistency(past)
            assert past.decay is None
        both = bumped(tree, late, probe)
        both = bumped(both, early, probe)
        with pytest.raises(ConsistencyError, match=f"^edge {name(early)}:"):
            check_tree_consistency(both)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_couplings_in_weighted_form_match_the_weight_matrix_form(self, seed, monkeypatch):
        """The check rebuilds R W(p) as (R - (R p) 1^T) diag(p) and W(p) X as
        diag(p) (X - 1 p^T X): within a few ulps of the products with the
        n x n weights, and with no weight matrix built."""
        trees = [mixed_shape_tree(seed), binary_chain_tree(np.random.default_rng(seed), 50)]
        tol = 8 * np.finfo(float).eps
        for tree in trees:
            nodes, ends = tree.node_columns, tree.edge_ends
            for st in tree.factor_stacks:
                p_a = nodes.prior_stack(ends[st.edges, 0], st.bwd.shape[2])
                p_b = nodes.prior_stack(ends[st.edges, 1], st.fwd.shape[2])
                s_ab = accept._dense_couplings(algebra.weighted(st.bwd, p_a), st.fwd)
                want = (st.bwd @ algebra.weight_matrix(p_a)).transpose(0, 2, 1) @ st.fwd
                scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2), initial=0.0))
                assert (np.abs(s_ab - want).max(axis=(1, 2), initial=0.0) <= tol * scale).all()
                back = accept._reversed_dense(s_ab, p_a, p_b)
                for k in range(len(st.edges)):
                    ref = algebra.reverse_dense(s_ab[k], p_a[k], p_b[k])
                    bound = tol * max(1.0, np.abs(ref).max(initial=0.0))
                    assert np.abs(back[k] - ref).max(initial=0.0) <= bound
        monkeypatch.setattr(algebra, "weight_matrix", None)
        for tree in trees:
            check_tree_consistency(tree)
            for a, b in tree.edges:
                reconstruct_dense(tree, a, b)

    def test_check_makes_as_many_numpy_calls_on_a_longer_chain(self):
        counts = {}
        for length in (200, 2000):
            tree = binary_chain_tree(np.random.default_rng(3), length, coupling_lo=0.5)
            calls = []

            def hook(frame, event, arg):
                if event == "c_call" and (
                    getattr(arg, "__module__", None) == "numpy"
                    or isinstance(getattr(arg, "__self__", None), np.ndarray)
                ):
                    calls.append(arg)
                elif event == "call" and "numpy" in frame.f_code.co_filename:
                    calls.append(frame.f_code)

            sys.setprofile(hook)
            try:
                check_tree_consistency(tree)
            finally:
                sys.setprofile(None)
            counts[length] = len(calls)
        assert counts[200] == counts[2000] > 0


def table_spill(tree, a, b):
    """How far the conditional tables of edge (a, b), in both directions,
    leave [0, 1], rebuilt edge by edge."""
    spill = 0.0
    for i, j in ((a, b), (b, a)):
        s = reconstruct_dense(tree, i, j)
        table = s + (tree.compound(i).prior.probs - s @ tree.compound(j).prior.probs)[:, None]
        spill = max(spill, -float(table.min()), float(table.max()) - 1.0)
    return spill


def scaled(tree, edge, factor):
    """``tree`` rebuilt without the load-time check, with the stored factor
    under ``edge`` scaled by ``factor``: both couplings of the edge scale
    with it, and the two directions still agree."""
    stacks = []
    for stack in tree.factor_stacks:
        fwd = np.array(stack.fwd)
        for k, pos in enumerate(stack.edges.tolist()):
            if tree.edges[pos] == edge:
                fwd[k] *= factor
        stacks.append(FactorStack(stack.edges, fwd, stack.bwd))
    return unchecked_copy(tree, stacks)


class TestSensitivityCheck:
    """Loading refuses factors whose conditional tables leave [0, 1]."""

    def test_coupling_of_three_is_refused(self):
        spaces, priors = two_binary_nodes()
        for c in (3.0, -3.0):
            with pytest.raises(
                ConsistencyError, match="^edge X_1 - X_2: the factors are no sensitivity"
            ):
                accept_precompiled(spaces, priors, {(0, 1): QRFactors(UNIT, c * UNIT)})

    def test_tolerance_boundary(self):
        # a coupling c of a with respect to b, with p(a) = (0.3, 0.7) and
        # p(b) = (0.6, 0.4), rebuilds p(b = 1 | a = 0) = 0.4 (0.3 - 0.6 c) / 0.3:
        # the first entry to leave [0, 1] as c grows past 0.5, falling by
        # 0.8 per unit of c
        spaces, priors = two_binary_nodes()
        for k, loads in ((0.0, True), (0.9, True), (1.1, False), (2.0, False)):
            pair = {(0, 1): QRFactors(UNIT, (0.5 + k * accept.TABLE_TOL / 0.8) * UNIT)}
            built = accepted_without_table_check(spaces, priors, pair)
            assert (table_spill(built, 0, 1) <= accept.TABLE_TOL) == loads
            if loads:
                assert accept_precompiled(spaces, priors, pair).decay is not None
            else:
                with pytest.raises(ConsistencyError, match="no sensitivity"):
                    accept_precompiled(spaces, priors, pair)

    def test_packaged_and_test_trees_load(self, asia_tables):
        """The loosest of them, asia's four-digit published factors,
        rebuilds an entry at -7.5e-5."""
        spill = max(table_spill(asia_tables, a, b) for a, b in asia_tables.edges)
        assert 5e-5 < spill < accept.TABLE_TOL
        for name in DATA_TREES:
            tree = data_tree(name)
            assert max(table_spill(tree, a, b) for a, b in tree.edges) < spill

    @pytest.mark.parametrize("seed", [5, 7, 9])
    def test_first_wild_edge_in_edge_order_is_named(self, seed):
        tree = mixed_shape_tree(seed)
        edges = [e for e in tree.edges if tree.rank(*e) > 0]
        early, late = interleaved_edges(tree, edges)

        def name(edge):
            return f"{tree.compound(edge[0]).name} - {tree.compound(edge[1]).name}"

        for edge in (early, late):
            wild = scaled(tree, edge, 1e3)
            assert table_spill(wild, *edge) > accept.TABLE_TOL
            assert scalar_error(wild, *edge) <= accept.CONSISTENCY_TOL
            with pytest.raises(
                ConsistencyError, match=f"^edge {name(edge)}: the factors are no sensitivity"
            ):
                check_tree_consistency(wild)
            assert wild.decay is None
        with pytest.raises(ConsistencyError, match=f"^edge {name(early)}:"):
            check_tree_consistency(scaled(scaled(tree, late, 1e3), early, 1e3))

    def test_a_disagreeing_edge_is_named_before_a_wild_one(self, asia_tables):
        late, early = asia_tables.edges[-1], asia_tables.edges[0]
        both = bumped(scaled(asia_tables, early, 1e3), late, 1e-3)
        with pytest.raises(ConsistencyError, match="stored factors disagree"):
            check_tree_consistency(both)


DATA = Path(__file__).parent / "data"
DATA_TREES = ("asia_grouped", "random_grouped", "random_binary", "chain")


def data_tree(name):
    return fileio.load_tree(DATA / f"{name}.tree")


class TestOneBuildPath:
    """Compile, load and accept all build a tree through accept_batches."""

    def built_trees(self, asia_net, asia_tables):
        spaces, priors = two_binary_nodes()
        three = [StateSpace.binary((f"v{i}",)) for i in range(3)]
        yield compile_network(asia_net, forced_groups=(("x_C", "x_E", "x_G"),))[0]
        yield compile_network(random_tree_network(np.random.default_rng(3), 12, max_states=3))[0]
        yield compile_network(binary_chain_network(np.random.default_rng(3), 30))[0]
        yield accept_precompiled(spaces, priors, {(0, 1): QRFactors(UNIT, 0.5 * UNIT)})
        yield accept_precompiled(
            three,
            [Distribution(np.array([0.4, 0.6]))] * 3,
            {(1, 0): QRFactors(UNIT, 0.5 * UNIT), (2, 1): QRFactors(UNIT[:0], UNIT[:0])},
        )
        yield asia_tables
        for name in DATA_TREES:
            yield data_tree(name)
        yield binary_chain_tree(np.random.default_rng(3), 30)

    def test_the_compiler_reexports_the_load_pass(self):
        for name in ("accept_precompiled", "check_tree_consistency", "accept_batches",
                     "factor_pairs"):
            assert getattr(compiler, name) is getattr(accept, name)

    def test_every_built_tree_is_checked(self, asia_net, asia_tables):
        kinds = set()
        for tree in self.built_trees(asia_net, asia_tables):
            assert tree.decay is not None
            float_form = all(c.space.cardinality == 2 for c in tree.compounds) and all(
                tree.rank(i, j) == 1 for i, j in tree.edges
            )
            assert (tree.scalars is not None) == float_form
            kinds.add(float_form)
        assert kinds == {True, False}

    @pytest.mark.parametrize("name", ("compiled asia",) + DATA_TREES)
    def test_serialized_q_rows_are_the_per_edge_products(self, name, asia_compiled):
        tree = asia_compiled[0] if name == "compiled asia" else data_tree(name)
        lines = fileio.serialize_tree(tree).splitlines()
        q_rows = iter(
            [float(v) for v in line.split()[1:]] for line in lines if line.startswith("q ")
        )
        for i, j in tree.edges:
            want = tree.r_factors[(j, i)] @ algebra.weight_matrix(tree.prior_probs[i])
            for row in want.tolist():
                assert next(q_rows) == row
        assert next(q_rows, None) is None

    @pytest.mark.parametrize("name", ("tables", "mixed") + DATA_TREES)
    def test_accepting_the_factor_pairs_rebuilds_the_tree(self, name, asia_tables):
        tree = {"tables": asia_tables, "mixed": mixed_shape_tree(2)}.get(name) or data_tree(name)
        pairs = factor_pairs(tree)
        assert tuple(pairs) == tree.edges
        for (i, j), pair in pairs.items():
            assert np.array_equal(pair.r_mat, tree.r_factors[(i, j)])
        back = load(tree, pairs)
        assert back.edges == tree.edges
        # Q and the reverse factor derived from it each round, so the error
        # scales with the factor: the published tables' reverse factors
        # reach 67 and come back 2.3e-13 apart, 3.4e-15 of their size
        for key, mat in tree.r_factors.items():
            scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
            assert np.abs(back.r_factors[key] - mat).max(initial=0.0) <= 1e-14 * scale
