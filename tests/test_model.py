import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensbn import fileio
from sensbn.errors import (
    DimensionMismatchError,
    PrunedStateError,
    UnknownLabelError,
    ZeroMassError,
)
from sensbn.model import (
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    Evidence,
    StateSpace,
    TreeNetwork,
    normalized_rows,
    restrict_distribution,
    validate_network,
)
from tests.conftest import searched_path, unchecked_copy


def two_node_chain():
    return BeliefNetwork(
        (("x1", 2), ("x2", 2)),
        {"x2": ("x1",)},
        {
            "x1": np.array([[0.3], [0.7]]),
            "x2": np.array([[0.9, 0.2], [0.1, 0.8]]),
        },
    )


class TestValidateNetwork:
    def test_well_formed_chain_is_clean(self):
        assert validate_network(two_node_chain()) == []

    def test_denormalized_column_is_named(self):
        net = BeliefNetwork(
            (("x1", 2), ("x2", 2)),
            {"x2": ("x1",)},
            {
                "x1": np.array([[0.3], [0.7]]),
                "x2": np.array([[0.9, 0.1], [0.1, 0.8]]),
            },
        )
        problems = validate_network(net)
        assert len(problems) == 1
        assert problems[0].kind == "normalization"
        assert problems[0].where == "x2"
        assert "column 1" in problems[0].detail

    def test_each_structural_defect_is_named(self):
        net = BeliefNetwork(
            (("a", 2), ("b", 2), ("c", 2), ("d", 2), ("e", 2)),
            {"b": ("a",), "c": ("ghost",)},
            {
                "a": np.array([[1.2], [-0.2]]),
                "b": np.array([[0.5], [0.5]]),
                "c": np.array([[0.5], [0.5]]),
                "e": np.array([0.5, 0.5]),
            },
        )
        assert [(p.kind, p.where, p.detail) for p in validate_network(net)] == [
            ("unknown-parent", "c", "parent 'ghost' undeclared"),
            ("negative-entry", "a", "table has a negative entry"),
            ("bad-shape", "b", "table shape (2, 1) does not match (2, 2)"),
            ("missing-cpt", "d", "no conditional table"),
            ("bad-shape", "e", "table shape (2,) does not match (2, 1)"),
        ]

    def test_cycle_is_reported(self):
        net = BeliefNetwork(
            (("x1", 2), ("x2", 2)),
            {"x1": ("x2",), "x2": ("x1",)},
            {
                "x1": np.array([[0.9, 0.2], [0.1, 0.8]]),
                "x2": np.array([[0.9, 0.2], [0.1, 0.8]]),
            },
        )
        kinds = {p.kind for p in validate_network(net)}
        assert "cycle" in kinds


def kahn_by_rescan(net):
    """Topological order by re-sorting the ready list after every pop."""
    indeg = {l: len(net.parents[l]) for l in net.labels}
    ready = [l for l in net.labels if indeg[l] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for c in net.labels:
            if node in net.parents[c]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        ready.sort(key=net.labels.index)
    return tuple(order)


class TestBeliefNetworkLookups:
    @pytest.mark.parametrize("seed", range(5))
    def test_topological_order_breaks_ties_by_declaration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        names = [f"n{i}" for i in range(n)]
        parents = {}
        for i in range(1, n):
            k = int(rng.integers(0, min(i, 3) + 1))
            parents[names[i]] = tuple(names[j] for j in rng.choice(i, size=k, replace=False))
        declared = list(rng.permutation(names))
        net = BeliefNetwork(tuple((l, 2) for l in declared), parents, {})
        order = net.topological_order()
        assert order == kahn_by_rescan(net)
        assert all(net.card(l) == 2 for l in declared)

    def test_unknown_labels_raise(self):
        net = two_node_chain()
        with pytest.raises(UnknownLabelError):
            net.card("nope")
        bad = BeliefNetwork((("x1", 2),), {"x1": ("ghost",)}, {"x1": np.eye(2)})
        with pytest.raises(UnknownLabelError):
            bad.topological_order()


class TestStateIndex:
    def asia_x3(self):
        return StateSpace.binary(("x_C", "x_E", "x_G"), pruned=(2, 3))

    def test_all_false_is_state_zero(self):
        space = self.asia_x3()
        assert space.index({"x_C": 0, "x_E": 0, "x_G": 0}) == 0

    def test_all_true_is_last_state_before_pruning(self):
        space = StateSpace.binary(("x_C", "x_E", "x_G"))
        assert space.original_index({"x_C": 1, "x_E": 1, "x_G": 1}) == 7

    def test_pruned_state_raises(self):
        space = self.asia_x3()
        with pytest.raises(PrunedStateError):
            space.index({"x_C": 0, "x_E": 1, "x_G": 0})

    def test_compaction_preserves_relative_order(self):
        space = self.asia_x3()
        # original states 4..7 map to compact 2..5
        assert space.index({"x_C": 1, "x_E": 0, "x_G": 0}) == 2
        assert space.index({"x_C": 1, "x_E": 1, "x_G": 1}) == 5

    @pytest.mark.parametrize(
        "assignment, error, text",
        [
            ({"x_C": 0, "x_G": 0}, UnknownLabelError, "assignment missing members ['x_E']"),
            (
                {"x_C": 0, "zz": 0, "x_G": 0},
                UnknownLabelError,
                "assignment missing members ['x_E']",
            ),
            (
                {"x_C": 0, "x_E": 0, "x_G": 0, "zz": 1},
                UnknownLabelError,
                "assignment names non-members ['zz']",
            ),
            ({"x_C": 0, "x_E": 3, "x_G": 0}, PrunedStateError, "state 3 of x_E outside [0, 2)"),
            (
                {"x_C": 0, "x_E": 1, "x_G": 1},
                PrunedStateError,
                "assignment maps to pruned state 3 of ('x_C', 'x_E', 'x_G')",
            ),
        ],
    )
    def test_refusals_name_what_is_wrong(self, assignment, error, text):
        with pytest.raises(error) as caught:
            self.asia_x3().index(assignment)
        assert str(caught.value) == text

    @given(
        n=st.integers(min_value=1, max_value=4),
        cards=st.lists(st.integers(min_value=2, max_value=3), min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_bijection_between_assignments_and_indices(self, n, cards, seed):
        rng = np.random.default_rng(seed)
        members = tuple(f"m{i}" for i in range(n))
        full = int(np.prod(cards[:n]))
        pruned = tuple(
            int(i) for i in rng.choice(full, size=rng.integers(0, full), replace=False)
        )
        space = StateSpace(members, tuple(cards[:n]), pruned)
        seen = set()
        for idx in range(space.cardinality):
            assign = space.assignment(idx)
            back = space.index(assign)
            assert back == idx
            seen.add(tuple(sorted(assign.items())))
        assert len(seen) == space.cardinality


class TestDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ZeroMassError):
            Distribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan, np.nan],
            [np.nan, 1.0],
            [0.0, np.nan],
            [np.inf, 0.0],
            [1.0, -np.inf],
            [np.inf, -np.inf],
        ],
    )
    def test_rejects_non_finite_entries(self, values):
        with pytest.raises(ZeroMassError):
            Distribution(np.array(values))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, np.nan, 0.5], "entry 1 is nan"),
            ([np.inf, -np.inf], "entry 0 is inf"),
            ([1.0, 0.0, -np.inf], "entry 2 is -inf"),
        ],
    )
    def test_non_finite_entry_is_named(self, values, message):
        with pytest.raises(ZeroMassError, match=message):
            Distribution(np.array(values))
        with pytest.raises(ZeroMassError, match=message):
            Distribution.normalized(values)

    def test_normalized_factory(self):
        d = Distribution.normalized([2.0, 2.0])
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_arrays_are_read_only(self):
        d = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_stacked_normalisation_refuses_what_the_class_refuses(self):
        rows = np.array(
            [
                [1.0, 3.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf],
                [-1.0, -1.0], [-1.0, 3.0], [1.0, -1e-12], [1.0, -1e-6], [1e308, 1e308],
                [5e-324, 0.0], [0.1, 0.2], [1.0, 1e-17], [-0.0, 2.0],
            ]
        )
        probs, refused = normalized_rows(rows)
        for row, got, bad in zip(rows, probs, refused):
            try:
                # the sum of the 1e308 row overflows, as it does in the stack
                with np.errstate(over="ignore"):
                    want = Distribution.normalized(row).probs
            except ZeroMassError:
                assert bad, row
            else:
                assert not bad, row
                assert got.tobytes() == want.tobytes()


class TestConditionalMatrix:
    def test_rejects_denormalized_column(self):
        with pytest.raises(ZeroMassError):
            ConditionalMatrix(np.array([[0.9, 0.1], [0.0, 0.8]]))

    def test_accepts_within_tolerance(self):
        ConditionalMatrix(np.array([[0.5, 0.5 + 4e-10], [0.5, 0.5]]))


class TestRestrictDistribution:
    def test_uniform_case(self):
        # members ordered so that "a" is the fastest-varying position:
        # states enumerate as (b̄ā, b̄a, bā, ba)
        space = StateSpace.binary(("b", "a"))
        d = Distribution(np.array([0.25, 0.25, 0.25, 0.25]))
        out = restrict_distribution(d, space, {"a": 1})
        assert np.allclose(out.probs, [0.0, 0.5, 0.0, 0.5])

    def test_full_assignment_gives_indicator(self):
        space = StateSpace.binary(("b", "a"))
        d = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
        out = restrict_distribution(d, space, {"a": 1, "b": 0})
        assert np.allclose(out.probs, [0.0, 1.0, 0.0, 0.0])

    def test_asia_compound_restriction(self, asia_tables):
        comp = asia_tables.by_name("X_3")
        out = restrict_distribution(comp.prior, comp.space, {"x_G": 1})
        consistent = comp.space.consistent_mask({"x_G": 1})
        mass = comp.prior.probs[consistent].sum()
        assert mass == pytest.approx(0.4141 + 0.0044 + 0.0315, abs=1e-12)
        assert np.allclose(out.probs[consistent], comp.prior.probs[consistent] / mass)
        assert np.all(out.probs[~consistent] == 0.0)

    def test_zero_mass_errors(self):
        space = StateSpace.binary(("b", "a"))
        d = Distribution(np.array([0.5, 0.0, 0.5, 0.0]))
        with pytest.raises(ZeroMassError):
            restrict_distribution(d, space, {"a": 1})

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        space = StateSpace.binary(("m0", "m1", "m2"))
        d = Distribution.normalized(rng.random(8) + 0.01)
        partial = {"m1": int(rng.integers(0, 2))}
        once = restrict_distribution(d, space, partial)
        twice = restrict_distribution(once, space, partial)
        assert np.allclose(once.probs, twice.probs, atol=1e-12)


class TestEvidence:
    def test_duplicate_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            Evidence((("x", 1), ("x", 0)))

    def test_grouping_by_compound(self, asia_tables):
        grouped = asia_tables.group_evidence(Evidence.of({"x_A": 1, "x_G": 0}))
        assert grouped == {0: {"x_A": 1}, 2: {"x_G": 0}}

    def test_unknown_label_rejected(self, asia_tables):
        with pytest.raises(UnknownLabelError):
            asia_tables.group_evidence(Evidence.of({"nope": 1}))


def loop_member_marginal(space, member, probs):
    """The member marginal as a loop over the states, one at a time."""
    out = np.zeros(space.cards[space.members.index(member)])
    for i in range(space.cardinality):
        out[space.assignment(i)[member]] += probs[i]
    return out


def loop_consistent_mask(space, partial):
    return np.array(
        [all(space.assignment(i)[m] == v for m, v in partial.items())
         for i in range(space.cardinality)]
    )


class TestMixedRadixDigits:
    SPACES = [
        StateSpace(("a", "b", "c"), (3, 2, 4), (0, 5, 6, 23)),
        StateSpace(("x", "y"), (2, 3)),
        StateSpace.binary(("p", "q", "r"), (2, 3)),
    ]

    @pytest.mark.parametrize("space", SPACES)
    def test_member_states_are_the_assignments(self, space):
        for member in space.members:
            want = [space.assignment(i)[member] for i in range(space.cardinality)]
            assert space.member_states(member).tolist() == want

    @pytest.mark.parametrize("space", SPACES)
    def test_digits_are_one_read_only_table_per_space(self, space):
        rows = [space.member_states(member) for member in space.members]
        assert all(not row.flags.writeable for row in rows)
        table = rows[0].base
        assert table is not None and all(row.base is table for row in rows)
        # computed once: a later call reads the same table
        assert space.member_states(space.members[-1]).base is table

    @pytest.mark.parametrize("space", SPACES)
    def test_consistent_mask_matches_the_state_loop(self, space):
        rng = np.random.default_rng(3)
        for _ in range(20):
            picked = [m for m in space.members if rng.random() < 0.6]
            partial = {
                m: int(rng.integers(0, space.cards[space.members.index(m)])) for m in picked
            }
            assert np.array_equal(
                space.consistent_mask(partial), loop_consistent_mask(space, partial)
            )

    def test_member_marginal_is_bit_identical_to_the_state_loop(self, asia_compiled):
        tree, _ = asia_compiled
        rng = np.random.default_rng(8)
        for ident in range(tree.node_count):
            space = tree.compound(ident).space
            for _ in range(5):
                probs = rng.random(space.cardinality)
                probs /= probs.sum()
                for member in space.members:
                    got = tree.member_marginal(ident, member, probs)
                    assert np.array_equal(got, loop_member_marginal(space, member, probs))

    def test_non_member_is_refused(self):
        space = self.SPACES[0]
        with pytest.raises(UnknownLabelError):
            space.consistent_mask({"zz": 0})
        with pytest.raises(ValueError):
            space.member_states("zz")


DATA = Path(__file__).parent / "data"
#: the trees of the tree-navigation tests: two without a float form, and
#: four with runs, one of them rooted inside its run
EDGE_TEST_TREES = [
    "asia_grouped", "random_grouped", "chain", "spider", "caterpillar", "rooted mid-run"
]


class TestTreeViews:
    def test_compounds_are_built_once(self, asia_tables):
        tree = fileio.parse_tree(fileio.serialize_tree(asia_tables))
        assert tree.compound(2) is tree.compound(2)
        assert tree.compounds[2] is tree.compound(2)
        assert tree.compounds is tree.compounds
        assert tree.by_name("X_3") is tree.compound(2)
        assert tree.compound(2).space == asia_tables.compound(2).space

    @pytest.mark.parametrize("name", ["asia_grouped", "random_grouped", "chain"])
    def test_neighbors_are_tuples_in_edge_order(self, name):
        tree = fileio.load_tree(DATA / f"{name}.tree")
        want: dict[int, list[int]] = {i: [] for i in range(tree.node_count)}
        for a, b in tree.edges:
            want[a].append(b)
            want[b].append(a)
        for i in range(tree.node_count):
            assert type(tree.neighbors(i)) is tuple
            assert tree.neighbors(i) == tuple(want[i])
            assert tree.neighbors(i) is tree.neighbors(i)
        offsets, adjacent = tree.csr
        assert [tuple(adjacent[offsets[i]:offsets[i + 1]]) for i in range(tree.node_count)] == [
            tree.neighbors(i) for i in range(tree.node_count)
        ]

    def test_views_are_dicts_of_read_only_rows_of_the_stacks(self, asia_tables):
        for tree in (asia_tables, unchecked_copy(asia_tables)):
            assert type(tree.prior_probs) is dict and type(tree.r_factors) is dict
            assert tree.prior_probs is tree.prior_probs
            for probs in tree.prior_probs.values():
                assert not probs.flags.writeable
                assert any(np.shares_memory(probs, s) for s in tree.node_columns.priors.values())
            for mat in tree.r_factors.values():
                assert not mat.flags.writeable
                assert any(
                    np.shares_memory(mat, s.fwd) or np.shares_memory(mat, s.bwd)
                    for s in tree.factor_stacks
                )
            with pytest.raises(AttributeError):
                tree.name = "other"

    def test_columns_are_read_only(self, asia_tables):
        for tree in (asia_tables, fileio.parse_tree(fileio.serialize_tree(asia_tables))):
            nodes = tree.node_columns
            for column in (nodes.names, nodes.members, nodes.member_start, nodes.size):
                with pytest.raises(TypeError):
                    column[0] = column[1]
            for mapping in (nodes.cards, nodes.pruned, nodes.priors):
                with pytest.raises(TypeError):
                    mapping[0] = None
            for arr in (nodes.prior_row, *nodes.priors.values()):
                assert not arr.flags.writeable
            for stack in tree.factor_stacks:
                assert not any(a.flags.writeable for a in (stack.edges, stack.fwd, stack.bwd))

    def test_constructor_takes_columns_and_refuses_bad_edges(self, asia_tables):
        tree = unchecked_copy(asia_tables)
        assert tree.decay is None and tree.scalars is None
        assert tree.compound(2).space == asia_tables.compound(2).space
        assert tree.edges == asia_tables.edges
        loop = ((1, 0), (2, 1), (3, 2), (4, 2), (4, 4))
        with pytest.raises(DimensionMismatchError, match=r"bad edge \(4, 4\)"):
            TreeNetwork(
                asia_tables.node_columns,
                np.array(loop, dtype=np.intp),
                asia_tables.factor_stacks,
            )

    def test_constructor_refuses_an_edge_in_no_stack_or_in_two(self):
        tree = fileio.load_tree(DATA / "chain.tree")
        first = re.escape(str(tree.edges[0]))
        with pytest.raises(DimensionMismatchError, match=rf"edge {first} is in 0 factor stacks"):
            TreeNetwork(tree.node_columns, tree.edge_ends, [])
        doubled = tree.factor_stacks + tree.factor_stacks[:1]
        with pytest.raises(DimensionMismatchError, match=rf"edge {first} is in 2 factor stacks"):
            TreeNetwork(tree.node_columns, tree.edge_ends, doubled)
        grouped = fileio.load_tree(DATA / "random_grouped.tree")
        stacks = grouped.factor_stacks
        dropped = grouped.edges[int(stacks[3].edges.min())]
        with pytest.raises(DimensionMismatchError, match=re.escape(f"edge {dropped} is in 0")):
            TreeNetwork(grouped.node_columns, grouped.edge_ends, stacks[:3] + stacks[4:])

    @pytest.mark.parametrize("name", EDGE_TEST_TREES)
    def test_distance_climbs_to_the_searched_path(self, name):
        """From every node to every other, including pairs inside one run,
        pairs at run ends and, on the tree rooted mid-run, pairs on either
        side of node 0 inside its run."""
        tree = edge_test_tree(name)
        n = tree.node_count
        for a in range(n):
            for b in range(n):
                hops = len(searched_path(tree, a, b)) - 1
                assert tree.distance(a, b, hops) == hops
                assert tree.distance(a, b, n) == hops
                # capped one past the limit
                for limit in range(max(hops - 3, -1), hops):
                    assert tree.distance(a, b, limit) == limit + 1
        scalars = tree.scalars
        if scalars is None:
            return
        # the pairs of one run the shortcut answers, and its ends, which it leaves to the climb
        longest = int(np.argmax(np.diff(scalars.run_start)))
        run = int(scalars.run_of[0]) if name == "rooted mid-run" else longest
        nodes = scalars.run_nodes[scalars.run_start[run] : scalars.run_start[run + 1]].tolist()
        assert len(nodes) >= 4
        pairs = [(nodes[1], nodes[-2]), (nodes[0], nodes[-1]), (nodes[0], nodes[2])]
        pairs.append((nodes[-1], nodes[1]))
        if name == "rooted mid-run":
            at = nodes.index(0)
            pairs.append((nodes[at - 1], nodes[at + 1]))
        for a, b in pairs:
            hops = abs(nodes.index(a) - nodes.index(b))
            assert tree.distance(a, b, hops) == tree.distance(b, a, n) == hops
            assert tree.distance(a, b, hops - 1) == hops

    @pytest.mark.parametrize("name", EDGE_TEST_TREES)
    def test_edge_rule_finds_the_evidence_beyond_each_edge(self, name):
        """For every ordered pair (u, n) of adjacent nodes and several
        evidence sets, the edge rule says whether evidence lies in the part
        of the tree on n's side of the edge, as a search from n that does
        not cross back to u finds it; ``toward`` names the second node of
        the searched path."""
        tree = edge_test_tree(name)
        n = tree.node_count
        sides = {(u, m): searched_side(tree, u, m) for u in range(n) for m in tree.neighbors(u)}
        rng = np.random.default_rng(79)
        evidence_sets = [set(), {0}, set(range(n))]
        for k in (1, 1, 2, 3, 5):
            evidence_sets.append(set(rng.choice(n, size=k, replace=False).tolist()))
        for evidence in evidence_sets:
            beyond = tree.evidence_side(iter(evidence))
            for (u, m), side in sides.items():
                assert beyond(u, m) == bool(side & evidence), (u, m, evidence)
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert tree.toward(a, b) == searched_path(tree, a, b)[1]

    def test_rank_reads_the_factor_stacks(self):
        tree = fileio.load_tree(DATA / "chain.tree")
        for i, j in tree.edges:
            assert tree.rank(i, j) == tree.rank(j, i) == 1
        assert "r_factors" not in vars(tree)
        for i, j in tree.edges:
            assert tree.rank(i, j) == tree.r_factors[(i, j)].shape[0]
        grouped = fileio.load_tree(DATA / "random_grouped.tree")
        for i, j in grouped.edges:
            assert grouped.rank(i, j) == grouped.rank(j, i) == grouped.r_factors[(i, j)].shape[0]
        assert {grouped.rank(i, j) for i, j in grouped.edges} == {1, 2, 3}
        with pytest.raises(KeyError):
            tree.rank(0, 2)


def edge_test_tree(name):
    """A tree file, a branching tree, or a chain whose node 0 lies inside
    its run, so that node 0's parent and child are in the same run."""
    from tests.test_engine import binary_tree, branching_trees

    if name in ("spider", "caterpillar"):
        tree = branching_trees()[name]
    elif name == "rooted mid-run":
        tree = binary_tree(np.random.default_rng(3), list(range(11)))
        # the shuffled ids of a chain of 12: node 0 is one of the ten inside
        assert tree.scalars.run_of[0] >= 0
    else:
        tree = fileio.load_tree(DATA / f"{name}.tree")
    assert (tree.scalars is not None) == (name not in ("asia_grouped", "random_grouped"))
    return tree


def searched_side(tree, u, m):
    """The nodes on m's side of the edge {u, m}: those a breadth-first
    search from m reaches without crossing back to u."""
    seen = {u, m}
    order = [m]
    for x in order:
        for y in tree.neighbors(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return set(order)


def reference_runs(tree):
    """``run_nodes``, ``run_start``, ``run_of`` and ``place`` by a walk from
    each run end, node by node: the run walk that ``BinaryScalars`` used
    before it read the runs off the preorder."""
    n = tree.node_count
    offsets, adjacent = tree.csr
    start, nb = offsets.tolist(), adjacent.tolist()
    degree = np.diff(offsets).tolist()
    taken = bytearray(n)
    order, lengths = [], []
    for a in range(n):
        if degree[a] == 2:
            continue
        for h in range(start[a], start[a + 1]):
            b = nb[h]
            if taken[b] or (degree[b] != 2 and b < a):
                continue
            size = len(order)
            order.append(a)
            prev, cur = a, b
            while degree[cur] == 2:
                taken[cur] = 1
                order.append(cur)
                h = start[cur] + (nb[start[cur]] == prev)
                prev, cur = cur, nb[h]
            order.append(cur)
            lengths.append(len(order) - size)
    run_nodes = np.array(order, dtype=np.intp)
    run_start = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=run_start[1:])
    run_of = np.full(n, -1, dtype=np.intp)
    place = run_of.copy()
    for r in range(len(lengths)):
        for g in range(run_start[r] + 1, run_start[r + 1] - 1):
            run_of[run_nodes[g]], place[run_nodes[g]] = r, g
    return run_nodes, run_start, run_of, place


def hops_from(tree, a):
    """The number of edges from node a to every node, by breadth-first search."""
    hops = {a: 0}
    order = [a]
    for x in order:
        for y in tree.neighbors(x):
            if y not in hops:
                hops[y] = hops[x] + 1
                order.append(y)
    return [hops[b] for b in range(tree.node_count)]


def structure_trees():
    """Trees of every shape the runs take: one and two nodes, a star,
    spiders, caterpillars, chains, random trees with shuffled ids and
    random edge directions, and compiled random trees, some of whose node
    0 has degree 2."""
    from sensbn import compiler
    from sensbn.generators import binary_chain_tree, random_tree_network
    from tests.test_engine import binary_tree, caterpillar, spider

    rng = np.random.default_rng(2601)
    trees = {
        "one node": binary_tree(rng, []),
        "two nodes": binary_tree(rng, [0]),
        "star": binary_tree(rng, [0] * 9),
        "spider": spider(rng, (1, 7, 12)),
        "spider of long arms": spider(rng, (5, 5, 5, 5)),
        "caterpillar": caterpillar(rng, 12, (1, 0, 3, 0, 0)),
        "caterpillar of long legs": caterpillar(rng, 6, (4, 2)),
        "chain": binary_chain_tree(np.random.default_rng(3), 40),
        "shuffled chain": binary_tree(rng, list(range(29))),
    }
    for k in range(6):
        size = int(rng.integers(20, 60))
        trees[f"random {k}"] = binary_tree(rng, [int(rng.integers(0, j)) for j in range(1, size)])
    mid = 0
    for seed in range(40):
        tree, _ = compiler.compile_network(random_tree_network(np.random.default_rng(seed), 30))
        if len(tree.neighbors(0)) == 2 or seed < 2:
            trees[f"compiled {seed}"] = tree
            mid += len(tree.neighbors(0)) == 2
    assert mid >= 3
    return trees


STRUCTURE_TREES = structure_trees()


class TestWalkColumns:
    """The structure a load derives from its one walk, against node-by-node
    references."""

    @pytest.mark.parametrize("name", sorted(STRUCTURE_TREES))
    def test_runs_equal_the_node_by_node_run_walk(self, name):
        tree = STRUCTURE_TREES[name]
        sc = tree.scalars
        assert sc is not None
        got = (sc.run_nodes, sc.run_start, sc.run_of, sc.place)
        for have, want in zip(got, reference_runs(tree)):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(STRUCTURE_TREES))
    def test_walk_columns_agree_with_the_parent_links(self, name):
        tree = STRUCTURE_TREES[name]
        n = tree.node_count
        parent, depth, enter, leave = (np.asarray(view) for view in tree._links)
        degree = np.diff(tree.csr[0])
        root = int(np.flatnonzero(parent < 0)[0])
        assert (parent < 0).sum() == 1 and root == int(np.flatnonzero(degree != 2)[0])
        assert depth[root] == 0 and enter[root] == 0 and leave[root] == n - 1
        assert sorted(enter.tolist()) == list(range(n))
        size = [1] * n
        for v in sorted(range(n), key=lambda v: -depth[v]):
            if v != root:
                size[parent[v]] += size[v]
        for v in range(n):
            assert leave[v] - enter[v] + 1 == size[v]
            if v == root:
                continue
            u = parent[v]
            assert u in tree.neighbors(v) and depth[v] == depth[u] + 1
            assert enter[u] < enter[v] <= leave[v] <= leave[u]
        # any two subtrees nest or are disjoint
        for a in range(n):
            for b in range(n):
                inside = enter[a] <= enter[b] <= leave[a]
                assert inside == (enter[a] <= enter[b] and leave[b] <= leave[a])

    @pytest.mark.parametrize("name", sorted(STRUCTURE_TREES))
    def test_distance_is_the_breadth_first_distance(self, name):
        tree = STRUCTURE_TREES[name]
        n = tree.node_count
        for a in range(n):
            hops = hops_from(tree, a)
            for b in range(n):
                assert tree.distance(a, b, n) == hops[b]
                if hops[b]:
                    assert tree.distance(a, b, hops[b] - 1) == hops[b]

    def test_neighbors_and_edges_are_built_on_first_use(self):
        tree = fileio.load_tree(DATA / "chain.tree")
        assert "edges" not in vars(tree) and vars(tree)["_neighbors"] == {}
        offsets, adjacent = tree.csr
        assert tree.neighbors(3) == tuple(adjacent[offsets[3] : offsets[4]].tolist())
        assert list(vars(tree)["_neighbors"]) == [3]
        assert tree.edges == tuple(map(tuple, tree.edge_ends.tolist()))
        assert tree.edges is tree.edges

    def test_by_name_reads_the_loader_index(self):
        text = (DATA / "asia_grouped.tree").read_text()
        tree = fileio.parse_tree(text)
        names = tree.node_columns.names
        assert dict(tree.node_columns.index) == {name: i for i, name in enumerate(names)}
        for i, name in enumerate(names):
            assert tree.by_name(name) is tree.compound(i)
            assert tree.resolve_query(name) == (i, None)
        with pytest.raises(TypeError):
            tree.node_columns.index["X_1"] = 3

    @pytest.mark.parametrize(
        "ends, members, message",
        [
            ([(0, 1), (1, 2), (2, 0), (3, 4)], None, "the edge set is not connected"),
            ([(0, 1), (1, 2), (2, 2), (3, 4)], None, "bad edge (2, 2)"),
            ([(0, 1), (1, 5), (2, 3), (3, 4)], None, "bad edge (1, 5)"),
            ([(0, 1), (1, 2), (2, 1), (3, 4)], None, "bad edge (2, 1)"),
            (
                [(0, 1), (1, 2), (2, 3), (3, 4)],
                "v0 v1 v2 v1 v4",
                "member 'v1' appears in two compounds",
            ),
            ([(0, 1), (1, 2), (2, 3)], None, "3 edges cannot form a tree over 5 nodes"),
        ],
    )
    def test_refusals_keep_their_text(self, ends, members, message):
        """A disconnected edge set, a loop, an end outside the tree, a
        repeated edge, a member in two compounds and a wrong edge count."""
        from sensbn.model import FactorStack, NodeColumns

        labels = (members or "v0 v1 v2 v3 v4").split()
        prior = np.array([[0.4, 0.6]] * 5)
        names = [f"X_{i + 1}" for i in range(5)]
        nodes = NodeColumns(names, labels, range(6), {}, {}, [2] * 5, {2: prior}, np.arange(5))
        unit = np.array([[[-1.0, 1.0]]] * len(ends)) / np.sqrt(2.0)
        stack = FactorStack(np.arange(len(ends)), unit, unit.copy())
        with pytest.raises(DimensionMismatchError) as caught:
            TreeNetwork(nodes, np.array(ends, dtype=np.intp), [stack])
        assert str(caught.value) == message
