import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensbn.errors import PrunedStateError, UnknownLabelError, ZeroMassError
from sensbn.model import (
    BeliefNetwork,
    ConditionalMatrix,
    Distribution,
    Evidence,
    StateSpace,
    restrict_distribution,
    state_index,
    validate_network,
)


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
        assert [net.declaration_index(l) for l in declared] == list(range(n))
        assert all(net.card(l) == 2 for l in declared)

    def test_unknown_labels_raise(self):
        net = two_node_chain()
        with pytest.raises(UnknownLabelError):
            net.card("nope")
        with pytest.raises(UnknownLabelError):
            net.declaration_index("nope")
        bad = BeliefNetwork((("x1", 2),), {"x1": ("ghost",)}, {"x1": np.eye(2)})
        with pytest.raises(UnknownLabelError):
            bad.topological_order()


class TestStateIndex:
    def asia_x3(self):
        return StateSpace.binary(("x_C", "x_E", "x_G"), pruned=(2, 3))

    def test_all_false_is_state_zero(self):
        space = self.asia_x3()
        assert state_index({"x_C": 0, "x_E": 0, "x_G": 0}, space) == 0

    def test_all_true_is_last_state_before_pruning(self):
        space = StateSpace.binary(("x_C", "x_E", "x_G"))
        assert space.original_index({"x_C": 1, "x_E": 1, "x_G": 1}) == 7

    def test_pruned_state_raises(self):
        space = self.asia_x3()
        with pytest.raises(PrunedStateError):
            state_index({"x_C": 0, "x_E": 1, "x_G": 0}, space)

    def test_compaction_preserves_relative_order(self):
        space = self.asia_x3()
        # original states 4..7 map to compact 2..5
        assert state_index({"x_C": 1, "x_E": 0, "x_G": 0}, space) == 2
        assert state_index({"x_C": 1, "x_E": 1, "x_G": 1}, space) == 5

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
