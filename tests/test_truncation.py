import numpy as np
import pytest

from sensbn import compiler, engine, oracle, truncation
from sensbn.engine import QuerySession
from sensbn.errors import ApproxPreconditionError
from sensbn.generators import binary_chain_network, binary_chain_tree
from sensbn.model import Evidence, TreeNetwork
from sensbn.truncation import (
    DecayProfile,
    hop_distances,
    plan_truncation,
    truncated_query,
    truncation_radius,
    verify_profile,
)
from tests.conftest import searched_path, unchecked_copy
from tests.test_engine import binary_tree, branching_trees, on_both_kernels


def complete_binary_tree(depth):
    """A complete binary tree of the given depth, node ids shuffled, and
    its root."""
    n = 2 ** (depth + 1) - 1
    tree = binary_tree(np.random.default_rng(77), [(k - 1) // 2 for k in range(1, n)])
    root = next(i for i in range(n) if len(tree.neighbors(i)) == 2)
    return tree, root


def descend(tree, node, turns):
    """The node reached from ``node`` by stepping away from it, at each
    step to the child numbered by the next turn."""
    came = None
    for turn in turns:
        children = [m for m in tree.neighbors(node) if m != came]
        came, node = node, children[turn]
    return node


def chain(seed, length=30, alpha=0.9, coupling_lo=0.05):
    rng = np.random.default_rng(seed)
    return binary_chain_tree(rng, length, alpha=alpha, coupling_lo=coupling_lo)


class TestDecayProfile:
    def test_rejects_bad_constants(self):
        with pytest.raises(ApproxPreconditionError):
            DecayProfile(1.0, 0.09, 0.1)
        with pytest.raises(ApproxPreconditionError):
            DecayProfile(0.9, 0.3, 0.1)
        with pytest.raises(ApproxPreconditionError):
            DecayProfile(0.9, 0.09, 1.5)

    def test_bound_value(self):
        assert DecayProfile(0.9, 0.09, 0.1).guaranteed_bound == pytest.approx(
            np.exp(0.1) - 1.0
        )


class TestVerifyProfile:
    def test_mild_chain_passes(self):
        tree = chain(1, length=10)
        ok, witness = verify_profile(tree, DecayProfile(0.9, 0.09, 0.1))
        assert ok and witness is None

    def test_deterministic_edge_is_witnessed(self):
        from sensbn.algebra import QRFactors
        from sensbn.model import Distribution, StateSpace

        rt2 = np.sqrt(2.0)
        unit = np.array([[-1 / rt2, 1 / rt2]])
        tree = compiler.accept_precompiled(
            [StateSpace.binary(("a",)), StateSpace.binary(("b",))],
            [Distribution(np.array([0.5, 0.5])), Distribution(np.array([0.5, 0.5]))],
            {(1, 0): QRFactors(unit, 1.0 * unit)},
        )
        ok, witness = verify_profile(tree, DecayProfile(0.9, 0.2, 0.1))
        assert not ok
        assert "coupling" in witness

    def test_eta_violation_is_witnessed(self):
        tree = chain(2, length=5)
        ok, witness = verify_profile(tree, DecayProfile(0.95, 0.2499, 0.1))
        assert not ok
        assert "eta" in witness

    def test_non_binary_tree_is_rejected(self, asia_tables):
        with pytest.raises(ApproxPreconditionError, match="X_3"):
            verify_profile(asia_tables, DecayProfile(0.9, 0.09, 0.1))


class TestPlanTruncation:
    def test_locked_radius_values(self):
        # evaluated from ceil(log_alpha(eta * eps / (2 n))) and locked
        assert truncation_radius(DecayProfile(0.9, 0.09, 0.1), 1) == 52
        assert truncation_radius(DecayProfile(0.9, 0.09, 0.1), 4) == 65
        assert truncation_radius(DecayProfile(0.5, 0.25, 0.999), 1) == 4

    def test_no_evidence_needs_no_radius(self):
        assert truncation_radius(DecayProfile(0.9, 0.09, 0.1), 0) == 0

    def test_radius_grows_with_evidence_count(self):
        profile = DecayProfile(0.9, 0.09, 0.1)
        radii = [truncation_radius(profile, n) for n in (1, 2, 4, 8)]
        assert radii == sorted(radii)
        assert radii[2] > radii[0]

    def test_radius_grows_as_epsilon_shrinks(self):
        radii = [
            truncation_radius(DecayProfile(0.9, 0.09, e), 2)
            for e in (0.5, 0.2, 0.1, 0.05)
        ]
        assert radii == sorted(radii)

    def test_negative_radius_is_refused(self):
        tree = chain(4, length=20)
        # evidence on the query node itself would still be applied
        ev = Evidence.of({"v10": 1, "v12": 0})
        profile = DecayProfile(0.9, 0.09, 0.1)
        for radius in (-1, -5):
            with pytest.raises(ApproxPreconditionError, match="radius"):
                truncated_query(QuerySession(tree), 10, ev, profile, radius=radius, verified=True)
        _, _, plan = truncated_query(QuerySession(tree), 10, ev, profile, radius=0, verified=True)
        assert plan.retained_evidence == (10,)

    def test_retained_selection(self):
        plan = plan_truncation(
            DecayProfile(0.9, 0.09, 0.1), {3: 2, 7: 60}, radius=10
        )
        assert plan.retained_evidence == (3,)
        assert plan.radius == 10


class TestTruncatedQuery:
    def test_radius_at_least_diameter_is_bitwise_exact(self):
        tree = chain(3, length=20)
        ev = Evidence.of({"v3": 1, "v17": 0})
        profile = DecayProfile(0.9, 0.09, 0.1)
        exact = QuerySession(tree).query(10, ev)
        approx, bound, plan = truncated_query(
            QuerySession(tree), 10, ev, profile, radius=19, verified=True
        )
        assert plan.retained_evidence == (3, 17)
        assert np.array_equal(approx.probs, exact.probs)
        assert bound == pytest.approx(np.exp(0.1) - 1.0)

    def test_bound_holds_with_real_truncation_error(self):
        profile = DecayProfile(0.9, 0.09, 0.1)
        violations = 0
        exercised = 0
        for trial in range(60):
            rng = np.random.default_rng([41, trial])
            tree = binary_chain_tree(rng, 200, alpha=0.9, coupling_lo=0.8)
            ev_rng = np.random.default_rng([42, trial])
            query = 100
            # one retained side, one side just beyond the radius
            left = query - int(ev_rng.integers(2, 10))
            right = query + int(ev_rng.integers(60, 90))
            ev = Evidence.of(
                {
                    f"v{left}": int(ev_rng.integers(0, 2)),
                    f"v{right}": int(ev_rng.integers(0, 2)),
                }
            )
            exact = QuerySession(tree).query(query, ev).probs
            approx, bound, plan = truncated_query(
                QuerySession(tree), query, ev, profile, verified=True
            )
            mask = exact >= profile.eta
            if not mask.any():
                continue
            rel = float(np.max(np.abs(approx.probs[mask] - exact[mask]) / exact[mask]))
            if rel > 0:
                exercised += 1
            if rel > bound:
                violations += 1
        assert violations == 0
        assert exercised > 0

    def test_work_is_radius_bounded(self, monkeypatch):
        self.check_work_is_radius_bounded(monkeypatch, "chain")

    def test_work_is_radius_bounded_on_a_bushy_tree(self, monkeypatch):
        balls = self.check_work_is_radius_bounded(monkeypatch, "complete binary tree")
        assert balls == [511, 2047, 8191]

    @staticmethod
    def check_work_is_radius_bounded(monkeypatch, family):
        """The same query and evidence on ever larger trees: the query
        never searches the radius ball, reads the neighbours only of nodes
        on the paths to the retained evidence, and touches as many nodes
        however many the ball holds (thousands on the bushy tree).
        Returns the sizes of the radius balls."""
        profile = DecayProfile(0.9, 0.09, 0.1)
        radius = 20 if family == "chain" else 12
        touched, balls = [], []
        for size in (50, 200, 800) if family == "chain" else (8, 10, 12):
            if family == "chain":
                tree = binary_chain_tree(np.random.default_rng(7), size)
                # the last node lies beyond the radius
                query, near, last = 5, (2, 11), size - 1
            else:
                tree, query = complete_binary_tree(size)
                near = [descend(tree, query, turns) for turns in ((0, 1), (1, 0, 1, 1, 0))]
                last = descend(tree, query, (0, 0, 1, 0, 1, 0, 1, 1))
            ev = Evidence.of({f"v{near[0]}": 1, f"v{near[1]}": 0, f"v{last}": 1})
            ball = hop_distances(tree, query, limit=radius)
            on_paths = {query}
            for node in tree.group_evidence(ev):
                if node in ball:
                    on_paths.update(searched_path(tree, query, node))
            reads = []
            original = TreeNetwork.neighbors

            def spy(self, ident):
                reads.append(ident)
                return original(self, ident)

            def no_ball_search(*args, **kw):
                raise AssertionError("the radius ball was searched")

            session = QuerySession(tree)
            with monkeypatch.context() as patch:
                patch.setattr(truncation, "hop_distances", no_ball_search)
                patch.setattr(TreeNetwork, "neighbors", spy)
                truncated_query(session, query, ev, profile, radius=radius, verified=True)
            assert reads and set(reads) <= on_paths
            assert len(session.instr.touched) <= len(ev) * len(ball)
            touched.append(len(session.instr.touched))
            balls.append(len(ball))
        assert touched[0] == touched[1] == touched[2]
        return balls

    @pytest.mark.parametrize("kernel", ["float", "array"])
    def test_exact_query_reads_only_the_paths_to_its_evidence(self, monkeypatch, kernel):
        """The same exact query on complete binary trees of depth 8, 10
        and 12: it reads the neighbours only of nodes on the paths from
        the query to its evidence, and as many of them at every size."""
        counts = []
        for depth in (8, 10, 12):
            tree, root = complete_binary_tree(depth)
            query = descend(tree, root, (1, 0))
            turns = ((0, 1, 1), (1, 1, 0, 1), (1, 0, 0, 1, 0))
            nodes = [descend(tree, root, way) for way in turns]
            ev = Evidence.of({f"v{nodes[0]}": 1, f"v{nodes[1]}": 0, f"v{nodes[2]}": 1})
            on_paths = set().union(*(searched_path(tree, query, node) for node in nodes))
            reads = []
            original = TreeNetwork.neighbors

            def spy(self, ident):
                reads.append(ident)
                return original(self, ident)

            with monkeypatch.context() as patch:
                if kernel == "array":
                    patch.setattr(engine, "_choose_kernel", lambda tree: engine._ArrayKernel)
                session = QuerySession(tree)
                patch.setattr(TreeNetwork, "neighbors", spy)
                session.query(query, ev)
            assert reads and set(reads) <= on_paths
            counts.append(len(reads))
        assert counts[0] == counts[1] == counts[2]

    def test_matches_exact_engine_against_oracle_chain(self):
        # same chain parameters through the network and the tree builders
        rng_net = np.random.default_rng(9)
        rng_tree = np.random.default_rng(9)
        net = binary_chain_network(rng_net, 10)
        tree = binary_chain_tree(rng_tree, 10)
        ev = Evidence.of({"v1": 1, "v8": 0})
        for query in range(10):
            want = oracle.posterior(net, ev, f"v{query}").probs
            got = QuerySession(tree).query(query, ev).probs
            assert np.abs(got - want).max() <= 1e-9


def reference_query(session, query, evidence, profile, radius):
    """What a bounded-error query answers when it searches the whole
    radius ball with the reference BFS and passes the ball as ``within``."""
    reach = hop_distances(session.tree, query, limit=radius)
    grouped = session.tree.group_evidence(evidence)
    plan = plan_truncation(profile, {n: reach.get(n, radius + 1) for n in grouped}, radius)
    return session.query(query, evidence, within=set(reach)), plan


def climb_test_trees():
    trees = dict(branching_trees())
    trees["chain"] = binary_chain_tree(np.random.default_rng(78), 40, alpha=0.9)
    return trees


class TestClimbMatchesTheBall:
    """Climbing to the evidence selects, and the edge rule marks and
    propagates, exactly what searching the radius ball does, on both
    kernels."""

    @pytest.mark.parametrize("name", ["spider", "caterpillar", "spider-of-spiders", "chain"])
    def test_same_bits_record_and_plan(self, monkeypatch, name):
        tree = climb_test_trees()[name]
        n = tree.node_count
        profile = DecayProfile(0.95, 0.01, 0.1)
        rng = np.random.default_rng(76)
        checked = 0
        for trial in range(4):
            nodes = [int(m) for m in rng.choice(n, size=4, replace=False)]
            ev = Evidence.of({f"v{m}": int(rng.integers(0, 2)) for m in nodes})
            # one query carries evidence of its own
            query = nodes[0] if trial == 0 else int(rng.integers(0, n))
            hops = hop_distances(tree, query)
            at = {hops[m] for m in nodes}
            # radii that put an evidence node exactly at the radius or one
            # hop beyond it, and one past the whole tree
            for radius in sorted({0, 1, n} | at | {d - 1 for d in at if d > 0}):
                out = {}

                def climbed(s):
                    out[s._kernel] = truncated_query(
                        s, query, ev, profile, radius=radius, verified=True
                    )

                def searched(s):
                    out[s._kernel, "ball"] = reference_query(s, query, ev, profile, radius)

                got = on_both_kernels(monkeypatch, tree, climbed)
                want = on_both_kernels(monkeypatch, tree, searched)
                for s, ref in zip(got, want):
                    posterior, bound, plan = out[s._kernel]
                    ref_posterior, ref_plan = out[ref._kernel, "ball"]
                    assert posterior.probs.tobytes() == ref_posterior.probs.tobytes()
                    assert plan == ref_plan and bound == profile.guaranteed_bound
                    assert s.instr.log == ref.instr.log
                    assert s.instr.touched == ref.instr.touched
                    assert dict(s.barren) == dict(ref.barren)
                checked += 1
        assert checked > 16


class TestHopDistances:
    def test_limited_search_stops_at_radius(self):
        tree = chain(5, length=40)
        dist = hop_distances(tree, 0, limit=7)
        assert max(dist.values()) == 7
        assert len(dist) == 8


def scan_only(tree):
    """The same tree built from its columns, without the load pass, so it
    carries no decay constants and verify_profile runs its full scan."""
    bare = unchecked_copy(tree)
    assert bare.decay is None
    return bare


class TestDecayConstants:
    """Accepting from the load-time constants decides exactly as the scan."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_constants_are_the_scans_extremes(self, seed):
        tree = chain(seed, length=40, coupling_lo=0.5)
        couplings = []
        for a, b in tree.edges:
            dense = compiler.reconstruct_dense(tree, a, b)
            couplings.append(abs(float(dense[1, 1] - dense[1, 0])))
        products = [float(c.prior.probs[0] * c.prior.probs[1]) for c in tree.compounds]
        assert tree.decay.all_binary
        assert tree.decay.max_coupling == max(couplings)
        assert tree.decay.min_prior_product == min(products)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_boundary_decisions_match_the_scan(self, seed):
        tree = chain(seed, length=40, coupling_lo=0.5)
        bare = scan_only(tree)
        top, low = tree.decay.max_coupling, tree.decay.min_prior_product
        profiles = {
            "alpha at the largest coupling": DecayProfile(top, 0.5 * low, 0.1),
            "alpha one ulp above it": DecayProfile(np.nextafter(top, 1.0), 0.5 * low, 0.1),
            "eta at the smallest product": DecayProfile(0.99, low, 0.1),
            "eta one ulp below it": DecayProfile(0.99, np.nextafter(low, 0.0), 0.1),
        }
        decisions = {}
        for name, profile in profiles.items():
            got = verify_profile(tree, profile)
            assert got == verify_profile(bare, profile), name
            decisions[name] = got[0]
        assert decisions == {
            "alpha at the largest coupling": False,
            "alpha one ulp above it": True,
            "eta at the smallest product": False,
            "eta one ulp below it": True,
        }

    def test_non_binary_tree_still_raises(self, asia_tables):
        assert asia_tables.decay is not None and not asia_tables.decay.all_binary
        for tree in (asia_tables, scan_only(asia_tables)):
            with pytest.raises(ApproxPreconditionError, match="X_3"):
                verify_profile(tree, DecayProfile(0.9, 0.09, 0.1))

    def test_accept_reads_no_coupling_and_the_scan_reads_the_stacks(self, monkeypatch):
        tree = chain(14, length=60)
        calls = []
        original = compiler.binary_couplings

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(compiler, "binary_couplings", spy)
        monkeypatch.setattr(compiler, "reconstruct_dense", None)
        assert verify_profile(tree, DecayProfile(0.9, 0.09, 0.1)) == (True, None)
        assert calls == []
        # the scan of a tree without constants reads each factor stack once
        bare = scan_only(tree)
        assert verify_profile(bare, DecayProfile(0.9, 0.09, 0.1)) == (True, None)
        assert len(calls) == len(bare.factor_stacks) == 1

    @pytest.mark.parametrize("seed", [15, 16])
    def test_scan_decides_and_names_as_edge_by_edge(self, seed):
        """The stacked scan of a tree without constants gives the decision
        and the witness of a scan that rebuilds one dense coupling per
        edge, at thresholds on either side of the smallest node products
        and of the largest couplings."""
        tree = scan_only(chain(seed, length=40, coupling_lo=0.5))
        p = np.array([tree.prior_probs[i] for i in range(tree.node_count)])
        products = sorted(set((p[:, 0] * p[:, 1]).tolist()))
        couplings = sorted({couplings_by_edge(tree)[e] for e in tree.edges})
        profiles = [DecayProfile(0.999, eta, 0.1) for eta in products[:6]]
        profiles += [DecayProfile(0.999, np.nextafter(eta, 0.0), 0.1) for eta in products[:3]]
        low = 0.5 * products[0]
        profiles += [DecayProfile(alpha, low, 0.1) for alpha in couplings[-6:]]
        profiles += [DecayProfile(np.nextafter(alpha, 1.0), low, 0.1) for alpha in couplings[-3:]]
        outcomes = set()
        for profile in profiles:
            got = verify_profile(tree, profile)
            assert got == scan_edge_by_edge(tree, profile)
            outcomes.add(got[1].split(":")[0] if got[1] else None)
        assert None in outcomes and len(outcomes) > 4


def couplings_by_edge(tree):
    out = {}
    for a, b in tree.edges:
        dense = compiler.reconstruct_dense(tree, a, b)
        out[(a, b)] = abs(float(dense[1, 1] - dense[1, 0]))
    return out


def scan_edge_by_edge(tree, profile):
    """verify_profile's scan, one node and one dense coupling at a time."""
    for comp in tree.compounds:
        product = float(comp.prior.probs[0] * comp.prior.probs[1])
        if not product > profile.eta:
            return False, f"node {comp.name}: p(false)p(true) = {product:.4g} <= eta"
    for (a, b), value in couplings_by_edge(tree).items():
        if not value < profile.alpha:
            return (
                False,
                f"edge {tree.compound(a).name} - {tree.compound(b).name}: "
                f"|coupling| = {value:.4g} >= alpha",
            )
    return True, None


class _CountedTuple(tuple):
    """A tuple that counts how often it is iterated."""

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestSizeIndependence:
    def test_work_does_not_grow_with_the_chain(self, monkeypatch):
        """One bounded-error query, profile verified as ``sensbn query
        --approx`` does, makes the same neighbor lookups on a chain ten
        times longer, and no step walks every node."""
        from sensbn.model import NodeColumns, TreeNetwork

        profile = DecayProfile(0.9, 0.09, 0.1)
        query = 1000
        evidence = Evidence.of({f"v{query + 20}": 1, f"v{query - 80}": 0})
        original = TreeNetwork.neighbors
        counts = {}
        for length in (2_000, 20_000):
            tree = binary_chain_tree(
                np.random.default_rng(5), length, alpha=0.9, coupling_lo=0.8
            )
            compounds = _CountedTuple(tree.compounds)
            compounds.iterations = 0
            object.__setattr__(tree, "compounds", compounds)
            # the whole-tree views and the prior stack, each O(N) to read,
            # are counted from here on
            for attr in ("prior_probs", "r_factors"):
                vars(tree).pop(attr, None)
            calls, whole = [], []

            def spy(self, ident):
                calls.append(ident)
                return original(self, ident)

            def counted(attr, read):
                def wrapper(self, *args):
                    whole.append(attr)
                    return read(self, *args)

                return wrapper

            monkeypatch.setattr(TreeNetwork, "neighbors", spy)
            for attr in ("prior_probs", "r_factors"):
                read = vars(TreeNetwork)[attr].func
                monkeypatch.setattr(TreeNetwork, attr, property(counted(attr, read)))
            monkeypatch.setattr(
                NodeColumns, "prior_stack", counted("prior_stack", NodeColumns.prior_stack)
            )
            session = QuerySession(tree)
            assert compounds.iterations == 0
            _, _, plan = truncated_query(session, query, evidence, profile)
            monkeypatch.undo()
            assert compounds.iterations == 0
            assert whole == []
            assert plan.retained_evidence == (query + 20,)
            counts[length] = len(calls)
        assert counts[2_000] == counts[20_000] > 0
