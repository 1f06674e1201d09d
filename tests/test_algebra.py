import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensbn import algebra
from sensbn.algebra import (
    BinarySensitivity,
    QRFactors,
    apply_update,
    binary_dense,
    binary_from_dense,
    binary_reduce,
    binary_reverse,
    binary_sensitivity,
    binary_update,
    cpt_to_sensitivity,
    numerical_rank,
    qr_factor,
    reduce,
    reverse,
    reverse_dense,
    sensitivity_rank_law_check,
    sensitivity_to_cpt,
)
from sensbn.errors import DimensionMismatchError, RangeError, SingularWeightError
from sensbn.model import ConditionalMatrix, Distribution

RT2 = np.sqrt(2.0)

# Published factor rows for the six-compound chest-clinic tree
Q_21 = np.array([[-1 / RT2, 1 / RT2]])
R_21 = np.array([[-0.0400 / RT2, 0.0400 / RT2]])
Q_32 = np.array([[-0.5535, -0.4400, 0.5535, 0.4400, 0.0, 0.0]])
R_32 = np.array([[-0.6726 / RT2, 0.6726 / RT2]])
Q_63 = np.array([[-1 / RT2, 1 / RT2]])
R_63 = np.array([[-0.8250, 0.1650, 0.0236, 0.3064, 0.0236, 0.3064]])


def random_cpt(rng, rows, cols):
    raw = 0.05 + rng.random((rows, cols))
    return raw / raw.sum(axis=0, keepdims=True)


def random_positive_dist(rng, n):
    return Distribution.normalized(0.05 + rng.random(n))


class TestCenterRows:
    @pytest.mark.parametrize("shape", [(4, 7), (3, 2, 5)])
    def test_bit_identical_to_subtracting_the_mean(self, shape):
        arr = np.random.default_rng(3).standard_normal(shape) * 10.0 ** np.arange(shape[-1])
        got = algebra.center_rows(arr)
        assert got.tobytes() == (arr - arr.mean(axis=-1, keepdims=True)).tobytes()


class TestCptToSensitivity:
    def test_binary_identity(self):
        s = cpt_to_sensitivity(np.eye(2))
        assert np.allclose(s.entries, [[0.5, -0.5], [-0.5, 0.5]])

    def test_equal_columns_give_zero(self):
        cpt = np.array([[0.3, 0.3], [0.7, 0.7]])
        assert np.allclose(cpt_to_sensitivity(cpt).entries, 0.0)

    def test_asia_tuberculosis_edge_matches_published_factors(self):
        cpt = np.array([[0.99, 0.95], [0.01, 0.05]])
        s = cpt_to_sensitivity(cpt)
        assert np.allclose(s.entries, Q_21.T @ R_21, atol=1e-9)

    @given(
        rows=st.integers(2, 8), cols=st.integers(2, 8), seed=st.integers(0, 2**31)
    )
    def test_zero_sum_law(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        s = cpt_to_sensitivity(random_cpt(rng, rows, cols))
        assert np.abs(s.entries.sum(axis=0)).max() <= 1e-9
        assert np.abs(s.entries.sum(axis=1)).max() <= 1e-9


class TestQrFactor:
    def test_zero_matrix_has_rank_zero(self):
        pair = qr_factor(np.zeros((4, 4)))
        assert pair.rank == 0
        assert pair.q.shape == (0, 4)
        assert pair.r_mat.shape == (0, 4)
        assert np.allclose(pair.dense(), 0.0)

    def test_asia_dyspnea_edge_rank_one(self):
        # p(dyspnea | six-state compound), rows (false, true)
        p_true = np.array([0.1, 0.8, 0.7, 0.9, 0.7, 0.9])
        cpt = np.vstack([1 - p_true, p_true])
        pair = qr_factor(cpt_to_sensitivity(cpt))
        assert pair.rank == 1
        assert np.allclose(pair.dense(), Q_63.T @ R_63, atol=1e-4)

    def test_three_distinct_columns_give_rank_two(self):
        rng = np.random.default_rng(11)
        base = random_cpt(rng, 8, 3)
        cpt = base[:, [0, 1, 2, 0, 1, 2, 0, 1]]
        pair = qr_factor(cpt_to_sensitivity(cpt))
        assert pair.rank == 2
        assert numerical_rank(cpt) == 3

    @given(rows=st.integers(2, 8), cols=st.integers(2, 8), seed=st.integers(0, 2**31))
    def test_reconstruction(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        s = cpt_to_sensitivity(random_cpt(rng, rows, cols))
        pair = qr_factor(s)
        assert np.abs(pair.dense() - s.entries).max() <= 1e-9
        assert pair.rank == numerical_rank(s.entries)
        # orthonormal rows
        assert np.allclose(pair.q @ pair.q.T, np.eye(pair.rank), atol=1e-12)


def sensitivity_with_singular_values(rng, n_i, n_j, svals):
    """A matrix with zero row and column sums and the given singular
    values: orthonormal bases of the zero-sum subspaces, scaled."""
    k = len(svals)
    u = np.linalg.qr(algebra.center_rows(rng.standard_normal((k, n_i))).T)[0]
    v = np.linalg.qr(algebra.center_rows(rng.standard_normal((k, n_j))).T)[0]
    return (u * np.asarray(svals)) @ v.T


def mixed_stack(rng, n_i, n_j):
    """Sensitivities of one shape: the zero matrix, random, deterministic
    and duplicated-column tables, and singular values just above and just
    below RANK_TOL times the largest."""
    mats = [np.zeros((n_i, n_j))]
    for _ in range(4):
        mats.append(cpt_to_sensitivity(random_cpt(rng, n_i, n_j)).entries)
    deterministic = np.eye(n_i)[:, rng.integers(0, n_i, n_j)]
    mats.append(cpt_to_sensitivity(deterministic).entries)
    few = random_cpt(rng, n_i, 2)
    mats.append(cpt_to_sensitivity(few[:, rng.integers(0, 2, n_j)]).entries)
    k = min(n_i, n_j) - 1
    if k >= 2:
        tol = algebra.RANK_TOL
        for near in (1.5 * tol, 0.7 * tol):
            mats.append(sensitivity_with_singular_values(rng, n_i, n_j, [0.8] + [0.8 * near] * (k - 1)))
    return np.array(mats)


class TestSvdFactors:
    """The stacked factoring against the one-matrix form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_matrix_of_a_stack(self, seed):
        rng = np.random.default_rng([seed, 31])
        ranks_seen = set()
        for n_i, n_j in ((2, 2), (3, 3), (2, 6), (6, 2), (4, 5), (5, 4)):
            stack = mixed_stack(rng, n_i, n_j)
            groups = algebra.svd_factors(stack)
            covered = np.sort(np.concatenate([at for at, _, _ in groups]))
            assert np.array_equal(covered, np.arange(len(stack)))
            assert [q.shape[1] for _, q, _ in groups] == sorted({q.shape[1] for _, q, _ in groups})
            for at, q_stack, r_stack in groups:
                for k, q, r in zip(at.tolist(), q_stack, r_stack):
                    s = stack[k]
                    rank = q.shape[0]
                    ranks_seen.add(rank)
                    assert q.shape == (rank, n_i) and r.shape == (rank, n_j)
                    assert rank == numerical_rank(s)
                    assert np.abs(q @ q.T - np.eye(rank)).max(initial=0.0) <= 1e-12
                    # exact up to the singular values the rank rule drops
                    dropped = np.linalg.svd(s, compute_uv=False)[rank:]
                    err = np.abs(q.T @ r - s).max()
                    assert err <= 1e-12 + dropped.max(initial=0.0)
                    one = qr_factor(s)
                    assert one.rank == rank
                    assert np.abs(one.dense() - q.T @ r).max(initial=0.0) <= 1e-12
        assert {0, 1, 2, 3} <= ranks_seen

    def test_near_threshold_singular_values_decide_the_rank(self):
        rng = np.random.default_rng(5)
        tol = algebra.RANK_TOL
        kept = sensitivity_with_singular_values(rng, 4, 4, [1.0, 2 * tol, 1.5 * tol])
        cut = sensitivity_with_singular_values(rng, 4, 4, [1.0, 0.9 * tol, 0.5 * tol])
        ranks = {int(at[0]): q.shape[1] for at, q, _ in algebra.svd_factors(np.array([kept, cut]))}
        assert ranks == {0: 3, 1: 1}

    def test_rank_counts_is_the_rule_of_every_rank(self):
        rng = np.random.default_rng(8)
        svals = np.sort(rng.random((50, 4)) * 10.0 ** rng.integers(-14, 1, (50, 4)))[:, ::-1]
        svals[:5] *= 1e-12
        want = [
            0 if row[0] <= algebra.ZERO_FLOOR else int((row > algebra.RANK_TOL * row[0]).sum())
            for row in svals
        ]
        assert algebra.rank_counts(svals).tolist() == want
        assert [int(algebra.rank_counts(row)) for row in svals] == want
        assert algebra.rank_counts(np.zeros((3, 0))).tolist() == [0, 0, 0]


class TestRankLaw:
    def test_identity_cpt(self):
        assert sensitivity_rank_law_check(np.eye(2))

    def test_equal_columns(self):
        assert sensitivity_rank_law_check(np.array([[0.3, 0.3], [0.7, 0.7]]))

    def test_random_cpts(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(2, 9))
            assert sensitivity_rank_law_check(random_cpt(rng, rows, cols))


class TestReduce:
    def test_asia_scalar_contractions(self):
        assert (R_63 @ Q_32.T).item() == pytest.approx(0.5319, abs=1e-4)
        assert (R_32 @ Q_21.T).item() == pytest.approx(0.6726, abs=1e-4)
        chain = reduce(reduce(QRFactors(Q_63, R_63), QRFactors(Q_32, R_32)),
                       QRFactors(Q_21, R_21))
        assert binary_from_dense(chain.dense()).value == pytest.approx(0.01431, abs=1e-5)

    def test_rank_zero_annihilates(self):
        a = QRFactors(np.zeros((0, 3)), np.zeros((0, 4)))
        b = qr_factor(cpt_to_sensitivity(random_cpt(np.random.default_rng(1), 4, 5)))
        out = reduce(a, b)
        assert out.rank == 0
        assert out.shape == (3, 5)

    def test_dimension_mismatch(self):
        a = qr_factor(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        b = qr_factor(cpt_to_sensitivity(random_cpt(np.random.default_rng(2), 3, 3)))
        with pytest.raises(DimensionMismatchError):
            reduce(a, b)

    def test_matches_marginalization_oracle_on_chains(self):
        # three-node chain: composing edge sensitivities must equal the
        # sensitivity of the marginalized conditional sum_j p(i|j)p(j|k)
        rng = np.random.default_rng(3)
        for _ in range(25):
            ni, nj, nk = rng.integers(2, 7, size=3)
            p_ij = random_cpt(rng, ni, nj)
            p_jk = random_cpt(rng, nj, nk)
            composed = reduce(
                qr_factor(cpt_to_sensitivity(p_ij)), qr_factor(cpt_to_sensitivity(p_jk))
            )
            want = cpt_to_sensitivity(p_ij @ p_jk).entries
            assert np.abs(composed.dense() - want).max() <= 1e-9

    def test_matches_enumeration_oracle_on_chain_networks(self):
        from sensbn import oracle
        from sensbn.model import BeliefNetwork, StateSpace

        rng = np.random.default_rng(13)
        for _ in range(10):
            cards = [int(c) for c in rng.integers(2, 7, size=3)]
            net = BeliefNetwork(
                (("k", cards[2]), ("j", cards[1]), ("i", cards[0])),
                {"j": ("k",), "i": ("j",)},
                {
                    "k": random_cpt(rng, cards[2], 1),
                    "j": random_cpt(rng, cards[1], cards[2]),
                    "i": random_cpt(rng, cards[0], cards[1]),
                },
            )
            composed = reduce(
                qr_factor(cpt_to_sensitivity(net.cpts["i"])),
                qr_factor(cpt_to_sensitivity(net.cpts["j"])),
            )
            end_to_end = oracle.pairwise_conditional(
                net,
                StateSpace(("i",), (cards[0],)),
                StateSpace(("k",), (cards[2],)),
            )
            want = cpt_to_sensitivity(end_to_end).entries
            assert np.abs(composed.dense() - want).max() <= 1e-9


class TestReverse:
    def test_asia_binary_reversal_value(self):
        s_ha = BinarySensitivity(0.01431)
        p_h = Distribution(np.array([0.5640, 0.4360]))
        p_a = Distribution(np.array([0.9900, 0.0100]))
        s_ah = binary_reverse(s_ha, p_h, p_a)
        assert s_ah.value == pytest.approx(5.8e-4, abs=1e-5)

    def test_involution_on_factors(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            ni, nj = rng.integers(2, 7, size=2)
            pair = qr_factor(cpt_to_sensitivity(random_cpt(rng, ni, nj)))
            p_i = random_positive_dist(rng, ni)
            p_j = random_positive_dist(rng, nj)
            back = reverse(reverse(pair, p_i, p_j), p_j, p_i)
            assert np.abs(back.dense() - pair.dense()).max() <= 1e-9
            assert back.rank == pair.rank

    def test_worked_example_refreshed_factor(self):
        # after conditioning on the first evidence node, the X-ray edge
        # factor becomes (1/sqrt2)(-4.031, 4.031)
        q_43 = np.array([[-1 / RT2, 1 / RT2]])
        p4_posterior = Distribution(np.array([0.8549, 0.1451]))
        scaled = q_43 * (1.0 / p4_posterior.probs)[None, :]
        r_34 = algebra.center_rows(scaled)
        assert np.allclose(r_34 * RT2, [[-4.031, 4.031]], atol=1e-3)

    def test_singular_weight_error(self):
        pair = qr_factor(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        with pytest.raises(SingularWeightError):
            reverse(pair, np.array([0.0, 1.0]), np.array([0.5, 0.5]))


class TestSensitivityToCpt:
    def test_rank_zero_reproduces_marginal(self):
        pair = QRFactors(np.zeros((0, 3)), np.zeros((0, 2)))
        p_i = Distribution(np.array([0.2, 0.3, 0.5]))
        p_j = Distribution(np.array([0.4, 0.6]))
        out = sensitivity_to_cpt(pair, p_i, p_j)
        assert np.allclose(out.entries, p_i.probs[:, None])

    def test_round_trip_with_consistent_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ni, nj = rng.integers(2, 7, size=2)
            cpt = random_cpt(rng, ni, nj)
            p_j = random_positive_dist(rng, nj)
            p_i = Distribution(cpt @ p_j.probs)
            pair = qr_factor(cpt_to_sensitivity(cpt))
            back = sensitivity_to_cpt(pair, p_i, p_j)
            assert np.abs(back.entries - cpt).max() <= 1e-9

    def test_asia_published_factors_reconstruct_cpt(self):
        pair = QRFactors(Q_21, R_21)
        p_a = Distribution(np.array([0.9900, 0.0100]))
        p_b = Distribution(np.array([0.9896, 0.0104]))
        cpt = sensitivity_to_cpt(pair, p_b, p_a)
        diff = cpt.entries[1, 1] - cpt.entries[1, 0]
        assert diff == pytest.approx(0.0400, abs=1e-9)
        assert float(cpt.entries[1] @ p_a.probs) == pytest.approx(0.0104, abs=1e-9)

    def test_range_error_on_inconsistent_triple(self):
        pair = qr_factor(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        with pytest.raises(RangeError):
            sensitivity_to_cpt(
                pair,
                Distribution(np.array([0.01, 0.99])),
                Distribution(np.array([0.99, 0.01])),
            )

    def test_bayes_inversion_agrees_with_reversal_path(self):
        from sensbn.oracle import arc_reverse_cpt

        rng = np.random.default_rng(6)
        for _ in range(25):
            ni, nj = rng.integers(2, 7, size=2)
            cpt = ConditionalMatrix(random_cpt(rng, ni, nj))
            p_j = random_positive_dist(rng, nj)
            p_i = Distribution(cpt.entries @ p_j.probs)
            pair = qr_factor(cpt_to_sensitivity(cpt))
            via_sensitivity = sensitivity_to_cpt(reverse(pair, p_i, p_j), p_j, p_i)
            via_bayes, marg = arc_reverse_cpt(cpt, p_j)
            assert np.abs(via_sensitivity.entries - via_bayes.entries).max() <= 1e-9
            assert np.abs(marg.probs - p_i.probs).max() <= 1e-12


class TestApplyUpdate:
    def test_zero_change_is_fixed(self):
        pair = qr_factor(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        assert np.allclose(apply_update(pair, np.zeros(2)), 0.0)

    def test_asia_delta(self):
        s_ah = 5.8e-4
        pair = QRFactors(np.array([[-1 / RT2, 1 / RT2]]),
                         s_ah * np.array([[-1 / RT2, 1 / RT2]]))
        delta_h = np.array([-0.5640, 0.5640])
        delta_a = apply_update(pair, delta_h)
        assert delta_a[1] == pytest.approx(3.3e-4, abs=1e-5)

    def test_zero_sum_is_preserved(self):
        rng = np.random.default_rng(7)
        pair = qr_factor(cpt_to_sensitivity(random_cpt(rng, 5, 4)))
        delta = rng.random(4)
        delta -= delta.mean()
        out = apply_update(pair, delta)
        assert abs(out.sum()) <= 1e-12


class TestBinaryFastPaths:
    def test_identity_is_deterministic(self):
        s = binary_sensitivity(np.eye(2))
        assert s.value == 1.0
        assert s.deterministic

    def test_equal_columns_give_zero(self):
        s = binary_sensitivity(np.array([[0.3, 0.3], [0.7, 0.7]]))
        assert s.value == 0.0

    def test_asia_tuberculosis_value(self):
        s = binary_sensitivity(np.array([[0.99, 0.95], [0.01, 0.05]]))
        assert s.value == pytest.approx(0.0400, abs=1e-12)

    def test_reduce_identities(self):
        assert binary_reduce(BinarySensitivity(0.0), BinarySensitivity(0.7)).value == 0.0
        assert binary_reduce(BinarySensitivity(1.0), BinarySensitivity(0.4)).value == 0.4

    def test_reverse_symmetric_marginals_is_identity(self):
        half = Distribution(np.array([0.5, 0.5]))
        s = BinarySensitivity(0.37)
        assert binary_reverse(s, half, half).value == pytest.approx(0.37, abs=1e-15)

    def test_update_examples(self):
        s = BinarySensitivity(0.27)
        assert binary_update(0.4502, s, 0.0) == 0.4502
        assert binary_update(0.4502, s, 0.8549) == pytest.approx(0.68, abs=5e-3)
        # instantiation to true moves p(j) by its false mass
        assert binary_update(0.2, BinarySensitivity(0.5), 0.6) == pytest.approx(0.5)

    def test_reduce_matches_general_path(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = BinarySensitivity(float(rng.uniform(-1, 1)))
            b = BinarySensitivity(float(rng.uniform(-1, 1)))
            fast = binary_reduce(a, b)
            general = reduce(qr_factor(binary_dense(a)), qr_factor(binary_dense(b)))
            assert np.abs(general.dense() - binary_dense(fast)).max() <= 1e-12

    def test_reverse_matches_general_path(self):
        # triples drawn consistently (p_i is the image of p_j through a
        # real table) so the flipped coupling stays a probability difference
        rng = np.random.default_rng(9)
        for _ in range(1000):
            cpt = random_cpt(rng, 2, 2)
            p_j = Distribution.normalized(0.05 + rng.random(2))
            p_i = Distribution(cpt @ p_j.probs)
            s = binary_sensitivity(cpt)
            fast = binary_reverse(s, p_i, p_j)
            general = reverse(qr_factor(binary_dense(s)), p_i, p_j)
            assert np.abs(general.dense() - binary_dense(fast)).max() <= 1e-12

    def test_update_matches_general_path(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            s = BinarySensitivity(float(rng.uniform(-0.9, 0.9)))
            p0 = float(rng.uniform(0.2, 0.8))
            dpj = float(rng.uniform(-0.1, 0.1))
            fast = binary_update(p0, s, dpj)
            delta = apply_update(qr_factor(binary_dense(s)), np.array([-dpj, dpj]))
            assert abs(fast - (p0 + delta[1])) <= 1e-12


class TestReverseDense:
    def test_matches_factored_reverse(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            ni, nj = rng.integers(2, 6, size=2)
            cpt = random_cpt(rng, ni, nj)
            p_i = random_positive_dist(rng, ni)
            p_j = random_positive_dist(rng, nj)
            s = cpt_to_sensitivity(cpt)
            pair = qr_factor(s)
            dense = reverse_dense(s.entries, p_i, p_j)
            factored = reverse(pair, p_i, p_j)
            assert np.abs(dense - factored.dense()).max() <= 1e-12
        # the weight of a stack of marginals, a zero entry among them, is
        # the weight of each row bit for bit
        stack = np.array([random_positive_dist(rng, 4).probs for _ in range(3)] + [np.eye(4)[1]])
        for v, weight in zip(stack, algebra.weight_matrix(stack)):
            assert weight.tobytes() == (np.diag(v) - np.outer(v, v)).tobytes()
