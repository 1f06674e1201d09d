"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Sessions used by the reproduction and equivalence criteria are collected so
the message-economy and traversal criterion can audit every one of them.
"""

import time

import numpy as np
import pytest

from sensbn import algebra, compiler, oracle
from sensbn.algebra import (
    BinarySensitivity,
    QRFactors,
    binary_dense,
    binary_from_dense,
    binary_reduce,
    binary_reverse,
    binary_update,
    cpt_to_sensitivity,
    qr_factor,
    reduce,
    reverse,
    sensitivity_rank_law_check,
    sensitivity_to_cpt,
)
from sensbn.engine import QuerySession
from sensbn.generators import (
    binary_chain_tree,
    random_cpt,
    random_evidence,
    random_groupings,
    random_tree_network,
)
from sensbn.model import Distribution, Evidence
from sensbn.truncation import DecayProfile, truncated_query
from tests.conftest import table1_priors

AUDITED_SESSIONS: list[QuerySession] = []


def audited(tree, **kw) -> QuerySession:
    session = QuerySession(tree, **kw)
    AUDITED_SESSIONS.append(session)
    return session


def test_criterion_1_single_evidence_reproduction(asia_tables):
    """Query the visit node given dyspnea on the precompiled tree."""
    start = time.perf_counter()

    # intermediate coupling along the chain X_6 - X_3 - X_2 - X_1, flipped
    chain = reduce(
        reduce(
            QRFactors(
                asia_tables.r_factors[(2, 5)] @ algebra.weight_matrix(
                    asia_tables.compounds[5].prior.probs
                ),
                asia_tables.r_factors[(5, 2)],
            ),
            QRFactors(
                asia_tables.r_factors[(1, 2)] @ algebra.weight_matrix(
                    asia_tables.compounds[2].prior.probs
                ),
                asia_tables.r_factors[(2, 1)],
            ),
        ),
        QRFactors(
            asia_tables.r_factors[(0, 1)] @ algebra.weight_matrix(
                asia_tables.compounds[1].prior.probs
            ),
            asia_tables.r_factors[(1, 0)],
        ),
    )
    s_dyspnea_wrt_visit = binary_from_dense(chain.dense())
    s_visit_wrt_dyspnea = binary_reverse(
        s_dyspnea_wrt_visit,
        asia_tables.compounds[5].prior,  # dyspnea
        asia_tables.compounds[0].prior,  # visit
    )
    assert s_visit_wrt_dyspnea.value == pytest.approx(5.8e-4, abs=1e-5)

    session = audited(asia_tables)
    session.instantiate(5, {"x_H": 1})
    delta = session.p[0][1] - session.p0[0][1]
    assert delta == pytest.approx(3.3e-4, abs=1e-5)
    # the engine's update is exactly the scalar chain times the jump in p(H)
    assert delta == pytest.approx(s_visit_wrt_dyspnea.value * 0.5640, abs=1e-6)

    assert time.perf_counter() - start < 1.0


def test_criterion_2_two_evidence_reproduction(asia_tables):
    """Visit + positive X-ray, query dyspnea: both engines, all intermediates."""
    evidence = Evidence.of({"x_A": 1, "x_D": 1})
    p3_expected = np.array([0.5002, 0.3975, 0.0263, 0.0210, 0.0235, 0.0315])
    r34_expected = np.array([[-4.031, 4.031]]) / np.sqrt(2.0)

    # incremental path: instantiate visit, inspect, then instantiate X-ray
    incremental = audited(asia_tables)
    incremental.instantiate(0, {"x_A": 1})
    incremental.commit()
    assert np.abs(incremental.p[2] - p3_expected).max() <= 1e-4
    assert np.abs(incremental.p[3] - [0.8549, 0.1451]).max() <= 1e-4
    assert np.abs(incremental.p[5] - [0.5498, 0.4502]).max() <= 1e-4
    assert np.abs(incremental.r[(2, 3)] - r34_expected).max() <= 1e-3

    s_63 = incremental.dense_sensitivity(5, 2)
    s_34 = incremental.dense_sensitivity(2, 3)
    s_64 = binary_from_dense(s_63 @ s_34)
    assert s_64.value == pytest.approx(0.27, abs=5e-3)

    incremental.instantiate(3, {"x_D": 1})
    incremental.commit()
    assert incremental.p[5][1] == pytest.approx(0.68, abs=5e-3)

    # single-query path: same numbers out of one recursive pass
    misq = audited(asia_tables, record_trace=True)
    posterior = misq.query(5, evidence)
    assert posterior.probs[1] == pytest.approx(0.68, abs=5e-3)
    assert np.abs(misq.p1[3] - [0.8549, 0.1451]).max() <= 1e-4
    assert np.abs(misq.r[(2, 3)] - r34_expected).max() <= 1e-3
    first_accumulate = next(
        p for event, node, p in misq.trace if event == "misq-accumulate" and node == 2
    )
    assert np.abs(first_accumulate - p3_expected).max() <= 1e-4
    assert np.abs(misq.p[5][1] - incremental.p[5][1]) <= 1e-9


def test_criterion_3_compile_reproduces_published_priors(asia_compiled):
    """Compiling the literature CPTs reproduces the published prior table."""
    tree, report = asia_compiled
    for comp in tree.compounds:
        want = table1_priors()[comp.name]
        assert np.abs(comp.prior.probs - want).max() <= 5e-5
    spots = {
        "X_2": 0.0104,  # tuberculosis
        "X_4": 0.1103,  # positive X-ray
        "X_6": 0.4360,  # dyspnea
    }
    for name, value in spots.items():
        assert tree.by_name(name).prior.probs[1] == pytest.approx(value, abs=5e-5)
    x3 = tree.by_name("X_3")
    assert x3.space.pruned == (2, 3)
    assert dict(report.pruned) == {"X_3": (2, 3)}


def test_criterion_4_oracle_equivalence_randomized():
    """100 seeded random trees with compound groupings: engine == oracle."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([1000, trial])
        n = int(rng.integers(2, 13))
        net = random_tree_network(rng, n)
        groups = random_groupings(rng, net)
        tree, _ = compiler.compile_network(net, forced_groups=groups)
        evidence = random_evidence(rng, net, int(rng.integers(0, 5)))

        flood = audited(tree).multi_evidence_simq(evidence)
        for comp in tree.compounds:
            want = oracle.posterior_over_space(net, evidence, comp.space).probs
            worst = max(worst, float(np.abs(flood.p[comp.ident] - want).max()))
            got = audited(tree).query(comp.ident, evidence).probs
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_5_algebra_laws():
    """500 seeded random tables: zero sums, rank law, involution, round trips."""
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    binary_checked = 0
    for _ in range(500):
        ni = int(rng.integers(2, 9))
        nj = int(rng.integers(2, 9))
        cpt = random_cpt(rng, ni, nj)
        sens = cpt_to_sensitivity(cpt)
        assert np.abs(sens.entries.sum(axis=0)).max() <= 1e-9
        assert np.abs(sens.entries.sum(axis=1)).max() <= 1e-9
        assert sensitivity_rank_law_check(cpt)

        pair = qr_factor(sens)
        p_j = Distribution.normalized(0.05 + rng.random(nj))
        p_i = Distribution(cpt @ p_j.probs)
        back = reverse(reverse(pair, p_i, p_j), p_j, p_i)
        assert np.abs(back.dense() - pair.dense()).max() <= 1e-9

        rebuilt = sensitivity_to_cpt(pair, p_i, p_j)
        assert np.abs(rebuilt.entries - cpt).max() <= 1e-9

        if ni == 2 and nj == 2:
            binary_checked += 1
            fast = algebra.binary_sensitivity(cpt)
            assert np.abs(binary_dense(fast) - sens.entries).max() <= 1e-12
            other = BinarySensitivity(float(rng.uniform(-1, 1)))
            composed = binary_reduce(fast, other)
            general = reduce(pair, qr_factor(binary_dense(other)))
            assert np.abs(general.dense() - binary_dense(composed)).max() <= 1e-12
            flipped = binary_reverse(fast, p_i, p_j)
            general_flip = reverse(pair, p_i, p_j)
            assert np.abs(general_flip.dense() - binary_dense(flipped)).max() <= 1e-12
            dpj = float(rng.uniform(-0.05, 0.05))
            fast_update = binary_update(float(p_i.probs[1]), fast, dpj)
            general_update = algebra.apply_update(pair, np.array([-dpj, dpj]))
            assert abs(fast_update - (p_i.probs[1] + general_update[1])) <= 1e-12
    elapsed = time.perf_counter() - start
    assert binary_checked > 0
    assert elapsed < 10.0


def test_criterion_6_truncation_bound_and_size_independence():
    """1000 seeded chains: the exp(eps)-1 bound never breaks, and the work
    region is independent of chain length at a fixed radius."""
    start = time.perf_counter()
    profile = DecayProfile(0.9, 0.09, 0.1)
    violations = 0
    exercised = 0
    for trial in range(1000):
        rng = np.random.default_rng([2000, trial])
        # half mild chains, half near the decay limit so truncation leaks
        coupling_lo = 0.05 if trial % 2 == 0 else 0.8
        tree = binary_chain_tree(rng, 200, alpha=0.9, coupling_lo=coupling_lo)
        ev_rng = np.random.default_rng([2001, trial])
        query = int(ev_rng.integers(0, 200))
        k = int(ev_rng.integers(1, 5))
        positions = ev_rng.choice(200, size=k, replace=False)
        evidence = Evidence.of(
            {f"v{p}": int(ev_rng.integers(0, 2)) for p in positions}
        )
        exact = QuerySession(tree).query(query, evidence).probs
        approx, bound, plan = truncated_query(
            QuerySession(tree), query, evidence, profile, verified=True
        )
        mask = exact >= profile.eta
        if not mask.any():
            continue
        rel = float(np.max(np.abs(approx.probs[mask] - exact[mask]) / exact[mask]))
        if rel > 1e-15:
            exercised += 1
        if rel > bound:
            violations += 1
    assert violations == 0
    assert exercised > 0  # the suite really dropped influential evidence

    touched = []
    for length in (50, 200, 800):
        rng = np.random.default_rng(42)
        tree = binary_chain_tree(rng, length, alpha=0.9, coupling_lo=0.8)
        ev_rng = np.random.default_rng(43)
        evidence = Evidence.of(
            {f"v{o}": int(ev_rng.integers(0, 2)) for o in (2, 11, length - 1)}
        )
        session = QuerySession(tree)
        truncated_query(session, 5, evidence, profile, radius=20, verified=True)
        touched.append(len(session.instr.touched))
    assert touched[0] == touched[1] == touched[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_7_message_economy_and_traversal():
    """Across every session above: message length == edge rank, and the
    single-query recursion crossed no edge more than twice."""
    assert AUDITED_SESSIONS, "reproduction and equivalence criteria must run first"
    total_messages = 0
    audited_queries = 0
    for session in AUDITED_SESSIONS:
        for (a, b), length in session.instr.messages:
            total_messages += 1
            assert length == session.tree.rank(a, b)
        if session.instr.mode == "misq" and session.instr.traversals:
            audited_queries += 1
            assert max(session.instr.traversals.values()) <= 2
    assert total_messages > 0
    assert audited_queries > 0
