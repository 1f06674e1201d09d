"""The benchmark's reference answers agree with the enumeration oracle.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import numpy as np
import pytest

from sensbn import generators, oracle
from sensbn.model import Evidence

import reference


@pytest.mark.parametrize("seed", range(6))
def test_chain_sweep_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 13))
    net = generators.binary_chain_network(rng, length, coupling_lo=float(rng.uniform(0.05, 0.8)))
    positions = rng.choice(length, int(rng.integers(0, min(length, 4) + 1)), replace=False)
    evidence = {int(p): int(rng.integers(0, 2)) for p in positions}
    got = reference.chain_posteriors(net, evidence)
    labelled = Evidence.of({f"v{p}": s for p, s in evidence.items()})
    for k in range(length):
        want = oracle.posterior(net, labelled, f"v{k}").probs
        assert reference.close(got[k], want, 1e-12)


def test_member_posterior_matches_oracle():
    from sensbn import fixtures

    net = fixtures.asia_network()
    ev = Evidence.of({"x_A": 1, "x_D": 1})
    want = oracle.posterior(net, ev, "x_H").probs
    assert reference.close(reference.Oracle(net).member(ev, "x_H"), want, 1e-12)


def test_printed_posterior_is_parsed():
    stdout = (
        "query x_H  evidence {'x_A': 1}  mode exact engine=misq\n"
        "state      posterior   delta\n"
        "false      0.318899   -0.245131\n"
        "true       0.681101   +0.245131\n"
        "instrumentation messages=10 ranks=[1] edge_traversals=10 nodes_touched=6\n"
    )
    assert reference.parse_printed_posterior(stdout).tolist() == [0.318899, 0.681101]
