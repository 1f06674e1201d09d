"""Answers computed apart from the engine, to check every benchmark output.

Chains are checked against a forward-backward sweep over the conditional
tables of the chain network; compiled networks against the enumeration
oracle, with the joint table built once per network before any timing.
"""

from __future__ import annotations

import numpy as np

from sensbn import oracle
from sensbn.model import BeliefNetwork, Evidence, StateSpace

#: engine and reference must agree to this, absolute, on every probability
EXACT_TOL = 1e-9
#: the CLI prints six decimals; allow the rounding plus EXACT_TOL
PRINTED_TOL = 5e-7 + EXACT_TOL


def chain_posteriors(net: BeliefNetwork, evidence: dict[int, int]) -> np.ndarray:
    """Posterior of every node of the binary chain v0 -> v1 -> ... given
    ``evidence`` (chain position -> state), one row per node.

    alpha_k is p(x_k, evidence at 0..k) and beta_k is p(evidence at
    k+1.. | x_k), both rescaled at each step; the posterior of node k is
    their normalised product.
    """
    length = len(net.labels)
    like = np.ones((length, 2))
    for pos, state in evidence.items():
        like[pos] = 0.0
        like[pos, state] = 1.0
    tables = [net.cpts[f"v{k}"] for k in range(length)]  # child x parent
    alpha = np.empty((length, 2))
    a = tables[0][:, 0] * like[0]
    alpha[0] = a / a.sum()
    for k in range(1, length):
        a = (tables[k] @ alpha[k - 1]) * like[k]
        alpha[k] = a / a.sum()
    beta = np.empty((length, 2))
    beta[-1] = 1.0
    for k in range(length - 2, -1, -1):
        b = tables[k + 1].T @ (like[k + 1] * beta[k + 1])
        beta[k] = b / b.sum()
    post = alpha * beta
    return post / post.sum(axis=1, keepdims=True)


class Oracle:
    """Enumeration reference for one network; the joint is built once."""

    def __init__(self, net: BeliefNetwork):
        self.net = net
        self.joint = oracle.joint(net)

    def over_space(self, evidence: Evidence, space: StateSpace) -> np.ndarray:
        return oracle.posterior_over_space(self.net, evidence, space, jt=self.joint).probs

    def member(self, evidence: Evidence, label: str) -> np.ndarray:
        space = StateSpace((label,), (self.net.card(label),))
        return self.over_space(evidence, space)


def parse_printed_posterior(stdout: str) -> np.ndarray:
    """The posterior column of ``sensbn query`` output."""
    lines = stdout.splitlines()
    start = lines.index("state      posterior   delta") + 1
    values = []
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 3:
            break
        values.append(float(parts[1]))
    return np.array(values)


def close(got: np.ndarray, want: np.ndarray, tol: float = EXACT_TOL) -> bool:
    return got.shape == want.shape and float(np.abs(got - want).max(initial=0.0)) <= tol
