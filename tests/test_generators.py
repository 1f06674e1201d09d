import math

import numpy as np
import pytest

from sensbn import compiler, generators
from sensbn.algebra import QRFactors
from sensbn.model import Distribution, StateSpace


def per_object_chain(rng, length, **params):
    """The chain of :func:`generators.binary_chain_tree` built as it was
    before the columnar build: one state space, one prior and one factor
    pair object per node, through :func:`compiler.accept_precompiled`."""
    defaults = dict(alpha=0.9, lo=0.11, hi=0.89, coupling_lo=0.05)
    defaults.update(params)
    priors, couplings, _, _ = generators._chain_params(rng, length, **defaults)
    spaces = [StateSpace.binary((f"v{i}",)) for i in range(length)]
    dists = [Distribution(np.array([1 - p, p])) for p in priors]
    unit = np.array([[-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]])
    factors = {(k, k - 1): QRFactors(unit, s * unit) for k, s in enumerate(couplings, start=1)}
    return compiler.accept_precompiled(spaces, dists, factors, name="chain")


def tree_bits(tree):
    """Everything a tree holds, with every array as its dtype, shape and bytes."""
    def bits(arr):
        arr = np.asarray(arr)
        return (arr.dtype.str, arr.shape, arr.tobytes())

    nodes = tree.node_columns
    out = [
        tree.name, tree.edges, nodes.names, nodes.members, nodes.member_start,
        dict(nodes.cards), dict(nodes.pruned), nodes.size,
        {k: bits(v) for k, v in nodes.priors.items()}, bits(nodes.prior_row),
        bits(tree.edge_ends), [bits(a) for a in (*tree.csr, tree.twin)],
        [(bits(s.edges), bits(s.fwd), bits(s.bwd)) for s in tree.factor_stacks],
        tree.decay,
    ]
    sc = tree.scalars
    if sc is not None:
        out.append([bits(getattr(sc, f)) for f in sc.__dataclass_fields__])
    return out


@pytest.mark.parametrize("seed", [0, 5, 17, 2024])
@pytest.mark.parametrize("length", [1, 2, 3, 40, 300])
def test_binary_chain_tree_is_the_per_object_build(seed, length):
    fast = generators.binary_chain_tree(np.random.default_rng(seed), length)
    slow = per_object_chain(np.random.default_rng(seed), length)
    assert tree_bits(fast) == tree_bits(slow)


@pytest.mark.parametrize("seed", [1, 9])
def test_binary_chain_tree_with_strong_couplings_is_the_per_object_build(seed):
    params = dict(alpha=0.9, coupling_lo=0.8)
    fast = generators.binary_chain_tree(np.random.default_rng(seed), 500, **params)
    slow = per_object_chain(np.random.default_rng(seed), 500, **params)
    assert tree_bits(fast) == tree_bits(slow)
