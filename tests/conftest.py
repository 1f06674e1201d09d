import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sensbn
from sensbn import accept, compiler, fixtures
from sensbn.model import FactorStack, TreeNetwork

# interpreters the tests start import the same sensbn as the tests
_SRC = str(Path(sensbn.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

settings.register_profile(
    "sensbn",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sensbn")


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture(scope="session")
def asia_net():
    return fixtures.asia_network()


@pytest.fixture(scope="session")
def asia_tables():
    return fixtures.asia_tables_tree()


@pytest.fixture(scope="session")
def asia_compiled(asia_net):
    tree, report = compiler.compile_network(
        asia_net, forced_groups=(("x_C", "x_E", "x_G"),)
    )
    return tree, report


def table1_priors():
    return {
        "X_1": np.array([0.9900, 0.0100]),
        "X_2": np.array([0.9896, 0.0104]),
        "X_3": np.array([0.5210, 0.4141, 0.0055, 0.0044, 0.0235, 0.0315]),
        "X_4": np.array([0.8897, 0.1103]),
        "X_5": np.array([0.5000, 0.5000]),
        "X_6": np.array([0.5640, 0.4360]),
    }


def unchecked_copy(tree, stacks=None):
    """``tree`` built again from its own columns, with ``stacks`` in place
    of its factor stacks if given, and without the load-time check: it
    carries no decay constants and no float form."""
    return TreeNetwork(
        tree.node_columns, tree.edge_ends, stacks or tree.factor_stacks, tree.name
    )


def accepted_without_table_check(*args):
    """``accept.accept_precompiled(*args)`` with the load-time check of
    the rebuilt conditional tables switched off and every other part of
    the load pass kept, float form included: for trees whose couplings
    are no sensitivity, built to reach the engine's own refusals."""
    with mock.patch.object(accept, "TABLE_TOL", math.inf):
        return accept.accept_precompiled(*args)


def bumped_factor(tree, key, delta):
    """:func:`unchecked_copy` of ``tree`` with entry [0, 0] of the stored
    factor under ``key`` moved by ``delta``."""
    stacks = []
    for stack in tree.factor_stacks:
        fwd, bwd = np.array(stack.fwd), np.array(stack.bwd)
        for k, pos in enumerate(stack.edges.tolist()):
            if tree.edges[pos] == key:
                fwd[k, 0, 0] += delta
            elif tree.edges[pos] == key[::-1]:
                bwd[k, 0, 0] += delta
        stacks.append(FactorStack(stack.edges, fwd, bwd))
    return unchecked_copy(tree, stacks)


def searched_path(tree, a, b):
    """The nodes on the path from a to b, both included, found by a
    breadth-first search from a over ``tree.neighbors``."""
    came = {a: None}
    order = [a]
    for x in order:
        for m in tree.neighbors(x):
            if m not in came:
                came[m] = x
                order.append(m)
    path = [b]
    while path[-1] != a:
        path.append(came[path[-1]])
    return path[::-1]
