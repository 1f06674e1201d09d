#!/usr/bin/env python3
"""Walk through the two classic chest-clinic queries on the shipped tree.

Prints every intermediate the engine produces so the run can be compared
line by line against the published four-digit tables.
"""

import sys
from pathlib import Path

import numpy as np

# the checkout's own sources, so the script runs without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensbn import fixtures
from sensbn.algebra import binary_from_dense
from sensbn.engine import QuerySession
from sensbn.model import Evidence


def fmt(vec):
    return "(" + ", ".join(f"{v:.4f}" for v in np.atleast_1d(vec)) + ")"


def main():
    tree = fixtures.asia_tables_tree()
    names = {c.ident: c.name for c in tree.compounds}
    print(f"loaded {tree.name}: {len(tree.compounds)} compound nodes")
    for comp in tree.compounds:
        print(f"  {comp.name} = {comp.space.members} prior {fmt(comp.prior.probs)}")

    print("\n-- query 1: how much does a positive dyspnea finding move p(visit)?")
    session = QuerySession(tree)
    session.instantiate(tree.by_name("X_6").ident, {"x_H": 1})
    visit = tree.by_name("X_1").ident
    delta = session.p[visit][1] - session.p0[visit][1]
    print(f"  p(visit | dyspnea) - p(visit) = {delta:.3e}")

    print("\n-- query 2: p(dyspnea | visit, positive X-ray), incrementally")
    session = QuerySession(tree)
    session.instantiate(tree.by_name("X_1").ident, {"x_A": 1})
    session.commit()
    for name in ("X_3", "X_4", "X_6"):
        ident = tree.by_name(name).ident
        print(f"  after visit=true: p({name}) = {fmt(session.p[ident])}")
    x3, x4, x6 = (tree.by_name(n).ident for n in ("X_3", "X_4", "X_6"))
    print(f"  refreshed X-ray edge factor: {fmt(session.r[(x3, x4)][0])}")
    coupling = binary_from_dense(
        session.dense_sensitivity(x6, x3) @ session.dense_sensitivity(x3, x4)
    )
    print(f"  dyspnea/X-ray coupling after first evidence: {coupling.value:.4f}")
    session.instantiate(x4, {"x_D": 1})
    session.commit()
    print(f"  p(dyspnea | visit, X-ray) = {fmt(session.p[x6])}")

    print("\n-- same query through the single-pass recursion")
    answer = QuerySession(tree).query(x6, Evidence.of({"x_A": 1, "x_D": 1}))
    print(f"  p(dyspnea | visit, X-ray) = {fmt(answer.probs)}")


if __name__ == "__main__":
    main()
