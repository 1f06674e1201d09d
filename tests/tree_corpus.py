"""Malformed and unusual tree files, with what the per-node loader
that preceded the columnar one made of them."""

from sensbn.errors import (
    ConsistencyError,
    DimensionMismatchError,
    ParseError,
    PrunedStateError,
    SingularWeightError,
    ZeroMassError,
)

HEAD = "tree t\ncompound A members a\ncompound B members b\ncompound C members c\n"
PRIORS = "prior A 0.3 0.7\nprior B 0.4 0.6\nprior C 0.5 0.5\n"
EDGES = "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\nedge C B rank 1\nq -0.5 0.5\nr -0.1 0.1\n"
#: file name -> text; every file declares its compounds before using them
CORPUS = {
    "valid": HEAD + PRIORS + EDGES,
    "bad prior before a later syntax error": (
        HEAD
        + "prior A nan 0.7\nprior B 0.4 0.6\nbogus line\n"
    ),
    "bad prior before a later bad compound": HEAD + "prior A 0 0\ncompound D\n",
    "nan prior": HEAD + "prior A 0.3 0.7\nprior B nan 0.6\nprior C 0.5 0.5\n" + EDGES,
    "inf prior": HEAD + "prior A 0.3 0.7\nprior B 0.4 -inf\nprior C 0.5 0.5\n" + EDGES,
    "zero-mass prior": HEAD + "prior A 0.3 0.7\nprior B 0 0\nprior C 0.5 0.5\n" + EDGES,
    "negative prior": HEAD + "prior A -1 2\n" + "prior B 0.4 0.6\nprior C 0.5 0.5\n" + EDGES,
    "negative total": HEAD + "prior A -3 2\n" + "prior B 0.4 0.6\nprior C 0.5 0.5\n" + EDGES,
    "earlier bad prior of another width wins": (
        "tree t\ncompound A members a\ncompound D members d e\n"
        "prior A 1 nan\nprior D 0 0 0 0\n"
    ),
    "later bad prior of another width loses": (
        "tree t\ncompound A members a\ncompound D members d e\n"
        "prior D 0 0 0 0\nprior A 1 nan\n"
    ),
    "bad first of two prior lines": (
        HEAD
        + "prior A inf 1\nprior A 0.5 0.5\n"
        + "prior B 0.4 0.6\nprior C 0.5 0.5\n"
        + EDGES
    ),
    "bad prior before a wrong prior width": HEAD + "prior A 0 0\nprior B 0.4 0.6 0.1\n",
    "bad prior before an edge block count error": (
        HEAD
        + PRIORS.replace("0.5 0.5", "nan 1")
        + "edge B A rank 1\nq -0.5 0.5\nprior A 0.5 0.5\n"
    ),
    "edge block count error before a bad prior": (
        HEAD
        + "prior A 0.3 0.7\nedge B A rank 1\nq -0.5 0.5\nprior B 0 0\n"
    ),
    "incomplete edge block at end of file": HEAD + PRIORS + "edge B A rank 1\nq -0.5 0.5\n",
    "wrong prior width": HEAD + "prior A 0.3 0.7 0.1\n",
    "wrong q row width": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5 0.1\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\n"
    ),
    "wrong r row width": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2\nedge C B rank 1\nq -0.5 0.5\n"
        "r -0.1 0.1\n"
    ),
    "wrong row width loses to a later syntax error": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2\nedge C B rank 1\nq -0.5 x\n"
        "r -0.1 0.1\n"
    ),
    "wrong row width loses to a missing prior": (
        HEAD
        + "prior A 0.3 0.7\nprior B 0.4 0.6\nedge B A rank 1\nq -0.5 0.5\n"
        "r -0.2\nedge C B rank 1\nq -0.5 0.5\nr -0.1 0.1\n"
    ),
    "bad prior beats a wrong row width": (
        HEAD
        + "prior A 0.3 0.7\nprior B 0.4 0.6\nprior C 1 inf\nedge B A rank 1\n"
        "q -0.5 0.5\nr -0.2\n"
    ),
    "duplicate compound": HEAD + "compound B members z\n" + PRIORS + EDGES,
    "unknown compound in an edge": HEAD + PRIORS + "edge B Z rank 1\nq -0.5 0.5\nr -0.2 0.2\n",
    "repeated edge, first block malformed": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5 9\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\nedge B A rank 1\nq -0.5 0.5\nr -0.3 0.3\n"
    ),
    "repeated edge, last block wins": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\nedge B A rank 1\nq -0.4 0.4\nr -0.3 0.3\n"
    ),
    "repeated edge of another rank": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\nedge B A rank 2\nq -0.4 0.4\nq -0.1 0.1\n"
        "r -0.3 0.3\nr 0 0\n"
    ),
    "prior given twice, last wins": (
        HEAD
        + "prior A 0.3 0.7\nprior B 0.4 0.6\nprior C 0.5 0.5\nprior A 0.2 0.8\n"
        + EDGES
    ),
    "tabs, comments and indents": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq\t-0.5 0.5\n  r -0.2 0.2 # note\n#\n"
        "edge C B rank 1 # x\nq -0.5/rt2 0.5/rt2\nr -0.1 0.1\n"
    ),
    "rank-2 rows whose widths make up for each other": (
        "tree t\ncompound A members a b\ncompound B members c\n"
        "prior A 0.1 0.2 0.3 0.4\nprior B 0.5 0.5\nedge A B rank 2\n"
        "q 0.1 0.2 0.3 0.4 0.5\nq 0.1 0.2 0.3\nr 0.1 0.2\nr 0.3 0.4\n"
    ),
    "a key among the numbers": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5 q\nr -0.2\nedge C B rank 1\nq -0.5 0.5\n"
        "r -0.1 0.1\n"
    ),
    "bad rt2 token": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5/rt3 0.5\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\n"
    ),
    "bad number in a factor row before a bad prior": (
        HEAD
        + "prior A 0.3 0.7\nprior B 0.4 0.6\nedge B A rank 1\nq -0.5 x\n"
        "r -0.2 0.2\nprior C 0 0\n"
    ),
    "underscore number": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1_0\n"
    ),
    "rank zero edge": HEAD + PRIORS + "edge B A rank 0\nedge C B rank 1\nq -0.5 0.5\nr -0.1 0.1\n",
    "repeated edge reversed": HEAD + PRIORS + EDGES + "edge A B rank 1\nq -0.5 0.5\nr -0.3 0.3\n",
    "edge repeated the other way round": (
        HEAD
        + "compound D members d\n"
        + PRIORS
        + "prior D 0.5 0.5\n"
        + EDGES.replace("edge C B", "edge A B")
        + "edge D C rank 1\nq -0.5 0.5\nr -0.2 0.2\n"
    ),
    "all-negative prior": (
        HEAD + "prior A -1 -3\nprior B 0.4 0.6\nprior C 0.5 0.5\n" + EDGES
    ),
    "bad prior of another width between two of one width": (
        "tree t\ncompound A members a\ncompound D members d e\ncompound B members b\n"
        "prior A 0.5 0.5\nprior D 1 1 1 nan\nprior B 0 0\n"
    ),
    "wrong r row before a wrong q row": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nr -0.2\nq -0.5 0.5 0.1\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\n"
    ),
    "self loop": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\nedge C C rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\n"
    ),
    "member in two compounds": HEAD.replace("members c", "members b") + PRIORS + EDGES,
    "disconnected edge set": (
        HEAD
        + "compound D members d\n"
        + PRIORS
        + "prior D 0.5 0.5\n"
        + EDGES
        + "edge A C rank 1\nq -0.5 0.5\nr -0.2 0.2\n"
    ),
    "too few edges": HEAD + PRIORS + "edge B A rank 1\nq -0.5 0.5\nr -0.2 0.2\n",
    "missing prior": HEAD + "prior A 0.3 0.7\nprior C 0.5 0.5\n" + EDGES,
    "bad number": HEAD + "prior A 0.3 0.x7\n",
    "unknown directive": HEAD + "priors A 0.3 0.7\n",
    "factor row outside an edge block": HEAD + PRIORS + "q 0.1 0.2\n",
    "prior for an undeclared compound": "tree t\nprior A 0.5 0.5\n",
    "cards do not match members": "tree t\ncompound A members a b cards 2\n",
    "card below two": "tree t\ncompound A members a cards 1\n",
    "pruned index out of range": "tree t\ncompound A members a pruned 5\n",
    "all states pruned": "tree t\ncompound A members a pruned 0 1\n",
    "bad cards token": "tree t\ncompound A members a cards x\n",
    "bad rank token": HEAD + PRIORS + "edge B A rank x\n",
    "compound line syntax": "tree t\ncompound A a\n",
    "edge line syntax": HEAD + PRIORS + "edge B A 1\n",
    "zero prior entry on an edge": (
        HEAD
        + "prior A 0.3 0.7\nprior B 0 1\nprior C 0.5 0.5\n"
        + EDGES
    ),
    "nan factor": (
        HEAD
        + PRIORS
        + "edge B A rank 1\nq -0.5 0.5\nr nan 0.2\nedge C B rank 1\n"
        "q -0.5 0.5\nr -0.1 0.1\n"
    ),
    "pruned compound, wrong prior width": (
        "tree t\ncompound A members a b cards 3 2 pruned 1 4\n"
        "prior A 0.1 0.2 0.3 0.4 0.5 0.6\n"
    ),
}
#: what the loader raises on each malformed file: (type, text, line)
RAISES = {
    "bad prior before a later syntax error": (
        ZeroMassError, "distribution entry 0 is nan, not finite", None
    ),
    "bad prior before a later bad compound": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "nan prior": (
        ZeroMassError, "distribution entry 0 is nan, not finite", None
    ),
    "inf prior": (
        ZeroMassError, "distribution entry 1 is -inf, not finite", None
    ),
    "zero-mass prior": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "negative prior": (
        ZeroMassError, "distribution entries outside [0, 1]", None
    ),
    "negative total": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "earlier bad prior of another width wins": (
        ZeroMassError, "distribution entry 1 is nan, not finite", None
    ),
    "later bad prior of another width loses": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "bad first of two prior lines": (
        ZeroMassError, "distribution entry 0 is inf, not finite", None
    ),
    "bad prior before a wrong prior width": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "bad prior before an edge block count error": (
        ZeroMassError, "distribution entry 0 is nan, not finite", None
    ),
    "edge block count error before a bad prior": (
        ParseError, "t.tree:6: edge block needs 1 q rows and 1 r rows", 6
    ),
    "incomplete edge block at end of file": (
        ParseError, "t.tree:8: edge block needs 1 q rows and 1 r rows", 8
    ),
    "wrong prior width": (
        ParseError, "t.tree:5: prior for A has 3 values, expected 2", 5
    ),
    "wrong q row width": (
        ParseError, "t.tree:8: edge B A: q row has 3 values, expected 2", 8
    ),
    "wrong r row width": (
        ParseError, "t.tree:8: edge B A: r row has 1 values, expected 2", 8
    ),
    "wrong row width loses to a later syntax error": (
        ParseError, "t.tree:12: expected a number, got 'x'", 12
    ),
    "wrong row width loses to a missing prior": (
        ParseError, "t.tree: compounds without a prior: ['C']", None
    ),
    "bad prior beats a wrong row width": (
        ZeroMassError, "distribution entry 1 is inf, not finite", None
    ),
    "duplicate compound": (
        ParseError, "t.tree:5: duplicate compound 'B'", 5
    ),
    "unknown compound in an edge": (
        ParseError, "t.tree:8: edge names unknown compound 'Z'", 8
    ),
    "repeated edge, first block malformed": (
        ParseError, "t.tree:8: edge B A: q row has 3 values, expected 2", 8
    ),
    "rank-2 rows whose widths make up for each other": (
        ParseError, "t.tree:6: edge A B: q row has 5 values, expected 4", 6
    ),
    "a key among the numbers": (
        ParseError, "t.tree:9: expected a number, got 'q'", 9
    ),
    "bad rt2 token": (
        ParseError, "t.tree:9: expected a number, got '-0.5/rt3'", 9
    ),
    "bad number in a factor row before a bad prior": (
        ParseError, "t.tree:8: expected a number, got 'x'", 8
    ),
    "repeated edge, last block wins": (
        DimensionMismatchError, "3 edges cannot form a tree over 3 nodes", None
    ),
    "repeated edge of another rank": (
        DimensionMismatchError, "3 edges cannot form a tree over 3 nodes", None
    ),
    "repeated edge reversed": (
        DimensionMismatchError, "3 edges cannot form a tree over 3 nodes", None
    ),
    "edge repeated the other way round": (
        DimensionMismatchError, "bad edge (0, 1)", None
    ),
    "all-negative prior": (
        ZeroMassError, "cannot normalize a zero-mass vector", None
    ),
    "bad prior of another width between two of one width": (
        ZeroMassError, "distribution entry 3 is nan, not finite", None
    ),
    "wrong r row before a wrong q row": (
        ParseError, "t.tree:8: edge B A: q row has 3 values, expected 2", 8
    ),
    "self loop": (
        DimensionMismatchError, "bad edge (2, 2)", None
    ),
    "member in two compounds": (
        DimensionMismatchError, "member 'b' appears in two compounds", None
    ),
    "disconnected edge set": (
        DimensionMismatchError, "the edge set is not connected", None
    ),
    "too few edges": (
        DimensionMismatchError, "1 edges cannot form a tree over 3 nodes", None
    ),
    "missing prior": (
        ParseError, "t.tree: compounds without a prior: ['B']", None
    ),
    "bad number": (
        ParseError, "t.tree:5: expected a number, got '0.x7'", 5
    ),
    "unknown directive": (
        ParseError, "t.tree:5: unknown directive 'priors'", 5
    ),
    "factor row outside an edge block": (
        ParseError, "t.tree:8: factor row outside an edge block", 8
    ),
    "prior for an undeclared compound": (
        ParseError, "t.tree:2: prior line needs a declared compound name", 2
    ),
    "cards do not match members": (
        DimensionMismatchError, "2 members but 1 cardinalities", None
    ),
    "card below two": (
        DimensionMismatchError, "member cardinalities must be >= 2", None
    ),
    "pruned index out of range": (
        PrunedStateError, "pruned indices [5] outside [0, 2)", None
    ),
    "all states pruned": (
        ZeroMassError, "all states of the space are pruned", None
    ),
    "bad cards token": (
        ValueError, "invalid literal for int() with base 10: 'x'", None
    ),
    "bad rank token": (
        ValueError, "invalid literal for int() with base 10: 'x'", None
    ),
    "compound line syntax": (
        ParseError, "t.tree:2: compound line needs: compound <name> members <label...>", 2
    ),
    "edge line syntax": (
        ParseError, "t.tree:8: edge line needs: edge <name_i> <name_j> rank <r>", 8
    ),
    "zero prior entry on an edge": (
        SingularWeightError,
        "a zero-probability state blocks the inverse weight; prune it first",
        None,
    ),
    "nan factor": (
        ConsistencyError, "edge B - A: stored factors disagree by nan", None
    ),
    "pruned compound, wrong prior width": (
        ParseError, "t.tree:3: prior for A has 6 values, expected 4", 3
    ),
}
#: the edges and stored factors of each file that loads
LOADS = {
    "valid": (
        [(1, 0), (2, 1)],
        {
            (1, 0): [[-0.2, 0.2]],
            (0, 1): [[-1.0416666666666667, 1.0416666666666667]],
            (2, 1): [[-0.1, 0.1]],
            (1, 2): [[-1.0, 1.0]],
        },
    ),
    "prior given twice, last wins": (
        [(1, 0), (2, 1)],
        {
            (1, 0): [[-0.2, 0.2]],
            (0, 1): [[-1.0416666666666667, 1.0416666666666667]],
            (2, 1): [[-0.1, 0.1]],
            (1, 2): [[-1.0, 1.0]],
        },
    ),
    "tabs, comments and indents": (
        [(1, 0), (2, 1)],
        {
            (1, 0): [[-0.2, 0.2]],
            (0, 1): [[-1.0416666666666667, 1.0416666666666667]],
            (2, 1): [[-0.1, 0.1]],
            (1, 2): [[-0.7071067811865475, 0.7071067811865475]],
        },
    ),
    "underscore number": (
        [(1, 0), (2, 1)],
        {
            (1, 0): [[-0.2, 0.2]],
            (0, 1): [[-1.0416666666666667, 1.0416666666666667]],
            (2, 1): [[-0.1, 0.1]],
            (1, 2): [[-1.0, 1.0]],
        },
    ),
    "rank zero edge": (
        [(1, 0), (2, 1)],
        {
            (1, 0): [],
            (0, 1): [],
            (2, 1): [[-0.1, 0.1]],
            (1, 2): [[-1.0, 1.0]],
        },
    ),
}
