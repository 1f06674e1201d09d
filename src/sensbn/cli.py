"""Command-line interface: compile, query, validate, bench, report.

Paths that do not exist as given are looked up in the fixture directory
(the SENSBN_FIXTURES environment variable, falling back to the packaged
fixtures), so ``sensbn query asia_tables.tree --query x_H`` works out of
the box.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

# compiler, oracle, generators, truncation and engine are imported by the
# commands that run them, so a process loads only what its command uses
from . import accept, fileio, fixtures
from .errors import (
    ApproxPreconditionError,
    ConsistencyError,
    DimensionMismatchError,
    NetworkValidationError,
    ParseError,
    PrunedStateError,
    RangeError,
    SensBnError,
    SingularWeightError,
    SizeLimitError,
    UnknownLabelError,
    ZeroEvidenceError,
    ZeroMassError,
)
from .model import Evidence, validate_network

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BAD_REQUEST = 4
EXIT_INFERENCE = 5
EXIT_APPROX = 6
EXIT_GUARD = 7
EXIT_WRITE = 8
#: standard output closed before everything was written, as in
#: ``sensbn report x.tree | head -1``: the status a shell reports for a
#: process that SIGPIPE ended
EXIT_PIPE = 141

_EXIT_OF = (
    (ParseError, EXIT_PARSE),
    (NetworkValidationError, EXIT_VALIDATION),
    (ConsistencyError, EXIT_VALIDATION),
    (UnknownLabelError, EXIT_BAD_REQUEST),
    (PrunedStateError, EXIT_BAD_REQUEST),
    (DimensionMismatchError, EXIT_BAD_REQUEST),
    (ApproxPreconditionError, EXIT_APPROX),
    (SizeLimitError, EXIT_GUARD),
    (ZeroEvidenceError, EXIT_INFERENCE),
    (ZeroMassError, EXIT_INFERENCE),
    (SingularWeightError, EXIT_INFERENCE),
    (RangeError, EXIT_INFERENCE),
)


def _exit_code(exc: SensBnError) -> int:
    for cls, code in _EXIT_OF:
        if isinstance(exc, cls):
            return code
    return EXIT_INFERENCE


def _parse_evidence(raw_items: list[str]) -> Evidence:
    pairs: dict[str, int] = {}
    for raw in raw_items:
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise UnknownLabelError(f"evidence item {item!r} is not label=value")
            label, value = item.split("=", 1)
            value = value.strip().lower()
            if value in ("true", "t", "yes"):
                state = 1
            elif value in ("false", "f", "no"):
                state = 0
            else:
                try:
                    state = int(value)
                except ValueError:
                    raise UnknownLabelError(f"bad evidence value {value!r}") from None
            label = label.strip()
            if pairs.setdefault(label, state) != state:
                raise UnknownLabelError(
                    f"evidence gives {label} two values, {pairs[label]} and {state}"
                )
    return Evidence.of(pairs)


def _parse_approx(tokens: list[str]):
    """The ``truncation.DecayProfile`` that ``--approx`` describes."""
    from .truncation import DecayProfile

    values: dict[str, float] = {}
    for tok in tokens:
        for item in tok.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ApproxPreconditionError(
                    f"approx item {item!r} is not key=value (epsilon/alpha/eta)"
                )
            key, val = item.split("=", 1)
            try:
                values[key.strip()] = float(val)
            except ValueError:
                raise ApproxPreconditionError(f"approx item {item!r} is not a number") from None
    missing = {"epsilon", "alpha", "eta"} - set(values)
    if missing:
        raise ApproxPreconditionError(f"--approx is missing {sorted(missing)}")
    return DecayProfile(values["alpha"], values["eta"], values["epsilon"])


def _state_name(card: int, state: int) -> str:
    if card == 2:
        return "true" if state else "false"
    return str(state)


def signed(value: float, places: int) -> str:
    """``value`` with its sign and ``places`` decimals; one that rounds to
    zero prints as +0, so rounding noise below zero shows no sign."""
    text = f"{value:+.{places}f}"
    return "+" + text[1:] if text[0] == "-" and float(text) == 0.0 else text


def _format_answer(
    query: str,
    evidence: dict,
    mode: str,
    state_names: list,
    posterior: np.ndarray,
    prior: np.ndarray,
    bound: float | None = None,
    instrumentation: str | None = None,
) -> str:
    """The text ``sensbn query`` prints for one answered query."""
    lines = [f"query {query}  evidence {evidence or '{}'}  mode {mode}"]
    lines.append("state      posterior   delta")
    for name, p, p0 in zip(state_names, posterior, prior):
        lines.append(f"{name:<10} {p:1.6f}   {signed(p - p0, 6)}")
    if bound is not None:
        lines.append(f"guaranteed relative error bound {bound:1.6f}")
    if instrumentation:
        lines.append(instrumentation)
    return "\n".join(lines)


def cmd_compile(args) -> int:
    from . import compiler

    net = fileio.load_network(fixtures.resolve(args.network))
    problems = validate_network(net)
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    groups = tuple(tuple(g.split(",")) for g in args.group or ())
    tree, report = compiler.compile_network(net, forced_groups=groups)
    out = Path(args.output) if args.output else Path(args.network).with_suffix(".tree")
    text = fileio.serialize_tree(tree)
    try:
        fileio.save(out, text)
    except OSError as exc:
        print(f"error: {out}: cannot write the file: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_WRITE
    print(f"wrote {out}")
    print(report.format())
    return EXIT_OK


def _tree_posterior(tree, label, dist):
    """(state names, posterior values, prior values) for a query label."""
    ident, member = tree.resolve_query(label)
    comp = tree.compound(ident)
    if member is None:
        names = [str(i) for i in range(comp.space.cardinality)]
        prior = comp.prior.probs
        return names, dist.probs, prior
    card = comp.space.cards[comp.space.members.index(member)]
    names = [_state_name(card, s) for s in range(card)]
    post = tree.member_marginal(ident, member, dist.probs)
    prior = tree.member_marginal(ident, member, comp.prior.probs)
    return names, post, prior


def cmd_query(args) -> int:
    engine = args.engine
    if args.approx and engine != "misq":
        raise UnknownLabelError(f"--approx answers by misq; it cannot run with --engine {engine}")
    tree = fileio.load_tree(fixtures.resolve(args.compiled))
    evidence = _parse_evidence(args.evidence or [])
    if engine == "oracle":
        if not args.network:
            raise UnknownLabelError("--engine oracle needs --network <file>")
        from . import oracle

        net = fileio.load_network(fixtures.resolve(args.network))
        post = oracle.posterior(net, evidence, args.query)
        prior = oracle.posterior(net, Evidence.of({}), args.query)
        card = net.card(args.query)
        print(
            _format_answer(
                args.query,
                evidence.as_dict(),
                "exact engine=oracle",
                [_state_name(card, s) for s in range(card)],
                post.probs,
                prior.probs,
            )
        )
        return EXIT_OK

    from .engine import QuerySession

    session = QuerySession(tree)
    bound = None
    ident, _member = tree.resolve_query(args.query)
    if args.approx:
        from . import truncation

        profile = _parse_approx(args.approx)
        dist, bound, plan = truncation.truncated_query(session, ident, evidence, profile)
        mode = f"approx radius={plan.radius}"
    else:
        if engine == "simq":
            session.multi_evidence_simq(evidence)
            dist = session.posterior(ident)
        else:
            dist = session.query(ident, evidence)
        mode = f"exact engine={engine}"
    names, post, prior = _tree_posterior(tree, args.query, dist)
    instr = session.instr
    instrumentation = (
        f"instrumentation messages={instr.message_count} ranks={instr.ranks} "
        f"edge_traversals={instr.message_count} nodes_touched={instr.touched_count}"
    )
    print(
        _format_answer(
            args.query, evidence.as_dict(), mode, names, post, prior, bound, instrumentation
        )
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import oracle
    from .engine import QuerySession

    net = fileio.load_network(fixtures.resolve(args.network))
    tree = fileio.load_tree(fixtures.resolve(args.compiled))
    jt = oracle.joint(net)
    # per-edge agreement with the enumeration oracle, named per edge
    for i, j in tree.edges:
        ci, cj = tree.compound(i), tree.compound(j)
        want = oracle.pairwise_conditional(net, ci.space, cj.space, jt=jt).entries
        dense = accept.reconstruct_dense(tree, i, j)
        got = dense + (ci.prior.probs - dense @ cj.prior.probs)[:, None]
        err = float(np.abs(got - want).max(initial=0.0))
        if err > args.tol:
            print(f"FAIL edge {ci.name} - {cj.name}: conditional off by {err:.3g}")
            return EXIT_VALIDATION
    # posterior sweep: engine vs oracle
    rng = np.random.default_rng(args.seed)
    labels = list(tree.member_labels)
    cases = []
    if args.samples:
        for _ in range(args.samples):
            k = int(rng.integers(0, min(4, len(labels)) + 1))
            rng.shuffle(labels)
            ev = Evidence.of({l: int(rng.integers(0, net.card(l))) for l in labels[:k]})
            cases.append(ev)
    else:
        cases.append(Evidence.of({}))
        for l in labels:
            for s in range(net.card(l)):
                cases.append(Evidence.of({l: s}))
        if len(cases) * len(tree.compounds) > 4096:
            raise SizeLimitError(
                "the exhaustive sweep is too large for this network; "
                "use --samples N instead"
            )
    max_err = 0.0
    impossible = 0
    for ev in cases:
        try:
            tree.group_evidence(ev)
        except UnknownLabelError:
            continue
        for comp in tree.compounds:
            try:
                want = oracle.posterior_over_space(net, ev, comp.space, jt=jt).probs
            except ZeroEvidenceError:
                # impossible evidence: the engine must refuse it too
                impossible += 1
                try:
                    QuerySession(tree).query(comp.ident, ev)
                except (ZeroEvidenceError, ZeroMassError, SingularWeightError):
                    continue
                print(f"FAIL: engine accepted impossible evidence {ev.as_dict()}")
                return EXIT_VALIDATION
            session = QuerySession(tree)
            got = session.query(comp.ident, ev).probs
            max_err = max(max_err, float(np.abs(got - want).max(initial=0.0)))
    print(
        f"checked {len(cases)} evidence sets "
        f"({impossible} impossible, refused by both sides); "
        f"max abs posterior error {max_err:.3g}"
    )
    if max_err > args.tol:
        print("FAIL: engine does not match the enumeration oracle")
        return EXIT_VALIDATION
    print("PASS")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import generators, truncation
    from .engine import QuerySession

    lengths = [int(x) for x in args.lengths.split(",")]
    eps_list = [float(x) for x in args.eps.split(",")]
    # Query sits a few hops inside the chain with retained evidence on one
    # side and far evidence on the other, so dropping the far side causes a
    # real, measurable error.  Chains share their random prefix across
    # lengths, which makes the nodes-touched column comparable.
    query_pos = 5
    print("length\tepsilon\tradius\tnodes_touched\twall_s\tmax_rel_err\tbound")
    for eps in eps_list:
        profile = truncation.DecayProfile(args.alpha, args.eta, eps)
        for length in lengths:
            rng = np.random.default_rng(args.seed)
            tree = generators.binary_chain_tree(
                rng, length, alpha=args.alpha, coupling_lo=args.coupling_lo
            )
            ok, witness = truncation.verify_profile(tree, profile)
            if not ok:
                raise ApproxPreconditionError(witness)
            ev_rng = np.random.default_rng([args.seed, 1])
            ev = Evidence.of(
                {f"v{o}": int(ev_rng.integers(0, 2)) for o in (2, length - 1)}
            )
            exact = QuerySession(tree).query(query_pos, ev).probs
            session = QuerySession(tree)
            start = time.perf_counter()
            approx, bound, plan = truncation.truncated_query(
                session, query_pos, ev, profile, radius=args.radius, verified=True
            )
            wall = time.perf_counter() - start
            mask = exact >= args.eta
            rel = float(
                np.max(np.abs(approx.probs[mask] - exact[mask]) / exact[mask])
            ) if mask.any() else 0.0
            print(
                f"{length}\t{eps}\t{plan.radius}\t{session.instr.touched_count}"
                f"\t{wall:.6f}\t{rel:.6e}\t{bound:.6e}"
            )
    return EXIT_OK


def cmd_report(args) -> int:
    tree = fileio.load_tree(fixtures.resolve(args.compiled))
    print(f"tree {tree.name}")
    print("node   members                 prior")
    for comp in tree.compounds:
        prior = " ".join(f"{v:.4f}" for v in comp.prior.probs)
        members = ",".join(comp.space.members)
        print(f"{comp.name:<6} {members:<23} {prior}")
        if comp.space.pruned:
            print(
                f"{'':<6} pruned original states: "
                + " ".join(map(str, comp.space.pruned))
            )
    print()
    print("edge factors (rows of q, then rows of r)")
    for (i, j), pair in accept.factor_pairs(tree).items():
        ci, cj = tree.compound(i), tree.compound(j)
        if pair.rank == 0:
            print(f"S {ci.name} {cj.name}: independent")
            continue
        print(f"S {ci.name} {cj.name} rank {pair.rank}")
        for row in pair.q:
            print("  q " + " ".join(signed(v, 4) for v in row))
        for row in pair.r_mat:
            print("  r " + " ".join(signed(v, 4) for v in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensbn",
        description="Belief-network inference with low-rank factored sensitivities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a network file into a compound tree")
    p.add_argument("network")
    p.add_argument("-o", "--output", help="output tree file (default: <network>.tree)")
    p.add_argument(
        "--group",
        action="append",
        help="force these comma-separated nodes into one compound (repeatable)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("query", help="posterior of one node given evidence")
    p.add_argument("compiled")
    p.add_argument("--query", required=True)
    p.add_argument("--evidence", action="append", default=[], metavar="label=value,...")
    p.add_argument("--engine", choices=("misq", "simq", "oracle"), default="misq")
    p.add_argument("--network", help="original network file (for --engine oracle)")
    p.add_argument(
        "--approx",
        nargs="+",
        metavar="key=value",
        help="bounded-error mode, on the misq engine: epsilon=<e> alpha=<a> eta=<h>",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("validate", help="compare a compiled tree against the oracle")
    p.add_argument("network")
    p.add_argument("compiled")
    p.add_argument("--samples", type=int, default=0, help="random evidence sets (0 = sweep)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="truncation benchmark on random chains")
    p.add_argument("--lengths", default="50,200,800")
    p.add_argument("--eps", default="0.5,0.2,0.1,0.05")
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--eta", type=float, default=0.09)
    p.add_argument("--coupling-lo", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=None, help="override the derived radius")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="print priors and factors of a compiled tree")
    p.add_argument("compiled")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that has gone shows here rather than at exit
        sys.stdout.flush()
        return code
    except SensBnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except BrokenPipeError:
        # as the Python docs advise: the flush at exit then writes to
        # devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
