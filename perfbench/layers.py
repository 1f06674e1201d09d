"""The traced run: the program's public functions timed one by one.

On the same inputs as the untraced run, each pass runs every operation of
an item whole, then calls the functions that operation is made of, in the
order it calls them, and times every call from outside with the same
calibration as the end-to-end numbers.  Passes repeat until the run's
seconds are spent.  Every metric is the median of its samples; set-up
layers are summed over the workload's trees or networks first.  Every
call is written to a trace file as a span.

Layers that a workload's own operations do not use are timed on that
workload's inputs all the same, so that every traced run reports every
metric (see README.md).  Coverage is the share of an operation's time,
run whole, that the times of its parts account for, measured on the same
item in the same pass; the rest is glue code, garbage collection, and
cache effects between separate calls.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from sensbn import algebra, compiler, fileio, oracle, truncation
from sensbn.algebra import QRFactors
from sensbn.engine import QuerySession
from sensbn.errors import ApproxPreconditionError, SensBnError

import calibrate
import workloads
from workloads import PROFILE

PER_LAYER_UNITS = {
    "fileio.parse_tree_ms": "ms",
    "fileio.parse_network_ms": "ms",
    "compiler.accept_precompiled_ms": "ms",
    "compiler.check_tree_consistency_ms": "ms",
    "compiler.plan_clusters_ms": "ms",
    "compiler.compile_network_ms": "ms",
    "oracle.joint_ms": "ms",
    "oracle.pairwise_conditional_ms": "ms",
    "algebra.qr_factor_ms": "ms",
    "engine.session_init_ms": "ms",
    "engine.mark_barren_ms": "ms",
    "engine.query_ms": "ms",
    "engine.us_per_hop": "us",
    "engine.flood_ms": "ms",
    "engine.messages_per_query": "count",
    "engine.nodes_touched_per_query": "count",
    "engine.messages_per_flood": "count",
    "truncation.verify_profile_ms": "ms",
    "truncation.hop_distances_ms": "ms",
    "truncation.query_within_ms": "ms",
    "truncation.radius": "count",
    "truncation.nodes_touched": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "coverage.op1_pct": "%",
    "coverage.op2_pct": "%",
}

#: per workload, the section of traced calls that makes up each kind of operation
SECTIONS = {
    "chain-exact": {"op1": "exact", "op2": "flood"},
    "compound": {"op1": "exact", "op2": "flood"},
    "chain-truncated": {"op1": "bounded", "op2": "bounded_verified"},
    "cli-query": {"op1": "process", "op2": "main"},
}

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import sensbn.cli; print(time.perf_counter() - t)"
)


def _ignore(norm: float) -> None:
    pass


class Recorder:
    """Timed spans of one traced run, normalised as in the untraced run."""

    def __init__(self, env):
        self.inproc = calibrate.in_process_clock()
        self.proc = calibrate.process_clock(env)
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list[float]] = defaultdict(list)
        #: (pass, item, section) -> summed time of the section's calls
        self.sections: dict[tuple, float] = defaultdict(float)
        #: (pass, item, kind) -> times of whole operations
        self.wholes: dict[tuple, list[float]] = defaultdict(list)
        self.pass_no = 0

    def time(self, layer: str, fn, *args, item=None, process=False, sink=None, sections=()):
        """Run ``fn`` once and return its result.  Its normalised time goes
        to ``sink``, by default the layer's samples, and into each named
        section, once the kernel that closes its block has run."""
        span = {"pass": self.pass_no, "layer": layer, "item": item}
        self.spans.append(span)
        sink = sink or self.samples[layer].append

        def on_time(raw, norm):
            span.update(raw_s=raw, norm_s=norm)
            sink(norm)
            for name in sections:
                self.sections[(span["pass"], item, name)] += norm

        clock = self.proc if process else self.inproc
        return clock.measure(fn, *args, on_time=on_time)

    def flush(self) -> None:
        self.inproc.flush()

    def median_ms(self, layer: str) -> float:
        return statistics.median(self.samples[layer]) * 1e3

    def coverage(self, kind: str, section: str) -> float:
        ratios = [
            self.sections[(p, item, section)] / statistics.mean(times)
            for (p, item, k), times in self.wholes.items()
            if k == kind
        ]
        return 100.0 * statistics.median(ratios)


def _factor_pairs(tree) -> dict:
    """The per-edge factor pairs a tree file holds, as accept_precompiled takes them."""
    pairs = {}
    for i, j in tree.edges:
        q = tree.r_factors[(j, i)] @ algebra.weight_matrix(tree.compound(i).prior.probs)
        pairs[(i, j)] = QRFactors(q, tree.r_factors[(i, j)])
    return pairs


def _setup_layers(rec: Recorder, wl) -> None:
    sums: dict[str, float] = defaultdict(float)

    def add(layer, fn, *args):
        return rec.time(layer, fn, *args,
                        sink=lambda norm: sums.__setitem__(layer, sums[layer] + norm))

    for path in wl.trees:
        text = path.read_text()
        tree = add("fileio.parse_tree_ms", fileio.parse_tree, text, str(path))
        spaces = [c.space for c in tree.compounds]
        priors = [c.prior for c in tree.compounds]
        names = [c.name for c in tree.compounds]
        pairs = _factor_pairs(tree)
        add("compiler.accept_precompiled_ms",
            lambda: compiler.accept_precompiled(spaces, priors, pairs, names, tree.name))
        add("compiler.check_tree_consistency_ms", compiler.check_tree_consistency, tree)
    for path, groups in wl.networks:
        net = add("fileio.parse_network_ms", fileio.parse_network, path.read_text(), str(path))
        add("compiler.plan_clusters_ms",
            lambda: compiler.plan_clusters(compiler.moralize(net), net, groups))
        add("oracle.joint_ms", oracle.joint, net)
        tree, _report = add("compiler.compile_network_ms",
                            lambda: compiler.compile_network(net, forced_groups=groups))
        for child, parent in tree.edges:
            cond = add("oracle.pairwise_conditional_ms", oracle.pairwise_conditional,
                       net, tree.compound(child).space, tree.compound(parent).space)
            add("algebra.qr_factor_ms", algebra.qr_factor, algebra.cpt_to_sensitivity(cond))
    rec.flush()
    for layer, total in sums.items():
        rec.samples[layer].append(total)


def _verify(tree) -> None:
    try:
        truncation.verify_profile(tree, PROFILE)
    except ApproxPreconditionError:
        pass  # a tree with a non-binary node is refused; the refusal is timed


def _op_layers(rec: Recorder, wl, index: int, item) -> None:
    """The parts of each kind of operation on one item, in the order the
    operation calls them, each on a fresh session as the operation has."""
    tree, node, ev = item.tree, item.node, item.evidence
    grouped = set(tree.group_evidence(ev))
    radius = truncation.truncation_radius(PROFILE, len(grouped))
    rec.counts["truncation.radius"].append(radius)

    def per_hop(norm, session):
        rec.samples["engine.query_ms"].append(norm)
        rec.samples["engine.us_per_hop"].append(norm / len(session.instr.touched) * 1e6)

    exact, flood = ("exact",), ("flood",)
    session = rec.time("engine.session_init_ms", QuerySession, tree, item=index, sections=exact)
    rec.time("engine.query_ms", session.query, node, ev, item=index, sections=exact,
             sink=lambda norm, session=session: per_hop(norm, session))
    rec.counts["engine.messages_per_query"].append(len(session.instr.messages))
    rec.counts["engine.nodes_touched_per_query"].append(len(session.instr.touched))

    bounded, both = ("bounded",), ("bounded", "bounded_verified")
    session = rec.time("engine.session_init_ms", QuerySession, tree, item=index, sections=both)
    rec.time("truncation.verify_profile_ms", _verify, tree, item=index, sections=bounded)
    reach = rec.time("truncation.hop_distances_ms", truncation.hop_distances, tree, node, radius,
                     item=index, sections=both)
    rec.time("truncation.query_within_ms", session.query, node, ev, set(reach), item=index,
             sections=both)
    rec.counts["truncation.nodes_touched"].append(len(session.instr.touched))

    # barren marking as the workload's first kind of query calls it
    within = set(reach) if wl.truncated else None
    rec.time("engine.mark_barren_ms", QuerySession(tree).mark_barren, node, grouped, within,
             item=index)

    session = rec.time("engine.session_init_ms", QuerySession, tree, item=index, sections=flood)
    rec.time("engine.flood_ms", session.multi_evidence_simq, ev, item=index, sections=flood)
    rec.counts["engine.messages_per_flood"].append(len(session.instr.messages))


def _answer(session, item):
    """What ``sensbn query`` asks of the engine for this item's flags."""
    if "--approx" in item.flags:
        return truncation.truncated_query(session, item.node, item.evidence, PROFILE)
    if "simq" in item.flags:
        return session.multi_evidence_simq(item.evidence)
    return session.query(item.node, item.evidence)


def _cli_layers(rec: Recorder, env, index: int, item) -> None:
    """A ``sensbn query`` process in parts: interpreter, import, and
    ``cli.main``; and ``cli.main`` in parts: parse, session, engine."""
    process = ("process",)
    rec.time("cli.interpreter_ms", calibrate.run_child, [sys.executable, "-c", "pass"], env,
             item=index, process=True, sections=process)
    # the child times its own import; scale that as its whole run was scaled
    out = rec.time("cli.import_ms", calibrate.run_child, [sys.executable, "-c", _IMPORT_TIMER],
                   env, item=index, process=True, sink=_ignore)
    span = rec.spans[-1]
    imported = float(out) * span["norm_s"] / span["raw_s"]
    rec.samples["cli.import_ms"].append(imported)
    rec.sections[(rec.pass_no, index, "process")] += imported
    rec.time("cli.main_ms", workloads.run_cli, item.query_argv(), item=index, sections=process)

    main = ("main",)
    text = item.tree_path.read_text()
    tree = rec.time("main.parse_tree", fileio.parse_tree, text, str(item.tree_path), item=index,
                    sink=_ignore, sections=main)
    session = rec.time("main.session_init", QuerySession, tree, item=index, sink=_ignore,
                       sections=main)
    rec.time("main.engine", _answer, session, item, item=index, sink=_ignore, sections=main)


def _whole_ops(rec: Recorder, ops, tally) -> None:
    for op in ops:
        tally["attempted"] += 1
        key = (rec.pass_no, op.item, op.kind)
        try:
            out = rec.time(f"whole.{op.kind}", op.run, item=op.item, process=op.process,
                           sink=rec.wholes[key].append)
        except (SensBnError, calibrate.ExitStatus) as exc:
            print(f"failed {op.kind}: {exc}", file=sys.stderr)
            tally["failed"] += 1
            continue
        if not op.check(out):
            print(f"mismatch in {op.kind}", file=sys.stderr)
            tally["mismatched"] += 1


def run(wl, seconds: float, trace_path: Path, root: Path) -> dict:
    env = calibrate.child_env(root)
    rec = Recorder(env)
    wl.setup()
    ops = wl.round()
    # one untimed warm-up pass over the operations
    for op in ops:
        op.run()
    # a workload of processes has every item's process split; the others the first
    cli_items = range(len(wl.items)) if any(op.process for op in ops) else range(1)
    tally = {"attempted": 0, "failed": 0, "mismatched": 0}
    deadline = time.perf_counter() + seconds
    while True:
        rec.pass_no += 1
        _setup_layers(rec, wl)
        for index, item in enumerate(wl.items):
            _whole_ops(rec, [op for op in ops if op.item == index], tally)
            _op_layers(rec, wl, index, item)
            if index in cli_items:
                _cli_layers(rec, env, index, item)
        rec.flush()
        if time.perf_counter() >= deadline:
            break

    values = {}
    for layer, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            values[layer] = statistics.mean(rec.counts[layer])
        elif unit == "ms":
            values[layer] = rec.median_ms(layer)
        elif unit == "us":
            values[layer] = statistics.median(rec.samples[layer])
    for kind, section in SECTIONS[wl.name].items():
        values[f"coverage.{kind}_pct"] = rec.coverage(kind, section)

    print(f"workload {wl.name}, traced: {rec.pass_no} passes; times normalised to the "
          "calibration kernel")
    for layer, unit in PER_LAYER_UNITS.items():
        print(f"  {layer:<36} {values[layer]:>12.4f} {unit}")
    trace_path.write_text(json.dumps({"workload": wl.name, "metrics": values, "spans": rec.spans}))
    print(f"  trace written to {trace_path}")
    return {
        "correct": tally["mismatched"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
    }
