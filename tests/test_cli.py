import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sensbn import accept, cli, fileio, fixtures, oracle
from sensbn.fixtures import FIXTURE_DIR
from sensbn.generators import random_tree_network
from sensbn.algebra import QRFactors
from sensbn.model import Distribution, Evidence, StateSpace
from tests.conftest import accepted_without_table_check

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompile:
    def test_asia_with_grouping(self, capsys, tmp_path):
        out_file = tmp_path / "asia.tree"
        code, out, err = run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G",
            "-o", str(out_file),
        )
        assert code == 0
        assert "pruned X_3: original states 2 3" in out
        tree = fileio.load_tree(out_file)
        priors = {c.name: c.prior.probs for c in tree.compounds}
        assert np.abs(priors["X_3"] - [0.5210, 0.4141, 0.0055, 0.0044, 0.0235, 0.0315]).max() <= 5e-5

    def test_output_into_a_missing_directory_is_one_error_line(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "asia.tree"
        code, out, err = run(capsys, "compile", "asia.net", "-o", str(out_file))
        assert code == cli.EXIT_WRITE == 8
        assert out == ""
        assert err == f"error: {out_file}: cannot write the file: No such file or directory\n"
        assert not out_file.parent.exists()

    def test_three_node_chain(self, capsys, tmp_path):
        src = tmp_path / "chain3.net"
        src.write_text(
            "network chain3\n"
            "node a 2\nnode b 2\nnode c 2\n"
            "parents b a\nparents c b\n"
            "cpt a dims 2 1\n0.3\n0.7\n"
            "cpt b dims 2 2\n0.9 0.4\n0.1 0.6\n"
            "cpt c dims 2 2\n0.8 0.3\n0.2 0.7\n"
        )
        code, out, err = run(capsys, "compile", str(src))
        assert code == 0
        tree = fileio.load_tree(tmp_path / "chain3.tree")
        assert len(tree.compounds) == 3
        assert all(tree.rank(i, j) <= 1 for i, j in tree.edges)

    def test_malformed_cpt_exits_nonzero(self, capsys, tmp_path):
        src = tmp_path / "bad.net"
        src.write_text(
            "network bad\nnode a 2\ncpt a dims 2 1\n0.5\n0.6\n"
        )
        code, out, err = run(capsys, "compile", str(src))
        assert code == cli.EXIT_VALIDATION
        assert "violation" in err


    def test_network_that_fails_validation_prints_each_violation(self, capsys, tmp_path):
        src = tmp_path / "flawed.net"
        src.write_text(
            "network flawed\n"
            "node a 2\nnode b 2\nnode c 2\n"
            "parents b a\nparents c ghost\n"
            "cpt a dims 2 1\n-0.1\n1.1\n"
            "cpt b dims 2 1\n0.5\n0.5\n"
            "cpt c dims 2 1\n0.5\n0.5\n"
        )
        code, out, err = run(capsys, "compile", str(src))
        assert code == cli.EXIT_VALIDATION == 3
        assert out == ""
        assert err.splitlines() == [
            "violation: unknown-parent at c: parent 'ghost' undeclared",
            "violation: negative-entry at a: table has a negative entry",
            "violation: bad-shape at b: table shape (2, 1) does not match (2, 2)",
        ]
        assert not (tmp_path / "flawed.tree").exists()

    def test_network_that_does_not_parse_exit_code(self, capsys, tmp_path):
        src = tmp_path / "broken.net"
        src.write_text("node a 2\ncpt a dims 2 1\n0.5 0.5\n")
        code, out, err = run(capsys, "compile", str(src))
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err == f"error: {src}:3: cpt a: row has 2 values, expected 1\n"


class TestQuery:
    def test_worked_example_two_evidence(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree",
            "--query", "x_H",
            "--evidence", "x_A=true,x_D=true",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("true"))
        value = float(line.split()[1])
        assert value == pytest.approx(0.68, abs=5e-3)

    def test_delta_column_for_single_evidence(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_A", "--evidence", "x_H=true",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("true"))
        delta = float(line.split()[2])
        assert delta == pytest.approx(3.3e-4, abs=1e-5)

    def test_rounding_noise_prints_no_negative_zero(self, capsys, tmp_path):
        run(capsys, "compile", str(FIXTURE_DIR / "asia.net"), "--group", "x_C,x_E,x_G",
            "-o", str(tmp_path / "asia.tree"))
        code, out, err = run(
            capsys, "query", str(tmp_path / "asia.tree"), "--query", "X_3", "--evidence", "x_A=1"
        )
        assert code == 0
        rows = {l.split()[0]: l.split()[1:] for l in out.splitlines()[2:8]}
        assert rows["4"][1] == rows["5"][1] == "+0.000000"
        assert "-0.000000" not in out
        code, out, err = run(capsys, "report", str(tmp_path / "asia.tree"))
        assert code == 0
        assert "+0.0000" in out and "-0.0000" not in out

    @pytest.mark.parametrize(
        "value,places,text",
        [
            (-4e-7, 6, "+0.000000"),
            (-0.0, 4, "+0.0000"),
            (-6e-5, 4, "-0.0001"),
            (3e-5, 4, "+0.0000"),
        ],
    )
    def test_signed_values(self, value, places, text):
        assert cli.signed(value, places) == text

    def test_no_evidence_prints_prior(self, capsys):
        code, out, err = run(capsys, "query", "asia_tables.tree", "--query", "x_A")
        assert code == 0
        assert "0.990000" in out and "0.010000" in out

    def test_engines_agree(self, capsys):
        values = {}
        for engine in ("misq", "simq"):
            code, out, err = run(
                capsys,
                "query", "asia_tables.tree", "--query", "x_H",
                "--evidence", "x_A=true,x_D=true", "--engine", engine,
            )
            assert code == 0
            line = next(l for l in out.splitlines() if l.startswith("true"))
            values[engine] = float(line.split()[1])
        assert values["misq"] == pytest.approx(values["simq"], abs=1e-9)

    def test_oracle_engine_needs_network(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H", "--engine", "oracle",
        )
        assert code == cli.EXIT_BAD_REQUEST

    def test_oracle_engine(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H",
            "--evidence", "x_A=true,x_D=true",
            "--engine", "oracle", "--network", "asia.net",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("true"))
        assert float(line.split()[1]) == pytest.approx(0.68, abs=5e-3)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--evidence", "x_A=1,x_A=0"],
            ["--evidence", "x_A=true", "--evidence", "x_A=false"],
            ["--evidence", "x_D=1, x_A = yes ,x_A=0"],
        ],
    )
    def test_contradictory_evidence_is_refused(self, capsys, flags):
        code, out, err = run(capsys, "query", "asia_tables.tree", "--query", "x_H", *flags)
        assert code == cli.EXIT_BAD_REQUEST
        assert out == ""
        assert err == "error: evidence gives x_A two values, 1 and 0\n"

    @pytest.mark.parametrize(
        "flags, plain",
        [
            (["--evidence", "x_A=1,x_A=true"], "x_A=1"),
            (["--evidence", "x_A=yes,x_D=1", "--evidence", "x_A=1"], "x_A=1,x_D=1"),
        ],
    )
    def test_equal_repeats_answer_as_one_item(self, capsys, flags, plain):
        repeated = run(capsys, "query", "asia_tables.tree", "--query", "x_H", *flags)
        once = run(capsys, "query", "asia_tables.tree", "--query", "x_H", "--evidence", plain)
        assert repeated[0] == 0
        assert repeated == once

    def test_unknown_label_exit_code(self, capsys):
        code, out, err = run(
            capsys, "query", "asia_tables.tree", "--query", "nope"
        )
        assert code == cli.EXIT_BAD_REQUEST

    def test_zero_probability_evidence_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H",
            "--evidence", "x_C=false,x_E=true",
        )
        assert code == cli.EXIT_INFERENCE

    @pytest.mark.parametrize("engine", ["misq", "simq"])
    def test_evidence_that_a_clamp_settles(self, capsys, engine):
        """x_C false makes x_B false for certain; on the published tables
        a clamp settles that state, and both engines answer as the oracle
        does."""
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_B", "--evidence", "x_C=false",
            "--engine", engine,
        )
        assert code == cli.EXIT_OK, err
        assert "false      1.000000   +0.010400" in out.splitlines()
        assert "true       0.000000   -0.010400" in out.splitlines()

    def test_approx_on_non_binary_tree_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H",
            "--evidence", "x_A=true",
            "--approx", "epsilon=0.1", "alpha=0.9", "eta=0.09",
        )
        assert code == cli.EXIT_APPROX

    def test_approx_prints_the_truncated_answer(self, capsys):
        """The posterior, radius and bound that ``--approx`` prints are
        those of ``truncation.truncated_query`` on the same evidence."""
        from sensbn import truncation
        from sensbn.engine import QuerySession

        path = DATA / "chain.tree"
        evidence = {"v2": 1, "v60": 1, "v100": 0}
        code, out, err = run(
            capsys,
            "query", str(path), "--query", "v5",
            "--evidence", ",".join(f"{k}={v}" for k, v in evidence.items()),
            "--approx", "epsilon=0.1", "alpha=0.9", "eta=0.09",
        )
        assert code == 0 and err == ""
        tree = fileio.load_tree(path)
        ident, member = tree.resolve_query("v5")
        profile = truncation.DecayProfile(0.9, 0.09, 0.1)
        dist, bound, plan = truncation.truncated_query(
            QuerySession(tree), ident, Evidence.of(evidence), profile
        )
        # the radius drops the farthest evidence, so the answer is truncated
        assert tree.resolve_query("v100")[0] not in plan.retained_evidence
        assert tree.resolve_query("v60")[0] in plan.retained_evidence
        posterior = tree.member_marginal(ident, member, dist.probs)
        lines = out.splitlines()
        assert lines[0].endswith(f"mode approx radius={plan.radius}")
        assert [l.split()[:2] for l in lines[2:4]] == [
            ["false", f"{posterior[0]:1.6f}"],
            ["true", f"{posterior[1]:1.6f}"],
        ]
        assert lines[4] == f"guaranteed relative error bound {bound:1.6f}"

    @pytest.mark.parametrize(
        "extra", [["--engine", "simq"], ["--engine", "oracle", "--network", "asia.net"]]
    )
    def test_approx_with_an_engine_other_than_misq_is_refused(self, capsys, extra):
        """``--approx`` answers by misq, so with another engine it is
        refused in one error line, not dropped."""
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H", "--evidence", "x_A=true",
            "--approx", "epsilon=0.1", "alpha=0.9", "eta=0.09", *extra,
        )
        assert code == cli.EXIT_BAD_REQUEST == 4
        assert out == ""
        assert err == f"error: --approx answers by misq; it cannot run with --engine {extra[1]}\n"

    def test_approx_value_that_is_not_a_number_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "query", "asia_tables.tree", "--query", "x_H",
            "--approx", "epsilon=abc", "alpha=0.9", "eta=0.09",
        )
        assert code == cli.EXIT_APPROX
        assert "error: approx item 'epsilon=abc' is not a number" in err and out == ""

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--evidence", "x_A"], cli.EXIT_BAD_REQUEST, "evidence item 'x_A' is not label=value"),
            (["--evidence", "x_A=maybe"], cli.EXIT_BAD_REQUEST, "bad evidence value 'maybe'"),
            (["--evidence", "x_A=2"], cli.EXIT_BAD_REQUEST, "state 2 outside node 'x_A' range"),
            (
                ["--approx", "epsilon"],
                cli.EXIT_APPROX,
                "approx item 'epsilon' is not key=value (epsilon/alpha/eta)",
            ),
            (
                ["--approx", "epsilon=0.1"],
                cli.EXIT_APPROX,
                "--approx is missing ['alpha', 'eta']",
            ),
        ],
    )
    def test_malformed_evidence_and_approx_items(self, capsys, flags, code, message):
        got = run(capsys, "query", "asia_tables.tree", "--query", "x_H", *flags)
        assert got == (code, "", f"error: {message}\n")

    def test_approx_profile_that_does_not_hold_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "query", str(DATA / "chain.tree"), "--query", "v0", "--evidence", "v3=1",
            "--approx", "epsilon=0.1", "alpha=0.2", "eta=0.09",
        )
        assert code == cli.EXIT_APPROX == 6
        assert out == ""
        assert err == (
            "error: decay profile does not hold: edge X_2 - X_1: |coupling| = 0.7559 >= alpha\n"
        )

    def test_factors_that_are_no_sensitivity_exit_code(self, capsys, tmp_path):
        spaces = [StateSpace.binary(("a",)), StateSpace.binary(("b",))]
        priors = [Distribution(np.array([0.6, 0.4]))] * 2
        unit = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        wild = accepted_without_table_check(
            spaces, priors, {(1, 0): QRFactors(unit, 3 * unit)}
        )
        path = tmp_path / "wild.tree"
        path.write_text(fileio.serialize_tree(wild))
        code, out, err = run(capsys, "query", str(path), "--query", "a", "--evidence", "b=1")
        assert code == cli.EXIT_VALIDATION
        assert "no sensitivity" in err and out == ""

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("tree t\nfrobnicate\n")
        code, out, err = run(capsys, "query", str(bad), "--query", "x")
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize("edge", ["edge X_2 X_1 rank 1", "edge X_1 X_2 rank 1"])
    def test_repeated_edge_exit_code(self, capsys, tmp_path, edge):
        text = fileio.serialize_tree(fileio.load_tree(DATA / "chain.tree"))
        lines = text.splitlines()
        at = lines.index("edge X_2 X_1 rank 1")
        path = tmp_path / "repeated.tree"
        path.write_text("\n".join(lines + [edge] + lines[at + 1 : at + 3]) + "\n")
        code, out, err = run(capsys, "query", str(path), "--query", "v0")
        assert code == cli.EXIT_BAD_REQUEST
        assert "edges cannot form a tree" in err and out == ""


class TestValidate:
    def test_asia_pair_passes(self, capsys, tmp_path):
        out_file = tmp_path / "asia.tree"
        run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G", "-o", str(out_file),
        )
        code, out, err = run(
            capsys, "validate", "asia.net", str(out_file), "--samples", "10"
        )
        assert code == 0
        assert "PASS" in out

    def test_perturbed_factor_fails_naming_edge(self, capsys, tmp_path):
        out_file = tmp_path / "asia.tree"
        run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G", "-o", str(out_file),
        )
        text = out_file.read_text()
        lines = text.splitlines()
        # bump both occurrences of the first r row's leading entry so the
        # pair stays self-consistent but wrong
        for i, line in enumerate(lines):
            if line.startswith("r "):
                parts = line.split()
                parts[1] = repr(float(parts[1]) + 1e-3)
                parts[2] = repr(float(parts[2]) - 1e-3)
                lines[i] = " ".join(parts)
                break
        out_file.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "validate", "asia.net", str(out_file))
        assert code == cli.EXIT_VALIDATION
        assert "FAIL edge" in out

    def test_trivial_empty_evidence_pass(self, capsys, tmp_path):
        out_file = tmp_path / "asia.tree"
        run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G", "-o", str(out_file),
        )
        code, out, err = run(
            capsys, "validate", "asia.net", str(out_file), "--samples", "1", "--seed", "3"
        )
        assert code == 0

    def test_builds_the_joint_once(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "asia.tree"
        run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G", "-o", str(out_file),
        )
        calls, checks = [], []
        joint, check = oracle.joint, accept.check_tree_consistency
        monkeypatch.setattr(oracle, "joint", lambda net: calls.append(net) or joint(net))
        monkeypatch.setattr(
            accept, "check_tree_consistency", lambda tree: checks.append(tree) or check(tree)
        )
        code, out, err = run(capsys, "validate", "asia.net", str(out_file), "--samples", "10")
        assert code == 0
        assert len(calls) == 1
        assert len(checks) == 1

    def test_tree_past_the_size_guard_compiles_but_is_not_validated(self, capsys, tmp_path):
        net = random_tree_network(np.random.default_rng(0), 23)
        src = tmp_path / "tree23.net"
        fileio.save(src, fileio.serialize_network(net))
        code, out, err = run(capsys, "compile", str(src))
        assert code == 0
        compiled = tmp_path / "tree23.tree"
        assert len(fileio.load_tree(compiled).compounds) == 23
        code, out, err = run(capsys, "validate", str(src), str(compiled), "--samples", "5")
        assert code == cli.EXIT_GUARD
        assert f"joint table would exceed {oracle.SIZE_GUARD} states" in err

    def test_exhaustive_sweep_passes(self, capsys, tmp_path):
        out_file = tmp_path / "asia.tree"
        run(
            capsys,
            "compile", str(FIXTURE_DIR / "asia.net"),
            "--group", "x_C,x_E,x_G", "-o", str(out_file),
        )
        code, out, err = run(capsys, "validate", "asia.net", str(out_file))
        assert code == 0 and err == ""
        # no evidence, then each state of each of the 8 members
        assert out.startswith("checked 17 evidence sets")
        assert out.splitlines()[-1] == "PASS"

    def test_exhaustive_sweep_past_4096_cases_is_refused(self, capsys, tmp_path):
        """One node of 4096 states sweeps 4097 evidence sets over one
        compound, past the sweep's guard."""
        states = 4096
        src = tmp_path / "wide.net"
        src.write_text(
            f"network wide\nnode a {states}\ncpt a dims {states} 1\n"
            + f"{1.0 / states!r}\n" * states
        )
        code, out, err = run(capsys, "compile", str(src))
        assert code == 0
        code, out, err = run(capsys, "validate", str(src), str(tmp_path / "wide.tree"))
        assert code == cli.EXIT_GUARD
        assert out == ""
        assert err == (
            "error: the exhaustive sweep is too large for this network; "
            "use --samples N instead\n"
        )


class TestBench:
    def test_touched_constant_and_radius_monotone(self, capsys):
        code, out, err = run(
            capsys,
            "bench", "--lengths", "50,200", "--eps", "0.2,0.1",
            "--radius", "20", "--seed", "5",
        )
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        touched = {r[3] for r in rows}
        assert len(touched) == 1

    def test_negative_radius_exit_code(self, capsys):
        code, out, err = run(
            capsys, "bench", "--lengths", "50", "--eps", "0.1", "--radius", "-1"
        )
        assert code == cli.EXIT_APPROX
        assert "radius must be at least 0, got -1" in err
        assert out.splitlines()[1:] == []

    def test_radius_column_non_decreasing_as_eps_shrinks(self, capsys):
        code, out, err = run(
            capsys, "bench", "--lengths", "50", "--eps", "0.5,0.2,0.1,0.05", "--seed", "1",
        )
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        radii = [int(r[2]) for r in rows]
        assert radii == sorted(radii)

    def test_fixed_seed_is_deterministic(self, capsys):
        args = ("bench", "--lengths", "50", "--eps", "0.1", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        strip = lambda text: [
            "\t".join(c for k, c in enumerate(r.split("\t")) if k != 4)
            for r in text.splitlines()
        ]
        assert strip(first) == strip(second)


class TestReport:
    def test_asia_tables_layout(self, capsys):
        code, out, err = run(capsys, "report", "asia_tables.tree")
        assert code == 0
        assert "0.5210 0.4141 0.0055 0.0044 0.0235 0.0315" in out
        assert "pruned original states: 2 3" in out
        assert "-0.8768 -0.8768 +0.4384 +0.4384 +0.4384 +0.4384" in out

    def test_rank_zero_edge_prints_independent(self, capsys, tmp_path):
        src = tmp_path / "pair.net"
        src.write_text(
            "network pair\nnode a 2\nnode b 2\n"
            "cpt a dims 2 1\n0.3\n0.7\n"
            "cpt b dims 2 1\n0.4\n0.6\n"
        )
        run(capsys, "compile", str(src))
        code, out, err = run(capsys, "report", str(tmp_path / "pair.tree"))
        assert code == 0
        assert "independent" in out


class TestUnreadableInput:
    """An input file that is missing or cannot be read ends in one error
    line and the parse-error exit code, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "{missing}"],
            ["query", "{missing}", "--query", "x_H"],
            ["query", "asia_tables.tree", "--query", "x_H", "--engine", "oracle",
             "--network", "{missing}"],
            ["validate", "{missing}", "asia_tables.tree"],
            ["validate", "asia.net", "{missing}"],
            ["report", "{missing}"],
        ],
    )
    def test_missing_file_exit_code(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.txt"
        code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"error: {missing}: cannot read the file: No such file or directory\n"

    @pytest.mark.parametrize("command", ["compile", "query", "validate", "report"])
    def test_undecodable_file_exit_code(self, capsys, tmp_path, command):
        path = tmp_path / "binary.tree"
        path.write_bytes(b"\xff\xfe\x00 not text")
        argv = {
            "compile": ["compile", str(path)],
            "query": ["query", str(path), "--query", "x_H"],
            "validate": ["validate", "asia.net", str(path)],
            "report": ["report", str(path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: {path}: cannot read the file: ") and err.count("\n") == 1

    def test_directory_exit_code(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == cli.EXIT_PARSE
        assert err.startswith(f"error: {tmp_path}: cannot read the file: ")


class TestFixtureEnvVar:
    def test_fixture_dir_override(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "alt"
        target.mkdir()
        (target / "mini.tree").write_text(
            "tree mini\n"
            "compound A members a\n"
            "prior A 0.4 0.6\n"
        )
        monkeypatch.setenv("SENSBN_FIXTURES", str(target))
        code, out, err = run(capsys, "report", "mini.tree")
        assert code == 0
        assert "0.4000 0.6000" in out


class TestRepeatedMain:
    def test_calls_in_a_row_print_what_a_fresh_interpreter_prints(self, capsys):
        """The parser is built once per process; no option, and no
        ``append`` default, carries over from one call to the next."""
        calls = [
            ["--evidence", "x_A=true", "--evidence", "x_D=true", "--engine", "simq"],
            ["--evidence", "x_F=false", "--engine", "misq"],
            [],
        ]
        for extra in calls:
            argv = ["query", "asia_tables.tree", "--query", "x_H", *extra]
            code, out, err = run(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "sensbn", *argv], capture_output=True, text=True
            )
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)


class TestClosedOutput:
    def test_a_closed_standard_output_ends_quietly(self):
        """A reader that closed standard output before the command wrote
        ends the process with ``EXIT_PIPE`` and nothing on stderr, not a
        ``BrokenPipeError`` traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sensbn", "report", "asia_tables.tree"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")


class TestEntryPoint:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sensbn", "query", "asia_tables.tree",
             "--query", "x_H", "--evidence", "x_A=true,x_D=true"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.68" in proc.stdout

    def test_commands_load_only_the_modules_they_run(self, tmp_path):
        """A compile loads no engine; an exact query on a compiled tree
        loads neither the oracle, the generators nor the truncation; and
        no query or report loads the network compiler."""
        tree_file = tmp_path / "asia.tree"
        script = (
            "import sys\n"
            "from sensbn.cli import main\n"
            "main(sys.argv[1:])\n"
            "print(' '.join(m for m in sys.modules if m.startswith('sensbn.')))\n"
        )
        runs = {
            "compile": ["compile", "asia.net", "-o", str(tree_file)],
            "misq": ["query", str(tree_file), "--query", "x_H", "--evidence", "x_A=true"],
            "simq": ["query", str(tree_file), "--query", "x_H", "--engine", "simq"],
            "approx": [
                "query", str(DATA / "chain.tree"), "--query", "v0", "--evidence", "v3=1",
                "--approx", "epsilon=0.1", "alpha=0.9", "eta=0.09",
            ],
            "report": ["report", str(tree_file)],
        }
        loaded = {}
        for name, argv in runs.items():
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            loaded[name] = set(proc.stdout.splitlines()[-1].split())
        assert "sensbn.compiler" in loaded["compile"]
        assert "sensbn.engine" not in loaded["compile"]
        for name in ("misq", "simq"):
            assert "sensbn.engine" in loaded[name]
            assert not loaded[name] & {"sensbn.oracle", "sensbn.generators", "sensbn.truncation"}
        assert "sensbn.truncation" in loaded["approx"]
        for name in ("misq", "simq", "approx", "report"):
            assert "sensbn.accept" in loaded[name]
            assert "sensbn.compiler" not in loaded[name]

    def test_compile_and_query_run_with_scipy_blocked(self, tmp_path):
        """The package needs numpy alone: with scipy made unimportable, a
        compile and a query on its result run, and the query prints the
        oracle's posterior."""
        tree_file = tmp_path / "asia.tree"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import sensbn.cli as cli\n"
            "from sensbn.fixtures import FIXTURE_DIR\n"
            "assert cli.main(['compile', str(FIXTURE_DIR / 'asia.net'),\n"
            f"                 '--group', 'x_C,x_E,x_G', '-o', {str(tree_file)!r}]) == 0\n"
            "for extra in ([], ['--engine', 'simq']):\n"
            f"    assert cli.main(['query', {str(tree_file)!r}, '--query', 'x_H',\n"
            "                     '--evidence', 'x_A=true,x_D=true', *extra]) == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        want = oracle.posterior(
            fixtures.asia_network(), Evidence.of({"x_A": 1, "x_D": 1}), "x_H"
        ).probs
        lines = proc.stdout.splitlines()
        starts = [k + 1 for k, line in enumerate(lines) if line == "state      posterior   delta"]
        assert len(starts) == 2
        for start in starts:
            printed = [float(line.split()[1]) for line in lines[start : start + 2]]
            assert np.abs(np.array(printed) - want).max() <= 5e-7
