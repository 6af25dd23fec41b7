import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from deadgate.cli import main

import fixtures
from helpers import mutants


SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


NINES = "9" * 5000
KEYWORDS = ("OPENQASM", "include", "qreg", "creg", "opaque", "measure")


def one_qubit(gate):
    """A one-qubit file applying `gate` and measuring the wire."""
    return f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{gate} q[0];\nmeasure q[0] -> c[0];\n"


class TestOptimize:
    def test_three_qubit_fixture(self, tmp_path, capsys):
        src = write(tmp_path, "in.qasm", fixtures.three_qubit_example_source())
        out = tmp_path / "out.qasm"
        report = tmp_path / "report.json"
        code = main(["optimize", str(src), str(out), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["initial_gate_count"] == 5
        assert doc["final_gate_count"] == 2
        assert [r["rule"] for r in doc["removed"]] == [
            "R2_controlled_target_dead"
        ] * 3
        assert "removed 3 of 5 gates" in capsys.readouterr().out

    def test_no_dead_qubits_output_identical(self, tmp_path):
        text = "\n".join(
            [
                "OPENQASM 2.0;",
                'include "qelib1.inc";',
                "qreg q[2];",
                "creg c[2];",
                "h q[0];",
                "cx q[0],q[1];",
                "measure q[0] -> c[0];",
                "measure q[1] -> c[1];",
                "",
            ]
        )
        src = write(tmp_path, "in.qasm", text)
        out = tmp_path / "out.qasm"
        assert main(["optimize", str(src), str(out)]) == 0
        assert out.read_text() == text

    def test_parse_error_exit_2(self, tmp_path, capsys):
        src = write(tmp_path, "bad.qasm", "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
        out = tmp_path / "out.qasm"
        assert main(["optimize", str(src), str(out)]) == 2
        assert "bad.qasm:3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["optimize", str(tmp_path / "nope.qasm"), str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("angle, why", [
        ("pi/0", "division by zero"),
        ("1e400", "not finite"),
        ("1e308*10", "not finite"),
        ("(" * 5000 + "1" + ")" * 5000, "nested deeper"),
        ("-" * 5000 + "1", "nested deeper"),
    ], ids=["div_zero", "huge_literal", "huge_product", "deep_parens", "deep_signs"])
    def test_bad_angle_exit_2(self, tmp_path, capsys, angle, why):
        text = f"OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz({angle}) q[1];\n"
        src = write(tmp_path, "bad.qasm", text)
        assert main(["optimize", str(src), str(tmp_path / "out.qasm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{src}:4: ") and why in err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bin.qasm"
        src.write_bytes(b"\xff\xfeOPENQASM 2.0;\nqreg q[1];\n")
        assert main(["optimize", str(src), str(tmp_path / "out.qasm")]) == 2
        assert capsys.readouterr().err.startswith(f"{src}: ")

    def test_wire_measured_twice_exit_2(self, tmp_path, capsys):
        text = ("OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\nh q[0];\n"
                "measure q[0] -> c[0];\nmeasure q[0] -> c[1];\n")
        src = write(tmp_path, "twice.qasm", text)
        for argv in (["optimize", str(src), str(tmp_path / "out.qasm")],
                     ["verify", str(src), str(src)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{src}:6: ") and "qubit q[0] measured twice" in err

    def test_qpe_breakdown(self, tmp_path, capsys):
        src = write(tmp_path, "qpe.qasm", fixtures.qpe_source(m=4, r=2))
        out = tmp_path / "out.qasm"
        report = tmp_path / "rep.json"
        assert main(["optimize", str(src), str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        rules = [r["rule"] for r in doc["removed"]]
        assert rules.count("R2_controlled_target_dead") == 4
        assert rules.count("R1_single_on_dead") == 1


class TestParseErrors:
    """A file the parser rejects exits 2 with `path:line: message`, the
    line named once, from optimize and from verify alike."""

    @pytest.mark.parametrize("lines, line, message", [
        (["qreg q[1];", "frobnicate q[0];"], 4, "unknown gate 'frobnicate'"),
        (["qreg q[1];", "creg c[2];", "h q[0];", "measure q[0] -> c[0];",
          "measure q[0] -> c[1];"], 7, "qubit q[0] measured twice"),
        (["qreg q[2];", "opaque U p0,p1;", "U q[0],q[0];"], 5, "duplicate qubit in U"),
        # numbers past int()'s digit limit, in each statement that has one
        ([f"qreg q[{NINES}];"], 3, f"qreg size {NINES} above the maximum of 65536"),
        (["qreg q[1];", f"creg c[{NINES}];"], 4,
         f"creg size {NINES} above the maximum of 65536"),
        (["qreg q[1];", f"h q[{NINES}];"], 4, f"qubit index {NINES} out of range (n=1)"),
        (["qreg q[1];", "creg c[1];", f"measure q[0] -> c[{NINES}];"], 5,
         f"classical bit {NINES} out of range (m=1)"),
        (["qreg q[1];", f"#pragma dge discard q[{NINES}]"], 4,
         f"qubit index {NINES} out of range (n=1)"),
        # only a newline ends a line
        (["qreg q[1];", "h q[0];\x0ch q[0];"], 4, "one statement per line"),
        (["// a\x0cb", "qreg q[1];", "frobnicate q[0];"], 5, "unknown gate 'frobnicate'"),
        *((["qreg q[1];", f"opaque {word} p0;"], 4, f"opaque name {word!r} is a reserved word")
          for word in KEYWORDS),
    ], ids=["unknown_gate", "wire_measured_twice", "opaque_wire_twice", "long_qreg",
            "long_creg", "long_gate_arg", "long_measure_target", "long_discard",
            "form_feed_between_statements", "form_feed_in_comment",
            *(f"opaque_named_{word}" for word in KEYWORDS)])
    def test_exact_stderr(self, tmp_path, capsys, lines, line, message):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n' + "\n".join(lines) + "\n"
        bad = write(tmp_path, "bad.qasm", text)
        good = write(tmp_path, "good.qasm", fixtures.cnot_source())
        expected = f"{bad}:{line}: {message}\n"
        for argv, errors in (
            (["optimize", str(bad), str(tmp_path / "out.qasm")], 1),
            (["verify", str(bad), str(good)], 1),
            (["verify", str(good), str(bad)], 1),
            (["verify", str(bad), str(bad)], 1),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", expected * errors)


@pytest.fixture(scope="module")
def fresh_paths(tmp_path_factory):
    """A new file path on each call: rewriting one file that was just
    truncated to zero costs milliseconds on ext4, writing a new one does not."""
    directory = tmp_path_factory.mktemp("mutants")
    return (directory / f"{i}.qasm" for i in itertools.count())


class TestMutants:
    @settings(max_examples=300, deadline=None)
    @given(data=mutants())
    def test_optimize_and_verify_exit_0_or_2(self, data, fresh_paths):
        src = next(fresh_paths)
        src.write_bytes(data)
        for argv in (["optimize", str(src), str(next(fresh_paths))],
                     ["verify", str(src), str(src)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            # exit 1 would say the file is inequivalent to itself
            assert code in (0, 2)
            if code == 2 and argv[0] == "optimize":
                assert err.getvalue().startswith(f"{src}:")


class TestVerify:
    def test_fixture_pair_equivalent(self, tmp_path, capsys):
        a = write(tmp_path, "a.qasm", fixtures.three_qubit_example_source())
        b = write(tmp_path, "b.qasm", fixtures.three_qubit_simplified_source())
        assert main(["verify", str(a), str(b), "--seed", "11"]) == 0
        assert "verdict: equivalent" in capsys.readouterr().out

    def test_counterexample_pair_exit_1(self, tmp_path, capsys):
        a = write(tmp_path, "a.qasm", fixtures.cnot_source())
        b = write(tmp_path, "b.qasm", fixtures.empty_two_qubit_source())
        assert main(["verify", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "verdict: inequivalent" in out
        assert "witness_outcome" in out

    def test_file_vs_itself(self, tmp_path, capsys):
        a = write(tmp_path, "a.qasm", fixtures.vqe_ansatz_source())
        assert main(["verify", str(a), str(a)]) == 0
        assert "max_discrepancy: 0.0" in capsys.readouterr().out

    def test_qubit_count_mismatch_exit_2(self, tmp_path):
        a = write(tmp_path, "a.qasm", fixtures.cnot_source())
        b = write(tmp_path, "b.qasm", fixtures.three_qubit_example_source())
        assert main(["verify", str(a), str(b)]) == 2

    def test_opaque_arity_mismatch_exit_2(self, tmp_path, capsys):
        head = "OPENQASM 2.0;\nqreg q[2];\n"
        a = write(tmp_path, "a.qasm", head + "opaque U p0;\nU q[0];\n")
        b = write(tmp_path, "b.qasm", head + "opaque U p0,p1;\nU q[0],q[1];\n")
        assert main(["verify", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "opaque label 'U' used with inconsistent arity\n"
        )

    def test_qubit_limit_exit_2(self, tmp_path):
        a = write(tmp_path, "a.qasm", fixtures.qpe_source(m=4, r=2))
        assert main(["verify", str(a), str(a), "--qubit-limit", "6"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, tmp_path, capsys, samples):
        a = write(tmp_path, "h.qasm", one_qubit("h"))
        b = write(tmp_path, "x.qasm", one_qubit("x"))
        assert main(["verify", str(a), str(b)]) == 1
        capsys.readouterr()
        assert main(["verify", str(a), str(b), "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err

    def map_pair(self, tmp_path):
        """A SWAP that moves deadness from q[0] to q[1], and the file
        without it: equivalent under the pairing 0:1."""
        swap = "\n".join(
            [
                "OPENQASM 2.0;",
                "qreg q[2];",
                "creg c[2];",
                "h q[1];",
                "swap q[0],q[1];",
                "measure q[1] -> c[1];",
                "",
            ]
        )
        bare = "\n".join(
            [
                "OPENQASM 2.0;",
                "qreg q[2];",
                "creg c[2];",
                "h q[1];",
                "measure q[0] -> c[0];",
                "#pragma dge discard q[1]",
                "",
            ]
        )
        return write(tmp_path, "a.qasm", swap), write(tmp_path, "b.qasm", bare)

    def test_map_pairing(self, tmp_path):
        a, b = self.map_pair(tmp_path)
        assert main(["verify", str(a), str(b), "--map", "0:1"]) == 0

    @pytest.mark.parametrize("pairing, why", [
        ("1:0", "bijection"),
        ("0:5,0:1", "twice"),
        ("0:1:2", "not of the form"),
        ("0", "not of the form"),
    ], ids=["not_bijective", "duplicate_key", "three_parts", "one_part"])
    def test_bad_map_exit_2(self, tmp_path, capsys, pairing, why):
        a, b = self.map_pair(tmp_path)
        assert main(["verify", str(a), str(b), "--map", pairing]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and why in captured.err

    @pytest.mark.parametrize("tol", ["5", "1", "inf", "-1", "nan"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, tol):
        def single(gate):
            return f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{gate} q[0];\nmeasure q[0] -> c[0];\n"

        a = write(tmp_path, "h.qasm", single("h"))
        b = write(tmp_path, "x.qasm", single("x"))
        assert main(["verify", str(a), str(b), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err

    def test_optimized_swap_verifies_through_measure_map(self, tmp_path):
        text = "\n".join(
            [
                "OPENQASM 2.0;",
                "qreg q[2];",
                "creg c[2];",
                "h q[1];",
                "swap q[0],q[1];",
                "measure q[1] -> c[1];",
                "",
            ]
        )
        src = write(tmp_path, "in.qasm", text)
        out = tmp_path / "out.qasm"
        assert main(["optimize", str(src), str(out)]) == 0
        assert main(["verify", str(src), str(out)]) == 0


class TestBench:
    def test_rows_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--widths", "2:8:2", "--dead", "fixed:1",
            "--programs", "2", "--blocks", "2", "--gate-multiplier", "10",
            "--seed", "7", "--out", str(out), "--no-timing",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_fixed_dead_too_large_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--widths", "4", "--dead", "fixed:5", "--out", str(out),
        ])
        assert code == 2
        assert "dead" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["7", "-1", "nan", "inf", "1e-320"])
    def test_bad_verify_fraction_exit_2(self, tmp_path, capsys, fraction):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--widths", "4", "--programs", "1", "--blocks", "1",
            "--verify-fraction", fraction, "--out", str(out),
        ])
        assert code == 2
        assert "verify fraction" in capsys.readouterr().err
        assert not out.exists()

    def test_pct_mode_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--widths", "10", "--dead", "pct:20",
            "--programs", "1", "--blocks", "2", "--gate-multiplier", "5",
            "--out", str(out), "--no-timing",
        ])
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        assert row.startswith("10,pct:20,")


class TestWritePath:
    """Outputs are rewritten in place; what a fresh path gets is the spec."""

    def optimize(self, tmp_path, source, out, report):
        src = write(tmp_path, "in.qasm", source)
        return main(["optimize", str(src), str(out), "--report", str(report)])

    def test_optimize_rewrite_shorter_matches_fresh(self, tmp_path):
        out, rep = tmp_path / "out.qasm", tmp_path / "rep.json"
        assert self.optimize(tmp_path, fixtures.qpe_source(m=4, r=2), out, rep) == 0
        long_sizes = out.stat().st_size, rep.stat().st_size
        assert self.optimize(tmp_path, fixtures.cnot_source(), out, rep) == 0
        fresh_out, fresh_rep = tmp_path / "fresh.qasm", tmp_path / "fresh.json"
        assert self.optimize(tmp_path, fixtures.cnot_source(), fresh_out, fresh_rep) == 0
        assert out.read_bytes() == fresh_out.read_bytes()
        assert rep.read_bytes() == fresh_rep.read_bytes()
        assert long_sizes > (out.stat().st_size, rep.stat().st_size)

    def test_bench_rewrite_shorter_matches_fresh(self, tmp_path):
        def bench(out, widths):
            return main([
                "bench", "--widths", widths, "--programs", "1", "--blocks", "1",
                "--gate-multiplier", "2", "--no-timing", "--out", str(out),
            ])

        out, fresh = tmp_path / "b.csv", tmp_path / "fresh.csv"
        assert bench(out, "2,4,6,8,10") == 0
        assert bench(out, "2") == 0
        assert bench(fresh, "2") == 0
        for suffix in ("", ".manifest.json"):
            rewritten = Path(f"{out}{suffix}").read_bytes()
            assert rewritten == Path(f"{fresh}{suffix}").read_bytes()

    def test_symlinked_output_stays_link(self, tmp_path):
        target = write(tmp_path, "target.qasm", "x" * 10_000)
        link = tmp_path / "link.qasm"
        link.symlink_to(target)
        fresh = tmp_path / "fresh.qasm"
        rep = tmp_path / "rep.json"
        assert self.optimize(tmp_path, fixtures.cnot_source(), link, rep) == 0
        assert self.optimize(tmp_path, fixtures.cnot_source(), fresh, rep) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_dev_null_output(self, tmp_path):
        devnull = Path(os.devnull)
        assert self.optimize(tmp_path, fixtures.cnot_source(), devnull, devnull) == 0

    def test_directory_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "dir"
        out.mkdir()
        assert self.optimize(tmp_path, fixtures.cnot_source(), out, tmp_path / "r") == 2
        assert capsys.readouterr().err.startswith(f"{out}: ")


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoints:
    def test_cli_import_leaves_out_numpy(self):
        done = run_python("-c", "import sys, deadgate.cli; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("module", ["deadgate", "deadgate.cli"])
    @pytest.mark.parametrize("other, code", [("h", 0), ("x", 1), ("frobnicate", 2)])
    def test_python_m_verify_exit_code(self, tmp_path, module, other, code):
        a = write(tmp_path, "a.qasm", one_qubit("h"))
        b = write(tmp_path, "b.qasm", one_qubit(other))
        done = run_python("-m", module, "verify", str(a), str(b))
        assert done.returncode == code, done.stderr
        if code == 2:
            assert done.stderr.startswith(f"{b}:4: ")
        else:
            assert done.stdout.startswith("verdict: ")


class TestUsage:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "deadgate 0.1.0" in out and "dialect" in out

    def test_unknown_flag_exit_2(self):
        assert main(["optimize", "--bogus"]) == 2

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2

    def test_parser_built_once_and_defaults_not_leaked(self, tmp_path, capsys):
        from deadgate import cli

        h = write(tmp_path, "h.qasm", one_qubit("h"))
        x = write(tmp_path, "x.qasm", one_qubit("x"))
        cli._parser.cache_clear()
        assert main(["optimize", str(h), str(tmp_path / "out.qasm")]) == 0
        assert main(["verify", str(h), str(x), "--samples", "3", "--seed", "7",
                     "--tol", "0.999"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", str(h), str(x)]) == 1
        last = capsys.readouterr().out
        assert cli._parser.cache_info().misses == 1
        assert "samples: 3" in first and "tolerance: 0.999" in first
        assert "samples: 20" in last and "tolerance: 1e-09" in last
        assert "witness_state_seed: 0," in last
