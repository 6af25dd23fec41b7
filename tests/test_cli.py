import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from deadgate import bench, cli
from deadgate.cli import main

import fixtures
from helpers import mutants


SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def one_qubit(gate):
    """A one-qubit file applying `gate` and measuring the wire."""
    return f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{gate} q[0];\nmeasure q[0] -> c[0];\n"


def measuring(n, wires, body=""):
    """An n-qubit file of `body`'s gate lines, measuring each of `wires`
    into its own bit."""
    measures = "".join(f"measure q[{w}] -> c[{w}];\n" for w in wires)
    return f"OPENQASM 2.0;\nqreg q[{n}];\ncreg c[{n}];\n{body}{measures}"


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

    def test_readme_report_bytes(self, tmp_path, capsys):
        # the README states an input, the exact report optimize writes and
        # its exact stdout: removals per rule by name, and the outcome map
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("The report is the text"):]
        source, report, stdout = re.findall(r"```(?:json)?\n(.*?)```", section, re.S)[:3]
        src = write(tmp_path, "in.qasm", source)
        out = tmp_path / "report.json"
        assert main(["optimize", str(src), str(tmp_path / "out.qasm"), "--report", str(out)]) == 0
        assert out.read_text() == report
        assert capsys.readouterr() == (stdout, "")

    def test_no_dead_qubits_output_identical(self, tmp_path, capsys):
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
        # nothing removed: no breakdown, and the map stays sorted and unprinted
        assert capsys.readouterr() == ("removed 0 of 2 gates in 1 sweeps\n", "")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.qasm"
        assert main(["optimize", str(missing), str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"{missing}: No such file or directory\n")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_read_as_newlines(self, tmp_path, capsys, newline):
        # a text-mode read makes one newline of CR LF and of CR
        lines = ["OPENQASM 2.0;", "qreg q[2];", "creg c[2];", "h q[0];", "cx q[0],q[1];",
                 "measure q[0] -> c[0];", "#pragma dge discard q[1]", ""]
        outputs = []
        for name, ends in (("lf", "\n"), ("other", newline)):
            src = tmp_path / f"{name}.qasm"
            src.write_bytes(ends.join(lines).encode())
            out = tmp_path / f"{name}.out.qasm"
            assert main(["optimize", str(src), str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[1] == outputs[0]
        assert b"\r" not in outputs[0][0]

    def test_qpe_breakdown(self, tmp_path, capsys):
        src = write(tmp_path, "qpe.qasm", fixtures.qpe_source(m=4, r=2))
        out = tmp_path / "out.qasm"
        report = tmp_path / "rep.json"
        assert main(["optimize", str(src), str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        rules = [r["rule"] for r in doc["removed"]]
        assert rules.count("R2_controlled_target_dead") == 4
        assert rules.count("R1_single_on_dead") == 1


# Runs main on its arguments after printing the name of the locale's encoding.
ASCII_CHILD = ("import codecs, locale, sys; from deadgate.cli import main; "
               "print(codecs.lookup(locale.getpreferredencoding(False)).name); "
               "sys.exit(main(sys.argv[1:]))")


class TestLoadErrors:
    """A file that does not load exits 2 with one stderr line naming it,
    from optimize and from verify, whichever of verify's files is bad: a
    parse error as `path:line: message` (tests/test_qasm.py pins every
    message), bytes that do not decode as `path: reason`."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_parse_error(self, tmp_path, capsys, newline):
        # a text-mode read ends a line at CR LF and at CR as at LF
        bad = tmp_path / "bad.qasm"
        bad.write_bytes(newline.join(["OPENQASM 2.0;", "qreg q[1];", "frobnicate q[0];", ""])
                        .encode())
        self.assert_refused(tmp_path, capsys, bad, f"{bad}:3: unknown gate 'frobnicate'")

    def test_undecodable_bytes(self, tmp_path, capsys):
        bad = tmp_path / "bin.qasm"
        # input is read as UTF-8
        bad.write_bytes(b"\xff\xfeOPENQASM 2.0;\nqreg q[1];\n")
        self.assert_refused(tmp_path, capsys, bad, f"{bad}: 'utf-8' codec can't decode byte 0xff "
                            "in position 0: invalid start byte")

    @pytest.mark.parametrize("data, code, stderr", [
        (b"OPENQASM 2.0;\n// caf\xc3\xa9\nqreg q[1];\ncreg c[1];\nh q[0];\n", 0, ""),
        (b"\xff\xfeOPENQASM 2.0;\nqreg q[1];\n", 2,
         "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    ], ids=["valid_utf8", "undecodable_bytes"])
    def test_read_as_utf8_under_an_ascii_locale(self, tmp_path, data, code, stderr):
        # LC_ALL=POSIX keeps Python from coercing the locale to C.UTF-8 and
        # -X utf8=0 from its UTF-8 mode, so the child's locale encoding is
        # ASCII; it prints that encoding's name before it runs optimize
        path = tmp_path / "in.qasm"
        path.write_bytes(data)
        done = run_python("-X", "utf8=0", "-c", ASCII_CHILD, "optimize", str(path),
                          str(tmp_path / "out.qasm"), LC_ALL="POSIX")
        assert (done.returncode, done.stderr) == (code, stderr.format(path=path))
        assert done.stdout.startswith("ascii\n")

    def assert_refused(self, tmp_path, capsys, bad, message):
        good = write(tmp_path, "good.qasm", fixtures.cnot_source())
        for argv in (
            ["optimize", str(bad), str(tmp_path / "out.qasm")],
            ["verify", str(bad), str(good)],
            ["verify", str(good), str(bad)],
            ["verify", str(bad), str(bad)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message + "\n")


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


# The files the verify table compares, by name.
VERIFY_FILES = {
    "h": one_qubit("h"),
    "x": one_qubit("x"),
    "cnot": fixtures.cnot_source(),
    "three_qubit": fixtures.three_qubit_example_source(),
    **{f"measuring_{''.join(map(str, ws))}": measuring(3, ws)
       for ws in ((1,), (0, 1), (0, 1, 2), (0, 2))},
    "bit_0": "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n",
    "bit_1": "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[1];\n",
    "unmeasured_h": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n",
    "unmeasured_xcx": "OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];\n",
    "discarded": ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\n"
                  "#pragma dge discard q[0]\n"),
    # a SWAP that moves deadness from q[0] to q[1], and the file without
    # it: equivalent under the pairing 0:1
    "swap": measuring(2, [1], "h q[1];\nswap q[0],q[1];\n"),
    "bare": measuring(2, [0], "h q[1];\n") + "#pragma dge discard q[1]\n",
    "qpe": fixtures.qpe_source(m=4, r=2),
    "wide": measuring(13, [0], "h q[0];\n"),
}
QUBIT_COUNTS = "qubit counts differ: 2 vs 3"
NO_KEPT_BITS = "no kept bits to compare: every wire is dead"
BIJECTION = "pairing must be a bijection between the dead wires unique to each side"

# Every refusal of verify's arguments, as (file A, file B, options,
# message), with rows that pin which of two refusals comes first.
VERIFY_REFUSALS = {
    "qubit_counts": ("cnot", "three_qubit", [], QUBIT_COUNTS),
    # `--map` cannot mend files of two widths, so the error must not suggest it
    **{f"qubit_counts_{name}": ("cnot", name, [], QUBIT_COUNTS)
       for name in ("measuring_1", "measuring_01", "measuring_012")},
    # the counts are checked before A's dead wire 0 is paired with B's wire 1
    "qubit_counts_before_map": ("cnot", "measuring_02", ["--map", "0:1"], QUBIT_COUNTS),
    "kept_bits_differ": ("bit_0", "bit_1", [], "kept classical bits differ between the files; "
                         "use --map for relabeled comparisons"),
    # with nothing measured every marginal is 1, so the files would agree
    # whatever their gates; measured but discarded is no different
    "no_kept_bits": ("unmeasured_h", "unmeasured_xcx", [], NO_KEPT_BITS),
    "no_kept_bits_discarded": ("discarded", "unmeasured_h", [], NO_KEPT_BITS),
    "map_not_bijective": ("swap", "bare", ["--map", "1:0"], BIJECTION),
    # B's dead set {0, 1} is one larger than A's {0}
    "map_dead_sets_differ_in_size": ("swap", "unmeasured_h", ["--map", "1:0"], BIJECTION),
    "map_left_twice": ("swap", "bare", ["--map", "0:5,0:1"], "--map names a wire twice in '0:1'"),
    "map_right_twice": ("swap", "bare", ["--map", "0:1,1:1"],
                        "--map names a wire twice in '1:1'"),
    "map_three_parts": ("swap", "bare", ["--map", "0:1:2"],
                        "--map item '0:1:2' is not of the form i:j"),
    "map_one_part": ("swap", "bare", ["--map", "0"], "--map item '0' is not of the form i:j"),
    # the oracle decides these (tests/test_oracle.py pins its messages);
    # one row per option shows verify passes it on, --tol as a float
    "samples_0": ("h", "x", ["--samples", "0"], "samples must be at least 1, got 0"),
    "tol_5": ("h", "x", ["--tol", "5"], "tol must be finite and in [0, 1), got 5.0"),
    "seed": ("h", "h", ["--seed", "-1"], "seed must be non-negative, got -1"),
    "cap": ("qpe", "qpe", ["--qubit-limit", "6"], "7 qubits exceeds the cap of 6"),
    # the argparse default of --qubit-limit
    "default_cap": ("wide", "wide", [], "13 qubits exceeds the cap of 12"),
    # --samples, --tol, --seed and the cap are checked in that order
    "samples_before_tol": ("wide", "wide", ["--samples", "0", "--tol", "5"],
                           "samples must be at least 1, got 0"),
    "tol_before_seed": ("wide", "wide", ["--tol", "5", "--seed", "-1"],
                        "tol must be finite and in [0, 1), got 5.0"),
    "seed_before_cap": ("wide", "wide", ["--seed", "-1", "--qubit-limit", "12"],
                        "seed must be non-negative, got -1"),
}


class TestVerify:
    @pytest.mark.parametrize("a, b, options, message", VERIFY_REFUSALS.values(),
                             ids=VERIFY_REFUSALS)
    def test_refusal(self, tmp_path, capsys, a, b, options, message):
        paths = [str(write(tmp_path, f"{name}.qasm", VERIFY_FILES[name])) for name in (a, b)]
        assert main(["verify", *paths, *options]) == 2
        assert capsys.readouterr() == ("", message + "\n")

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

    def test_witness_marks_bits_not_simulated(self, tmp_path, capsys):
        # wire 1 is untouched and read alike, so its bit is not compared
        head = "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n"
        measures = "".join(f"measure q[{w}] -> c[{w}];\n" for w in range(3))
        a = write(tmp_path, "a.qasm", head + "cx q[0],q[2];\n" + measures)
        b = write(tmp_path, "b.qasm", head + measures)
        assert main(["verify", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^witness_outcome: [01]x[01]$", out, re.M), out

    def test_map_pairing(self, tmp_path):
        a = write(tmp_path, "a.qasm", VERIFY_FILES["swap"])
        b = write(tmp_path, "b.qasm", VERIFY_FILES["bare"])
        assert main(["verify", str(a), str(b), "--map", "0:1"]) == 0

    def test_optimized_swap_verifies_through_measure_map(self, tmp_path):
        src = write(tmp_path, "in.qasm", VERIFY_FILES["swap"])
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

    def test_two_part_width_range(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--widths", "2:4", "--programs", "1", "--blocks", "1",
            "--gate-multiplier", "2", "--no-timing", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr() == (f"wrote 3 summary rows (3 runs) to {out}\n", "")
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "3", "4"]

    @pytest.mark.parametrize("flags, message", [
        (["--widths", "1:2:3:4"], "bad width range '1:2:3:4'"),
        (["--widths", "5:2"], "bad width range '5:2'"),
        (["--widths", "2:10:0"], "bad width range '2:10:0'"),
        (["--widths", "2:x"], "bad width range '2:x'"),
        (["--widths", "2,x"], "bad width list '2,x'"),
        (["--dead", "fixed:x"], "dead mode 'fixed:x' is not of the form fixed:k or pct:p"),
        (["--dead", "fixed:0"], "dead mode value must be positive"),
        (["--1q-fraction", "2"], "single-qubit fraction must be in (0,1)"),
        (["--gate-multiplier", "0"], "gate multiplier, blocks and programs must be >= 1"),
        (["--blocks", "0"], "gate multiplier, blocks and programs must be >= 1"),
        (["--programs", "0"], "gate multiplier, blocks and programs must be >= 1"),
        (["--seed", "-1"], "seed must be non-negative"),
        (["--dead", "fixed:5"], "dead mode fixed:5 gives 5 dead qubits at width 4"),
        # each palette entry is read without its spaces
        (["--palette", "cx, iswap"], "unsupported two-qubit palette entries: ['iswap']"),
        *((["--verify-fraction", f], "verify fraction must be in [0, 1] with a finite "
           f"1/fraction, got {float(f)}") for f in ("7", "-1", "nan", "inf", "1e-320")),
    ], ids=["range_four_parts", "range_descending", "range_zero_step", "range_not_int",
            "list_not_int", "dead_not_int", "dead_zero", "fraction", "gate_multiplier",
            "blocks", "programs", "seed", "dead_too_many", "palette",
            *(f"verify_fraction_{f}" for f in ("7", "-1", "nan", "inf", "1e-320"))])
    def test_bad_config_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--widths", "4", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert not out.exists()

    def test_out_in_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bench.csv"
        code = main(["bench", "--widths", "2", "--programs", "1", "--blocks", "1",
                     "--gate-multiplier", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"{out}: No such file or directory\n")

    def test_out_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_bench", sweep)
        out = tmp_path / "nodir" / "x.csv"
        assert main(["bench", "--programs", "200", "--blocks", "10", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"{out}: No such file or directory\n")

    def test_manifest_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_bench", sweep)
        out = tmp_path / "x.csv"
        manifest = tmp_path / "x.csv.manifest.json"
        manifest.mkdir()
        assert main(["bench", "--programs", "200", "--blocks", "10", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"{manifest}: Is a directory\n")
        # a new path may be left empty, never half written
        assert out.read_bytes() == b""

    def test_option_defaults_are_the_config_defaults(self, tmp_path, capsys, monkeypatch):
        """Each bench option left out sets its config field to that
        field's `BenchConfig` default."""
        seen = []

        def sweep(cfg):
            seen.append(cfg)
            return [], ""

        monkeypatch.setattr(cli, "run_bench", sweep)
        assert main(["bench", "--out", str(tmp_path / "b.csv")]) == 0
        (cfg,) = seen
        default = bench.BenchConfig(widths=cfg.widths, dead_mode=cfg.dead_mode)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(default)

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

    @pytest.mark.parametrize("via_link", [False, True], ids=["same_path", "symlink"])
    def test_one_file_as_two_outputs_refused(self, tmp_path, capsys, monkeypatch, via_link):
        def eliminate(*args):
            raise AssertionError("the pass ran")

        out = write(tmp_path, "out.qasm", "old text\n")
        rep = tmp_path / "rep.json" if via_link else out
        if via_link:
            rep.symlink_to(out)
        src = write(tmp_path, "in.qasm", fixtures.cnot_source())
        monkeypatch.setattr(cli, "eliminate_dead_gates", eliminate)
        assert main(["optimize", str(src), str(out), "--report", str(rep)]) == 2
        assert capsys.readouterr() == ("", f"outputs {out} and {rep} are one file\n")
        assert out.read_text() == "old text\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["optimize", "report", "bench"])
    def test_write_error_names_the_path(self, tmp_path, capsys, command):
        # a full device fails the write or the close, not the open
        src = write(tmp_path, "in.qasm", fixtures.cnot_source())
        out, full = str(tmp_path / "out"), "/dev/full"
        if command == "bench":
            # the manifest path is opened before the sweep: a link keeps it
            # out of /dev, and the error names the path as given
            full = str(tmp_path / "full.csv")
            os.symlink("/dev/full", full)
        argv = {
            "optimize": ["optimize", str(src), full],
            "report": ["optimize", str(src), out, "--report", full],
            "bench": ["bench", "--widths", "2", "--programs", "1", "--blocks", "1",
                      "--gate-multiplier", "2", "--out", full],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"{full}: No space left on device\n")

    def test_directory_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "dir"
        out.mkdir()
        assert self.optimize(tmp_path, fixtures.cnot_source(), out, tmp_path / "r") == 2
        assert capsys.readouterr() == ("", f"{out}: Is a directory\n")

    def test_directory_report_refused_before_the_pass(self, tmp_path, capsys, monkeypatch):
        def pass_(*args):
            raise AssertionError("the pass ran")

        monkeypatch.setattr(cli, "eliminate_dead_gates", pass_)
        report = tmp_path / "rep"
        report.mkdir()
        old, fresh = write(tmp_path, "old.qasm", "old text"), tmp_path / "fresh.qasm"
        for out in (old, fresh):
            assert self.optimize(tmp_path, fixtures.cnot_source(), out, report) == 2
            assert capsys.readouterr() == ("", f"{report}: Is a directory\n")
        # OUT receives no bytes: an existing file keeps its text, a new one is empty
        assert old.read_text() == "old text"
        assert fresh.read_bytes() == b""


def run_python(*args, **environ):
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestEntryPoints:
    @pytest.mark.parametrize("user", [None, "3"], ids=["unset", "user_set"])
    def test_entry_holds_blas_to_one_thread_unless_set(self, monkeypatch, user):
        seen = {}

        def stub_main():
            seen.update((name, os.environ.get(name)) for name in BLAS_THREADS)
            return 0

        for name in BLAS_THREADS:
            if user is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, user)
        monkeypatch.setattr(cli, "main", stub_main)
        with pytest.raises(SystemExit) as done:
            cli.entry()
        assert done.value.code == 0
        assert seen == {name: user or "1" for name in BLAS_THREADS}

    def test_cli_import_leaves_out_numpy(self):
        done = run_python("-c", "import sys, deadgate.cli; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_optimize_leaves_out_numpy(self, tmp_path):
        src = write(tmp_path, "in.qasm", fixtures.three_qubit_example_source())
        code = ("import sys; from deadgate.cli import main; "
                f"main(['optimize', {str(src)!r}, {str(tmp_path / 'out.qasm')!r}]); "
                "print('numpy' in sys.modules)")
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("\nFalse\n")

    @pytest.mark.parametrize("module", ["deadgate", "deadgate.cli"])
    @pytest.mark.parametrize("other, code", [("h", 0), ("x", 1), ("frobnicate", 2)])
    def test_python_m_verify_exit_code(self, tmp_path, module, other, code):
        a = write(tmp_path, "a.qasm", one_qubit("h"))
        b = write(tmp_path, "b.qasm", one_qubit(other))
        done = run_python("-m", module, "verify", str(a), str(b))
        assert done.returncode == code, done.stderr
        if code == 2:
            assert done.stderr == f"{b}:4: unknown gate 'frobnicate'\n"
        else:
            assert done.stdout.startswith("verdict: ")


# The child caps its own address space and holds BLAS to one thread before
# deadgate loads: numpy imports well within 1 GiB, and an allocation no
# bound stopped fails at once instead of filling memory on a host that
# overcommits.
CAPPED = (
    "import os, resource, runpy, sys; "
    "os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard)); "
    "sys.argv[0] = 'deadgate'; runpy.run_module('deadgate', run_name='__main__')"
)


class TestAllocationBounds:
    """Sizes the oracle or the generator would allocate without bound are
    refused with one line and exit 2, never a MemoryError and exit 1."""

    @pytest.mark.parametrize("n, limit, opaques, message", [
        (40, 40, (), "40 qubits exceeds the cap of 20"),
        (16, 16, (16,), "opaque bindings need 65536 MiB, above 512 MiB"),
        (12, 12, (12,) * 3, "opaque bindings need 768 MiB, above 512 MiB"),
        # refused by the cap before any of the 1 GiB of bindings is made
        (13, 12, (12,) * 4, "13 qubits exceeds the cap of 12"),
    ], ids=["qubits_above_ceiling", "opaque_above_bound", "opaques_above_bound",
            "over_cap_with_opaques"])
    def test_verify(self, tmp_path, n, limit, opaques, message):
        lines = ["OPENQASM 2.0;", f"qreg q[{n}];", f"creg c[{n}];", "h q[0];"]
        for i, arity in enumerate(opaques):
            lines.append(f"opaque U{i} " + ",".join(f"p{j}" for j in range(arity)) + ";")
            lines.append(f"U{i} " + ",".join(f"q[{j}]" for j in range(arity)) + ";")
        a = write(tmp_path, "a.qasm", "\n".join(lines + ["measure q[0] -> c[0];", ""]))
        done = run_python("-c", CAPPED, "verify", str(a), str(a), "--qubit-limit", str(limit))
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message + "\n")

    @pytest.mark.parametrize("flags, message", [
        (["--widths", "2", "--gate-multiplier", "100000000000"],
         "200000000000 gates per circuit exceeds 1000000"),
        (["--widths", "2:100000000000000000000"],
         "bad width range '2:100000000000000000000'"),
        (["--widths", "2:1000000000000"], "bad width range '2:1000000000000'"),
        (["--widths=-100000000000000000000:4"],
         "bad width range '-100000000000000000000:4'"),
    ], ids=["gate_multiplier", "range_past_ssize", "range_past_memory", "range_start_low"])
    def test_bench(self, tmp_path, flags, message):
        out = tmp_path / "b.csv"
        done = run_python("-c", CAPPED, "bench", "--programs", "1", "--blocks", "1", *flags,
                          "--out", str(out))
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message + "\n")
        assert not out.exists()


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
