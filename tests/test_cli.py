import json

import pytest

from deadgate import fixtures
from deadgate.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


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

    def test_qpe_breakdown(self, tmp_path, capsys):
        src = write(tmp_path, "qpe.qasm", fixtures.qpe_source(m=4, r=2))
        out = tmp_path / "out.qasm"
        report = tmp_path / "rep.json"
        assert main(["optimize", str(src), str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        rules = [r["rule"] for r in doc["removed"]]
        assert rules.count("R2_controlled_target_dead") == 4
        assert rules.count("R1_single_on_dead") == 1


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

    def test_qubit_limit_exit_2(self, tmp_path):
        a = write(tmp_path, "a.qasm", fixtures.qpe_source(m=4, r=2))
        assert main(["verify", str(a), str(a), "--qubit-limit", "6"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, tmp_path, capsys, samples):
        def single(gate):
            return f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{gate} q[0];\nmeasure q[0] -> c[0];\n"

        a = write(tmp_path, "h.qasm", single("h"))
        b = write(tmp_path, "x.qasm", single("x"))
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


class TestUsage:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "deadgate 0.1.0" in out and "dialect" in out

    def test_unknown_flag_exit_2(self):
        assert main(["optimize", "--bogus"]) == 2

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2
