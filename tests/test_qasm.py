import math

import pytest
from hypothesis import given, settings

from deadgate import (
    CircuitError,
    Controlled,
    QasmError,
    SingleQubit,
    Swap,
    build_circuit,
    parse,
    serialize,
)

from fixtures import three_qubit_example_source
from helpers import mutants, programs, source_from_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def program(*lines: str) -> str:
    return HEADER + "\n".join(lines) + "\n"


class TestParse:
    def test_three_qubit_fixture(self):
        sc = parse(three_qubit_example_source())
        assert sc.circuit.n == 3
        assert len(sc.circuit.gates) == 5
        assert sc.circuit.dead == {0}  # unmeasured top wire
        assert sc.measures == ((1, 1), (2, 2))
        assert sc.opaque_decls == {"U_3": 3, "W_1": 1}

    def test_unmeasured_register_is_dead(self):
        sc = parse(HEADER + "qreg q[1];\n")
        assert sc.circuit.gates == ()
        assert sc.circuit.dead == {0}

    def test_mid_circuit_measure_rejected(self):
        text = program(
            "qreg q[1];", "creg c[1];", "measure q[0] -> c[0];", "h q[0];"
        )
        with pytest.raises(QasmError) as err:
            parse(text)
        assert "measure" in str(err.value)
        assert err.value.line == 6

    def test_discard_pragma(self):
        text = program(
            "qreg q[2];", "creg c[2];",
            "h q[0];",
            "measure q[0] -> c[0];", "measure q[1] -> c[1];",
            "#pragma dge discard q[0]",
        )
        sc = parse(text)
        assert sc.circuit.dead == {0}

    def test_gate_kinds(self):
        text = program(
            "qreg q[3];", "creg c[3];",
            "h q[0];",
            "rz(0.5) q[1];",
            "u3(0.1,0.2,0.3) q[2];",
            "cx q[0],q[1];",
            "cz q[2],q[0];",
            "ccz q[1],q[2],q[0];",
            "crz(pi/2) q[0],q[2];",
            "swap q[0],q[1];",
            "measure q[0] -> c[0];", "measure q[1] -> c[1];", "measure q[2] -> c[2];",
        )
        kinds = [g.kind for g in parse(text).circuit.gates]
        assert kinds[0] == SingleQubit("H", 0)
        assert kinds[1] == SingleQubit("RZ", 1, (0.5,))
        assert kinds[2] == SingleQubit("U3", 2, (0.1, 0.2, 0.3))
        assert kinds[3] == Controlled("X", (0,), 1)
        # symmetric gates always take their highest wire as target
        assert kinds[4] == Controlled("Z", (0,), 2)
        assert kinds[5] == Controlled("Z", (1, 0), 2)
        assert kinds[6] == Controlled("RZ", (0,), 2, (math.pi / 2,))
        assert kinds[7] == Swap(0, 1)

    def test_angle_expressions(self):
        text = program(
            "qreg q[1];", "creg c[1];",
            "rx(-pi) q[0];",
            "ry(2*pi/3) q[0];",
            "rz(1.5e-3) q[0];",
            "rx((pi+1)/2) q[0];",
            "measure q[0] -> c[0];",
        )
        params = [g.kind.params[0] for g in parse(text).circuit.gates]
        assert params == pytest.approx(
            [-math.pi, 2 * math.pi / 3, 1.5e-3, (math.pi + 1) / 2]
        )

    def test_angle_parse_failure(self):
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[1];", "rx(pi/) q[0];"))
        assert err.value.line == 4

    def test_unknown_gate(self):
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[1];", "foo q[0];"))
        assert "unknown gate" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[1];", "h q[0]"))

    def test_missing_header(self):
        with pytest.raises(QasmError):
            parse("qreg q[2];\n")

    def test_second_qreg_rejected(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[1];", "qreg r[1];"))

    def test_duplicate_clbit(self):
        with pytest.raises(QasmError):
            parse(program(
                "qreg q[2];", "creg c[1];",
                "measure q[0] -> c[0];", "measure q[1] -> c[0];",
            ))

    def test_wire_measured_twice(self):
        with pytest.raises(QasmError) as err:
            parse(program(
                "qreg q[2];", "creg c[2];",
                "measure q[0] -> c[0];", "measure q[0] -> c[1];",
            ))
        assert err.value.line == 6
        assert "qubit q[0] measured twice" in str(err.value)

    def test_out_of_range_index(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[2];", "h q[2];"))

    def test_opaque_arity_checked(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[3];", "opaque B p0,p1;", "B q[0];"))

    def test_opaque_shadowing_builtin_rejected(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[1];", "opaque h p0;"))

    def test_duplicate_qubit_in_gate(self):
        with pytest.raises(QasmError):
            parse(program("qreg q[2];", "cx q[1],q[1];"))

    def test_opaque_naming_one_wire_twice_rejected(self):
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[2];", "opaque U p0,p1;", "U q[0],q[0];"))
        assert err.value.line == 5
        assert err.value.message == "duplicate qubit in U"

    def test_opaque_arity_reported_before_duplicates(self):
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[2];", "opaque U p0,p1;", "U q[0],q[0],q[1];"))
        assert err.value.message == "U expects 2 qubit(s), got 3"

    def test_register_size_bound(self):
        assert parse(program("qreg q[65536];", "creg c[65536];")).circuit.n == 65536
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[1000000];"))
        assert err.value.line == 3
        assert err.value.message == "qreg size 1000000 above the maximum of 65536"

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"], ids=["form_feed", "u2028"])
    def test_comment_holding_line_separator_ignored(self, separator):
        text = program("qreg q[1];", f"// a{separator}h q[0];", "x q[0];")
        assert [g.kind for g in parse(text).circuit.gates] == [SingleQubit("X", 0)]

    def test_comments_ignored(self):
        text = program(
            "qreg q[1]; // one wire",
            "creg c[1];",
            "// a full comment line",
            "h q[0];",
            "measure q[0] -> c[0];",
        )
        assert len(parse(text).circuit.gates) == 1


class TestSerialize:
    def test_controlled_gate_without_statement_refused(self):
        sc = source_from_circuit(build_circuit(2, [Controlled("H", (0,), 1)]))
        with pytest.raises(
            CircuitError, match=r"^controlled H with 1 control\(s\) has no dialect statement$"
        ):
            serialize(sc)

    def test_round_trip_semantics(self):
        sc = parse(three_qubit_example_source())
        again = parse(serialize(sc))
        assert again.circuit == sc.circuit
        assert again.measures == sc.measures
        assert again.opaque_decls == sc.opaque_decls

    def test_reserialization_is_byte_stable(self):
        messy = program(
            "qreg  q[2];", "creg c[2];",
            "h   q[0];",
            "cx q[0] , q[1];",
            "measure q[0]->c[0];",
            "measure q[1] -> c[1];",
        )
        s1 = serialize(parse(messy))
        s2 = serialize(parse(s1))
        assert s1 == s2

    def test_angles_survive_round_trip_exactly(self):
        theta = 1.0 / 3.0
        c = build_circuit(1, [SingleQubit("RZ", 0, (theta,))])
        text = serialize(source_from_circuit(c))
        back = parse(text).circuit.gates[0].kind.params[0]
        assert back == theta
        assert f"{theta:.17g}" in text

    def test_outcome_map_moves_measures(self):
        text = program(
            "qreg q[2];", "creg c[2];",
            "swap q[0],q[1];",
            "measure q[1] -> c[1];",
        )
        sc = parse(text)
        assert sc.circuit.dead == {0}
        from deadgate import eliminate_dead_gates

        opt, _ = eliminate_dead_gates(sc.circuit)
        out = serialize(sc.with_circuit(opt))
        assert "measure q[0] -> c[1];" in out
        assert "#pragma dge discard q[1]" in out
        again = parse(out)
        assert again.circuit.dead == {1}
        assert again.measures == ((0, 1),)

    def test_every_serialized_file_reparses(self):
        import fixtures

        for source in (
            fixtures.three_qubit_example_source(),
            fixtures.three_qubit_simplified_source(),
            fixtures.vqe_ansatz_source(),
            fixtures.vqe_simplified_source(),
            fixtures.qpe_source(),
            fixtures.blocked_controlled_source(),
            fixtures.cnot_source(),
            fixtures.cz_blocked_source(),
        ):
            sc = parse(source)
            again = parse(serialize(sc))
            assert again.circuit == sc.circuit
            assert again.measures == sc.measures

    def test_discard_pragmas_emitted_for_final_dead_set(self):
        sc = parse(HEADER + "qreg q[2];\n")
        out = serialize(sc)
        assert "#pragma dge discard q[0]" in out
        assert "#pragma dge discard q[1]" in out


class TestGeneratedPrograms:
    @settings(max_examples=300, deadline=None)
    @given(text=programs())
    def test_parses_and_reserializes_byte_stably(self, text):
        sc = parse(text)
        out = serialize(sc)
        assert serialize(parse(out)) == out


class TestParseIsTotal:
    """Byte-mutated fixtures: the parser accepts or rejects, never crashes."""

    @settings(max_examples=1000, deadline=None)
    @given(data=mutants())
    def test_mutant_parses_to_checked_circuit_or_raises_qasm_error(self, data):
        try:
            sc = parse(data.decode("latin-1"))
        except QasmError:
            return
        c = sc.circuit
        # the parser's own checks admit only what build_circuit admits
        assert c == build_circuit(c.n, [g.kind for g in c.gates], c.dead)
        text = serialize(sc)
        assert serialize(parse(text)) == text
