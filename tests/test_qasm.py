import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadgate import (
    CircuitError,
    Controlled,
    QasmError,
    SingleQubit,
    Swap,
    Gate,
    build_circuit,
    parse,
    serialize,
)
from deadgate.bench import random_circuit

from fixtures import three_qubit_example_source
from helpers import FIXTURE_SOURCES, mutants, programs, source_from_circuit

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


_KEYWORD = re.compile(r"(OPENQASM|include|qreg|creg|opaque|measure)\b|#")


def split_program(text: str) -> tuple[list[str], list[str], list[str]]:
    """A valid program's statements before its gates, its gate
    statements, and those after them; comments and blank lines dropped."""
    head, gates, tail = [], [], []
    for line in text.split("\n"):
        stmt = line.partition("//")[0].strip()
        if not stmt:
            continue
        if not _KEYWORD.match(stmt):
            gates.append(stmt)
        elif gates or stmt.startswith(("measure", "#")):
            tail.append(stmt)
        else:
            head.append(stmt)
    return head, gates, tail


def unshared(sc):
    """`sc` with a fresh gate and kind object at every position."""
    c = sc.circuit
    gates = tuple(Gate(dataclasses.replace(g.kind)) for g in c.gates)
    return sc.with_circuit(dataclasses.replace(c, gates=gates))


class TestParseCaches:
    """One parse reads each distinct gate statement, qubit reference and
    angle once; a repeat must read as the first did."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(programs(), st.sampled_from(FIXTURE_SOURCES)), data=st.data())
    def test_each_gate_reads_as_its_statement_alone(self, text, data):
        head, gates, tail = split_program(text)
        # repeats of the program's own statements, so that the caches hit
        repeats = data.draw(st.lists(st.sampled_from(gates), max_size=12)) if gates else []
        body = data.draw(st.permutations(gates + repeats))
        got = parse("\n".join(head + body + tail) + "\n").circuit.gates
        assert len(got) == len(body)
        for gate, stmt in zip(got, body):
            alone = parse("\n".join(head + [stmt]) + "\n").circuit.gates
            assert [g.kind for g in alone] == [gate.kind], stmt

    def test_references_read_whole(self):
        text = program("qreg q[12];", "h q[1];", "h q[11];", "h  q[ 01];", "cx q[11],q[1];",
                       "h q[1];")
        gates = parse(text).circuit.gates
        assert [g.kind.qubits() for g in gates] == [(1,), (11,), (1,), (11, 1), (1,)]

    def test_repeats_share_one_gate(self):
        # one gate per line, and each repeat is its first occurrence's gate
        # object
        lines = ["cx q[0],q[1];", "h q[0];", "cx q[0],q[1];", "rz(pi/4) q[2];", "h q[0];",
                 "ccz q[2],q[0],q[1];", "rz(pi/4) q[2];", "cx q[0],q[1];"]
        gates = parse(program("qreg q[3];", *lines)).circuit.gates
        assert len(gates) == len(lines)
        first: dict = {}
        for gate, stmt in zip(gates, lines):
            assert gate is first.setdefault(stmt, gate)
        assert len({id(g) for g in gates}) == len(first) == 4

    def test_repeat_after_measure_fails_on_its_line(self):
        text = program("qreg q[1];", "creg c[1];", "h q[0];", "measure q[0] -> c[0];",
                       "h q[0];")
        with pytest.raises(QasmError) as err:
            parse(text)
        assert (err.value.line, err.value.message) == (
            7, "gate after measure (mid-circuit measurement)"
        )

    @pytest.mark.parametrize("good, bad, message", [
        (None, "h q[2];", "qubit index 2 out of range (n=2)"),
        (None, "rx(pi/0) q[0];", "cannot parse angle 'pi/0': division by zero"),
        # the bad statement shares a reference or an angle with a good one
        ("h q[0];", "h q[0],q[1];", "h expects 1 qubit(s)"),
        ("rx(pi/2) q[0];", "rx(pi/2) q[0],q[1];", "rx expects 1 qubit(s)"),
        ("rx(pi/2) q[0];", "u3(pi/2,pi/2) q[0];", "u3 expects 3 parameter(s)"),
    ], ids=["range", "angle", "shared_ref", "shared_angle", "params"])
    def test_bad_statement_fails_where_it_first_appears(self, good, bad, message):
        lines = ["qreg q[2];", *([good] * 2 if good else []), bad, "x q[1];", bad]
        with pytest.raises(QasmError) as err:
            parse(program(*lines))
        assert (err.value.line, err.value.message) == (lines.index(bad) + 3, message)

    def test_parses_share_nothing(self):
        assert len(parse(program("qreg q[6];", "h q[5];")).circuit.gates) == 1
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[3];", "h q[5];"))
        assert err.value.message == "qubit index 5 out of range (n=3)"
        assert len(parse(program("qreg a[2];", "cx a[0],a[1];")).circuit.gates) == 1
        with pytest.raises(QasmError) as err:
            parse(program("qreg b[2];", "cx a[0],a[1];"))
        assert err.value.message == "expected b[i], got 'a[0]'"
        assert len(parse(program("qreg q[2];", "opaque U p0;", "U q[0];")).circuit.gates) == 1
        with pytest.raises(QasmError) as err:
            parse(program("qreg q[2];", "U q[0];"))
        assert err.value.message == "unknown gate 'U'"

    @pytest.mark.parametrize("text", [
        *FIXTURE_SOURCES,
        program("qreg q[3];", "creg c[3];", *["h q[0];", "cx q[0],q[1];", "rz(pi/4) q[2];",
                "ccz q[2],q[0],q[1];", "swap q[1],q[2];"] * 4, "measure q[1] -> c[1];"),
    ])
    def test_serialize_matches_unshared_kinds(self, text):
        sc = parse(text)
        assert serialize(sc) == serialize(unshared(sc))

    def test_serialize_of_transient_kinds(self):
        # a generated circuit builds each gate's kind where it is read and
        # may free it after, so an id alone could name two kinds in turn
        sc = source_from_circuit(random_circuit(5, 400, 0.5, seed=3))
        assert serialize(sc) == serialize(unshared(sc))


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
