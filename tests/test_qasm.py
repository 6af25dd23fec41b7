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


HEAD = HEADER.splitlines()
NINES = "9" * 5000  # past int()'s digit limit
DEEP_PARENS = "(" * 5000 + "1" + ")" * 5000
DEEP_SIGNS = "-" * 5000 + "1"
KEYWORDS = ("OPENQASM", "include", "qreg", "creg", "opaque", "measure")

# Every refusal the parser makes, as (file lines, the line the error
# names, its message): at least one row per place that raises, and rows
# that pin which of two refusals comes first.
REFUSALS = {
    # the header and the statements
    "empty": ([], 1, "missing 'OPENQASM 2.0;' header"),
    "comment_only": (["// only a comment"], 1, "missing 'OPENQASM 2.0;' header"),
    "first_statement_not_header": (["// a", "qreg q[2];"], 2,
                                   "first statement must be 'OPENQASM 2.0;'"),
    "header_only": (["OPENQASM 2.0;", "", ""], 3, "missing qreg declaration"),
    "no_qreg": ([*HEAD, "creg c[1];"], 3, "missing qreg declaration"),
    "other_include": ([*HEAD, 'include "other.inc";'], 3,
                      "only 'include \"qelib1.inc\";' is supported"),
    "no_semicolon": ([*HEAD, "qreg q[1];", "h q[0]"], 4, "statement must end with ';'"),
    "two_statements": ([*HEAD, "qreg q[1];", "h q[0]; h q[0];"], 4, "one statement per line"),
    # only a newline ends a line
    "form_feed_between_statements": ([*HEAD, "qreg q[1];", "h q[0];\x0ch q[0];"], 4,
                                     "one statement per line"),
    "form_feed_in_comment": ([*HEAD, "// a\x0cb", "qreg q[1];", "frobnicate q[0];"], 5,
                             "unknown gate 'frobnicate'"),
    "not_a_statement": ([*HEAD, "qreg q[1];", "1 q[0];"], 4, "cannot parse statement '1 q[0]'"),
    # registers; numbers past int()'s digit limit in each statement that has one
    "malformed_qreg": ([*HEAD, "qreg q;"], 3, "malformed qreg declaration"),
    "malformed_creg": ([*HEAD, "qreg q[1];", "creg c[];"], 4, "malformed creg declaration"),
    "qreg_above_maximum": ([*HEAD, "qreg q[65537];"], 3,
                           "qreg size 65537 above the maximum of 65536"),
    "long_qreg": ([*HEAD, f"qreg q[{NINES}];"], 3,
                  f"qreg size {NINES} above the maximum of 65536"),
    "long_creg": ([*HEAD, "qreg q[1];", f"creg c[{NINES}];"], 4,
                  f"creg size {NINES} above the maximum of 65536"),
    "second_qreg": ([*HEAD, "qreg q[1];", "qreg r[1];"], 4, "only one qreg is supported"),
    "second_creg": ([*HEAD, "qreg q[1];", "creg c[1];", "creg d[1];"], 5,
                    "only one creg is supported"),
    # opaque declarations
    "malformed_opaque": ([*HEAD, "qreg q[1];", "opaque U;"], 4, "malformed opaque declaration"),
    "opaque_named_h": ([*HEAD, "qreg q[1];", "opaque h p0;"], 4,
                       "opaque name 'h' shadows a builtin gate"),
    **{f"opaque_named_{word}": ([*HEAD, "qreg q[1];", f"opaque {word} p0;"], 4,
                                f"opaque name {word!r} is a reserved word")
       for word in KEYWORDS},
    "opaque_redeclared": ([*HEAD, "qreg q[1];", "opaque U p0;", "opaque U p0;"], 5,
                          "opaque 'U' redeclared"),
    "opaque_formal_not_name": ([*HEAD, "qreg q[1];", "opaque U p0,1;"], 4,
                               "opaque formals must be identifiers"),
    # qubit references, measures and pragmas
    "other_register": ([*HEAD, "qreg q[1];", "h r[0];"], 4, "expected q[i], got 'r[0]'"),
    "qubit_out_of_range": ([*HEAD, "qreg q[2];", "h q[2];"], 4,
                           "qubit index 2 out of range (n=2)"),
    "long_gate_arg": ([*HEAD, "qreg q[1];", f"h q[{NINES}];"], 4,
                      f"qubit index {NINES} out of range (n=1)"),
    "malformed_measure": ([*HEAD, "qreg q[1];", "creg c[1];", "measure q[0];"], 5,
                          "malformed measure statement"),
    "measure_before_qreg": ([*HEAD, "measure q[0] -> c[0];", "qreg q[1];"], 3,
                           "measure before qreg declaration"),
    "measure_without_creg": ([*HEAD, "qreg q[1];", "measure q[0] -> c[0];"], 4,
                             "expected c[j] measure target"),
    "measure_into_other_register": ([*HEAD, "qreg q[1];", "creg c[1];",
                                     "measure q[0] -> d[0];"], 5,
                                    "expected c[j] measure target"),
    "clbit_out_of_range": ([*HEAD, "qreg q[1];", "creg c[1];", "measure q[0] -> c[1];"], 5,
                           "classical bit 1 out of range (m=1)"),
    "long_measure_target": ([*HEAD, "qreg q[1];", "creg c[1];", f"measure q[0] -> c[{NINES}];"],
                            5, f"classical bit {NINES} out of range (m=1)"),
    "clbit_measured_twice": ([*HEAD, "qreg q[2];", "creg c[1];", "measure q[0] -> c[0];",
                              "measure q[1] -> c[0];"], 6, "classical bit 0 measured twice"),
    "wire_measured_twice": ([*HEAD, "qreg q[1];", "creg c[2];", "h q[0];",
                             "measure q[0] -> c[0];", "measure q[0] -> c[1];"], 7,
                            "qubit q[0] measured twice"),
    "unknown_pragma": ([*HEAD, "qreg q[1];", "#pragma dge keep q[0]"], 4,
                       "unknown pragma (expected '#pragma dge discard q[i]')"),
    "discard_before_qreg": ([*HEAD, "#pragma dge discard q[0]", "qreg q[1];"], 3,
                            "discard pragma before qreg declaration"),
    "long_discard": ([*HEAD, "qreg q[1];", f"#pragma dge discard q[{NINES}]"], 4,
                     f"qubit index {NINES} out of range (n=1)"),
    # gates
    "gate_before_qreg": ([*HEAD, "h q[0];"], 3, "gate before qreg declaration"),
    "gate_after_measure": ([*HEAD, "qreg q[1];", "creg c[1];", "measure q[0] -> c[0];",
                            "h q[0];"], 6, "gate after measure (mid-circuit measurement)"),
    "unknown_gate": ([*HEAD, "qreg q[1];", "frobnicate q[0];"], 4, "unknown gate 'frobnicate'"),
    "missing_parameter": ([*HEAD, "qreg q[1];", "rz q[0];"], 4, "rz expects 1 parameter(s)"),
    "extra_parameter": ([*HEAD, "qreg q[1];", "h(0.5) q[0];"], 4, "h expects 0 parameter(s)"),
    "qubit_count": ([*HEAD, "qreg q[2];", "cx q[0];"], 4, "cx expects 2 qubit(s)"),
    "qubit_count_before_duplicates": ([*HEAD, "qreg q[2];", "cx q[1],q[1],q[0];"], 4,
                                      "cx expects 2 qubit(s)"),
    "duplicate_qubit": ([*HEAD, "qreg q[2];", "cx q[1],q[1];"], 4, "duplicate qubit in cx"),
    "opaque_with_parameter": ([*HEAD, "qreg q[1];", "opaque U p0;", "U(1) q[0];"], 5,
                              "opaque blocks take no parameters"),
    "opaque_arity": ([*HEAD, "qreg q[2];", "opaque U p0,p1;", "U q[0];"], 5,
                     "U expects 2 qubit(s), got 1"),
    "opaque_arity_before_duplicates": ([*HEAD, "qreg q[2];", "opaque U p0,p1;",
                                        "U q[0],q[0],q[1];"], 5, "U expects 2 qubit(s), got 3"),
    "opaque_wire_twice": ([*HEAD, "qreg q[2];", "opaque U p0,p1;", "U q[0],q[0];"], 5,
                          "duplicate qubit in U"),
    # angles: each way into the angle parser's refusal
    "empty_parameter": ([*HEAD, "qreg q[1];", "rz(,) q[0];"], 4, "empty gate parameter"),
    "angle_ends_early": ([*HEAD, "qreg q[1];", "rz(pi/) q[0];"], 4, "cannot parse angle 'pi/'"),
    "angle_trailing_token": ([*HEAD, "qreg q[1];", "rz(1 2) q[0];"], 4,
                             "cannot parse angle '1 2'"),
    "angle_unclosed_paren": ([*HEAD, "qreg q[1];", "rz((1 2) q[0];"], 4,
                             "cannot parse angle '(1 2'"),
    "angle_not_a_number": ([*HEAD, "qreg q[1];", "rz(x) q[0];"], 4, "cannot parse angle 'x'"),
    "angle_division_by_zero": ([*HEAD, "qreg q[1];", "rz(pi/0) q[0];"], 4,
                               "cannot parse angle 'pi/0': division by zero"),
    "angle_huge_literal": ([*HEAD, "qreg q[1];", "rz(1e400) q[0];"], 4,
                           "cannot parse angle '1e400': value is not finite"),
    "angle_huge_product": ([*HEAD, "qreg q[1];", "rz(1e308*10) q[0];"], 4,
                           "cannot parse angle '1e308*10': value is not finite"),
    "angle_deep_parens": ([*HEAD, "qreg q[1];", f"rz({DEEP_PARENS}) q[0];"], 4,
                          f"cannot parse angle {DEEP_PARENS!r}: nested deeper than 100"),
    "angle_deep_signs": ([*HEAD, "qreg q[1];", f"rz({DEEP_SIGNS}) q[0];"], 4,
                         f"cannot parse angle {DEEP_SIGNS!r}: nested deeper than 100"),
}


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

    def test_register_size_bound(self):
        assert parse(program("qreg q[65536];", "creg c[65536];")).circuit.n == 65536

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

    @pytest.mark.parametrize("lines, line, message", REFUSALS.values(), ids=REFUSALS)
    def test_refusal(self, lines, line, message):
        with pytest.raises(QasmError) as err:
            parse("".join(f"{text}\n" for text in lines))
        assert (err.value.line, err.value.message) == (line, message)
        assert str(err.value) == f"line {line}: {message}"


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
