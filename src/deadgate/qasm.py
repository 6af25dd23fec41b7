"""OpenQASM-2.0 subset with a dead-qubit pragma.

Grammar (one statement per line, ';'-terminated, '//' comments):

    OPENQASM 2.0;
    include "qelib1.inc";            // optional, ignored
    qreg NAME[n];                    // exactly one quantum register, n <= 65536
    creg NAME[m];                    // at most one classical register, m <= 65536
    opaque NAME p0,p1,...;           // declares an uninterpreted block
    <gate> q[i],...;                 // gates: h x y z s sdg t tdg rx(a)
                                     //   ry(a) rz(a) u3(a,b,c) cx cy cz
                                     //   crz(a) ccx ccz swap, plus applied
                                     //   opaque blocks; the wires of one
                                     //   gate are distinct
    measure q[i] -> c[j];            // only after all gates; each q[i]
                                     //   and c[j] at most once
    #pragma dge discard q[i]         // outcome of wire i is discarded

Only a newline ends a line (a text-mode read makes one of CR LF and CR),
and '//' always starts a comment. A statement's whole first word picks
its kind, so OPENQASM, include, qreg, creg, opaque and measure name no
opaque block. A wire is dead iff it is never measured or appears in a
discard pragma. Each gate is checked once, on the line that applies it,
and an error names that line. One parse reads each distinct gate
statement once: a repeat reuses the kind the first one gave, so the
gates of a parsed circuit may share kind objects, and a statement not
seen before still reuses the qubit references and angles already read.
Angles accept float literals and pi expressions (+ - * / parentheses)
whose every value is finite; serialization emits 17 significant digits
so doubles round-trip. The gate names, their wiring and their text are
those of `circuit.NAMED_GATES`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

from .circuit import (
    BASE_PARAMS,
    NAMED_GATES,
    Circuit,
    Gate,
    GateKind,
    Opaque,
    dialect_form,
    named_kind,
)
# build_circuit stays a name here: perfbench's tracer wraps qasm.build_circuit
from .circuit import build_circuit  # noqa: F401

DIALECT_VERSION = "dge-qasm2/1"

_KEYWORDS = {"OPENQASM", "include", "qreg", "creg", "opaque", "measure"}
# a larger register is refused: every command allocates per declared wire
MAX_REGISTER = 65536

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# digits are ASCII: in a str pattern \d matches every Unicode decimal digit
_REF = re.compile(rf"({_NAME})\s*\[\s*([0-9]+)\s*\]")  # registers and q[i], c[j]
# a gate's parameters run to the last ')', as qubit arguments have none
_GATE = re.compile(rf"({_NAME})\s*(?:\((.*)\))?(.*)")
_HEADER = re.compile(r"OPENQASM\s+2\.0")
_INCLUDE = re.compile(r'include\s+"qelib1\.inc"')
_OPAQUE = re.compile(rf"opaque\s+({_NAME})\s+(.+)")
_FORMALS = re.compile(rf"{_NAME}(?:\s*,\s*{_NAME})*")
_MEASURE = re.compile(r"measure\s+(.+?)\s*->\s*(.+)")
_PRAGMA = re.compile(r"#pragma\s+dge\s+discard\s+(.+)")
_NUMBER = re.compile(r"[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?|\.[0-9]+(?:[eE][-+]?[0-9]+)?"
                     r"|[0-9]+(?:[eE][-+]?[0-9]+)?")
_ANGLE_TOKEN = re.compile(rf"pi|{_NUMBER.pattern}|[()+\-*/]|\S")


class QasmError(ValueError):
    """Parse or serialization failure at 1-based `line`; `message` omits it."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _int(digits: str) -> int:
    """A register size or index, or MAX_REGISTER + 1 for any larger one: int()
    never sees more digits than a valid one has, whatever its own limit."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(MAX_REGISTER)) else MAX_REGISTER + 1


@dataclass
class SourceCircuit:
    """A parsed program: circuit plus its measurement and opaque tables."""

    circuit: Circuit
    measures: tuple[tuple[int, int], ...]  # (wire, classical bit), source order
    opaque_decls: dict[str, int]  # label -> arity
    qreg: str = "q"
    creg: str = "c"
    creg_size: int = 0

    def with_circuit(self, circuit: Circuit) -> "SourceCircuit":
        return replace(self, circuit=circuit)


class _AngleParser:
    """Tiny recursive-descent evaluator for pi arithmetic in gate params.

    Every value must be finite, so that it serializes and parses back, and
    nesting is capped, so that the recursion cannot overflow the stack.
    """

    MAX_DEPTH = 100

    def __init__(self, text: str, line: int) -> None:
        self.toks = _ANGLE_TOKEN.findall(text)
        self.pos = 0
        self.depth = 0
        self.line = line
        self.text = text

    def fail(self, why: str = "") -> QasmError:
        return QasmError(self.line, f"cannot parse angle {self.text!r}" + why)

    def finite(self, val: float) -> float:
        if not math.isfinite(val):
            raise self.fail(": value is not finite")
        return val

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.fail()
        self.pos += 1
        return tok

    def parse(self) -> float:
        val = self.expr()
        if self.pos != len(self.toks):
            raise self.fail()
        return val

    def expr(self) -> float:
        val = self.term()
        while self.peek() in ("+", "-"):
            if self.next() == "+":
                val = self.finite(val + self.term())
            else:
                val = self.finite(val - self.term())
        return val

    def term(self) -> float:
        val = self.factor()
        while self.peek() in ("*", "/"):
            if self.next() == "*":
                val = self.finite(val * self.factor())
            else:
                divisor = self.factor()
                if divisor == 0:
                    raise self.fail(": division by zero")
                val = self.finite(val / divisor)
        return val

    def factor(self) -> float:
        tok = self.next()
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > self.MAX_DEPTH:
                raise self.fail(f": nested deeper than {self.MAX_DEPTH}")
            if tok == "(":
                val = self.expr()
                if self.next() != ")":
                    raise self.fail()
            else:
                val = self.factor()
            self.depth -= 1
            return -val if tok == "-" else val
        if tok == "pi":
            return math.pi
        # float() would also read a lone non-ASCII digit, which \S yields
        if not _NUMBER.fullmatch(tok):
            raise self.fail()
        return self.finite(float(tok))


def _parse_angles(text: str, line: int, known: dict[str, float]) -> tuple[float, ...]:
    """The parameters in `text`; `known` maps each parameter text already
    read to its value and gains the ones read here."""
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise QasmError(line, "empty gate parameter")
    values = []
    for part in parts:
        value = known.get(part)
        if value is None:
            value = known[part] = _AngleParser(part, line).parse()
        values.append(value)
    return tuple(values)


class _Parser:
    def __init__(self) -> None:
        self.qreg: str | None = None
        self.n = 0
        self.creg: str | None = None
        self.creg_size = 0
        self.gates: list[Gate] = []  # one per gate statement, in order
        self.measures: list[tuple[int, int]] = []
        self.used_clbits: set[int] = set()
        self.measured_wires: set[int] = set()
        self.discards: set[int] = set()
        self.opaque_decls: dict[str, int] = {}
        # What this parse has already read, keyed on its text: gate
        # statements (their gate, which every repeat reuses), qubit
        # references and angles. Only successes are kept, so an error is
        # raised where its text first fails. The qreg, its width and each
        # declared name are fixed once read, so a text seen again reads as
        # it did the first time.
        self.known: dict[str, Gate] = {}
        self.refs: dict[str, int] = {}
        self.angles: dict[str, float] = {}

    def statements(self, text: str):
        """(line, text without ';') per statement; pragmas are read here."""
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.partition("//")[0].strip()
            if not line:
                continue
            if line.startswith("#pragma"):
                self.pragma(line.rstrip(";").strip(), lineno)
            elif not line.endswith(";"):
                raise QasmError(lineno, "statement must end with ';'")
            elif ";" in line[:-1]:
                raise QasmError(lineno, "one statement per line")
            else:
                yield lineno, line[:-1].strip()

    def run(self, text: str) -> SourceCircuit:
        statements = self.statements(text)
        lineno, stmt = next(statements, (1, None))
        if stmt is None:
            raise QasmError(1, "missing 'OPENQASM 2.0;' header")
        if not _HEADER.fullmatch(stmt):
            raise QasmError(lineno, "first statement must be 'OPENQASM 2.0;'")
        for lineno, stmt in statements:
            gate = self.known.get(stmt)
            # after a measure, a gate is refused on its own line below
            if gate is not None and not self.measures:
                self.gates.append(gate)
                continue
            m = _GATE.match(stmt)
            word = m and m[1]
            if word == "include":
                if not _INCLUDE.fullmatch(stmt):
                    raise QasmError(lineno, "only 'include \"qelib1.inc\";' is supported")
            elif word in ("qreg", "creg"):
                self.register(word, stmt, lineno)
            elif word == "opaque":
                self.opaque_decl(stmt, lineno)
            elif word == "measure":
                self.measure(stmt, lineno)
            else:
                self.gate(m, stmt, lineno)
        if self.qreg is None:
            lines = text.count("\n") + (not text.endswith("\n"))
            raise QasmError(lines, "missing qreg declaration")
        dead = (frozenset(range(self.n)) - self.measured_wires) | self.discards
        return SourceCircuit(
            circuit=Circuit(self.n, tuple(self.gates), dead, tuple(range(self.n))),
            measures=tuple(self.measures),
            opaque_decls=dict(self.opaque_decls),
            qreg=self.qreg,
            creg=self.creg or "c",
            creg_size=self.creg_size,
        )

    def register(self, kind: str, stmt: str, lineno: int) -> None:
        m = _REF.fullmatch(stmt[len(kind):].strip())
        if not m:
            raise QasmError(lineno, f"malformed {kind} declaration")
        size = _int(m[2])
        if size > MAX_REGISTER:
            raise QasmError(lineno, f"{kind} size {m[2]} above the maximum of {MAX_REGISTER}")
        if kind == "qreg":
            if self.qreg is not None:
                raise QasmError(lineno, "only one qreg is supported")
            self.qreg, self.n = m[1], size
        else:
            if self.creg is not None:
                raise QasmError(lineno, "only one creg is supported")
            self.creg, self.creg_size = m[1], size

    def opaque_decl(self, stmt: str, lineno: int) -> None:
        m = _OPAQUE.fullmatch(stmt)
        if not m:
            raise QasmError(lineno, "malformed opaque declaration")
        name = m[1]
        if name in NAMED_GATES:
            raise QasmError(lineno, f"opaque name {name!r} shadows a builtin gate")
        if name in _KEYWORDS:
            raise QasmError(lineno, f"opaque name {name!r} is a reserved word")
        if name in self.opaque_decls:
            raise QasmError(lineno, f"opaque {name!r} redeclared")
        if not _FORMALS.fullmatch(m[2]):
            raise QasmError(lineno, "opaque formals must be identifiers")
        self.opaque_decls[name] = m[2].count(",") + 1

    def qubit_ref(self, text: str, lineno: int) -> int:
        idx = self.refs.get(text)
        if idx is not None:
            return idx
        m = _REF.fullmatch(text.strip())
        if not m or m[1] != self.qreg:
            raise QasmError(lineno, f"expected {self.qreg or 'q'}[i], got {text.strip()!r}")
        idx = _int(m[2])
        if idx >= self.n:
            raise QasmError(lineno, f"qubit index {m[2]} out of range (n={self.n})")
        self.refs[text] = idx
        return idx

    def measure(self, stmt: str, lineno: int) -> None:
        m = _MEASURE.fullmatch(stmt)
        if not m:
            raise QasmError(lineno, "malformed measure statement")
        if self.qreg is None:
            raise QasmError(lineno, "measure before qreg declaration")
        wire = self.qubit_ref(m[1], lineno)
        cm = _REF.fullmatch(m[2].strip())
        if not cm or self.creg is None or cm[1] != self.creg:
            raise QasmError(lineno, f"expected {self.creg or 'c'}[j] measure target")
        clbit = _int(cm[2])
        if clbit >= self.creg_size:
            raise QasmError(lineno, f"classical bit {cm[2]} out of range (m={self.creg_size})")
        if clbit in self.used_clbits:
            raise QasmError(lineno, f"classical bit {clbit} measured twice")
        if wire in self.measured_wires:
            # both bits would always agree, and verify reads each wire once
            raise QasmError(lineno, f"qubit {self.qreg}[{wire}] measured twice")
        self.used_clbits.add(clbit)
        self.measured_wires.add(wire)
        self.measures.append((wire, clbit))

    def pragma(self, text: str, lineno: int) -> None:
        m = _PRAGMA.fullmatch(text)
        if not m:
            raise QasmError(lineno, "unknown pragma (expected '#pragma dge discard q[i]')")
        if self.qreg is None:
            raise QasmError(lineno, "discard pragma before qreg declaration")
        self.discards.add(self.qubit_ref(m[1], lineno))

    def gate(self, m: re.Match | None, stmt: str, lineno: int) -> None:
        if self.measures:
            raise QasmError(lineno, "gate after measure (mid-circuit measurement)")
        if self.qreg is None:
            raise QasmError(lineno, "gate before qreg declaration")
        if not m:
            raise QasmError(lineno, f"cannot parse statement {stmt!r}")
        name, param_text, arg_text = m[1], m[2], m[3].strip()
        args = tuple([self.qubit_ref(a, lineno) for a in arg_text.split(",")]) if arg_text else ()
        if name in NAMED_GATES:
            base, controls = NAMED_GATES[name]
            n_params = BASE_PARAMS[base] if base else 0
            n_qubits = controls + 1
            params = (
                _parse_angles(param_text, lineno, self.angles) if param_text is not None else ()
            )
            if len(params) != n_params:
                raise QasmError(lineno, f"{name} expects {n_params} parameter(s)")
            if len(args) != n_qubits:
                raise QasmError(lineno, f"{name} expects {n_qubits} qubit(s)")
            kind = named_kind(name, args, params)
        elif name in self.opaque_decls:
            if param_text is not None:
                raise QasmError(lineno, "opaque blocks take no parameters")
            arity = self.opaque_decls[name]
            if len(args) != arity:
                raise QasmError(lineno, f"{name} expects {arity} qubit(s), got {len(args)}")
            kind = Opaque(name, args)
        else:
            raise QasmError(lineno, f"unknown gate {name!r}")
        if len(set(args)) != len(args):
            raise QasmError(lineno, f"duplicate qubit in {name}")
        gate = self.known[stmt] = Gate(kind)
        self.gates.append(gate)


def parse(text: str) -> SourceCircuit:
    """Parse dialect source into a circuit plus measurement tables."""
    return _Parser().run(text)


def gate_statement(kind: GateKind, qreg: str) -> str:
    """The dialect statement applying `kind`, without the trailing ';'."""
    head, wires = dialect_form(kind)
    if len(wires) == 1:
        return f"{head} {qreg}[{wires[0]}]"
    return f"{head} " + ",".join([f"{qreg}[{w}]" for w in wires])


def serialize(sc: SourceCircuit) -> str:
    """Emit dialect source; measure wires are routed through the circuit's
    outcome map."""
    c = sc.circuit
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg {sc.qreg}[{c.n}];"]
    if sc.creg_size or sc.measures:
        lines.append(f"creg {sc.creg}[{sc.creg_size}];")
    for label in sorted(sc.opaque_decls):
        formals = ",".join(f"p{i}" for i in range(sc.opaque_decls[label]))
        lines.append(f"opaque {label} {formals};")
    # id -> (kind, statement): a parse gives the repeats of a statement
    # one gate, so one kind, and holding the kind keeps its id from being
    # reused while the call runs
    done: dict[int, tuple[GateKind, str]] = {}
    for g in c.gates:
        kind = g.kind
        known = done.get(id(kind))
        if known is None:
            known = done[id(kind)] = (kind, gate_statement(kind, sc.qreg) + ";")
        lines.append(known[1])
    for wire, clbit in sc.measures:
        lines.append(f"measure {sc.qreg}[{c.outcome_map[wire]}] -> {sc.creg}[{clbit}];")
    for wire in sorted(c.dead):
        lines.append(f"#pragma dge discard {sc.qreg}[{wire}]")
    return "\n".join(lines) + "\n"
