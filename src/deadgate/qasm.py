"""OpenQASM-2.0 subset with a dead-qubit pragma.

Grammar (one statement per line, ';'-terminated, '//' comments):

    OPENQASM 2.0;
    include "qelib1.inc";            // optional, ignored
    qreg NAME[n];                    // exactly one quantum register
    creg NAME[m];                    // at most one classical register
    opaque NAME p0,p1,...;           // declares an uninterpreted block
    <gate> q[i],...;                 // gates: h x y z s sdg t tdg rx(a)
                                     //   ry(a) rz(a) u3(a,b,c) cx cy cz
                                     //   crz(a) ccx ccz swap, plus applied
                                     //   opaque blocks; the wires of one
                                     //   gate are distinct
    measure q[i] -> c[j];            // only after all gates; each q[i]
                                     //   and c[j] at most once
    #pragma dge discard q[i]         // outcome of wire i is discarded

A wire is dead iff it is never measured or appears in a discard pragma.
Each gate is checked once, on the line that applies it, and an error
names that line. Angles accept float literals and pi expressions
(+ - * / parentheses) whose every value is finite; serialization emits
17 significant digits so doubles round-trip. cz and ccz pick their
highest-indexed wire as the represented target, which is sound by
symmetry and keeps reports deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

# build_circuit stays a name here: perfbench's tracer wraps qasm.build_circuit
from .circuit import (  # noqa: F401
    BASE_PARAMS,
    Circuit,
    CircuitError,
    Controlled,
    Gate,
    GateKind,
    Opaque,
    SingleQubit,
    Swap,
    build_circuit,
)

DIALECT_VERSION = "dge-qasm2/1"

# name -> (base, n_qubits); parameter counts come from BASE_PARAMS, and
# controls/target wiring is handled below
_STD_GATES = {
    "h": ("H", 1), "x": ("X", 1), "y": ("Y", 1), "z": ("Z", 1),
    "s": ("S", 1), "sdg": ("Sdg", 1), "t": ("T", 1), "tdg": ("Tdg", 1),
    "rx": ("RX", 1), "ry": ("RY", 1), "rz": ("RZ", 1), "u3": ("U3", 1),
    "cx": ("X", 2), "cy": ("Y", 2), "cz": ("Z", 2),
    "crz": ("RZ", 2), "ccx": ("X", 3), "ccz": ("Z", 3),
    "swap": (None, 2),
}
# (base, number of controls) -> name of the controlled gate
_CONTROLLED_NAMES = {
    (base, nq - 1): name for name, (base, nq) in _STD_GATES.items() if base and nq > 1
}
_SYMMETRIC = {"cz", "ccz"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class QasmError(ValueError):
    """Parse or serialization failure at 1-based `line`; `message` omits it."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


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


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"':
            in_str = not in_str
        elif ch == "/" and not in_str and line.startswith("//", i):
            break
        out.append(ch)
        i += 1
    return "".join(out)


class _AngleParser:
    """Tiny recursive-descent evaluator for pi arithmetic in gate params.

    Every value must be finite, so that it serializes and parses back, and
    nesting is capped, so that the recursion cannot overflow the stack.
    """

    MAX_DEPTH = 100

    def __init__(self, text: str, line: int) -> None:
        self.toks = re.findall(r"pi|\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
                               r"|\d+(?:[eE][-+]?\d+)?|[()+\-*/]|\S", text)
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
        try:
            val = float(tok)
        except ValueError:
            raise self.fail() from None
        return self.finite(val)


def _parse_angles(text: str, line: int) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise QasmError(line, "empty gate parameter")
    return tuple(_AngleParser(p, line).parse() for p in parts)


class _Parser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.qreg: str | None = None
        self.n = 0
        self.creg: str | None = None
        self.creg_size = 0
        self.gates: list[Gate] = []
        self.measures: list[tuple[int, int]] = []
        self.used_clbits: set[int] = set()
        self.measured_wires: set[int] = set()
        self.discards: set[int] = set()
        self.opaque_decls: dict[str, int] = {}
        self.saw_header = False

    def run(self) -> SourceCircuit:
        for lineno, raw in enumerate(self.lines, start=1):
            text = _strip_comment(raw).strip()
            if not text:
                continue
            if text.startswith("#pragma"):
                self.pragma(text.rstrip(";").strip(), lineno)
                continue
            if not text.endswith(";"):
                raise QasmError(lineno, "statement must end with ';'")
            stmt = text[:-1].strip()
            if ";" in stmt:
                raise QasmError(lineno, "one statement per line")
            self.statement(stmt, lineno)
        if not self.saw_header:
            raise QasmError(1, "missing 'OPENQASM 2.0;' header")
        if self.qreg is None:
            raise QasmError(len(self.lines) or 1, "missing qreg declaration")
        dead = (frozenset(range(self.n)) - self.measured_wires) | self.discards
        return SourceCircuit(
            circuit=Circuit(self.n, tuple(self.gates), dead, tuple(range(self.n))),
            measures=tuple(self.measures),
            opaque_decls=dict(self.opaque_decls),
            qreg=self.qreg,
            creg=self.creg or "c",
            creg_size=self.creg_size,
        )

    def statement(self, stmt: str, lineno: int) -> None:
        if not self.saw_header:
            if re.fullmatch(r"OPENQASM\s+2\.0", stmt):
                self.saw_header = True
                return
            raise QasmError(lineno, "first statement must be 'OPENQASM 2.0;'")
        if stmt.startswith("include"):
            if re.fullmatch(r'include\s+"qelib1\.inc"', stmt):
                return
            raise QasmError(lineno, "only 'include \"qelib1.inc\";' is supported")
        m = re.fullmatch(r"(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]", stmt)
        if m:
            self.register(m.group(1), m.group(2), int(m.group(3)), lineno)
            return
        if stmt.startswith("opaque"):
            self.opaque_decl(stmt, lineno)
            return
        if stmt.startswith("measure"):
            self.measure(stmt, lineno)
            return
        self.gate(stmt, lineno)

    def register(self, kind: str, name: str, size: int, lineno: int) -> None:
        if kind == "qreg":
            if self.qreg is not None:
                raise QasmError(lineno, "only one qreg is supported")
            self.qreg, self.n = name, size
        else:
            if self.creg is not None:
                raise QasmError(lineno, "only one creg is supported")
            self.creg, self.creg_size = name, size

    def opaque_decl(self, stmt: str, lineno: int) -> None:
        m = re.fullmatch(r"opaque\s+([A-Za-z_][A-Za-z0-9_]*)\s+(.+)", stmt)
        if not m:
            raise QasmError(lineno, "malformed opaque declaration")
        name, formals = m.group(1), [p.strip() for p in m.group(2).split(",")]
        if name in _STD_GATES:
            raise QasmError(lineno, f"opaque name {name!r} shadows a builtin gate")
        if name in self.opaque_decls:
            raise QasmError(lineno, f"opaque {name!r} redeclared")
        if not formals or any(not _IDENT.fullmatch(p) for p in formals):
            raise QasmError(lineno, "opaque formals must be identifiers")
        self.opaque_decls[name] = len(formals)

    def qubit_ref(self, text: str, lineno: int) -> int:
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]", text.strip())
        if not m or m.group(1) != self.qreg:
            raise QasmError(lineno, f"expected {self.qreg or 'q'}[i], got {text.strip()!r}")
        idx = int(m.group(2))
        if idx >= self.n:
            raise QasmError(lineno, f"qubit index {idx} out of range (n={self.n})")
        return idx

    def measure(self, stmt: str, lineno: int) -> None:
        m = re.fullmatch(r"measure\s+(.+?)\s*->\s*(.+)", stmt)
        if not m:
            raise QasmError(lineno, "malformed measure statement")
        wire = self.qubit_ref(m.group(1), lineno)
        cm = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]", m.group(2).strip())
        if not cm or self.creg is None or cm.group(1) != self.creg:
            raise QasmError(lineno, f"expected {self.creg or 'c'}[j] measure target")
        clbit = int(cm.group(2))
        if clbit >= self.creg_size:
            raise QasmError(lineno, f"classical bit {clbit} out of range (m={self.creg_size})")
        if clbit in self.used_clbits:
            raise QasmError(lineno, f"classical bit {clbit} measured twice")
        if wire in self.measured_wires:
            # both bits would always agree, and verify reads each wire once
            raise QasmError(lineno, f"qubit {self.qreg}[{wire}] measured twice")
        self.used_clbits.add(clbit)
        self.measured_wires.add(wire)
        self.measures.append((wire, clbit))

    def pragma(self, text: str, lineno: int) -> None:
        m = re.fullmatch(r"#pragma\s+dge\s+discard\s+(.+)", text)
        if not m:
            raise QasmError(lineno, "unknown pragma (expected '#pragma dge discard q[i]')")
        if self.qreg is None:
            raise QasmError(lineno, "discard pragma before qreg declaration")
        self.discards.add(self.qubit_ref(m.group(1), lineno))

    def gate(self, stmt: str, lineno: int) -> None:
        if self.measures:
            raise QasmError(lineno, "gate after measure (mid-circuit measurement)")
        if self.qreg is None:
            raise QasmError(lineno, "gate before qreg declaration")
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*", stmt)
        if not m:
            raise QasmError(lineno, f"cannot parse statement {stmt!r}")
        name = m.group(1)
        rest = stmt[m.end():]
        param_text = None
        if rest.startswith("("):
            depth = 0
            for i, ch in enumerate(rest):
                depth += {"(": 1, ")": -1}.get(ch, 0)
                if depth == 0:
                    param_text, rest = rest[1:i], rest[i + 1 :]
                    break
            else:
                raise QasmError(lineno, "unbalanced parentheses in gate parameters")
        arg_text = rest.strip()
        args = [self.qubit_ref(a, lineno) for a in arg_text.split(",")] if arg_text.strip() else []
        if name in _STD_GATES:
            base, n_qubits = _STD_GATES[name]
            n_params = BASE_PARAMS[base] if base else 0
            params = _parse_angles(param_text, lineno) if param_text is not None else ()
            if len(params) != n_params:
                raise QasmError(lineno, f"{name} expects {n_params} parameter(s)")
            if len(args) != n_qubits:
                raise QasmError(lineno, f"{name} expects {n_qubits} qubit(s)")
            kind = self.std_kind(name, base, params, args)
        elif name in self.opaque_decls:
            if param_text is not None:
                raise QasmError(lineno, "opaque blocks take no parameters")
            if len(args) != self.opaque_decls[name]:
                raise QasmError(
                    lineno,
                    f"{name} expects {self.opaque_decls[name]} qubit(s), got {len(args)}",
                )
            kind = Opaque(name, tuple(args))
        else:
            raise QasmError(lineno, f"unknown gate {name!r}")
        if len(set(args)) != len(args):
            raise QasmError(lineno, f"duplicate qubit in {name}")
        self.gates.append(Gate(len(self.gates), kind))

    def std_kind(
        self, name: str, base: str | None, params: tuple[float, ...], args: list[int]
    ) -> GateKind:
        if name == "swap":
            return Swap(args[0], args[1])
        if len(args) == 1:
            return SingleQubit(base, args[0], params)
        if name in _SYMMETRIC:
            target = max(args)
            controls = tuple(a for a in args if a != target)
        else:
            target = args[-1]
            controls = tuple(args[:-1])
        return Controlled(base, controls, target, params)


def parse(text: str) -> SourceCircuit:
    """Parse dialect source into a circuit plus measurement tables."""
    return _Parser(text).run()


def _fmt_angle(x: float) -> str:
    return f"{x:.17g}"


def gate_statement(kind: GateKind, qreg: str) -> str:
    """The dialect statement applying `kind`, without the trailing ';'."""
    def q(i: int) -> str:
        return f"{qreg}[{i}]"

    if isinstance(kind, SingleQubit):
        name = kind.base.lower()
        params = f"({','.join(_fmt_angle(p) for p in kind.params)})" if kind.params else ""
        return f"{name}{params} {q(kind.qubit)}"
    if isinstance(kind, Swap):
        return f"swap {q(kind.a)},{q(kind.b)}"
    if isinstance(kind, Opaque):
        return f"{kind.label} " + ",".join(q(w) for w in kind.wires)
    assert isinstance(kind, Controlled)
    nc = len(kind.controls)
    name = _CONTROLLED_NAMES.get((kind.base, nc))
    if name is None:
        raise CircuitError(
            f"controlled {kind.base} with {nc} control(s) has no dialect statement"
        )
    params = f"({','.join(_fmt_angle(p) for p in kind.params)})" if kind.params else ""
    if name in _SYMMETRIC:
        wires = sorted(kind.qubits())
    else:
        wires = [*kind.controls, kind.target]
    return f"{name}{params} " + ",".join(q(w) for w in wires)


def serialize(sc: SourceCircuit, outcome_map: tuple[int, ...] | None = None) -> str:
    """Emit dialect source; measure wires are routed through the outcome map."""
    om = outcome_map if outcome_map is not None else sc.circuit.outcome_map
    c = sc.circuit
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg {sc.qreg}[{c.n}];"]
    if sc.creg_size or sc.measures:
        lines.append(f"creg {sc.creg}[{sc.creg_size}];")
    for label in sorted(sc.opaque_decls):
        formals = ",".join(f"p{i}" for i in range(sc.opaque_decls[label]))
        lines.append(f"opaque {label} {formals};")
    for g in c.gates:
        lines.append(gate_statement(g.kind, sc.qreg) + ";")
    for wire, clbit in sc.measures:
        lines.append(f"measure {sc.qreg}[{om[wire]}] -> {sc.creg}[{clbit}];")
    for wire in sorted(c.dead):
        lines.append(f"#pragma dge discard {sc.qreg}[{wire}]")
    return "\n".join(lines) + "\n"
