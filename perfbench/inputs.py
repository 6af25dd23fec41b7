"""Seeded QASM inputs for the benchmark, generated apart from deadgate.

Every program is a plain gate list in the benchmark's own form, so the
removal reference and the dense simulator read the same gates the
program parses. A gate is a tuple ``(op, angles, wires)``: ``op`` is the
dialect name or an opaque label, ``angles`` the angle expressions as
written to the file, ``wires`` the qubit indices as written.

Sizes, widths and flags follow fixed schedules; the seed only draws gate
content and dead wires, so every seed yields the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SINGLE = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
ROTATIONS = ("rx", "ry", "rz")
CONTROLLED = ("cx", "cy", "cz", "crz", "ccx", "ccz")
SYMMETRIC = ("cz", "ccz")
ARITY = {"cx": 2, "cy": 2, "cz": 2, "crz": 2, "ccx": 3, "ccz": 3}
_PI_FORMS = ("pi/{a}", "-pi/{a}", "{b}*pi/{a}", "-{b}*pi/{a}", "pi/{a}+0.{b}5",
             "({b}*pi-0.25)/{a}", "0.{b}{a}", "-{b}.5e-1")


@dataclass
class Program:
    """One QASM program plus the optimize flags it is run with."""

    name: str
    n: int
    gates: list = field(default_factory=list)
    measures: list = field(default_factory=list)  # (wire, clbit), source order
    discards: list = field(default_factory=list)
    opaque: dict = field(default_factory=dict)  # label -> arity
    flags: tuple = ()

    @property
    def dead(self) -> frozenset:
        measured = {w for w, _ in self.measures}
        return frozenset(set(range(self.n)) - measured) | frozenset(self.discards)

    def text(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n}];"]
        if self.measures:
            lines.append(f"creg c[{self.n}];")
        for label, arity in sorted(self.opaque.items()):
            lines.append(f"opaque {label} " + ",".join(f"p{i}" for i in range(arity)) + ";")
        lines.extend(gate_line(g) for g in self.gates)
        lines.extend(f"measure q[{w}] -> c[{c}];" for w, c in self.measures)
        lines.extend(f"#pragma dge discard q[{w}]" for w in self.discards)
        return "\n".join(lines) + "\n"


def gate_line(gate) -> str:
    op, angles, wires = gate
    params = f"({','.join(angles)})" if angles else ""
    return f"{op}{params} " + ",".join(f"q[{w}]" for w in wires) + ";"


def angle_value(text: str) -> float:
    """Value of an angle expression written by this module."""
    return float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))


def _angle(rng) -> str:
    form = _PI_FORMS[int(rng.integers(len(_PI_FORMS)))]
    return form.format(a=int(rng.integers(1, 9)), b=int(rng.integers(1, 8)))


def _distinct(rng, n: int, k: int) -> tuple:
    return tuple(int(q) for q in rng.choice(n, size=k, replace=False))


def random_gate(rng, n: int, opaque: dict | None = None):
    """One gate on uniform wires: 1q, rotation, u3, controlled, swap or opaque."""
    r = rng.random()
    if r < 0.25:
        return (SINGLE[int(rng.integers(len(SINGLE)))], (), (int(rng.integers(n)),))
    if r < 0.40:
        op = ROTATIONS[int(rng.integers(len(ROTATIONS)))]
        return (op, (_angle(rng),), (int(rng.integers(n)),))
    if r < 0.43:
        return ("u3", (_angle(rng), _angle(rng), _angle(rng)), (int(rng.integers(n)),))
    if r < 0.88:
        op = CONTROLLED[int(rng.integers(len(CONTROLLED)))] if rng.random() < 0.5 else "cx"
        if ARITY[op] > n:
            op = "cx"
        angles = (_angle(rng),) if op == "crz" else ()
        return (op, angles, _distinct(rng, n, ARITY[op]))
    if r < 0.98 or not opaque:
        return ("swap", (), _distinct(rng, n, 2))
    label = sorted(opaque)[int(rng.integers(len(opaque)))]
    return (label, (), _distinct(rng, n, opaque[label]))


def _measure_and_discard(prog: Program, rng, dead: list[int]) -> None:
    """Measure every wire not in `dead` to a shuffled bit; half of the
    dead wires stay unmeasured, the other half are measured and discarded."""
    bits = [int(b) for b in rng.permutation(prog.n)]
    for i, w in enumerate(dead):
        if i % 2:
            prog.discards.append(w)
    unmeasured = {w for i, w in enumerate(dead) if i % 2 == 0}
    prog.measures = [(w, bits[w]) for w in range(prog.n) if w not in unmeasured]
    prog.discards.sort()


def dead_tail(rng, n: int, dead: set[int], length: int, flags: tuple, chain_share: float):
    """A tail of `length` gates that the rules R1-R4 remove completely,
    behind a fence that stops removal there.

    Built back to front: each gate is drawn so that it is removable given
    the dead set the frontier sweep has reached at that point, and a SWAP
    with one dead end moves the deadness, as rule R3 does. A `chain_share`
    of the gates go on one dead wire, which follows the SWAPs that move
    it, so the tail holds one long chain of seed-independent length. The
    fence puts, on each wire dead where the tail starts, a CX controlled
    by it onto a live wire: no rule removes that CX, so no gate before it
    on a dead wire is removable and exactly `length` gates go, whatever
    the seed.
    """
    extended = "--extended" in flags
    relabel = "--no-swap-relabel" not in flags
    dead = set(dead)
    chain = min(dead)
    rev = []
    while len(rev) < length:
        live = [q for q in range(n) if q not in dead]
        r = rng.random()
        if r < chain_share:
            rev.append(random_single(rng, chain))
        elif r < chain_share + 0.12:
            target = sorted(dead)[int(rng.integers(len(dead)))]
            rev.append(_controlled_on(rng, n, target))
        elif r < chain_share + 0.2 and relabel and live:
            d = sorted(dead)[int(rng.integers(len(dead)))]
            l = live[int(rng.integers(len(live)))]
            rev.append(("swap", (), (d, l) if rng.random() < 0.5 else (l, d)))
            dead = (dead - {d}) | {l}
            chain = l if d == chain else chain
        elif extended and len(dead) >= 2:
            pair = tuple(int(q) for q in rng.choice(sorted(dead), size=2, replace=False))
            rev.append(("swap", (), pair) if not relabel and rng.random() < 0.5
                       else ("junk", (), pair))
        else:
            rev.append(random_single(rng, sorted(dead)[int(rng.integers(len(dead)))]))
    live = [q for q in range(n) if q not in dead]
    fence = [("cx", (), (d, live[int(rng.integers(len(live)))])) for d in sorted(dead)]
    return fence + rev[::-1]


def random_single(rng, wire: int):
    if rng.random() < 0.6:
        return (SINGLE[int(rng.integers(len(SINGLE)))], (), (wire,))
    return (ROTATIONS[int(rng.integers(len(ROTATIONS)))], (_angle(rng),), (wire,))


def _controlled_on(rng, n: int, target: int):
    """A controlled gate that the program represents with `target` as target."""
    op = ("cx", "cy", "crz", "ccx", "cz", "ccz")[int(rng.integers(6))]
    others = [q for q in range(n) if q != target]
    if op in SYMMETRIC:
        others = [q for q in others if q < target]  # target is the highest wire
        if len(others) < ARITY[op] - 1:
            op = "cx"
            others = [q for q in range(n) if q != target]
    ctrls = tuple(int(q) for q in rng.choice(others, size=ARITY[op] - 1, replace=False))
    angles = (_angle(rng),) if op == "crz" else ()
    if op in SYMMETRIC:
        wires = list(ctrls) + [target]
        rng.shuffle(wires)
        return (op, angles, tuple(int(q) for q in wires))
    return (op, angles, ctrls + (target,))


# Widths and gate counts: every pass parses 39.5k gates. Odd count, so the
# median operation is the middle file.
LIVE_SCHEDULE = ((16, 1500), (20, 2000), (24, 3000), (28, 4000), (32, 6000),
                 (36, 9000), (40, 14000))
LIVE_TAIL = 4


def live_programs(seed: int) -> list[Program]:
    """Wide random programs with one to three dead wires: almost nothing is
    removable, so parse and serialize carry the time. A short removable
    tail of LIVE_TAIL gates is all that goes."""
    out = []
    for i, (n, g) in enumerate(LIVE_SCHEDULE):
        rng = np.random.default_rng([seed, 1, i])
        opaque = {"blk": 2, "tri": 3}
        prog = Program(f"live{i}_{n}q", n, opaque=opaque)
        dead = sorted(_distinct(rng, n, 1 + i % 3))
        prog.gates = [random_gate(rng, n, opaque) for _ in range(g - LIVE_TAIL - len(dead))]
        prog.gates += dead_tail(rng, n, set(dead), LIVE_TAIL, (), chain_share=0.0)
        _measure_and_discard(prog, rng, dead)
        out.append(prog)
    return out


# (width, live prefix gates, dead tail gates, optimize flags)
TAIL_SCHEDULE = (
    (12, 400, 400, ()),
    (14, 400, 520, ("--extended",)),
    (10, 400, 640, ("--no-swap-relabel",)),
    (16, 400, 800, ()),
    (12, 400, 960, ("--extended", "--no-swap-relabel")),
    (14, 400, 1120, ("--extended",)),
    (16, 400, 1360, ()),
)


def dead_tail_programs(seed: int) -> list[Program]:
    """A live random prefix followed by a long fully removable tail: the
    frontier sweep's cost grows with the square of the tail length."""
    out = []
    for i, (n, prefix, tail, flags) in enumerate(TAIL_SCHEDULE):
        rng = np.random.default_rng([seed, 2, i])
        opaque = {"junk": 2}
        prog = Program(f"tail{i}_{n}q_{tail}", n, opaque=opaque, flags=flags)
        dead = sorted(_distinct(rng, n, 2 + i % 2))
        prog.gates = [random_gate(rng, n) for _ in range(prefix)]
        prog.gates += dead_tail(rng, n, set(dead), tail, flags, chain_share=0.7)
        _measure_and_discard(prog, rng, dead)
        out.append(prog)
    return out


# Widths and gate counts for the optimize-then-verify pairs; the gate count
# falls with the width so that each pair costs about the same.
VERIFY_SCHEDULE = ((6, 64), (7, 64), (8, 60), (9, 56), (10, 36), (11, 32), (12, 16))


def verify_programs(seed: int) -> list[Program]:
    """Random programs at 6-12 qubits whose tail holds removable gates,
    SWAP relabels among them, so the optimized output moves measures."""
    out = []
    for rep in range(2):
        for i, (n, g) in enumerate(VERIFY_SCHEDULE):
            rng = np.random.default_rng([seed, 3, rep, i])
            opaque = {"blk": 2, "junk": 2}
            flags = ("--extended",) if (i + rep) % 3 == 0 else ()
            prog = Program(f"verify{rep}_{n}q", n, opaque=opaque, flags=flags)
            dead = sorted(_distinct(rng, n, 1 + (i + rep) % 3))
            prog.gates = [random_gate(rng, n, opaque) for _ in range(g)]
            prog.gates += dead_tail(rng, n, set(dead), g // 4, flags, chain_share=0.3)
            _measure_and_discard(prog, rng, dead)
            out.append(prog)
    return out


def mutate_kept(prog: Program, index: int) -> Program:
    """Copy of `prog` with gate `index`, a one-qubit gate, replaced by a
    different one on the same wire."""
    op, _, wires = prog.gates[index]
    new = ("ry", ("pi/3",), wires) if op != "ry" else ("x", (), wires)
    gates = list(prog.gates)
    gates[index] = new
    return Program(prog.name + "_mut", prog.n, gates, list(prog.measures),
                   list(prog.discards), dict(prog.opaque), prog.flags)


# The paper's instances and counterexamples, written out here so that a
# change to deadgate.fixtures cannot change the benchmark's inputs.

def three_qubit_example() -> Program:
    return Program("three_qubit", 3, [
        ("U_3", (), (0, 1, 2)), ("cx", (), (1, 0)), ("W_1", (), (2,)),
        ("ccx", (), (1, 2, 0)), ("cy", (), (2, 0)),
    ], measures=[(1, 1), (2, 2)], opaque={"U_3": 3, "W_1": 1})


def three_qubit_simplified() -> Program:
    return Program("three_qubit_simplified", 3, [
        ("U_3", (), (0, 1, 2)), ("W_1", (), (2,)),
    ], measures=[(1, 1), (2, 2)], opaque={"U_3": 3, "W_1": 1})


_VQE_THETAS = tuple(f"0.{j}" for j in range(1, 9))


def vqe_a1() -> Program:
    t = _VQE_THETAS
    gates = [("U_4", (), (0, 1, 2, 3))]
    for q in range(4):
        gates += [("rz", (t[2 * q],), (q,)), ("ry", (t[2 * q + 1],), (q,))]
    gates += [("cz", (), (0, 1)), ("cx", (), (2, 0)), ("cx", (), (3, 1))]
    return Program("vqe_a1", 4, gates, [(q, q) for q in range(4)], [0, 1], {"U_4": 4})


def vqe_a2() -> Program:
    t = _VQE_THETAS
    gates = [("U_4", (), (0, 1, 2, 3))]
    for q in (2, 3):
        gates += [("rz", (t[2 * q],), (q,)), ("ry", (t[2 * q + 1],), (q,))]
    return Program("vqe_a2", 4, gates, [(q, q) for q in range(4)], [0, 1], {"U_4": 4})


def qpe(m: int, r: int = 2) -> Program:
    n = m + 1 + r
    gates = [("U", (), tuple(range(n))), ("QFTf", (), tuple(range(m + 1)))]
    gates += [("crz", (f"-pi/{2 ** j}",), (j, 0)) for j in range(m, 0, -1)]
    gates.append(("h", (), (0,)))
    return Program(f"qpe_m{m}", n, gates, [(i, i) for i in range(m + 1)], [0],
                   {"U": n, "QFTf": m + 1})


def _two_qubit(name: str, gates, opaque=None) -> Program:
    return Program(name, 2, list(gates), [(1, 1)], [], dict(opaque or {}))


def blocked_controlled() -> Program:
    return _two_qubit("blocked_controlled", [("U_2", (), (0, 1)), ("cy", (), (1, 0)),
                                             ("W", (), (1,))], {"U_2": 2, "W": 1})


def blocked_controlled_invalid() -> Program:
    return _two_qubit("blocked_controlled_invalid", [("U_2", (), (0, 1)), ("W", (), (1,))],
                      {"U_2": 2, "W": 1})


def cz_blocked() -> Program:
    return _two_qubit("cz_blocked", [("cz", (), (0, 1)), ("h", (), (1,))])


def cz_blocked_invalid() -> Program:
    return _two_qubit("cz_blocked_invalid", [("h", (), (1,))])


def cnot() -> Program:
    return _two_qubit("cnot", [("cx", (), (0, 1))])


def empty_two_qubit() -> Program:
    return _two_qubit("empty_two_qubit", [])


def known_pairs() -> list[tuple[Program, Program, bool]]:
    """(A, B, equivalent) for the paper's hand simplifications and the
    known-inequivalent counterexamples."""
    return [
        (three_qubit_example(), three_qubit_simplified(), True),
        (vqe_a1(), vqe_a2(), True),
        (blocked_controlled(), blocked_controlled_invalid(), False),
        (cz_blocked(), cz_blocked_invalid(), False),
        (cnot(), empty_two_qubit(), False),
    ]


# bench slices: (widths, dead mode, programs, blocks, gate multiplier,
# 1q fraction, palette). The acceptance sweep's shape, cut down: its dead
# modes, the CLI's default gate multiplier, 1q fraction and palette, and
# spot-verify at its default fraction, which with 20 blocks per width is
# one oracle check at each width of at most 10, as in the full sweep. Each
# slice pairs its small widths with large ones so that generation and
# spot-verify take about equal time, as they do across the full sweep.
BENCH_SLICES = (
    ("2,4,20,40", "fixed:1", 1, 20, 100, "0.1", "cx,cz,swap"),
    ("6,32,38", "pct:10", 1, 20, 100, "0.1", "cx,cz,swap"),
    ("8,24,36,40", "pct:20", 1, 20, 100, "0.1", "cx,cz,swap"),
)
