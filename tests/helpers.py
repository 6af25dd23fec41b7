"""Test-only helpers around the oracle and the QASM writer.

`check_marginal_equiv` takes explicit wire lists; `kept_wires` and
`paired_wires` build the two comparisons the tests make: kept wires
against kept wires, and kept wires read through a dead-wire pairing.
`simulate` and `basis_state` run one circuit on one input state, and
`source_from_circuit` wraps a bare circuit so it can be serialized.
`simulate` and `marginal` share no code with the oracle: their gate
matrices are written from the gates' definitions, each gate is applied
by moving its wires to the front, and outcome probabilities are summed
with `einsum`. `reference_marginal_equiv` is the oracle's check one
sample at a time, each circuit simulated whole, on input states drawn
here by the oracle's recipe from the oracle's seeds (`random_state`).
Run on the circuits themselves it is the verdict reference for the
oracle; run on `reduced_pair`'s circuits, which hold only what the
oracle simulates, it must match the oracle's worst gap and witness to
rounding.
`eager_random_circuit` is the bench generator building every gate up
front, from the arrays `generator_draws` redraws: the reference for its
lazily built gate sequence. `mutants` draws
byte-mutated copies of the `fixtures` programs, the inputs on
which the parser must be total. `programs` draws valid programs, the
inputs the parser must accept. `dead_circuits` draws built circuits with a
dead set, among them opaque blocks, controlled gates and SWAP chains.
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import strategies as st

from deadgate import oracle
from deadgate.bench import _ONE_QUBIT, DEFAULT_PALETTE
from deadgate.circuit import (
    BASE_PARAMS, Circuit, CircuitError, Controlled, GateKind, Opaque, SingleQubit, Swap,
    build_circuit,
)
from deadgate.qasm import SourceCircuit

import fixtures


def kept_wires(c: Circuit) -> list[int]:
    """The circuit's kept (not dead) wires, ascending."""
    return [q for q in range(c.n) if q not in c.dead]


def paired_wires(c: Circuit, pairing: dict[int, int]) -> tuple[list[int], list[int]]:
    """c's kept wires, and the wires to read the other circuit on.

    `pairing` maps each wire dead only in c to its replacement dead only in
    the other circuit; the replacement's partner is read in its place.
    """
    subst = {j: i for i, j in pairing.items()}
    kept = kept_wires(c)
    return kept, [subst.get(q, q) for q in kept]


def basis_state(bits: str) -> np.ndarray:
    """Amplitudes of a computational basis state, bits given q0-first."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return amps


def _phase(angle: float) -> np.ndarray:
    return np.diag([1, np.exp(1j * angle)])


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": _phase(np.pi),
}
_FIXED = {
    **_PAULI,
    "H": (_PAULI["X"] + _PAULI["Z"]) / np.sqrt(2),
    "S": _phase(np.pi / 2), "Sdg": _phase(-np.pi / 2),
    "T": _phase(np.pi / 4), "Tdg": _phase(-np.pi / 4),
}


def _rotation(axis: str, t: float) -> np.ndarray:
    """exp(-i t P / 2) for the Pauli P named by `axis`."""
    return np.cos(t / 2) * _PAULI["I"] - 1j * np.sin(t / 2) * _PAULI[axis]


def gate_matrix(base: str, params=()) -> np.ndarray:
    """2x2 matrix of a named one-qubit gate, from its definition."""
    if base in _FIXED:
        return _FIXED[base]
    if base == "U3":
        # U3(t, p, l) = e^{i(p+l)/2} RZ(p) RY(t) RZ(l)
        t, p, lam = params
        return np.exp(0.5j * (p + lam)) * (
            _rotation("Z", p) @ _rotation("Y", t) @ _rotation("Z", lam)
        )
    (t,) = params  # RX, RY, RZ
    return _rotation(base[1], t)


def kind_matrix(kind: GateKind, bindings) -> np.ndarray:
    """The gate's matrix on its wires in `kind.qubits()` order, the first
    wire the most significant bit."""
    if isinstance(kind, SingleQubit):
        return gate_matrix(kind.base, kind.params)
    if isinstance(kind, Controlled):
        # |1..1><1..1| on the controls picks the base gate, else identity
        on = np.zeros((2 ** len(kind.controls),) * 2)
        on[-1, -1] = 1
        v = gate_matrix(kind.base, kind.params)
        return np.kron(np.eye(len(on)) - on, _PAULI["I"]) + np.kron(on, v)
    if isinstance(kind, Swap):
        # basis |ab> goes to |ba>
        return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    if kind.label not in bindings:
        raise CircuitError(f"opaque block {kind.label!r} has no bound unitary")
    return np.asarray(bindings[kind.label], dtype=complex)


def simulate(c: Circuit, amps: np.ndarray, bindings=None) -> np.ndarray:
    """Amplitudes after applying the circuit's unitary to `amps`."""
    state = np.asarray(amps, dtype=complex).reshape((2,) * c.n)
    for g in c.gates:
        k = len(g.qubits)
        front = np.moveaxis(state, g.qubits, range(k))
        moved = kind_matrix(g.kind, bindings or {}) @ front.reshape(2**k, -1)
        state = np.moveaxis(moved.reshape(front.shape), range(k), g.qubits)
    return state.reshape(-1)


def marginal(amps: np.ndarray, n: int, wires) -> np.ndarray:
    """Probabilities over the listed wires, the first one the most
    significant bit of the outcome index."""
    probs = (np.abs(amps) ** 2).reshape((2,) * n)
    return np.einsum(probs, list(range(n)), list(wires)).reshape(-1)


def random_state(n: int, seed) -> np.ndarray:
    """The oracle's input state for `seed`, drawn by the same recipe:
    i.i.d. complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def reference_marginal_equiv(
    c1: Circuit, c2: Circuit, wires1, wires2, samples=20, seed=0, tol=1e-9,
    bindings=None,
) -> tuple[oracle.EquivalenceVerdict, list[float]]:
    """`check_marginal_equiv` sample by sample, with no shared prefix; also
    returns each sample's largest gap, in sample order."""
    wires1, wires2 = tuple(wires1), tuple(wires2)
    worst = 0.0
    witness = None
    sample_gaps = []
    for i in range(samples):
        amps = random_state(c1.n, seed=(seed, i))
        p1 = marginal(simulate(c1, amps, bindings), c1.n, wires1)
        p2 = marginal(simulate(c2, amps, bindings), c2.n, wires2)
        gaps = np.abs(p1 - p2)
        k = int(np.argmax(gaps))
        sample_gaps.append(float(gaps[k]))
        if gaps[k] > worst:
            worst = float(gaps[k])
            witness = ((seed, i), format(k, f"0{len(wires1)}b") if wires1 else "")
    equivalent = worst <= tol
    verdict = oracle.EquivalenceVerdict(equivalent, worst, None if equivalent else witness)
    return verdict, sample_gaps


def _renumber(kind: GateKind, axis: dict[int, int]) -> GateKind:
    if isinstance(kind, SingleQubit):
        return SingleQubit(kind.base, axis[kind.qubit], kind.params)
    if isinstance(kind, Controlled):
        controls = tuple(axis[q] for q in kind.controls)
        return Controlled(kind.base, controls, axis[kind.target], kind.params)
    if isinstance(kind, Swap):
        return Swap(axis[kind.a], axis[kind.b])
    return Opaque(kind.label, tuple(axis[q] for q in kind.wires))


def reduced_pair(c1: Circuit, c2: Circuit, wires1, wires2):
    """The circuits and wire lists as `check_marginal_equiv` simulates
    them, built from the rule its docstring states: the longest common
    start of the two gate lists (compared by kind) is dropped; S is the
    wires the rest of either list touches plus both wires of every
    position the lists read differently; S is renumbered ascending, and
    positions outside S are dropped. Returns the two reduced circuits,
    the two reduced wire lists and the indices of the positions kept."""
    kinds1 = [g.kind for g in c1.gates]
    kinds2 = [g.kind for g in c2.gates]
    common = 0
    while common < min(len(kinds1), len(kinds2)) and kinds1[common] == kinds2[common]:
        common += 1
    rest1, rest2 = kinds1[common:], kinds2[common:]
    s = {q for kind in rest1 + rest2 for q in kind.qubits()}
    s |= {q for a, b in zip(wires1, wires2) if a != b for q in (a, b)}
    axis = {q: i for i, q in enumerate(sorted(s))}
    kept = [k for k, q in enumerate(wires1) if q in s]
    return (
        build_circuit(len(s), [_renumber(kind, axis) for kind in rest1]),
        build_circuit(len(s), [_renumber(kind, axis) for kind in rest2]),
        [axis[wires1[k]] for k in kept],
        [axis[wires2[k]] for k in kept],
        kept,
    )


def source_from_circuit(c: Circuit) -> SourceCircuit:
    """Wrap a bare circuit: every kept wire measured to its own classical bit."""
    measures = tuple((w, w) for w in range(c.n) if w not in c.dead)
    decls = {g.kind.label: len(g.kind.wires) for g in c.gates if isinstance(g.kind, Opaque)}
    return SourceCircuit(
        circuit=c, measures=measures, opaque_decls=decls,
        qreg="q", creg="c", creg_size=c.n,
    )


def generator_draws(w: int, gates: int, fraction_1q: float, seed, palette=DEFAULT_PALETTE):
    """The arrays `bench.random_circuit` draws, in its order: whether each
    gate is single-qubit, its one-qubit base index and wire, its palette
    index, and its two wires."""
    rng = np.random.default_rng(seed)
    is_1q = rng.random(gates) < fraction_1q
    base_idx = rng.integers(0, len(_ONE_QUBIT), size=gates)
    wire = rng.integers(0, w, size=gates)
    pal_idx = rng.integers(0, len(palette), size=gates)
    first = rng.integers(0, w, size=gates)
    shift = rng.integers(1, w, size=gates) if w > 1 else np.zeros(gates, dtype=int)
    return is_1q, base_idx, wire, pal_idx, first, (first + shift) % w


def eager_random_circuit(
    w: int, gates: int, fraction_1q: float, seed, palette=DEFAULT_PALETTE
) -> Circuit:
    """`bench.random_circuit` with every gate built and checked one by one,
    from the same draws in the same order."""
    if w < 2 and not fraction_1q >= 1.0:
        raise ValueError("two-qubit gates need width >= 2")
    is_1q, base_idx, wire, pal_idx, first, second = generator_draws(
        w, gates, fraction_1q, seed, palette)
    kinds: list[GateKind] = []
    for i in range(gates):
        if is_1q[i]:
            kinds.append(SingleQubit(_ONE_QUBIT[base_idx[i]], int(wire[i])))
            continue
        a = int(first[i])
        b = int(second[i])
        name = palette[pal_idx[i]]
        if name == "cx":
            kinds.append(Controlled("X", (a,), b))
        elif name == "cz":
            kinds.append(Controlled("Z", (min(a, b),), max(a, b)))
        else:
            kinds.append(Swap(a, b))
    return build_circuit(w, kinds)


FIXTURE_SOURCES = tuple(
    getattr(fixtures, name)() for name in sorted(dir(fixtures)) if name.endswith("_source")
)
# bytes the dialect gives meaning to, drawn as often as all other bytes together
_GRAMMAR_BYTES = b"0123456789[](),;:->/. \n\"#qcpiU"


@st.composite
def mutants(draw) -> bytes:
    """A fixture program with one or two bytes replaced, inserted or
    deleted. Half the edits copy the first digit of one bracketed index
    over that of another, so that gates naming one wire twice come up often."""
    data = bytearray(draw(st.sampled_from(FIXTURE_SOURCES)).encode())
    byte = st.one_of(st.sampled_from(_GRAMMAR_BYTES), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(("replace", "insert", "delete", "index", "index", "index")))
        if op == "index":
            indices = [m.start() for m in re.finditer(rb"(?<=\[)\d", data)]
            if indices:
                digit = data[draw(st.sampled_from(indices))]
                data[draw(st.sampled_from(indices))] = digit
            continue
        pos = draw(st.integers(0, len(data)))
        if op == "insert":
            data.insert(pos, draw(byte))
        elif pos < len(data):
            if op == "replace":
                data[pos] = draw(byte)
            else:
                del data[pos]
    return bytes(data)


# every built-in gate: name -> (parameters, qubits)
BUILTIN_GATES = {
    **{name: (0, 1) for name in ("h", "x", "y", "z", "s", "sdg", "t", "tdg")},
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "u3": (3, 1),
    "cx": (0, 2), "cy": (0, 2), "cz": (0, 2), "crz": (1, 2),
    "ccx": (0, 3), "ccz": (0, 3), "swap": (0, 2),
}
# opaque labels that start with, or contain, the dialect's keywords
OPAQUE_LABELS = ("measure_x", "include2", "opaque_u", "creg1", "qreg_", "OPENQASMx", "U")
# comment text, some holding characters that str.splitlines() breaks on
COMMENTS = ("", " note", ' "quoted', " a\x0cb", " a\u2028b", " x // y")


def _angles() -> st.SearchStrategy[str]:
    """Angle expressions with finite values: literals and pi under + - *,
    unary minus and parentheses, divided only by nonzero literals."""
    literal = st.sampled_from(("pi", "0", "1", "2", "0.5", "1.5e-3", ".25", "3."))
    divisor = st.sampled_from(("2", "3", "4", "0.5", "pi"))
    return st.recursive(literal, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
        st.tuples(inner, divisor).map("/".join),
        inner.map("-{}".format),
        inner.map("({})".format),
    ), max_leaves=6)


@st.composite
def programs(draw) -> str:
    """A valid dialect program: every built-in gate and opaque blocks named
    after keywords, angle expressions, measures, discard pragmas and
    comments, with the spacing varied."""
    n = draw(st.integers(3, 6))
    qreg, creg = draw(st.sampled_from((("q", "c"), ("measure", "opaque"), ("r2", "qreg"))))
    sp = st.sampled_from((" ", "  ", "\t"))

    def ref(i: int) -> str:
        return f"{qreg}[{i}]"

    labels = draw(st.lists(st.sampled_from(OPAQUE_LABELS), unique=True, max_size=3))
    arity = {label: draw(st.integers(1, n)) for label in labels}
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg{draw(sp)}{qreg}[{n}];",
             f"creg {creg}[{n}];"]
    lines += [f"opaque {label} " + ",".join(f"p{i}" for i in range(k)) + ";"
              for label, k in arity.items()]
    names = st.sampled_from(sorted(BUILTIN_GATES) + labels)
    for name in draw(st.lists(names, max_size=12)):
        n_params, n_qubits = BUILTIN_GATES.get(name, (0, arity.get(name)))
        wires = draw(st.permutations(range(n)))[:n_qubits]
        params = f"({','.join(draw(_angles()) for _ in range(n_params))})" if n_params else ""
        lines.append(f"{name}{params}{draw(sp)}" + ",".join(ref(w) for w in wires) + ";")
    measured = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    lines += [f"measure {ref(w)} -> {creg}[{b}];" for b, w in enumerate(measured)]
    lines += [f"#pragma dge discard {ref(w)}" for w in draw(st.sets(st.integers(0, n - 1)))]
    lines = [line + (f" //{draw(st.sampled_from(COMMENTS))}" if draw(st.booleans()) else "")
             for line in lines]
    return "\n".join(lines) + "\n"


@st.composite
def wires(draw, n: int, k: int) -> tuple[int, ...]:
    return tuple(draw(st.permutations(range(n)))[:k])


@st.composite
def gate_kinds(draw, n: int) -> list:
    """One gate, or a chain of SWAPs that walks deadness across wires."""
    shapes = ["single", "opaque"] + (["controlled", "swap", "swap_chain"] if n > 1 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "single":
        base = draw(st.sampled_from(sorted(BASE_PARAMS)))
        params = tuple(draw(st.floats(-7, 7)) for _ in range(BASE_PARAMS[base]))
        return [SingleQubit(base, draw(st.integers(0, n - 1)), params)]
    if shape == "opaque":
        ws = draw(wires(n, draw(st.integers(1, min(n, 3)))))
        return [Opaque(f"B{len(ws)}", ws)]
    if shape == "controlled":
        base = draw(st.sampled_from(["X", "Y", "Z", "RZ"]))
        params = (draw(st.floats(-7, 7)),) if base == "RZ" else ()
        *controls, target = draw(wires(n, draw(st.integers(2, min(n, 3)))))
        return [Controlled(base, tuple(controls), target, params)]
    if shape == "swap":
        return [Swap(*draw(wires(n, 2)))]
    path = draw(wires(n, draw(st.integers(2, n))))
    return [Swap(a, b) for a, b in zip(path, path[1:])]


@st.composite
def dead_circuits(draw) -> Circuit:
    n = draw(st.integers(1, 14))
    groups = draw(st.lists(gate_kinds(n), max_size=40))
    dead = draw(st.sets(st.integers(0, n - 1)))
    return build_circuit(n, [k for group in groups for k in group], dead)
