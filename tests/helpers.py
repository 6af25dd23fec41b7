"""Test-only helpers around the oracle and the QASM writer.

`check_marginal_equiv` takes explicit wire lists; `kept_wires` and
`paired_wires` build the two comparisons the tests make: kept wires
against kept wires, and kept wires read through a dead-wire pairing.
`simulate` and `basis_state` run one circuit on one input state, and
`source_from_circuit` wraps a bare circuit so it can be serialized.
`reference_marginal_equiv` is the oracle's check one sample at a time,
each circuit simulated whole: the reference for the batched oracle.
`eager_random_circuit` is the bench generator building every gate up
front: the reference for its lazily built gate sequence.
"""

from __future__ import annotations

import numpy as np

from deadgate import oracle
from deadgate.bench import _ONE_QUBIT, DEFAULT_PALETTE
from deadgate.circuit import Circuit, Controlled, GateKind, SingleQubit, Swap, build_circuit
from deadgate.qasm import SourceCircuit


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


def simulate(c: Circuit, amps: np.ndarray, bindings=None) -> np.ndarray:
    """Amplitudes after applying the circuit's unitary to `amps`."""
    state = np.asarray(amps, dtype=complex).reshape((2,) * c.n + (1,))
    return oracle._run(oracle._compile(c.gates, bindings), state).reshape(-1)


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
        amps = oracle.random_state(c1.n, seed=(seed, i))
        p1 = oracle._marginal(simulate(c1, amps, bindings), c1.n, wires1)
        p2 = oracle._marginal(simulate(c2, amps, bindings), c2.n, wires2)
        gaps = np.abs(p1 - p2)
        k = int(np.argmax(gaps))
        sample_gaps.append(float(gaps[k]))
        if gaps[k] > worst:
            worst = float(gaps[k])
            witness = ((seed, i), format(k, f"0{len(wires1)}b") if wires1 else "")
    equivalent = worst <= tol
    verdict = oracle.EquivalenceVerdict(equivalent, worst, None if equivalent else witness)
    return verdict, sample_gaps


def source_from_circuit(c: Circuit) -> SourceCircuit:
    """Wrap a bare circuit: every kept wire measured to its own classical bit."""
    measures = tuple((w, w) for w in range(c.n) if w not in c.dead)
    decls = c.opaque_labels()
    return SourceCircuit(
        circuit=c, measures=measures, opaque_decls=decls,
        qreg="q", creg="c", creg_size=c.n,
    )


def eager_random_circuit(
    w: int, gates: int, fraction_1q: float, seed, palette=DEFAULT_PALETTE
) -> Circuit:
    """`bench.random_circuit` with every gate built and checked one by one,
    from the same draws in the same order."""
    if w < 2 and fraction_1q < 1.0:
        raise ValueError("two-qubit gates need width >= 2")
    rng = np.random.default_rng(seed)
    is_1q = rng.random(gates) < fraction_1q
    base_idx = rng.integers(0, len(_ONE_QUBIT), size=gates)
    wire = rng.integers(0, w, size=gates)
    pal_idx = rng.integers(0, len(palette), size=gates)
    first = rng.integers(0, w, size=gates)
    shift = rng.integers(1, w, size=gates) if w > 1 else np.zeros(gates, dtype=int)
    kinds: list[GateKind] = []
    for i in range(gates):
        if is_1q[i]:
            kinds.append(SingleQubit(_ONE_QUBIT[base_idx[i]], int(wire[i])))
            continue
        a = int(first[i])
        b = int((first[i] + shift[i]) % w)
        name = palette[pal_idx[i]]
        if name == "cx":
            kinds.append(Controlled("X", (a,), b))
        elif name == "cz":
            kinds.append(Controlled("Z", (min(a, b),), max(a, b)))
        else:
            kinds.append(Swap(a, b))
    return build_circuit(w, kinds)
