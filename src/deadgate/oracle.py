"""Desk-scale statevector oracle.

`check_marginal_equiv` is the one equivalence check: it simulates two
circuits densely on shared random input states and compares their
outcome probabilities over two wire lists, entry by entry. The callers
build the lists: kept wires for a plain comparison, kept wires read
through an outcome map or a dead-wire pairing for a relabeled one. Bit
convention throughout: qubit q0 is the most significant bit of a basis
index, so for n=2 the amplitudes are ordered |00>,|01>,|10>,|11> with
q0's bit first.

Equivalence checking samples random input states. A differing pair of
circuits is witnessed by a random state almost surely, but the check is
probabilistic, not a proof; exact unitary comparison is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, CircuitError, Controlled, Gate, Opaque, SingleQubit, Swap
from .defaults import DEFAULT_QUBIT_CAP, DEFAULT_SAMPLES, DEFAULT_TOL

# Samples are simulated together, in batches of at most this many
# amplitudes: the size of one state at the default cap. Memory stays that
# of the largest single state, while small circuits pay each gate's call
# overhead once per batch instead of once per sample.
_BATCH_AMPLITUDES = 2**DEFAULT_QUBIT_CAP

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "Tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
}


def base_matrix(base: str, params: tuple[float, ...]) -> np.ndarray:
    """2x2 matrix of a named single-qubit gate."""
    if base in _FIXED_1Q:
        return _FIXED_1Q[base]
    if base == "RX":
        (t,) = params
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if base == "RY":
        (t,) = params
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if base == "RZ":
        (t,) = params
        return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
    if base == "U3":
        t, p, lam = params
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * p) * s, np.exp(1j * (p + lam)) * c],
            ]
        )
    raise CircuitError(f"unknown gate base {base!r}")


@dataclass
class EquivalenceVerdict:
    equivalent: bool
    max_discrepancy: float
    # (input-state seed, outcome bitstring) for the worst sample when
    # the circuits disagree.
    witness: tuple[tuple[int, int], str] | None = None


def random_state(n: int, seed, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Amplitudes of a normalized n-qubit state with i.i.d. complex
    Gaussian components; entry i is the amplitude of basis index i."""
    if n > cap:
        raise CircuitError(f"{n} qubits exceeds the cap of {cap}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def bind_opaques(circuits: Sequence[Circuit], seed) -> dict[str, np.ndarray]:
    """Haar-random unitary per opaque label across the given circuits.

    Labels are bound in sorted order so the table is deterministic per
    seed; a label shared between circuits must agree on arity.
    """
    arities: dict[str, int] = {}
    for c in circuits:
        for g in c.gates:
            if isinstance(g.kind, Opaque):
                label, arity = g.kind.label, len(g.kind.wires)
                if arities.setdefault(label, arity) != arity:
                    raise CircuitError(
                        f"opaque label {label!r} used with inconsistent arity"
                    )
    bindings = {}
    for i, label in enumerate(sorted(arities)):
        rng = np.random.default_rng([seed, i])
        bindings[label] = haar_unitary(2 ** arities[label], rng)
    return bindings


def _controlled_matrix(kind: Controlled) -> np.ndarray:
    v = base_matrix(kind.base, kind.params)
    k = len(kind.controls)
    dim = 2 ** (k + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2 :, dim - 2 :] = v
    return m


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _compile(
    gates: Sequence[Gate], bindings: Mapping[str, np.ndarray] | None
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Per-gate (unitary, wires) list, resolving opaque labels."""
    ops = []
    for g in gates:
        kind = g.kind
        if isinstance(kind, SingleQubit):
            ops.append((base_matrix(kind.base, kind.params), g.qubits))
        elif isinstance(kind, Controlled):
            ops.append((_controlled_matrix(kind), g.qubits))
        elif isinstance(kind, Swap):
            ops.append((_SWAP, g.qubits))
        else:
            assert isinstance(kind, Opaque)
            if bindings is None or kind.label not in bindings:
                raise CircuitError(f"opaque block {kind.label!r} has no bound unitary")
            u = np.asarray(bindings[kind.label], dtype=complex)
            dim = 2 ** len(kind.wires)
            if u.shape != (dim, dim):
                raise CircuitError(
                    f"binding for {kind.label!r} has shape {u.shape}, expected {(dim, dim)}"
                )
            ops.append((u, g.qubits))
    return ops


def _apply(state: np.ndarray, u: np.ndarray, wires: tuple[int, ...]) -> np.ndarray:
    k = len(wires)
    tensor = u.reshape((2,) * (2 * k))
    state = np.tensordot(tensor, state, axes=(tuple(range(k, 2 * k)), wires))
    return np.moveaxis(state, tuple(range(k)), wires)


def _run(ops: list[tuple[np.ndarray, tuple[int, ...]]], state: np.ndarray) -> np.ndarray:
    """Apply the ops to a state of shape (2,)*n + (batch,); axis q is wire q."""
    for u, wires in ops:
        state = _apply(state, u, wires)
    return state


def _marginal(amps: np.ndarray, n: int, wires: tuple[int, ...]) -> np.ndarray:
    """Probabilities over the listed wires, in the listed order.

    `amps` has shape (2**n,), or (2**n, batch) for one state per column.
    Entry i (row i) is the probability of the outcome bitstring
    format(i, f"0{m}b") for m listed wires; the first listed wire is its
    most significant bit.
    """
    batch = amps.shape[1:]
    p = (np.abs(amps) ** 2).reshape((2,) * n + batch)
    drop = tuple(ax for ax in range(n) if ax not in wires)
    t = p.sum(axis=drop) if drop else p
    if wires:
        kept = sorted(wires)
        t = t.transpose([kept.index(q) for q in wires] + list(range(len(wires), t.ndim)))
    return t.reshape((-1,) + batch)


def _common_prefix(c1: Circuit, c2: Circuit) -> int:
    """Number of leading gates the two circuits share, compared by kind."""
    common = 0
    for g1, g2 in zip(c1.gates, c2.gates):
        if g1.kind != g2.kind:
            break
        common += 1
    return common


def check_marginal_equiv(
    c1: Circuit,
    c2: Circuit,
    wires1: Sequence[int],
    wires2: Sequence[int],
    samples: int = DEFAULT_SAMPLES,
    seed=0,
    tol: float = DEFAULT_TOL,
    bindings: Mapping[str, np.ndarray] | None = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> EquivalenceVerdict:
    """Compare c1's marginal over wires1 with c2's marginal over wires2.

    Both circuits see the same `samples` random input states (seeded per
    sample); the verdict carries the worst probability discrepancy seen.
    Entry k of wires1 is compared with entry k of wires2, so a caller
    lists kept wires ascending for a plain comparison, or reads the
    second circuit through an outcome map or a dead-wire pairing.

    The states are simulated in batches. The gates the two lists share
    at their start are applied once per batch, and each circuit's
    remaining gates are applied to that shared state.
    """
    if c1.n != c2.n:
        raise CircuitError(f"qubit counts differ: {c1.n} vs {c2.n}")
    n = c1.n
    if n > cap:
        raise CircuitError(f"{n} qubits exceeds the cap of {cap}")
    if len(wires1) != len(wires2):
        raise CircuitError("wire lists must have equal length")
    wires1, wires2 = tuple(wires1), tuple(wires2)
    for qs in (wires1, wires2):
        if len(set(qs)) != len(qs):
            raise CircuitError(f"duplicate qubit in marginal: {qs}")
        for q in qs:
            if not 0 <= q < n:
                raise CircuitError(f"qubit q[{q}] out of range")
    common = _common_prefix(c1, c2)
    ops1 = _compile(c1.gates, bindings)
    prefix, rest1 = ops1[:common], ops1[common:]
    rest2 = _compile(c2.gates[common:], bindings)
    batch = max(1, _BATCH_AMPLITUDES >> n)
    worst = 0.0
    witness = None
    for first in range(0, samples, batch):
        ids = range(first, min(first + batch, samples))
        amps = np.stack([random_state(n, seed=(seed, i), cap=cap) for i in ids], axis=-1)
        shared = _run(prefix, amps.reshape((2,) * n + (len(ids),)))
        p1 = _marginal(_run(rest1, shared).reshape(2**n, -1), n, wires1)
        p2 = _marginal(_run(rest2, shared).reshape(2**n, -1), n, wires2)
        gaps = np.abs(p1 - p2)
        # per sample, the first outcome with the largest gap; across
        # samples, the first sample with the largest gap
        outcomes = gaps.argmax(axis=0)
        for j, i in enumerate(ids):
            k = int(outcomes[j])
            if gaps[k, j] > worst:
                worst = float(gaps[k, j])
                witness = ((seed, i), k)
    equivalent = worst <= tol
    if not equivalent and witness is not None:
        sample, k = witness
        m = len(wires1)
        witness = (sample, format(k, f"0{m}b") if m else "")
    return EquivalenceVerdict(equivalent, worst, None if equivalent else witness)
