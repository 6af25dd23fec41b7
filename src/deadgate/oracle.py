"""Desk-scale statevector oracle.

`check_marginal_equiv` is the one equivalence check: it simulates two
circuits densely on shared random input states and compares their
outcome probabilities over two wire lists, entry by entry. The callers
build the lists: kept wires for a plain comparison, kept wires read
through an outcome map or a dead-wire pairing for a relabeled one. It
checks its own arguments and refuses sizes above fixed ceilings, judged
on the circuits' full width, then binds each opaque label to a
Haar-random unitary drawn from its seed. On any gate sequences, it
simulates only the gates after the prefix they share by kind, on only
the wires those gates touch or the two lists read differently (its
docstring says why that decides the same question).
Bit convention throughout: qubit q0 is the most significant bit of a
basis index, so for n=2 the amplitudes are |00>,|01>,|10>,|11> in order.

Equivalence checking samples random input states. A differing pair of
circuits is witnessed by a random state almost surely, but the check is
probabilistic, not a proof; exact unitary comparison is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuit import (
    Circuit, CircuitError, Controlled, Gate, GateKind, Opaque, SingleQubit, Swap,
)
from .defaults import DEFAULT_QUBIT_CAP, DEFAULT_SAMPLES, DEFAULT_TOL

# Samples are simulated together, in batches of at most this many
# amplitudes (256 KiB of complex128), so that a gate's call overhead is paid
# once per batch instead of once per sample: at the default 20 samples,
# states on up to 9 wires run in one batch. From 14 wires up a batch is
# one state. A larger batch was no faster and held more memory.
_BATCH_AMPLITUDES = 2**14
# No cap lifts these: a 20-qubit state is 16 MiB, a 12-wire binding 256 MiB.
_MAX_QUBITS = 20
_MAX_BINDING_BYTES = 512 << 20

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
    seed; a label shared between circuits must agree on arity, and all
    bindings together (16 bytes per entry) may take at most 512 MiB.
    Label i draws from (seed, i, 1): numpy reads (seed, i) as the same
    entropy as the input state of sample i, seeded (seed, i).
    """
    dims: dict[str, int] = {}
    for c in circuits:
        for g in c.gates:
            if isinstance(g.kind, Opaque):
                label, dim = g.kind.label, 2 ** len(g.kind.wires)
                if dims.setdefault(label, dim) != dim:
                    raise CircuitError(
                        f"opaque label {label!r} used with inconsistent arity"
                    )
    if (size := 16 * sum(d * d for d in dims.values())) > _MAX_BINDING_BYTES:
        raise CircuitError(f"opaque bindings need {-(-size >> 20)} MiB, above 512 MiB")
    return {
        label: haar_unitary(dims[label], np.random.default_rng([seed, i, 1]))
        for i, label in enumerate(sorted(dims))
    }


def _controlled_matrix(kind: Controlled) -> np.ndarray:
    v = base_matrix(kind.base, kind.params)
    k = len(kind.controls)
    dim = 2 ** (k + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2 :, dim - 2 :] = v
    return m


def _unitary(kind: GateKind, bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    """The gate's matrix; an opaque block's is its binding."""
    if isinstance(kind, SingleQubit):
        return base_matrix(kind.base, kind.params)
    if isinstance(kind, Controlled):
        return _controlled_matrix(kind)
    return bindings[kind.label]


# An op is (matrix, axes), applied by `_apply`, or a slice op, applied in
# place: ("exchange", (key0, key1)) swaps state[key0] with state[key1], and
# ("negate", (key,)) negates state[key]. A slice op gives each amplitude
# exactly as its gate's 0/1 or 0/-1 matrix does, whose products add only
# exact zeros.
_Op = tuple[np.ndarray | str, tuple]


def _part(ndim: int, axes: tuple[int, ...], bits: tuple[int, ...]) -> tuple:
    """Index of the part of a state where axis axes[i] reads bits[i]."""
    key: list = [slice(None)] * ndim
    for ax, bit in zip(axes, bits):
        key[ax] = bit
    return tuple(key)


def _compile(gates: Sequence[Gate], bindings: Mapping[str, np.ndarray], axis) -> list[_Op]:
    """Per-gate op list; wire q is state axis `axis[q]` of a state with
    len(axis) + 1 axes. A cx or ccx exchanges the target's 0 and 1 parts
    where every control reads 1, a cz or ccz negates the part where all
    its wires read 1, and a swap exchanges the parts where its wires read
    01 and 10. Every other gate is its matrix."""
    ndim = len(axis) + 1
    ops: list[_Op] = []
    for g in gates:
        kind = g.kind
        axes = tuple(axis[q] for q in kind.qubits())
        if isinstance(kind, Swap):
            op = ("exchange", (_part(ndim, axes, (0, 1)), _part(ndim, axes, (1, 0))))
        elif isinstance(kind, Controlled) and kind.base == "X":
            on = (1,) * len(kind.controls)
            op = ("exchange", (_part(ndim, axes, on + (0,)), _part(ndim, axes, on + (1,))))
        elif isinstance(kind, Controlled) and kind.base == "Z":
            op = ("negate", (_part(ndim, axes, (1,) * len(axes)),))
        else:
            op = (_unitary(kind, bindings), axes)
        ops.append(op)
    return ops


def _apply(state: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    if k == 1 and 2 ** axes[0] <= state.size >> (axes[0] + 1):
        # one matmul over the (before, axis, after) view, which makes one
        # product per leading block: under half the cost of tensordot and
        # moveaxis while no more blocks lead the axis than amplitudes follow it
        return np.matmul(u, state.reshape(2 ** axes[0], 2, -1)).reshape(state.shape)
    tensor = u.reshape((2,) * (2 * k))
    state = np.tensordot(tensor, state, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(state, tuple(range(k)), axes)


def _run(ops: list[_Op], state: np.ndarray) -> np.ndarray:
    """Apply the ops to a state of shape (2,)*w + (batch,); axis i is wire i.

    A matrix op returns a new array; a slice op writes in place, into a
    copy taken first unless an earlier op already made a new array, so
    the caller's state is never written: both circuits start from it.
    """
    own = False
    for how, where in ops:
        if not isinstance(how, str):
            state, own = _apply(state, how, where), True
            continue
        if not own:
            state, own = state.copy(), True
        # no view outlives its statement: one would keep the array it
        # views alive after a later matrix op replaces it
        if how == "negate":
            np.negative(state[where[0]], out=state[where[0]])
        else:
            key0, key1 = where
            state[key0], state[key1] = state[key1], state[key0].copy()
    return state


def _marginal(state: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Probabilities over the listed axes of a (2,)*w + (batch,) state, one
    row per sample: entry k is that of the outcome format(k, f"0{m}b") over
    the m listed axes, the first listed axis its most significant bit."""
    # squared from a C-ordered copy, so that each sum below adds its terms
    # in one fixed order, whatever layout the last gate left
    p = np.abs(np.ascontiguousarray(state)) ** 2
    t = p.sum(axis=tuple(ax for ax in range(p.ndim - 1) if ax not in axes))
    kept = sorted(axes)
    t = t.transpose([len(axes)] + [kept.index(q) for q in axes])
    return t.reshape(t.shape[0], -1)


def _common_prefix(gates1: Sequence[Gate], gates2: Sequence[Gate]) -> int:
    """Number of leading gates the two sequences share, compared by kind."""
    common = 0
    for g1, g2 in zip(gates1, gates2):
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
    cap: int = DEFAULT_QUBIT_CAP,
) -> EquivalenceVerdict:
    """Compare c1's marginal over wires1 with c2's marginal over wires2.

    Entry k of wires1 is compared with entry k of wires2, so a caller
    lists kept wires ascending for a plain comparison, or reads the
    second circuit through an outcome map or a dead-wire pairing. After
    the checks, opaque blocks are bound with `bind_opaques((c1, c2), seed)`.
    The verdict carries the worst probability gap seen over `samples`
    random input states, each seeded by (seed, sample index).

    The gates may be any sequences. Only what differs is simulated. The
    gates the two lists share at their start, compared by kind
    (`_common_prefix`), are skipped, since a Haar-random state stays
    Haar-random under any unitary. S is the set of wires the remaining
    gates of either list touch, plus both wires of every position k with
    wires1[k] != wires2[k]. The states are drawn on S alone, ordered
    ascending, and positions whose wire lies outside S are not compared:
    such a wire is untouched by both remainders, so measuring it first
    commutes with them, and the marginals agree on every input exactly
    when they agree on every state on S. The witness outcome has one
    character per position, `x` for one outside S.
    """
    if samples < 1:
        # with no sample there is no evidence of equivalence
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not 0 <= tol < 1:
        # a gap between probabilities is below 1, so a tolerance of 1 or
        # more accepts every pair; a negative or NaN one accepts none
        raise ValueError(f"tol must be finite and in [0, 1), got {tol}")
    # numpy's own reading of every seed drawn below, whose refusal of a
    # negative entry, at any depth, would name no argument
    try:
        np.random.SeedSequence((seed, 0))
    except ValueError:
        raise ValueError(f"seed must be non-negative, got {seed}") from None
    if c1.n != c2.n:
        raise CircuitError(f"qubit counts differ: {c1.n} vs {c2.n}")
    n, cap = c1.n, min(cap, _MAX_QUBITS)
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
    bindings = bind_opaques((c1, c2), seed)
    common = _common_prefix(c1.gates, c2.gates)
    rest1, rest2 = c1.gates[common:], c2.gates[common:]
    touched = {q for g in (*rest1, *rest2) for q in g.kind.qubits()}
    touched.update(q for a, b in zip(wires1, wires2) if a != b for q in (a, b))
    axis = {q: i for i, q in enumerate(sorted(touched))}
    width = len(axis)
    # a position is compared when its wires lie in S: both or neither do
    read1 = tuple(axis[q] for q in wires1 if q in axis)
    read2 = tuple(axis[q] for q in wires2 if q in axis)
    ops1, ops2 = _compile(rest1, bindings, axis), _compile(rest2, bindings, axis)
    batch = max(1, _BATCH_AMPLITUDES >> width)
    worst = 0.0
    witness = None
    for first in range(0, samples, batch):
        ids = range(first, min(first + batch, samples))
        amps = np.stack([random_state(width, seed=(seed, i), cap=cap) for i in ids], axis=-1)
        state = amps.reshape((2,) * width + (len(ids),))
        gaps = np.abs(_marginal(_run(ops1, state), read1) - _marginal(_run(ops2, state), read2))
        # the first sample with the largest gap, then its first outcome with it
        j, k = divmod(int(gaps.argmax()), gaps.shape[1])
        if gaps[j, k] > worst:
            worst = float(gaps[j, k])
            witness = ((seed, first + j), k)
    if worst <= tol:
        return EquivalenceVerdict(True, worst)
    sample, k = witness
    bits = iter(format(k, f"0{len(read1)}b"))
    return EquivalenceVerdict(
        False, worst, (sample, "".join(next(bits) if q in axis else "x" for q in wires1))
    )
