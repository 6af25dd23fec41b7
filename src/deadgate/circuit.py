"""Circuit intermediate representation.

A circuit is an ordered list of gates over n wires plus the set of dead
wires (wires whose measurement outcome is discarded) and an outcome map
(label -> physical wire, identity until SWAP removals relabel wires).
Program order is the canonical representation; the wire-induced DAG is
derived, never stored. Gate ids are assigned at construction and never
reused, so reports stay stable across removals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

# Named single-qubit bases and their parameter counts.
BASE_PARAMS: dict[str, int] = {
    "H": 0, "X": 0, "Y": 0, "Z": 0,
    "S": 0, "Sdg": 0, "T": 0, "Tdg": 0,
    "RX": 1, "RY": 1, "RZ": 1, "U3": 3,
}


class CircuitError(ValueError):
    """Raised for malformed circuits or invalid circuit operations."""


@dataclass(slots=True)
class SingleQubit:
    """A named one-qubit gate, e.g. H or RZ(theta)."""

    base: str
    qubit: int
    params: tuple[float, ...] = ()

    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def summary(self) -> str:
        return f"{_base_text(self.base, self.params)} q[{self.qubit}]"


@dataclass(slots=True)
class Controlled:
    """A named one-qubit gate applied to `target`, conditioned on `controls`."""

    base: str
    controls: tuple[int, ...]
    target: int
    params: tuple[float, ...] = ()

    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)

    def summary(self) -> str:
        ctrls = ",".join(f"q[{c}]" for c in self.controls)
        return f"{_base_text(self.base, self.params)} q[{self.target}] ctrl {ctrls}"


@dataclass(slots=True)
class Swap:
    """Exchange of two wires."""

    a: int
    b: int

    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def summary(self) -> str:
        return f"swap q[{self.a}],q[{self.b}]"


@dataclass(slots=True)
class Opaque:
    """An uninterpreted multi-qubit block, identified by label.

    Never matched by the default removal rules; the simulation oracle
    requires a bound unitary for the label.
    """

    label: str
    wires: tuple[int, ...]

    def qubits(self) -> tuple[int, ...]:
        return self.wires

    def summary(self) -> str:
        return f"{self.label} " + ",".join(f"q[{q}]" for q in self.wires)


GateKind = SingleQubit | Controlled | Swap | Opaque


def _base_text(base: str, params: tuple[float, ...]) -> str:
    if not params:
        return base.lower()
    return base.lower() + "(" + ",".join(f"{p:.17g}" for p in params) + ")"


def _check_kind(kind: GateKind, n: int) -> None:
    qs = kind.qubits()
    if len(set(qs)) != len(qs):
        raise CircuitError(f"duplicate qubit within one gate: {kind.summary()}")
    for q in qs:
        if not 0 <= q < n:
            raise CircuitError(f"qubit q[{q}] out of range for {n}-qubit circuit")
    if isinstance(kind, (SingleQubit, Controlled)):
        if kind.base not in BASE_PARAMS:
            raise CircuitError(f"unknown gate base {kind.base!r}")
        want = BASE_PARAMS[kind.base]
        if len(kind.params) != want:
            raise CircuitError(
                f"{kind.base} expects {want} parameter(s), got {len(kind.params)}"
            )
    if isinstance(kind, Controlled) and not kind.controls:
        raise CircuitError("controlled gate needs at least one control")
    if isinstance(kind, Opaque) and not kind.wires:
        raise CircuitError("opaque block needs at least one qubit")


@dataclass(slots=True)
class Gate:
    """One circuit element: a stable id plus its kind.

    `qubits` is derived from the kind once, at construction: the pass's
    walk and the oracle's compile step read it as a plain attribute.
    """

    id: int
    kind: GateKind
    qubits: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.qubits = self.kind.qubits()


@dataclass(slots=True)
class Circuit:
    """Gate list over n wires with dead set and outcome map.

    `gates` is any read-only sequence of gates with `len`, indexing,
    slicing, `reversed` and equality against tuples: a tuple for parsed
    and built circuits, a lazily built sequence for the bench generator's.
    Treated as immutable: passes return new circuits. Gates may share one
    kind object (a parse gives every repeat of a statement the same one),
    so a kind is never changed in place.
    """

    n: int
    gates: Sequence[Gate]
    dead: frozenset[int]
    outcome_map: tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"Circuit(n={self.n}, gates={len(self.gates)}, "
            f"dead={sorted(self.dead)})"
        )


def build_circuit(n: int, kinds, dead=()) -> Circuit:
    """Build a circuit from gate kinds in program order.

    Ids are assigned 0,1,2,... in input order; the outcome map starts as
    the identity.
    """
    if n < 0:
        raise CircuitError("qubit count must be non-negative")
    dead_set = frozenset(dead)
    for q in dead_set:
        if not 0 <= q < n:
            raise CircuitError(f"dead qubit q[{q}] out of range")
    gates = []
    for i, kind in enumerate(kinds):
        _check_kind(kind, n)
        gates.append(Gate(i, kind))
    return Circuit(n, tuple(gates), dead_set, tuple(range(n)))
