"""Circuit intermediate representation.

A circuit is an ordered list of gates over n wires plus the set of dead
wires (wires whose measurement outcome is discarded) and an outcome map
(label -> physical wire, identity until SWAP removals relabel wires).
Program order is the canonical representation; the wire-induced DAG is
derived, never stored. A gate carries no id: the pass names each gate
it removes by its position in the pass's input.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

# Named single-qubit bases and their parameter counts.
BASE_PARAMS: dict[str, int] = {
    "H": 0, "X": 0, "Y": 0, "Z": 0,
    "S": 0, "Sdg": 0, "T": 0, "Tdg": 0,
    "RX": 1, "RY": 1, "RZ": 1, "U3": 3,
}


# The dialect's named gates: name -> (base, number of controls). Each
# acts on controls + 1 wires; swap has no base and is listed with one
# control so that it acts on two. A controlled Z is symmetric in its
# wires, so cz and ccz are read with their highest-indexed wire as the
# represented target, which is sound by symmetry and keeps reports
# deterministic, and are written with their wires ascending.
NAMED_GATES: dict[str, tuple[str | None, int]] = {
    "h": ("H", 0), "x": ("X", 0), "y": ("Y", 0), "z": ("Z", 0),
    "s": ("S", 0), "sdg": ("Sdg", 0), "t": ("T", 0), "tdg": ("Tdg", 0),
    "rx": ("RX", 0), "ry": ("RY", 0), "rz": ("RZ", 0), "u3": ("U3", 0),
    "cx": ("X", 1), "cy": ("Y", 1), "cz": ("Z", 1), "crz": ("RZ", 1),
    "ccx": ("X", 2), "ccz": ("Z", 2), "swap": (None, 1),
}
# (base, number of controls) -> name of the controlled gate
_CONTROLLED_NAMES = {
    (base, nc): name for name, (base, nc) in NAMED_GATES.items() if base and nc
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
    """`base` in lower case with its parameters, at 17 significant digits
    so that a double survives a write and a read."""
    if not params:
        return base.lower()
    return base.lower() + "(" + ",".join([f"{p:.17g}" for p in params]) + ")"


def named_kind(name: str, wires: tuple[int, ...], params: tuple[float, ...] = ()) -> GateKind:
    """The kind a NAMED_GATES entry applies to `wires`, in read order: a
    controlled gate's last wire is its target, except that of cz and ccz,
    which is their highest. The caller checks the wire and parameter
    counts."""
    base, controls = NAMED_GATES[name]
    if base is None:
        return Swap(wires[0], wires[1])
    if not controls:
        return SingleQubit(base, wires[0], params)
    if base == "Z":
        target = max(wires)
        i = wires.index(target)
        return Controlled(base, wires[:i] + wires[i + 1:], target, params)
    return Controlled(base, wires[:-1], wires[-1], params)


def dialect_form(kind: GateKind) -> tuple[str, tuple[int, ...]]:
    """The dialect's text for `kind`'s name and parameters, and its wires
    in written order: the inverse of `named_kind`, or an opaque block's
    label and wires. A controlled gate no name covers is refused."""
    if isinstance(kind, SingleQubit):
        return _base_text(kind.base, kind.params), (kind.qubit,)
    if isinstance(kind, Controlled):
        nc = len(kind.controls)
        name = _CONTROLLED_NAMES.get((kind.base, nc))
        if name is None:
            raise CircuitError(
                f"controlled {kind.base} with {nc} control(s) has no dialect statement"
            )
        wires = (*kind.controls, kind.target)
        if kind.base == "Z":
            wires = tuple(sorted(wires))
        return _base_text(name, kind.params), wires
    if isinstance(kind, Swap):
        return "swap", (kind.a, kind.b)
    return kind.label, kind.wires


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
    """One circuit element: a box around its kind and nothing more. Its
    wires are `kind.qubits()`, called where they are read."""

    kind: GateKind


@dataclass(slots=True)
class Circuit:
    """Gate list over n wires with dead set and outcome map.

    `gates` is any read-only sequence of gates with `len`, indexing,
    slicing, `reversed` and equality against tuples: a tuple for parsed
    and built circuits, a lazily built sequence for the bench generator's.
    A gate's wires are `g.kind.qubits()`, read where they are needed.
    Treated as immutable: passes return new circuits. A gate object may
    stand at several positions (a parse gives every repeat of a statement
    the same one), so neither a gate nor its kind is changed in place.
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
    """Build a circuit from gate kinds in program order; the outcome map
    starts as the identity."""
    if n < 0:
        raise CircuitError("qubit count must be non-negative")
    dead_set = frozenset(dead)
    for q in dead_set:
        if not 0 <= q < n:
            raise CircuitError(f"dead qubit q[{q}] out of range")
    gates = []
    for kind in kinds:
        _check_kind(kind, n)
        gates.append(Gate(kind))
    return Circuit(n, tuple(gates), dead_set, tuple(range(n)))
