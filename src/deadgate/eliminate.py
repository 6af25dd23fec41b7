"""Dead-gate elimination.

Removal rules, applied only to frontier gates:

    R1  single-qubit gate on a dead wire
    R2  controlled gate whose target wire is dead (controls may be live)
    R3  SWAP with one dead endpoint (removal relabels which wire is dead
        and updates the outcome map) or with both endpoints dead
    R4  extension, off by default: any gate all of whose wires are dead

The result is defined by a frontier sweep: sweep the frontier repeatedly
until a sweep removes nothing (that final empty sweep is included in the
iteration count). Within a sweep, the frontier snapshot taken at sweep
start is examined in ascending position; gates that newly enter the
frontier mid-sweep wait for the next sweep.

The pass computes that result in one walk from the last gate back to the
first. Frontier gates never share wires, and only SWAPs on a gate's own
wires change those wires' deadness; those SWAPs are later gates, removed
before the gate enters the frontier. So a gate's rule is fixed when it
enters the frontier, at sweep 1 + the latest removal sweep among the later
gates on its wires. A gate it does not match stays in the frontier for
good and blocks every earlier gate on its wires, and the walk stops once
every wire is blocked. The report's removal order, sweep count and rule
checks are those the sweep makes, so `gate_checks` still meets the sweep's
g*(g+1) bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .circuit import Circuit, Controlled, Gate, SingleQubit, Swap


class RemovalRule(enum.Enum):
    R1 = "R1_single_on_dead"
    R2 = "R2_controlled_target_dead"
    R3 = "R3_swap_relabel"
    R4 = "R4_all_dead_unitary"


@dataclass(frozen=True)
class RuleFlags:
    """Rule toggles surfaced on the CLI as --extended / --no-swap-relabel."""

    extended: bool = False
    swap_relabel: bool = True


@dataclass(slots=True)
class RemovedGate:
    id: int
    gate: str
    rule: str


@dataclass(slots=True)
class OptimizationReport:
    """Record of one elimination run; serializes deterministically."""

    removed: list[RemovedGate]
    iterations: int
    initial_gate_count: int
    final_gate_count: int
    final_dead: list[int]
    outcome_map: list[int]
    gate_checks: int = 0

    def to_json(self) -> str:
        """The text `json.dumps(doc, indent=2)` gives, plus a newline, where
        doc holds initial_gate_count, final_gate_count, iterations,
        gate_checks, removed (objects with id, gate and rule), final_dead
        and outcome_map, in that order.

        The text is assembled here: with an indent, `json` uses its
        pure-Python encoder, and `removed` grows with the gates the pass
        removes. Strings are quoted as `json` quotes them by default.
        """
        removed = [
            f'{{\n      "id": {r.id},\n      "gate": {encode_basestring_ascii(r.gate)},'
            f'\n      "rule": {encode_basestring_ascii(r.rule)}\n    }}'
            for r in self.removed
        ]
        return (
            f'{{\n  "initial_gate_count": {self.initial_gate_count},'
            f'\n  "final_gate_count": {self.final_gate_count},'
            f'\n  "iterations": {self.iterations},'
            f'\n  "gate_checks": {self.gate_checks},'
            f'\n  "removed": {_json_list(removed)},'
            f'\n  "final_dead": {_json_list(map(str, self.final_dead))},'
            f'\n  "outcome_map": {_json_list(map(str, self.outcome_map))}\n}}\n'
        )


def _json_list(items) -> str:
    """A list of already-encoded items at depth one, as `json.dumps` indents it."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _match_rule(kind, dead: frozenset[int], flags: RuleFlags) -> RemovalRule | None:
    if isinstance(kind, SingleQubit) and kind.qubit in dead:
        return RemovalRule.R1
    if isinstance(kind, Controlled) and kind.target in dead:
        return RemovalRule.R2
    if flags.swap_relabel and isinstance(kind, Swap):
        if (kind.a in dead) or (kind.b in dead):
            return RemovalRule.R3
    if flags.extended and all(q in dead for q in kind.qubits()):
        return RemovalRule.R4
    return None


def _relabel_after_swap(
    kind: Swap, dead: frozenset[int], outcome_map: tuple[int, ...]
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Dead set and outcome map after removing a frontier SWAP.

    With one dead endpoint, deadness migrates to the other wire and every
    label's physical wire is routed through the transposition. With both
    endpoints dead nothing needs relabelling.
    """
    a, b = kind.a, kind.b
    if (a in dead) == (b in dead):
        return dead, outcome_map
    new_dead = (dead - {a, b}) | ({b} if a in dead else {a})
    swapped = {a: b, b: a}
    return frozenset(new_dead), tuple(swapped.get(w, w) for w in outcome_map)


def eliminate_dead_gates(
    c: Circuit, flags: RuleFlags = RuleFlags()
) -> tuple[Circuit, OptimizationReport]:
    """Remove dead gates; returns the optimized circuit and a report that
    names each removed gate by its position in `c.gates`."""
    n = c.n
    n0 = len(c.gates)
    blocked = bytearray(n)
    unblocked = n
    # latest removal sweep among the gates walked on each wire, 0 if none
    wire_sweep = [0] * n
    dead = c.dead
    outcome_map = c.outcome_map
    removed: list[tuple[int, int, RemovedGate]] = []
    kept_entries: list[int] = []
    kept: list[Gate] = []  # walked gates the pass keeps, last gate first
    walked = 0
    for g in reversed(c.gates):
        walked += 1
        qs = g.qubits
        if not any(blocked[q] for q in qs):
            entry = 1 + max(wire_sweep[q] for q in qs)
            kind = g.kind
            rule = _match_rule(kind, dead, flags)
            if rule is not None:
                for q in qs:
                    wire_sweep[q] = entry
                if rule is RemovalRule.R3:
                    dead, outcome_map = _relabel_after_swap(kind, dead, outcome_map)
                i = n0 - walked
                removed.append((entry, i, RemovedGate(i, kind.summary(), rule.value)))
                continue
            kept_entries.append(entry)
        # a kept gate blocks every earlier gate on its wires
        kept.append(g)
        for q in qs:
            if not blocked[q]:
                blocked[q] = 1
                unblocked -= 1
        if not unblocked:
            break

    removed.sort(key=lambda r: (r[0], r[1]))
    iterations = removed[-1][0] + 1 if removed else 1
    # each removed gate is checked once, in the sweep that removes it; a
    # kept frontier gate is checked in every sweep from its entry on
    gate_checks = len(removed) + sum(iterations - e + 1 for e in kept_entries)
    # every removed gate lies in the walked tail
    gates = c.gates[: n0 - walked] + tuple(reversed(kept))

    assert gate_checks <= n0 * (n0 + 1), "quadratic sweep bound violated"
    report = OptimizationReport(
        removed=[r for _, _, r in removed],
        iterations=iterations,
        initial_gate_count=n0,
        final_gate_count=len(gates),
        final_dead=sorted(dead),
        outcome_map=list(outcome_map),
        gate_checks=gate_checks,
    )
    return Circuit(c.n, gates, dead, outcome_map), report
