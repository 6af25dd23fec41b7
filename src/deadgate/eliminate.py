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
start is examined in ascending gate id; gates that newly enter the
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
import json
from dataclasses import dataclass

from .circuit import Circuit, Controlled, SingleQubit, Swap


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
        doc = {
            "initial_gate_count": self.initial_gate_count,
            "final_gate_count": self.final_gate_count,
            "iterations": self.iterations,
            "gate_checks": self.gate_checks,
            "removed": [
                {"id": r.id, "gate": r.gate, "rule": r.rule} for r in self.removed
            ],
            "final_dead": self.final_dead,
            "outcome_map": self.outcome_map,
        }
        return json.dumps(doc, indent=2) + "\n"


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
    """Remove dead gates; returns the optimized circuit and a report."""
    n = c.n
    blocked = bytearray(n)
    unblocked = n
    # latest removal sweep among the gates walked on each wire, 0 if none
    wire_sweep = [0] * n
    dead = c.dead
    outcome_map = c.outcome_map
    removed: list[tuple[int, int, RemovedGate]] = []
    kept_entries: list[int] = []
    walked = 0
    for g in reversed(c.gates):
        if not unblocked:
            break
        walked += 1
        qs = g.qubits
        if any(blocked[q] for q in qs):
            for q in qs:
                if not blocked[q]:
                    blocked[q] = 1
                    unblocked -= 1
            continue
        entry = 1 + max(wire_sweep[q] for q in qs)
        kind = g.kind
        rule = _match_rule(kind, dead, flags)
        if rule is None:
            kept_entries.append(entry)
            for q in qs:
                blocked[q] = 1
            unblocked -= len(qs)
            continue
        for q in qs:
            wire_sweep[q] = entry
        if rule is RemovalRule.R3:
            dead, outcome_map = _relabel_after_swap(kind, dead, outcome_map)
        removed.append((entry, g.id, RemovedGate(g.id, kind.summary(), rule.value)))

    removed.sort(key=lambda r: (r[0], r[1]))
    iterations = removed[-1][0] + 1 if removed else 1
    # each removed gate is checked once, in the sweep that removes it; a
    # kept frontier gate is checked in every sweep from its entry on
    gate_checks = len(removed) + sum(iterations - e + 1 for e in kept_entries)
    # every removed gate lies in the walked tail
    dropped = {gid for _, gid, _ in removed}
    stop = len(c.gates) - walked
    gates = c.gates[:stop] + tuple(g for g in c.gates[stop:] if g.id not in dropped)

    n0 = len(c.gates)
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
