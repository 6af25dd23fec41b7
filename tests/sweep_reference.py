"""The frontier-sweep fixpoint, kept as the reference for the linear pass.

`sweep_eliminate` is the definition `deadgate.eliminate` documents: sweep
the frontier until a sweep removes nothing, examining each sweep's
snapshot in ascending gate id. It rebuilds the frontier on every sweep, so
it is quadratic in the length of a dead chain; the tests compare
`eliminate_dead_gates` with it. Its rule check and SWAP relabel are its
own, written from the R1-R4 table in that module's docstring, so a rule
error in the pass shows as a difference. The single-step helpers below
(frontier, rule check, one removal, gate lookups) are used only by tests.
"""

from __future__ import annotations

from deadgate.circuit import Circuit, CircuitError, Controlled, Gate, SingleQubit, Swap
from deadgate.eliminate import OptimizationReport, RemovalRule, RemovedGate, RuleFlags


def match_rule(kind, dead: frozenset[int], flags: RuleFlags) -> RemovalRule | None:
    """The first of R1-R4 that removes frontier gate `kind`, or None.

    R2 reads the gate's target, which for cz and ccz is the highest wire
    (the parser and the bench generator put it there).
    """
    wires = set(kind.qubits())
    if isinstance(kind, SingleQubit) and wires <= dead:
        return RemovalRule.R1
    if isinstance(kind, Controlled) and kind.target in dead:
        return RemovalRule.R2
    if isinstance(kind, Swap) and flags.swap_relabel and wires & dead:
        return RemovalRule.R3
    if flags.extended and wires <= dead:
        return RemovalRule.R4
    return None


def relabel(kind: Swap, dead: frozenset[int], outcome_map: tuple[int, ...]):
    """Dead set and outcome map once frontier SWAP `kind` is removed: with
    one dead endpoint the deadness moves to the other, and each label's
    wire passes through the exchange; with both dead nothing moves."""
    ends = {kind.a, kind.b}
    if len(ends & dead) != 1:
        return dead, outcome_map
    exchange = {kind.a: kind.b, kind.b: kind.a}
    return dead ^ ends, tuple(exchange.get(w, w) for w in outcome_map)


def frontier(c: Circuit) -> set[int]:
    """Ids of gates that are last on every wire they touch."""
    seen = bytearray(c.n)
    unseen = c.n
    out: set[int] = set()
    for g in reversed(c.gates):
        fresh = True
        for q in g.qubits:
            if seen[q]:
                fresh = False
                break
        if fresh:
            out.add(g.id)
        for q in g.qubits:
            if not seen[q]:
                seen[q] = 1
                unseen -= 1
        if unseen == 0:
            break
    return out


def gate(c: Circuit, gid: int) -> Gate:
    for g in c.gates:
        if g.id == gid:
            return g
    raise CircuitError(f"no gate with id {gid}")


def last_gate_on_wire(c: Circuit, q: int) -> int | None:
    """Id of the program-latest gate touching wire q, or None."""
    if not 0 <= q < c.n:
        raise CircuitError(f"qubit q[{q}] out of range for {c.n}-qubit circuit")
    for g in reversed(c.gates):
        if q in g.qubits:
            return g.id
    return None


def remove_gate(c: Circuit, gid: int) -> Circuit:
    """Copy of the circuit without gate `gid`; dead set and map unchanged."""
    kept = tuple(g for g in c.gates if g.id != gid)
    if len(kept) == len(c.gates):
        raise CircuitError(f"no gate with id {gid}")
    return Circuit(c.n, kept, c.dead, c.outcome_map)


def is_dead_gate(
    c: Circuit, gid: int, flags: RuleFlags = RuleFlags()
) -> RemovalRule | None:
    """Rule under which frontier gate `gid` is removable, or None."""
    if gid not in frontier(c):
        raise CircuitError(f"gate {gid} is not in the frontier")
    return match_rule(gate(c, gid).kind, c.dead, flags)


def apply_removal(c: Circuit, gid: int, rule: RemovalRule) -> Circuit:
    """Remove `gid`, updating dead set and outcome map when R3 demands it."""
    actual = is_dead_gate(c, gid)
    if actual is None and rule is RemovalRule.R4:
        actual = is_dead_gate(c, gid, RuleFlags(extended=True))
    if actual is not rule:
        raise CircuitError(
            f"gate {gid} does not match rule {rule.value} (got {actual})"
        )
    kind = gate(c, gid).kind
    out = remove_gate(c, gid)
    if rule is RemovalRule.R3:
        dead, outcome_map = relabel(kind, out.dead, out.outcome_map)
        out = Circuit(out.n, out.gates, dead, outcome_map)
    return out


def sweep_eliminate(
    c: Circuit, flags: RuleFlags = RuleFlags()
) -> tuple[Circuit, OptimizationReport]:
    """Run the removal fixpoint; returns the optimized circuit and a report."""
    gates: list[Gate] = list(c.gates)
    dead = c.dead
    outcome_map = c.outcome_map
    removed: list[RemovedGate] = []
    iterations = 0
    gate_checks = 0

    while True:
        iterations += 1
        snapshot = sorted(frontier(Circuit(c.n, tuple(gates), dead, outcome_map)))
        dropped: set[int] = set()
        by_id = {g.id: g for g in gates}
        for gid in snapshot:
            gate_checks += 1
            kind = by_id[gid].kind
            rule = match_rule(kind, dead, flags)
            if rule is None:
                continue
            dropped.add(gid)
            if rule is RemovalRule.R3:
                dead, outcome_map = relabel(kind, dead, outcome_map)
            removed.append(RemovedGate(gid, kind.summary(), rule.value))
        if not dropped:
            break
        gates = [g for g in gates if g.id not in dropped]

    n0 = len(c.gates)
    assert gate_checks <= n0 * (n0 + 1), "quadratic sweep bound violated"
    report = OptimizationReport(
        removed=removed,
        iterations=iterations,
        initial_gate_count=n0,
        final_gate_count=len(gates),
        final_dead=sorted(dead),
        outcome_map=list(outcome_map),
        gate_checks=gate_checks,
    )
    return Circuit(c.n, tuple(gates), dead, outcome_map), report


def complexity_probe(
    c: Circuit, flags: RuleFlags = RuleFlags()
) -> tuple[int, int]:
    """(dead-gate checks performed, sweeps run) for one sweep run."""
    _, report = sweep_eliminate(c, flags)
    return report.gate_checks, report.iterations
