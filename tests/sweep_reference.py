"""The frontier-sweep fixpoint, kept as the reference for the linear pass.

`sweep_eliminate` is the definition `deadgate.eliminate` documents: sweep
the frontier until a sweep removes nothing, examining each sweep's
snapshot in ascending position. It rebuilds the frontier on every sweep, so
it is quadratic in the length of a dead chain; the tests compare
`eliminate_dead_gates` with it, and check both on hand-written rule
examples. Its rule check (`match_rule`) and SWAP relabel (`relabel`) are
its own, written from the R1-R4 table in that module's docstring, so a
rule error in the pass shows as a difference. It numbers each gate by its
position in its input itself, in `(position, gate)` pairs, so it keys on
no gate object: one gate object may stand at several positions.
`frontier` gives the frontier of a circuit by position; the tests check
it against a brute-force definition.
"""

from __future__ import annotations

from deadgate.circuit import Circuit, Controlled, Gate, SingleQubit, Swap
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


def numbered_frontier(n: int, numbered: list[tuple[int, Gate]]) -> set[int]:
    """Numbers of the gates in `numbered`, `(number, gate)` pairs in
    program order over n wires, that are last on every wire they touch."""
    seen = bytearray(n)
    unseen = n
    out: set[int] = set()
    for i, g in reversed(numbered):
        fresh = True
        for q in g.qubits:
            if seen[q]:
                fresh = False
                break
        if fresh:
            out.add(i)
        for q in g.qubits:
            if not seen[q]:
                seen[q] = 1
                unseen -= 1
        if unseen == 0:
            break
    return out


def frontier(c: Circuit) -> set[int]:
    """Positions of gates that are last on every wire they touch."""
    return numbered_frontier(c.n, list(enumerate(c.gates)))


def sweep_eliminate(
    c: Circuit, flags: RuleFlags = RuleFlags()
) -> tuple[Circuit, OptimizationReport]:
    """Run the removal fixpoint; returns the optimized circuit and a report
    that names each removed gate by its position in `c.gates`."""
    numbered = list(enumerate(c.gates))  # (position in c.gates, gate)
    dead = c.dead
    outcome_map = c.outcome_map
    removed: list[RemovedGate] = []
    iterations = 0
    gate_checks = 0

    while True:
        iterations += 1
        snapshot = sorted(numbered_frontier(c.n, numbered))
        dropped: set[int] = set()
        by_position = dict(numbered)
        for pos in snapshot:
            gate_checks += 1
            kind = by_position[pos].kind
            rule = match_rule(kind, dead, flags)
            if rule is None:
                continue
            dropped.add(pos)
            if rule is RemovalRule.R3:
                dead, outcome_map = relabel(kind, dead, outcome_map)
            removed.append(RemovedGate(pos, kind.summary(), rule.value))
        if not dropped:
            break
        numbered = [(i, g) for i, g in numbered if i not in dropped]

    gates = tuple(g for _, g in numbered)
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
    return Circuit(c.n, gates, dead, outcome_map), report

