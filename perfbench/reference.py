"""Checks made apart from deadgate: a removal reference, a reader for the
optimizer's output files and a small dense simulator.

The removal reference is one reverse walk over the gates with a per-wire
"blocked" flag. A gate is removable once every later gate on its wires is
gone, and which rule applies depends only on the dead set at that point,
which only later SWAPs on its own wires change. So walking from the last
gate back, keeping a gate blocks its wires for every earlier gate, and
removing a SWAP with one dead end moves the deadness as rule R3 does.
This yields the same removed set, final dead set and outcome map as the
program's repeated frontier sweeps, by a different algorithm.
"""

from __future__ import annotations

import math
import re

import numpy as np

from inputs import CONTROLLED, SYMMETRIC, angle_value

ONE_QUBIT = frozenset(("h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u3"))


def removal_rule(op: str, wires, dead, extended: bool, relabel: bool) -> str | None:
    if op in ONE_QUBIT:
        return "R1" if wires[0] in dead else None
    if op in CONTROLLED:
        target = max(wires) if op in SYMMETRIC else wires[-1]
        if target in dead:
            return "R2"
    if op == "swap" and relabel and (wires[0] in dead or wires[1] in dead):
        return "R3"
    if extended and all(q in dead for q in wires):
        return "R4"
    return None


def reference_removal(n: int, gates, dead, extended=False, relabel=True):
    """(removed indices ascending, final dead set sorted, outcome map) for
    gates given as (op, angles, wires) in program order."""
    dead = set(dead)
    outcome_map = list(range(n))
    blocked = [False] * n
    removed = []
    for i in range(len(gates) - 1, -1, -1):
        op, _, wires = gates[i]
        rule = None
        if not any(blocked[q] for q in wires):
            rule = removal_rule(op, wires, dead, extended, relabel)
        if rule is None:
            for q in wires:
                blocked[q] = True
            continue
        removed.append(i)
        if rule == "R3":
            a, b = wires
            if (a in dead) != (b in dead):
                dead ^= {a, b}
                outcome_map = [b if w == a else a if w == b else w for w in outcome_map]
    removed.reverse()
    return removed, sorted(dead), outcome_map


_GATE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\(([^)]*)\))? (q\[\d+\](?:,q\[\d+\])*);")
_MEASURE = re.compile(r"measure q\[(\d+)\] -> c\[(\d+)\];")
_DISCARD = re.compile(r"#pragma dge discard q\[(\d+)\]")


class OutputFile:
    """The statements of a file written by `deadgate optimize`."""

    def __init__(self, text: str) -> None:
        self.n = None
        self.gates = []  # (op, angle values, wires)
        self.measures = []
        self.discards = []
        for line in text.splitlines():
            if line in ("OPENQASM 2.0;", 'include "qelib1.inc";') or \
                    line.startswith(("creg ", "opaque ")):
                continue
            if line.startswith("qreg "):
                self.n = int(re.fullmatch(r"qreg q\[(\d+)\];", line).group(1))
            elif (m := _MEASURE.fullmatch(line)):
                self.measures.append((int(m.group(1)), int(m.group(2))))
            elif (m := _DISCARD.fullmatch(line)):
                self.discards.append(int(m.group(1)))
            elif (m := _GATE.fullmatch(line)):
                angles = tuple(float(a) for a in m.group(2).split(",")) if m.group(2) else ()
                wires = tuple(int(w) for w in re.findall(r"\d+", m.group(3)))
                self.gates.append((m.group(1), angles, wires))
            else:
                raise ValueError(f"unexpected output line {line!r}")

    @property
    def dead(self) -> list[int]:
        measured = {w for w, _ in self.measures}
        return sorted(set(range(self.n)) - measured | set(self.discards))


def normal_gate(gate):
    """(op, angle values, wires) with symmetric gates' wires sorted, as the
    serializer writes them."""
    op, angles, wires = gate
    values = tuple(a if isinstance(a, float) else angle_value(a) for a in angles)
    return op, values, tuple(sorted(wires)) if op in SYMMETRIC else tuple(wires)


def same_gate(a, b) -> bool:
    return (a[0] == b[0] and a[2] == b[2] and len(a[1]) == len(b[1])
            and all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
                    for x, y in zip(a[1], b[1])))


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(any(same_gate(s, g) for g in it) for s in sub)


def check_optimize_output(prog, out_text: str, report: dict, summary: str) -> list[str]:
    """Problems with one `optimize` result; an empty list means correct."""
    problems = []
    extended = "--extended" in prog.flags
    relabel = "--no-swap-relabel" not in prog.flags
    removed, dead, outcome_map = reference_removal(prog.n, prog.gates, prog.dead,
                                                   extended, relabel)
    try:
        out = OutputFile(out_text)
    except (ValueError, AttributeError) as exc:
        return [f"{prog.name}: {exc}"]
    want_ids = sorted(r["id"] for r in report["removed"])
    if want_ids != removed:
        problems.append(f"{prog.name}: removed ids differ from the reference "
                        f"({len(want_ids)} vs {len(removed)})")
    if report["final_dead"] != dead:
        problems.append(f"{prog.name}: final_dead {report['final_dead']} != {dead}")
    if report["outcome_map"] != outcome_map:
        problems.append(f"{prog.name}: outcome_map differs from the reference")
    if report["initial_gate_count"] != report["final_gate_count"] + len(report["removed"]):
        problems.append(f"{prog.name}: initial != final + removed in the report")
    if report["initial_gate_count"] != len(prog.gates):
        problems.append(f"{prog.name}: initial_gate_count != input gates")
    removed_set = set(removed)
    kept = [normal_gate(g) for i, g in enumerate(prog.gates) if i not in removed_set]
    got = [normal_gate(g) for g in out.gates]
    if len(kept) != len(got) or not all(same_gate(a, b) for a, b in zip(kept, got)):
        problems.append(f"{prog.name}: kept gates differ from the reference")
    if not is_subsequence(got, [normal_gate(g) for g in prog.gates]):
        problems.append(f"{prog.name}: output gates are not a subsequence of the input")
    if out.n != prog.n or out.dead != dead or out.discards != dead:
        problems.append(f"{prog.name}: output dead wires or discard pragmas differ from {dead}")
    if out.measures != [(outcome_map[w], c) for w, c in prog.measures]:
        problems.append(f"{prog.name}: output measures are not routed through the map")
    if not summary.startswith(f"removed {len(removed)} of {len(prog.gates)} gates"):
        problems.append(f"{prog.name}: summary line {summary!r}")
    return problems


# --- dense simulator --------------------------------------------------------

_S2 = 1 / math.sqrt(2)
_FIXED = {
    "h": [[_S2, _S2], [_S2, -_S2]], "x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]], "s": [[1, 0], [0, 1j]], "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, complex(_S2, _S2)]], "tdg": [[1, 0], [0, complex(_S2, -_S2)]],
}
_BASE = {"cx": "x", "cy": "y", "cz": "z", "ccx": "x", "ccz": "z", "crz": "rz"}


def matrix(op: str, a) -> np.ndarray:
    if op in _FIXED:
        return np.array(_FIXED[op], dtype=complex)
    if op == "rx":
        c, s = math.cos(a[0] / 2), math.sin(a[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if op == "ry":
        c, s = math.cos(a[0] / 2), math.sin(a[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op == "rz":
        return np.array([[np.exp(-0.5j * a[0]), 0], [0, np.exp(0.5j * a[0])]])
    if op == "u3":
        t, p, l = a
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -np.exp(1j * l) * s],
                         [np.exp(1j * p) * s, np.exp(1j * (p + l)) * c]])
    raise ValueError(op)


def haar(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _on_axes(state: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    k = len(axes)
    moved = np.moveaxis(state, axes, range(k))
    shape = moved.shape
    out = (u @ moved.reshape(2 ** k, -1)).reshape(shape)
    return np.moveaxis(out, range(k), axes)


def run(n: int, gates, state: np.ndarray, unitaries) -> np.ndarray:
    """State after the gates; qubit q is axis q. `gates` hold angle values."""
    psi = state.reshape((2,) * n).copy()
    for op, angles, wires in gates:
        if op in ONE_QUBIT:
            psi = _on_axes(psi, matrix(op, angles), wires)
        elif op in CONTROLLED:
            target = max(wires) if op in SYMMETRIC else wires[-1]
            ctrls = [q for q in wires if q != target]
            index = [slice(None)] * n
            for q in ctrls:
                index[q] = 1
            sub = psi[tuple(index)]
            axis = target - sum(1 for q in ctrls if q < target)
            psi[tuple(index)] = _on_axes(sub, matrix(_BASE[op], angles), [axis])
        elif op == "swap":
            psi = np.swapaxes(psi, wires[0], wires[1])
        else:
            psi = _on_axes(psi, unitaries[op], list(wires))
    return psi


def kept_marginal(n: int, psi: np.ndarray, measures, dead) -> np.ndarray:
    """Joint distribution of the kept classical bits, in ascending bit order."""
    kept = sorted((c, w) for w, c in measures if w not in dead)
    wires = [w for _, w in kept]
    probs = np.abs(psi) ** 2
    drop = tuple(q for q in range(n) if q not in wires)
    marg = probs.sum(axis=drop) if drop else probs
    order = sorted(wires)
    return np.transpose(marg, [order.index(w) for w in wires]).reshape(-1)


def marginal_gap(n: int, side_a, side_b, opaque: dict, states: int, seed) -> float:
    """Largest gap between the two sides' kept-bit distributions over
    `states` random input states. A side is (gates, measures, dead)."""
    rng = np.random.default_rng(seed)
    unitaries = {label: haar(2 ** k, rng) for label, k in sorted(opaque.items())}
    worst = 0.0
    for _ in range(states):
        amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        amps /= np.linalg.norm(amps)
        dists = [kept_marginal(n, run(n, g, amps, unitaries), m, d) for g, m, d in
                 (side_a, side_b)]
        if dists[0].shape != dists[1].shape:
            return math.inf
        worst = max(worst, float(np.max(np.abs(dists[0] - dists[1]))))
    return worst


def program_side(prog):
    return [normal_gate(g) for g in prog.gates], prog.measures, prog.dead


def output_side(out: OutputFile):
    return out.gates, out.measures, set(out.dead)
