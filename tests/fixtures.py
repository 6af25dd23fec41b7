"""Canonical example programs used by the tests and the docs.

Each fixture is dialect source text; parse() turns it into a circuit.
The three-qubit example discards its top wire, the VQE ansatz discards
two of four measured outcomes via pragmas, and the QPE instance discards
the most significant phase bit. Opaque blocks get Haar-random unitaries
from oracle.bind_opaques when a fixture is simulated.
"""

from __future__ import annotations

from deadgate.qasm import SourceCircuit, parse

# Fixed rotation angles keep fixture bytes and reports reproducible.
_VQE_THETAS = tuple(0.1 * j for j in range(1, 9))


def three_qubit_example_source() -> str:
    """3-qubit circuit whose top outcome is discarded; the block U_3 feeds a
    CX, a two-control gate and a controlled gate that all target the dead
    wire, plus a W_1 block on the bottom wire."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[3];",
            "creg c[3];",
            "opaque U_3 p0,p1,p2;",
            "opaque W_1 p0;",
            "U_3 q[0],q[1],q[2];",
            "cx q[1],q[0];",
            "W_1 q[2];",
            "ccx q[1],q[2],q[0];",
            "cy q[2],q[0];",
            "measure q[1] -> c[1];",
            "measure q[2] -> c[2];",
            "",
        ]
    )


def three_qubit_simplified_source() -> str:
    """The valid simplification of the three-qubit example: only the U_3
    block and W_1 survive."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[3];",
            "creg c[3];",
            "opaque U_3 p0,p1,p2;",
            "opaque W_1 p0;",
            "U_3 q[0],q[1],q[2];",
            "W_1 q[2];",
            "measure q[1] -> c[1];",
            "measure q[2] -> c[2];",
            "",
        ]
    )


def vqe_ansatz_source() -> str:
    """4-qubit hardware-style ansatz A1: entangling block, one RZ/RY pair
    per wire, CZ(q0,q1), CX(q2->q0), CX(q3->q1). All four wires are
    measured but only o2 and o3 feed the optimizer, so q0 and q1 are
    discarded by pragma."""
    t = _VQE_THETAS
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[4];",
            "creg c[4];",
            "opaque U_4 p0,p1,p2,p3;",
            "U_4 q[0],q[1],q[2],q[3];",
            f"rz({t[0]:.17g}) q[0];",
            f"ry({t[1]:.17g}) q[0];",
            f"rz({t[2]:.17g}) q[1];",
            f"ry({t[3]:.17g}) q[1];",
            f"rz({t[4]:.17g}) q[2];",
            f"ry({t[5]:.17g}) q[2];",
            f"rz({t[6]:.17g}) q[3];",
            f"ry({t[7]:.17g}) q[3];",
            "cz q[0],q[1];",
            "cx q[2],q[0];",
            "cx q[3],q[1];",
            "measure q[0] -> c[0];",
            "measure q[1] -> c[1];",
            "measure q[2] -> c[2];",
            "measure q[3] -> c[3];",
            "#pragma dge discard q[0]",
            "#pragma dge discard q[1]",
            "",
        ]
    )


def vqe_simplified_source() -> str:
    """The simplified ansatz A2: the entangling block plus the four
    rotations on the kept wires."""
    t = _VQE_THETAS
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[4];",
            "creg c[4];",
            "opaque U_4 p0,p1,p2,p3;",
            "U_4 q[0],q[1],q[2],q[3];",
            f"rz({t[4]:.17g}) q[2];",
            f"ry({t[5]:.17g}) q[2];",
            f"rz({t[6]:.17g}) q[3];",
            f"ry({t[7]:.17g}) q[3];",
            "measure q[0] -> c[0];",
            "measure q[1] -> c[1];",
            "measure q[2] -> c[2];",
            "measure q[3] -> c[3];",
            "#pragma dge discard q[0]",
            "#pragma dge discard q[1]",
            "",
        ]
    )


def qpe_source(m: int = 4, r: int = 2) -> str:
    """Phase-estimation instance on m+1 phase wires and an r-wire |psi>
    register: state-preparation block, the front of the inverse QFT as an
    opaque block, then the trailing controlled-rotation chain and Hadamard
    on q0. The most significant phase bit is discarded; the |psi> wires
    are never measured."""
    n = m + 1 + r
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{m + 1}];",
        "opaque U " + ",".join(f"p{i}" for i in range(n)) + ";",
        "opaque QFTf " + ",".join(f"p{i}" for i in range(m + 1)) + ";",
        "U " + ",".join(f"q[{i}]" for i in range(n)) + ";",
        "QFTf " + ",".join(f"q[{i}]" for i in range(m + 1)) + ";",
    ]
    for j in range(m, 0, -1):
        angle = -3.141592653589793 / (2**j)
        lines.append(f"crz({angle:.17g}) q[{j}],q[0];")
    lines.append("h q[0];")
    for i in range(m + 1):
        lines.append(f"measure q[{i}] -> c[{i}];")
    lines.append("#pragma dge discard q[0]")
    lines.append("")
    return "\n".join(lines)


def blocked_controlled_source() -> str:
    """The cautionary shape: a controlled gate targets the dead wire but a
    later block on its control wire keeps it out of the frontier, so it
    must never be removed."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "opaque U_2 p0,p1;",
            "opaque W p0;",
            "U_2 q[0],q[1];",
            "cy q[1],q[0];",
            "W q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def blocked_controlled_invalid_source() -> str:
    """What the invalid simplification of blocked_controlled_source would
    produce; verification must flag it."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "opaque U_2 p0,p1;",
            "opaque W p0;",
            "U_2 q[0],q[1];",
            "W q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def cnot_conjugated_source() -> str:
    """CX written as Hadamard-conjugated reversed CX; the reversed CX
    targets the dead wire but sits behind the trailing Hadamards."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "h q[0];",
            "h q[1];",
            "cx q[1],q[0];",
            "h q[0];",
            "h q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def cnot_source() -> str:
    """A bare CX with dead control wire; inequivalent to doing nothing."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "cx q[0],q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def empty_two_qubit_source() -> str:
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def cz_blocked_source() -> str:
    """CZ touching the dead wire, blocked by a later Hadamard on the kept
    wire; removing the CZ would change the kept marginal."""
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "cz q[0],q[1];",
            "h q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def cz_blocked_invalid_source() -> str:
    return "\n".join(
        [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "h q[1];",
            "measure q[1] -> c[1];",
            "",
        ]
    )


def three_qubit_example() -> SourceCircuit:
    return parse(three_qubit_example_source())


def vqe_ansatz() -> SourceCircuit:
    return parse(vqe_ansatz_source())


def qpe_instance(m: int = 4, r: int = 2) -> SourceCircuit:
    return parse(qpe_source(m, r))
