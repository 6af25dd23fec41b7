"""Dead-gate elimination for quantum circuits in hybrid programs.

When a hybrid program discards some measurement outcomes, every gate that
only influences those outcomes can be removed without changing the
distribution of the outcomes that are kept. This package provides the
circuit IR, the removal pass, a brute-force statevector oracle that
verifies transformations, a QASM-subset front end, and a random-circuit
benchmark harness.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    CircuitError,
    Controlled,
    Gate,
    GateKind,
    Opaque,
    SingleQubit,
    Swap,
    build_circuit,
)
from .eliminate import (
    OptimizationReport,
    RemovalRule,
    RuleFlags,
    eliminate_dead_gates,
)
from .oracle import (
    EquivalenceVerdict,
    bind_opaques,
    check_marginal_equiv,
    haar_unitary,
    random_state,
)
from .qasm import QasmError, SourceCircuit, parse, serialize

__all__ = [
    "Circuit",
    "CircuitError",
    "Controlled",
    "EquivalenceVerdict",
    "Gate",
    "GateKind",
    "Opaque",
    "OptimizationReport",
    "QasmError",
    "RemovalRule",
    "RuleFlags",
    "SingleQubit",
    "SourceCircuit",
    "Swap",
    "bind_opaques",
    "build_circuit",
    "check_marginal_equiv",
    "eliminate_dead_gates",
    "haar_unitary",
    "parse",
    "random_state",
    "serialize",
]
