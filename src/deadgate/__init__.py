"""Dead-gate elimination for quantum circuits in hybrid programs.

When a hybrid program discards some measurement outcomes, every gate that
only influences those outcomes can be removed without changing the
distribution of the outcomes that are kept. This package provides the
circuit IR, the removal pass, a brute-force statevector oracle that
verifies transformations, a QASM-subset front end, and a random-circuit
benchmark harness.

The oracle's names load on first use (PEP 562), so importing the package
does not import numpy.
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
from .qasm import QasmError, SourceCircuit, parse, serialize

_ORACLE_NAMES = (
    "EquivalenceVerdict",
    "bind_opaques",
    "check_marginal_equiv",
    "haar_unitary",
    "random_state",
)


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = getattr(oracle, name)
    globals()[name] = value
    return value

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
