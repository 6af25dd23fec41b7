"""Defaults and bounds the command line needs before it loads numpy."""

DEFAULT_QUBIT_CAP = 12
DEFAULT_SAMPLES = 20
DEFAULT_TOL = 1e-9
# bench gates per circuit, gate_multiplier * width (acceptance sweep: 4,000 at most)
MAX_CIRCUIT_GATES = 10**6
