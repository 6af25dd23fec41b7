"""Defaults and bounds the command line needs before it loads numpy."""

DEFAULT_QUBIT_CAP = 12
DEFAULT_SAMPLES = 20
DEFAULT_TOL = 1e-9
# a bench sweep's settings, as `deadgate bench` and `BenchConfig` default them
DEFAULT_PROGRAMS = 20
DEFAULT_BLOCKS = 10
DEFAULT_GATE_MULTIPLIER = 100
DEFAULT_1Q_FRACTION = 0.10
DEFAULT_BENCH_SEED = 0
DEFAULT_PALETTE = ("cx", "cz", "swap")
DEFAULT_VERIFY_FRACTION = 0.05
# bench gates per circuit, gate_multiplier * width (acceptance sweep: 4,000 at most)
MAX_CIRCUIT_GATES = 10**6
