"""Oracle defaults the command line needs before it loads numpy."""

DEFAULT_QUBIT_CAP = 12
DEFAULT_SAMPLES = 20
DEFAULT_TOL = 1e-9
