"""Random-circuit benchmark harness.

Generates hybrid programs of `blocks` Clifford+T random circuits per
program, runs the elimination pass on every block, and sums gate
reduction and wall time per circuit width as it goes: a sweep's memory
grows with its widths, not its blocks. The CSV holds the per-width
means. Classical segments of a hybrid program are modeled only by the
dead set they induce on the following block.

Determinism: all randomness derives from (seed, width, program, block),
never from the dead mode, so percentage modes share base circuits and the
dead sets for pct:10 are nested inside those for pct:20. Wall time is the
one nondeterministic output; pass measure_time=False to pin CSV bytes.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .circuit import Circuit, Gate, GateKind, SingleQubit, named_kind

# build_circuit stays a name here: perfbench's tracer wraps bench.build_circuit
from .circuit import build_circuit  # noqa: F401
from .defaults import (
    DEFAULT_1Q_FRACTION, DEFAULT_BENCH_SEED, DEFAULT_BLOCKS, DEFAULT_GATE_MULTIPLIER,
    DEFAULT_PALETTE, DEFAULT_PROGRAMS, DEFAULT_VERIFY_FRACTION, MAX_CIRCUIT_GATES,
)
from .eliminate import OptimizationReport, RuleFlags, eliminate_dead_gates
from .oracle import check_marginal_equiv

_ONE_QUBIT = ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg")
# the sweep runs the default rules, as `deadgate optimize` does
_FLAGS = RuleFlags()


@dataclass(frozen=True)
class DeadMode:
    """fixed:k dead wires, or pct:p percent of the width (floor, min 1)."""

    kind: str  # "fixed" | "pct"
    value: int

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "pct"):
            raise ValueError(f"unknown dead mode {self.kind!r}")
        if self.value <= 0:
            raise ValueError("dead mode value must be positive")

    def count(self, width: int) -> int:
        if self.kind == "fixed":
            return self.value
        return max(1, (self.value * width) // 100)

    def __str__(self) -> str:
        return f"{self.kind}:{self.value}"

    @staticmethod
    def parse(text: str) -> "DeadMode":
        kind, _, value = text.partition(":")
        try:
            count = int(value)
        except ValueError:
            raise ValueError(
                f"dead mode {text!r} is not of the form fixed:k or pct:p"
            ) from None
        return DeadMode(kind, count)


@dataclass(frozen=True)
class BenchConfig:
    widths: tuple[int, ...]
    dead_mode: DeadMode
    gate_multiplier: int = DEFAULT_GATE_MULTIPLIER
    single_qubit_fraction: float = DEFAULT_1Q_FRACTION
    blocks: int = DEFAULT_BLOCKS
    programs: int = DEFAULT_PROGRAMS
    seed: int = DEFAULT_BENCH_SEED
    palette: tuple[str, ...] = DEFAULT_PALETTE
    verify_fraction: float = DEFAULT_VERIFY_FRACTION
    measure_time: bool = True

    def __post_init__(self) -> None:
        if not self.widths or min(self.widths) < 2:
            raise ValueError("widths must all be >= 2")
        if not 0 < self.single_qubit_fraction < 1:
            raise ValueError("single-qubit fraction must be in (0,1)")
        if self.gate_multiplier < 1 or self.blocks < 1 or self.programs < 1:
            raise ValueError("gate multiplier, blocks and programs must be >= 1")
        if (gates := self.gate_multiplier * max(self.widths)) > MAX_CIRCUIT_GATES:
            raise ValueError(f"{gates} gates per circuit exceeds {MAX_CIRCUIT_GATES}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for w in self.widths:
            k = self.dead_mode.count(w)
            if not 1 <= k < w:
                raise ValueError(
                    f"dead mode {self.dead_mode} gives {k} dead qubits at width {w}"
                )
        bad = set(self.palette) - set(DEFAULT_PALETTE)
        if bad or not self.palette:
            raise ValueError(f"unsupported two-qubit palette entries: {sorted(bad)}")
        f = self.verify_fraction
        # run_bench spot-verifies every round(1/f)-th candidate block
        if not 0 <= f <= 1 or (f > 0 and math.isinf(1 / f)):
            raise ValueError(
                f"verify fraction must be in [0, 1] with a finite 1/fraction, got {f}"
            )


class DrawnGates:
    """Read-only gate sequence over a kind function: gate i is
    `Gate(kind(i))` for i below `stop`, then come the gates of `tail`, a
    tuple.

    A gate is built each time its index is read, so a pass that walks
    only the tail never builds the rest. `[:k]` and `+ tuple` give
    sequences on the same kind function; every other slice is a tuple. It
    compares equal to a tuple of the same gates, either way round.
    """

    __slots__ = ("_kind", "_stop", "_tail")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, kind: Callable[[int], GateKind], stop: int, tail: tuple[Gate, ...] = ()
    ) -> None:
        self._kind = kind
        self._stop = stop
        self._tail = tail

    def __len__(self) -> int:
        return self._stop + len(self._tail)

    def _at(self, i: int) -> Gate:
        if i < self._stop:
            return Gate(self._kind(i))
        return self._tail[i - self._stop]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if start == 0 and step == 1:
                if stop <= self._stop:
                    return DrawnGates(self._kind, stop)
                return DrawnGates(self._kind, self._stop, self._tail[: stop - self._stop])
            return tuple(self._at(i) for i in range(start, stop, step))
        i = operator.index(index)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("gate index out of range")
        return self._at(i)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __reversed__(self):
        return map(self._at, range(len(self) - 1, -1, -1))

    def __add__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return DrawnGates(self._kind, self._stop, self._tail + other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (DrawnGates, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))


def random_circuit(
    w: int,
    gates: int,
    fraction_1q: float,
    seed,
    palette: tuple[str, ...] = DEFAULT_PALETTE,
) -> Circuit:
    """Clifford+T circuit: each gate is single-qubit with probability
    fraction_1q (uniform base, uniform wire), otherwise a uniform palette
    pick on a uniform ordered pair of distinct wires.

    All gates are drawn at once, as six arrays, every wire in range by
    construction: a two-qubit gate's second wire is its first shifted by
    1 to w-1 modulo w. The gates are a `DrawnGates` over one function
    that reads gate i's kind from the arrays, so gate i is built, as
    `Gate(kind(i))`, only where its index is read."""
    if w < 2 and not fraction_1q >= 1.0:
        raise ValueError("two-qubit gates need width >= 2")
    rng = np.random.default_rng(seed)
    is_1q = rng.random(gates) < fraction_1q
    base_idx = rng.integers(0, len(_ONE_QUBIT), size=gates)
    wire = rng.integers(0, w, size=gates)
    pal_idx = rng.integers(0, len(palette), size=gates)
    first = rng.integers(0, w, size=gates)
    shift = rng.integers(1, w, size=gates) if w > 1 else np.zeros(gates, dtype=int)
    second = (first + shift) % w

    def kind(i: int) -> GateKind:
        if is_1q.item(i):
            return SingleQubit(_ONE_QUBIT[base_idx.item(i)], wire.item(i))
        return named_kind(palette[pal_idx.item(i)], (first.item(i), second.item(i)))

    return Circuit(w, DrawnGates(kind, gates), frozenset(), tuple(range(w)))


def select_dead(w: int, mode: DeadMode, seed) -> frozenset[int]:
    """Uniform random dead set of the size the mode dictates.

    Drawn as the first k entries of a seeded permutation, so for a shared
    seed the set for a smaller k nests inside the set for a larger one.
    """
    k = mode.count(w)
    if not 1 <= k < w:
        raise ValueError(f"dead count {k} must leave at least one kept wire (w={w})")
    perm = np.random.default_rng(seed).permutation(w)
    return frozenset(int(q) for q in perm[:k])


def _spot_verify(
    original: Circuit, optimized: Circuit, report: OptimizationReport, seed
) -> None:
    """Check the pass's output against `original` on the oracle, given
    only the gates from the first removal in `report` on: the pass keeps
    every gate before it in place. Raises AssertionError if they differ."""
    valid = [q for q in range(original.n) if q not in original.dead]
    mapped = [optimized.outcome_map[q] for q in valid]
    start = min((r.id for r in report.removed), default=len(original.gates))
    verdict = check_marginal_equiv(
        replace(original, gates=original.gates[start:]),
        replace(optimized, gates=optimized.gates[start:]),
        valid, mapped, seed=seed,
    )
    if not verdict.equivalent:
        raise AssertionError(
            f"spot verification failed: discrepancy {verdict.max_discrepancy:.3e} "
            f"(witness {verdict.witness})"
        )


def run_bench(cfg: BenchConfig) -> tuple[list[tuple[int, int, float]], str]:
    """`(width, gates_removed, micros)` for each entry of `cfg.widths`, in
    order, plus the summary CSV text. `gates_removed` and `micros` (pass
    wall time, 0.0 without `measure_time`) are summed over the width's
    `programs * blocks` blocks in block order."""
    totals = []
    verify_every = int(round(1 / cfg.verify_fraction)) if cfg.verify_fraction > 0 else 0
    candidates = 0
    for width in cfg.widths:
        gates = cfg.gate_multiplier * width
        removed, micros = 0, 0.0
        for program in range(cfg.programs):
            for block in range(cfg.blocks):
                root = (cfg.seed, width, program, block)
                circuit = random_circuit(
                    width, gates, cfg.single_qubit_fraction,
                    seed=(*root, 1), palette=cfg.palette,
                )
                dead = select_dead(width, cfg.dead_mode, seed=(*root, 2))
                circuit = Circuit(circuit.n, circuit.gates, dead, circuit.outcome_map)
                start = time.perf_counter() if cfg.measure_time else 0.0
                optimized, report = eliminate_dead_gates(circuit, _FLAGS)
                elapsed = (time.perf_counter() - start) * 1e6 if cfg.measure_time else 0.0
                if verify_every and width <= 10:
                    candidates += 1
                    if candidates % verify_every == 0:
                        _spot_verify(circuit, optimized, report, (*root, 3))
                removed += len(report.removed)
                micros += elapsed
        totals.append((width, removed, micros))
    return totals, summary_csv(totals, cfg)


def summary_csv(totals: list[tuple[int, int, float]], cfg: BenchConfig) -> str:
    """One row per `(width, gates_removed, micros)` of `run_bench`, each
    sum divided by the width's `programs * blocks` blocks."""
    runs = cfg.programs * cfg.blocks
    lines = ["width,dead_mode,mean_removed,mean_micros,programs,blocks,seed"]
    for width, removed, micros in totals:
        lines.append(
            f"{width},{cfg.dead_mode},{removed / runs:.6f},{micros / runs:.3f},"
            f"{cfg.programs},{cfg.blocks},{cfg.seed}"
        )
    return "\n".join(lines) + "\n"


def manifest_json(cfg: BenchConfig) -> str:
    doc = {
        "tool_version": __version__,
        "widths": list(cfg.widths),
        "dead_mode": str(cfg.dead_mode),
        "gate_multiplier": cfg.gate_multiplier,
        "single_qubit_fraction": cfg.single_qubit_fraction,
        "blocks": cfg.blocks,
        "programs": cfg.programs,
        "seed": cfg.seed,
        "palette": list(cfg.palette),
        "extended": _FLAGS.extended,
        "swap_relabel": _FLAGS.swap_relabel,
        "verify_fraction": cfg.verify_fraction,
        "measure_time": cfg.measure_time,
    }
    return json.dumps(doc, indent=2) + "\n"
