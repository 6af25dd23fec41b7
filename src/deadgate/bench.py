"""Random-circuit benchmark harness.

Generates hybrid programs of `blocks` Clifford+T random circuits per
program, runs the elimination pass on every block, and aggregates gate
reduction and wall time per circuit width into a CSV. Classical segments
of a hybrid program are modeled only by the dead set they induce on the
following block.

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
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, GateKind, SingleQubit, named_kind

# build_circuit stays a name here: perfbench's tracer wraps bench.build_circuit
from .circuit import build_circuit  # noqa: F401
from .defaults import MAX_CIRCUIT_GATES, MAX_SWEEP_BLOCKS
from .eliminate import RuleFlags, eliminate_dead_gates
from .oracle import check_marginal_equiv

_ONE_QUBIT = ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg")
DEFAULT_PALETTE = ("cx", "cz", "swap")
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
    gate_multiplier: int = 100
    single_qubit_fraction: float = 0.10
    blocks: int = 60
    programs: int = 1000
    seed: int = 0
    palette: tuple[str, ...] = DEFAULT_PALETTE
    verify_fraction: float = 0.05
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
        # run_bench keeps one record per block until the CSV is written
        if (total := len(self.widths) * self.programs * self.blocks) > MAX_SWEEP_BLOCKS:
            raise ValueError(f"{total} blocks per sweep exceeds {MAX_SWEEP_BLOCKS}")
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


@dataclass(slots=True)
class BenchRecord:
    width: int
    dead_mode: str
    program: int
    block: int
    dead_count: int
    gates_before: int
    gates_removed: int
    elapsed_micros: float


class _Draws(NamedTuple):
    """The generator's per-gate draws for one circuit. `random_circuit`
    draws every wire in range and two distinct wires per two-qubit gate."""

    is_1q: np.ndarray
    base_idx: np.ndarray
    wire: np.ndarray
    pal_idx: np.ndarray
    a: np.ndarray
    b: np.ndarray
    palette: tuple[str, ...]

    def kind(self, i: int) -> GateKind:
        if self.is_1q.item(i):
            return SingleQubit(_ONE_QUBIT[self.base_idx.item(i)], self.wire.item(i))
        return named_kind(self.palette[self.pal_idx.item(i)], (self.a.item(i), self.b.item(i)))


class DrawnGates:
    """Read-only gate sequence over a random circuit's draws.

    `Gate(i, kind)` is built each time index i is read, so a pass that
    walks only the tail never builds the rest. The sequence is its first
    `stop` drawn gates followed by `tail`, a tuple of gates. `[:k]` and
    `+ tuple` give sequences on the same draws; every other slice is a
    tuple. It compares equal to a tuple of the same gates, either way round.
    """

    __slots__ = ("_draws", "_stop", "_tail")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, draws: _Draws, stop: int, tail: tuple[Gate, ...] = ()) -> None:
        self._draws = draws
        self._stop = stop
        self._tail = tail

    def __len__(self) -> int:
        return self._stop + len(self._tail)

    def _at(self, i: int) -> Gate:
        if i < self._stop:
            return Gate(i, self._draws.kind(i))
        return self._tail[i - self._stop]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if start == 0 and step == 1:
                if stop <= self._stop:
                    return DrawnGates(self._draws, stop)
                return DrawnGates(self._draws, self._stop, self._tail[: stop - self._stop])
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
        return DrawnGates(self._draws, self._stop, self._tail + other)

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

    All gates are drawn at once, every wire in range by construction:
    a two-qubit gate's second wire is its first shifted by 1 to w-1
    modulo w. Each `Gate` is built only where its index is read (see
    `DrawnGates`)."""
    if w < 2 and not fraction_1q >= 1.0:
        raise ValueError("two-qubit gates need width >= 2")
    rng = np.random.default_rng(seed)
    is_1q = rng.random(gates) < fraction_1q
    base_idx = rng.integers(0, len(_ONE_QUBIT), size=gates)
    wire = rng.integers(0, w, size=gates)
    pal_idx = rng.integers(0, len(palette), size=gates)
    first = rng.integers(0, w, size=gates)
    shift = rng.integers(1, w, size=gates) if w > 1 else np.zeros(gates, dtype=int)
    draws = _Draws(is_1q, base_idx, wire, pal_idx, first, (first + shift) % w, palette)
    return Circuit(w, DrawnGates(draws, gates), frozenset(), tuple(range(w)))


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


def _spot_verify(original: Circuit, optimized: Circuit, seed) -> None:
    valid = [q for q in range(original.n) if q not in original.dead]
    mapped = [optimized.outcome_map[q] for q in valid]
    # the pass keeps the gates before its walk as a view on the same
    # draws, so only the walked tails can differ
    start = optimized.gates._stop
    verdict = check_marginal_equiv(
        replace(original, gates=tuple(original.gates[start:])),
        replace(optimized, gates=tuple(optimized.gates[start:])),
        valid, mapped, seed=seed,
    )
    if not verdict.equivalent:
        raise AssertionError(
            f"spot verification failed: discrepancy {verdict.max_discrepancy:.3e} "
            f"(witness {verdict.witness})"
        )


def run_bench(cfg: BenchConfig) -> tuple[list[BenchRecord], str]:
    """All per-block records plus the summary CSV text."""
    records: list[BenchRecord] = []
    verify_every = int(round(1 / cfg.verify_fraction)) if cfg.verify_fraction > 0 else 0
    candidates = 0
    dead_mode = str(cfg.dead_mode)  # one string shared by every record
    for width in cfg.widths:
        gates = cfg.gate_multiplier * width
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
                        _spot_verify(circuit, optimized, (*root, 3))
                records.append(
                    BenchRecord(
                        width=width,
                        dead_mode=dead_mode,
                        program=program,
                        block=block,
                        dead_count=len(dead),
                        gates_before=report.initial_gate_count,
                        gates_removed=len(report.removed),
                        elapsed_micros=elapsed,
                    )
                )
    return records, summary_csv(records, cfg)


def summary_csv(records: list[BenchRecord], cfg: BenchConfig) -> str:
    lines = ["width,dead_mode,mean_removed,mean_micros,programs,blocks,seed"]
    for width in cfg.widths:
        rows = [r for r in records if r.width == width]
        mean_removed = sum(r.gates_removed for r in rows) / len(rows)
        mean_micros = sum(r.elapsed_micros for r in rows) / len(rows)
        lines.append(
            f"{width},{cfg.dead_mode},{mean_removed:.6f},{mean_micros:.3f},"
            f"{cfg.programs},{cfg.blocks},{cfg.seed}"
        )
    return "\n".join(lines) + "\n"


def manifest_json(cfg: BenchConfig, version: str) -> str:
    doc = {
        "tool_version": version,
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
