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
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Controlled, GateKind, SingleQubit, Swap, build_circuit
from .eliminate import RuleFlags, eliminate_dead_gates
from .oracle import check_marginal_equiv

_ONE_QUBIT = ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg")
DEFAULT_PALETTE = ("cx", "cz", "swap")


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
        if not value:
            raise ValueError(f"dead mode {text!r} is not of the form fixed:k or pct:p")
        return DeadMode(kind, int(value))


@dataclass
class BenchConfig:
    widths: tuple[int, ...]
    dead_mode: DeadMode
    gate_multiplier: int = 100
    single_qubit_fraction: float = 0.10
    blocks: int = 60
    programs: int = 1000
    seed: int = 0
    palette: tuple[str, ...] = DEFAULT_PALETTE
    flags: RuleFlags = field(default_factory=RuleFlags)
    verify_fraction: float = 0.05
    verify_samples: int = 20
    measure_time: bool = True

    def validate(self) -> None:
        if not self.widths or min(self.widths) < 2:
            raise ValueError("widths must all be >= 2")
        if not 0 < self.single_qubit_fraction < 1:
            raise ValueError("single-qubit fraction must be in (0,1)")
        if self.gate_multiplier < 1 or self.blocks < 1 or self.programs < 1:
            raise ValueError("gate multiplier, blocks and programs must be >= 1")
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


def random_circuit(
    w: int,
    gates: int,
    fraction_1q: float,
    seed,
    palette: tuple[str, ...] = DEFAULT_PALETTE,
) -> Circuit:
    """Clifford+T circuit: each gate is single-qubit with probability
    fraction_1q (uniform base, uniform wire), otherwise a uniform palette
    pick on a uniform ordered pair of distinct wires."""
    if w < 2 and fraction_1q < 1.0:
        raise ValueError("two-qubit gates need width >= 2")
    rng = np.random.default_rng(seed)
    is_1q = rng.random(gates) < fraction_1q
    base_idx = rng.integers(0, len(_ONE_QUBIT), size=gates)
    wire = rng.integers(0, w, size=gates)
    pal_idx = rng.integers(0, len(palette), size=gates)
    first = rng.integers(0, w, size=gates)
    shift = rng.integers(1, w, size=gates) if w > 1 else np.zeros(gates, dtype=int)
    kinds: list[GateKind] = []
    for i in range(gates):
        if is_1q[i]:
            kinds.append(SingleQubit(_ONE_QUBIT[base_idx[i]], int(wire[i])))
            continue
        a = int(first[i])
        b = int((first[i] + shift[i]) % w)
        name = palette[pal_idx[i]]
        if name == "cx":
            kinds.append(Controlled("X", (a,), b))
        elif name == "cz":
            kinds.append(Controlled("Z", (min(a, b),), max(a, b)))
        else:
            kinds.append(Swap(a, b))
    return build_circuit(w, kinds)


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


def _spot_verify(original: Circuit, optimized: Circuit, seed, samples: int) -> None:
    valid = [q for q in range(original.n) if q not in original.dead]
    mapped = [optimized.outcome_map[q] for q in valid]
    verdict = check_marginal_equiv(
        original, optimized, valid, mapped, samples=samples, seed=seed, tol=1e-9
    )
    if not verdict.equivalent:
        raise AssertionError(
            f"spot verification failed: discrepancy {verdict.max_discrepancy:.3e} "
            f"(witness {verdict.witness})"
        )


def run_bench(cfg: BenchConfig) -> tuple[list[BenchRecord], str]:
    """All per-block records plus the summary CSV text."""
    cfg.validate()
    records: list[BenchRecord] = []
    verify_every = int(round(1 / cfg.verify_fraction)) if cfg.verify_fraction > 0 else 0
    candidates = 0
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
                optimized, report = eliminate_dead_gates(circuit, cfg.flags)
                elapsed = (time.perf_counter() - start) * 1e6 if cfg.measure_time else 0.0
                if verify_every and width <= 10:
                    candidates += 1
                    if candidates % verify_every == 0:
                        _spot_verify(circuit, optimized, (*root, 3), cfg.verify_samples)
                records.append(
                    BenchRecord(
                        width=width,
                        dead_mode=str(cfg.dead_mode),
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
        "extended": cfg.flags.extended,
        "swap_relabel": cfg.flags.swap_relabel,
        "verify_fraction": cfg.verify_fraction,
        "measure_time": cfg.measure_time,
    }
    return json.dumps(doc, indent=2) + "\n"
