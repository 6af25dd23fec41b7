"""Command-line surface: optimize, verify, bench.

Exit codes: 0 success (verify: equivalent), 1 verify found the files
inequivalent, 2 usage, parse, or configuration errors.

The oracle and the bench harness, and numpy with them, load on first
use, so `optimize` starts without numpy. Their names are still
attributes of this module (PEP 562), and the commands call them through
whatever is bound here at call time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .circuit import Circuit, CircuitError
from .defaults import DEFAULT_QUBIT_CAP, DEFAULT_SAMPLES, DEFAULT_TOL
from .eliminate import RuleFlags, eliminate_dead_gates
from .qasm import DIALECT_VERSION, QasmError, parse, serialize

if TYPE_CHECKING:
    from .oracle import EquivalenceVerdict

_LAZY = {
    "bind_opaques": "oracle",
    "check_marginal_equiv": "oracle",
    "BenchConfig": "bench",
    "DeadMode": "bench",
    "manifest_json": "bench",
    "run_bench": "bench",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _resolve(name: str):
    """`name` as bound in this module now, loading it on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


def _write(path: Path, text: str) -> None:
    """Write `text` to `path` in place, then cut off any older, longer
    tail. A regular file is not truncated to zero first: on ext4, writing
    into a file just truncated to zero forces writeback at close, which
    costs milliseconds per file. The price is crash consistency: a crash
    mid-rewrite can leave new text followed by old (see the README).
    Symlinks are followed, and devices and FIFOs are written without
    truncation."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: it
    costs over ten times a parse, and parsing leaves it unchanged (no
    option has a mutable default)."""
    parser = argparse.ArgumentParser(
        prog="deadgate",
        description="Remove gates that only influence discarded measurement outcomes.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"deadgate {__version__} (dialect {DIALECT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="remove dead gates from a circuit file")
    p_opt.add_argument("input", type=Path)
    p_opt.add_argument("output", type=Path)
    p_opt.add_argument("--report", type=Path, help="write a JSON removal report")
    p_opt.add_argument(
        "--extended", action="store_true",
        help="also remove any frontier gate acting only on dead wires",
    )
    p_opt.add_argument(
        "--no-swap-relabel", action="store_true",
        help="keep SWAP gates (disables the relabeling rule)",
    )

    p_ver = sub.add_parser("verify", help="check two circuit files for equivalence")
    p_ver.add_argument("a", type=Path)
    p_ver.add_argument("b", type=Path)
    p_ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--qubit-limit", type=int, default=DEFAULT_QUBIT_CAP)
    p_ver.add_argument(
        "--map", dest="pairing",
        help="dead-wire pairing i:j,... for equivalence up to relabeling",
    )

    p_bench = sub.add_parser("bench", help="random-circuit benchmark sweep")
    p_bench.add_argument("--widths", default="2:40:2",
                         help="start:stop:step or comma list (default 2:40:2)")
    p_bench.add_argument("--dead", default="fixed:1",
                         help="fixed:k or pct:p dead-qubit setting")
    p_bench.add_argument("--programs", type=int, default=20)
    p_bench.add_argument("--blocks", type=int, default=10)
    p_bench.add_argument("--gate-multiplier", type=int, default=100)
    p_bench.add_argument("--1q-fraction", dest="fraction_1q", type=float, default=0.10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--palette", default="cx,cz,swap",
                         help="two-qubit gate palette (subset of cx,cz,swap)")
    p_bench.add_argument("--verify-fraction", type=float, default=0.05)
    p_bench.add_argument("--no-timing", action="store_true",
                         help="report zero elapsed time so CSV bytes are reproducible")
    p_bench.add_argument("--out", type=Path, required=True)
    return parser


def _load(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except QasmError as exc:
        print(f"{path}:{exc.line}: {exc.message}", file=sys.stderr)
        return None


def cmd_optimize(args) -> int:
    src = _load(args.input)
    if src is None:
        return 2
    flags = RuleFlags(extended=args.extended, swap_relabel=not args.no_swap_relabel)
    optimized, report = eliminate_dead_gates(src.circuit, flags)
    out_text = serialize(src.with_circuit(optimized))
    try:
        _write(args.output, out_text)
        if args.report:
            _write(args.report, report.to_json())
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    rules = {}
    for r in report.removed:
        rules[r.rule] = rules.get(r.rule, 0) + 1
    breakdown = ", ".join(f"{k} x{v}" for k, v in sorted(rules.items()))
    print(
        f"removed {len(report.removed)} of {report.initial_gate_count} gates "
        f"in {report.iterations} sweeps" + (f" ({breakdown})" if breakdown else "")
    )
    if report.outcome_map != sorted(report.outcome_map):
        print(f"outcome map: {report.outcome_map}")
    return 0


def _parse_pairing(text: str) -> dict[int, int]:
    """`--map i:j,...` as {i: j}; no wire may be named twice on a side."""
    pairing: dict[int, int] = {}
    for item in text.split(","):
        try:
            left, right = (int(part) for part in item.split(":"))
        except ValueError:
            raise ValueError(f"--map item {item!r} is not of the form i:j") from None
        if left in pairing or right in pairing.values():
            raise ValueError(f"--map names a wire twice in {item!r}")
        pairing[left] = right
    return pairing


def _paired_wires(
    ca: Circuit, cb: Circuit, pairing: dict[int, int]
) -> tuple[list[int], list[int]]:
    """A's kept wires ascending, and B's wires to compare them with.

    `pairing` maps each wire dead only in A to its replacement dead only in
    B; B is read on A's kept wires with each such replacement's partner
    swapped in.
    """
    dead_a, dead_b = ca.dead, cb.dead
    if len(dead_a) != len(dead_b):
        raise ValueError("dead sets must have equal size")
    if set(pairing) != dead_a - dead_b or set(pairing.values()) != dead_b - dead_a:
        raise ValueError(
            "pairing must be a bijection between the dead wires unique to each side"
        )
    subst = {j: i for i, j in pairing.items()}
    kept = [q for q in range(ca.n) if q not in dead_a]
    return kept, [subst.get(q, q) for q in kept]


def _print_verdict(verdict: EquivalenceVerdict, samples: int, tol: float) -> int:
    print(f"verdict: {'equivalent' if verdict.equivalent else 'inequivalent'}")
    print(f"samples: {samples}")
    print(f"tolerance: {tol:g}")
    print(f"max_discrepancy: {verdict.max_discrepancy:.6e}")
    if verdict.witness is not None:
        seed, outcome = verdict.witness
        print(f"witness_state_seed: {seed[0]},{seed[1]}")
        print(f"witness_outcome: {outcome}")
    return 0 if verdict.equivalent else 1


def cmd_verify(args) -> int:
    if args.samples < 1:
        # with no sample there is no evidence of equivalence
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    if not 0 <= args.tol < 1:
        # a gap between probabilities is below 1, so a tolerance of 1 or
        # more accepts every pair; a negative or NaN one accepts none
        print(f"--tol must be finite and in [0, 1), got {args.tol}", file=sys.stderr)
        return 2
    # the second file is read only if the first loads, so one bad file
    # given twice is reported once
    if (a := _load(args.a)) is None or (b := _load(args.b)) is None:
        return 2
    ca, cb = a.circuit, b.circuit
    if ca.n != cb.n:
        print(f"qubit counts differ: {ca.n} vs {cb.n}", file=sys.stderr)
        return 2
    if ca.n > args.qubit_limit:
        print(f"{ca.n} qubits exceeds the limit of {args.qubit_limit}", file=sys.stderr)
        return 2
    try:
        bindings = _resolve("bind_opaques")([ca, cb], seed=args.seed)
        if args.pairing is not None:
            wires_a, wires_b = _paired_wires(ca, cb, _parse_pairing(args.pairing))
        else:
            # Compare the joint distribution of the kept classical bits; each
            # file's measure statements say which wire carries which bit.
            kept_a = {c: w for w, c in a.measures if w not in ca.dead}
            kept_b = {c: w for w, c in b.measures if w not in cb.dead}
            if set(kept_a) != set(kept_b):
                print(
                    "kept classical bits differ between the files; "
                    "use --map for relabeled comparisons",
                    file=sys.stderr,
                )
                return 2
            bits = sorted(kept_a)
            wires_a, wires_b = [kept_a[c] for c in bits], [kept_b[c] for c in bits]
        verdict = _resolve("check_marginal_equiv")(
            ca, cb, wires_a, wires_b,
            samples=args.samples, seed=args.seed, tol=args.tol,
            bindings=bindings, cap=args.qubit_limit,
        )
        return _print_verdict(verdict, args.samples, args.tol)
    except (CircuitError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _parse_widths(text: str) -> tuple[int, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            start, stop, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
        else:
            raise ValueError(f"bad width range {text!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"bad width range {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


def cmd_bench(args) -> int:
    try:
        cfg = _resolve("BenchConfig")(
            widths=_parse_widths(args.widths),
            dead_mode=_resolve("DeadMode").parse(args.dead),
            gate_multiplier=args.gate_multiplier,
            single_qubit_fraction=args.fraction_1q,
            blocks=args.blocks,
            programs=args.programs,
            seed=args.seed,
            palette=tuple(p.strip() for p in args.palette.split(",")),
            verify_fraction=args.verify_fraction,
            measure_time=not args.no_timing,
        )
        cfg.validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    records, csv_text = _resolve("run_bench")(cfg)
    try:
        _write(args.out, csv_text)
        manifest_path = args.out.with_suffix(args.out.suffix + ".manifest.json")
        _write(manifest_path, _resolve("manifest_json")(cfg, __version__))
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {len(cfg.widths)} summary rows ({len(records)} runs) to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "optimize":
        return cmd_optimize(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_bench(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
