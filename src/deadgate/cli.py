"""Command-line surface: optimize, verify, bench.

Exit codes: 0 success (verify: equivalent), 1 verify found the files
inequivalent, 2 usage, parse, file, or configuration errors. A command
returns 0 or 1 or raises; `main` reports each OSError as `path: message`
and each ValueError (CircuitError, bad configurations, and parse errors
as `path:line: message`) as its message, on one stderr line, and exits 2.

The oracle and the bench harness, and numpy with them, load on first
use, so `optimize` starts without numpy: `cmd_bench` imports the bench
module when it runs. `check_marginal_equiv` and `run_bench` are still
attributes of this module (PEP 562), and the commands call them through
whatever is bound here at call time, so that a tracer's wrap on this
module takes effect.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .circuit import Circuit, CircuitError
from .defaults import (
    DEFAULT_1Q_FRACTION, DEFAULT_BENCH_SEED, DEFAULT_BLOCKS, DEFAULT_GATE_MULTIPLIER,
    DEFAULT_PALETTE, DEFAULT_PROGRAMS, DEFAULT_QUBIT_CAP, DEFAULT_SAMPLES, DEFAULT_TOL,
    DEFAULT_VERIFY_FRACTION, MAX_CIRCUIT_GATES,
)
from .eliminate import RuleFlags, eliminate_dead_gates
from .qasm import DIALECT_VERSION, QasmError, parse, serialize

if TYPE_CHECKING:
    from .oracle import EquivalenceVerdict

# exactly the lazy names perfbench's tracer wraps on this module;
# bind_opaques is left to check_marginal_equiv and only traced here
_LAZY = {
    "bind_opaques": "oracle",
    "check_marginal_equiv": "oracle",
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


@contextlib.contextmanager
def _outputs(*paths: Path):
    """A text file writing each of `paths`, created if missing and not
    truncated, for `_write`. All are opened before the work that fills
    them, so that a path that cannot be written, or two paths that name
    one regular file (by device and inode, so through a link too), are
    refused before that work and before any output is written; a new
    path may be left empty. Each file is closed on leaving, written or
    not."""
    def in_place(path: str, flags: int) -> int:
        return os.open(path, flags & ~os.O_TRUNC, 0o666)

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", opener=in_place)) for path in paths]
        regular: dict[tuple[int, int], str] = {}
        for fh in files:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                if (key := (st.st_dev, st.st_ino)) in regular:
                    raise ValueError(f"outputs {regular[key]} and {fh.name} are one file")
                regular[key] = fh.name
        yield files


def _write(fh, text: str) -> None:
    """Write `text` over the start of `fh`, from `_outputs`, then cut off
    any older, longer tail, and close it. A regular file is not truncated
    to zero first: on ext4, writing into a file just truncated to zero
    forces writeback at close, which costs milliseconds per file. The
    price is crash consistency: a crash mid-rewrite can leave new text
    followed by old (see the README). Symlinks are followed, and devices
    and FIFOs are written without truncation. An error in writing or
    closing is raised with the file's path as its file name, which such
    an error would otherwise lack."""
    try:
        with fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, fh.name) from None


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
    p_opt.set_defaults(run=cmd_optimize)
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
    p_ver.set_defaults(run=cmd_verify)
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
    p_bench.set_defaults(run=cmd_bench)
    p_bench.add_argument("--widths", default="2:40:2",
                         help="start:stop:step or comma list (default 2:40:2)")
    p_bench.add_argument("--dead", default="fixed:1",
                         help="fixed:k or pct:p dead-qubit setting")
    p_bench.add_argument("--programs", type=int, default=DEFAULT_PROGRAMS)
    p_bench.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    p_bench.add_argument("--gate-multiplier", type=int, default=DEFAULT_GATE_MULTIPLIER)
    p_bench.add_argument("--1q-fraction", dest="fraction_1q", type=float,
                         default=DEFAULT_1Q_FRACTION)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_BENCH_SEED)
    palette = ",".join(DEFAULT_PALETTE)
    p_bench.add_argument("--palette", default=palette,
                         help=f"two-qubit gate palette (subset of {palette})")
    p_bench.add_argument("--verify-fraction", type=float, default=DEFAULT_VERIFY_FRACTION)
    p_bench.add_argument("--no-timing", action="store_true",
                         help="report zero elapsed time so CSV bytes are reproducible")
    p_bench.add_argument("--out", type=Path, required=True)
    return parser


def _load(path: Path):
    """The parsed file at `path`, read as UTF-8 whatever the locale. A
    parse or decode error is raised as a ValueError that names the file;
    an OSError passes through."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except QasmError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc.message}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_optimize(args) -> int:
    src = _load(args.input)
    flags = RuleFlags(extended=args.extended, swap_relabel=not args.no_swap_relabel)
    with _outputs(*filter(None, (args.output, args.report))) as files:
        optimized, report = eliminate_dead_gates(src.circuit, flags)
        _write(files[0], serialize(src.with_circuit(optimized)))
        if args.report:
            _write(files[1], report.to_json())
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
    # the second file is read only if the first loads, so one bad file
    # given twice is reported once
    a, b = _load(args.a), _load(args.b)
    ca, cb = a.circuit, b.circuit
    # neither the kept bits nor a pairing can match files of two widths
    if ca.n != cb.n:
        raise CircuitError(f"qubit counts differ: {ca.n} vs {cb.n}")
    if args.pairing is not None:
        wires_a, wires_b = _paired_wires(ca, cb, _parse_pairing(args.pairing))
    else:
        # Compare the joint distribution of the kept classical bits; each
        # file's measure statements say which wire carries which bit.
        kept_a = {c: w for w, c in a.measures if w not in ca.dead}
        kept_b = {c: w for w, c in b.measures if w not in cb.dead}
        if set(kept_a) != set(kept_b):
            raise ValueError(
                "kept classical bits differ between the files; "
                "use --map for relabeled comparisons"
            )
        bits = sorted(kept_a)
        wires_a, wires_b = [kept_a[c] for c in bits], [kept_b[c] for c in bits]
    if not wires_a:
        # a marginal over no bits is 1 for every state, so any two files
        # would agree: that is no evidence of equivalence
        raise ValueError("no kept bits to compare: every wire is dead")
    verdict = _resolve("check_marginal_equiv")(
        ca, cb, wires_a, wires_b,
        samples=args.samples, seed=args.seed, tol=args.tol, cap=args.qubit_limit,
    )
    return _print_verdict(verdict, args.samples, args.tol)


def _parse_widths(text: str) -> tuple[int, ...]:
    """`--widths` as start:stop[:step], stop included, or a comma list."""
    is_range = ":" in text
    try:
        parts = [int(p) for p in text.split(":" if is_range else ",")]
        if not is_range:
            return tuple(parts)
        # four or more parts fail to unpack
        start, stop, step = parts if len(parts) == 3 else (*parts, 1)
    except ValueError:
        raise ValueError(f"bad width {'range' if is_range else 'list'} {text!r}") from None
    # more widths than the gate bound make no valid sweep: refuse before building
    if step <= 0 or stop < start or (stop - start) // step >= MAX_CIRCUIT_GATES:
        raise ValueError(f"bad width range {text!r}")
    return tuple(range(start, stop + 1, step))


def cmd_bench(args) -> int:
    from . import bench

    cfg = bench.BenchConfig(
        widths=_parse_widths(args.widths),
        dead_mode=bench.DeadMode.parse(args.dead),
        gate_multiplier=args.gate_multiplier,
        single_qubit_fraction=args.fraction_1q,
        blocks=args.blocks,
        programs=args.programs,
        seed=args.seed,
        palette=tuple(p.strip() for p in args.palette.split(",")),
        verify_fraction=args.verify_fraction,
        measure_time=not args.no_timing,
    )
    manifest_path = args.out.with_suffix(args.out.suffix + ".manifest.json")
    with _outputs(args.out, manifest_path) as (csv_file, manifest_file):
        _, csv_text = _resolve("run_bench")(cfg)
        _write(csv_file, csv_text)
        _write(manifest_file, bench.manifest_json(cfg))
    runs = len(cfg.widths) * cfg.programs * cfg.blocks
    print(f"wrote {len(cfg.widths)} summary rows ({runs} runs) to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # every refusal a command raises is reported here, on one line
    try:
        return args.run(args)
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror or exc}", file=sys.stderr)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
    return 2


def entry() -> None:
    # The oracle's batches hold at most 16,384 amplitudes, where a second
    # BLAS thread costs CPU time and saves none. Set before numpy loads;
    # a value the user set wins.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
