#!/usr/bin/env python3
"""Benchmark of deadgate's three commands, run in-process from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: it calls
``deadgate.cli.main([...])`` for one operation after another, in rounds
that each pass once over the workload's seeded inputs, until S seconds
have gone. After the timed rounds it checks every output against
computations made apart from the program (see reference.py). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the same rounds run with spans around
each layer (see spans.py) and the metrics are per layer.

Workloads: optimize_live, optimize_dead_tail, optimize_verify, bench_sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One thread for numpy's BLAS, set before numpy loads: the workloads run in
# one single-threaded process, and a BLAS thread spinning on the second of
# a few shared cores makes the oracle's times swing with the other load
# on the host. Set-up interpreters inherit the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import inputs
import reference
from spans import Tracer, install, layer_metrics, self_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Independent kept-bit marginals are recomputed on this many optimize/verify
# pairs per run, chosen by the seed, each over this many random states.
MARGINAL_PAIRS = 4
MARGINAL_STATES = 3
# Generated optimize_verify programs (8 and 11 qubits) that also get a
# one-gate change on a kept wire; fixed so every seed does the same work.
MUTATED = (2, 12)


@dataclass
class Op:
    """One operation: CLI commands run back to back, with the exit code each
    must return, and the number of input gates it puts through."""

    name: str
    commands: list
    gates: int
    prog: object = None
    files: dict = field(default_factory=dict)
    stdout: list = field(default_factory=list)  # captured on the last run


def import_program():
    src = ROOT / "src"
    if not (src / "deadgate" / "cli.py").is_file():
        sys.exit(f"perfbench: no deadgate sources under {src}")
    sys.path.insert(0, str(src))
    import deadgate.cli
    if Path(deadgate.cli.__file__).resolve().parent != (src / "deadgate").resolve():
        sys.exit(f"perfbench: deadgate was imported from {deadgate.cli.__file__}, not {src}")
    return deadgate.cli


def optimize_command(prog, work: Path, files: dict):
    files["in"] = work / f"{prog.name}.qasm"
    files["out"] = work / f"{prog.name}.opt.qasm"
    files["report"] = work / f"{prog.name}.report.json"
    files["in"].write_text(prog.text())
    return (["optimize", str(files["in"]), str(files["out"]),
             "--report", str(files["report"]), *prog.flags], 0)


def optimize_ops(programs, work: Path) -> list[Op]:
    ops = []
    for prog in programs:
        op = Op(prog.name, [], len(prog.gates), prog)
        op.commands.append(optimize_command(prog, work, op.files))
        ops.append(op)
    return ops


def choose_mutation(prog, rng):
    """A copy of `prog` with one one-qubit gate on a kept wire changed.
    Gates last on their wire are tried first, then the others in seeded
    order, until the dense simulator sees the kept marginal move."""
    kept = set(range(prog.n)) - prog.dead
    last = {q: i for i, (_, _, wires) in enumerate(prog.gates) for q in wires}
    singles = [i for i, (op, _, wires) in enumerate(prog.gates)
               if op in reference.ONE_QUBIT and wires[0] in kept]
    order = [i for i in singles if last[prog.gates[i][2][0]] == i]
    for i in order + [singles[j] for j in rng.permutation(len(singles))]:
        mutant = inputs.mutate_kept(prog, i)
        gap = reference.marginal_gap(prog.n, reference.program_side(prog),
                                     reference.program_side(mutant), prog.opaque, 2,
                                     seed=[7, i])
        if gap > 1e-3:
            return mutant
    raise RuntimeError(f"no observable one-gate change in {prog.name}")


def verify_ops(seed: int, work: Path) -> list[Op]:
    """Optimize-then-verify pairs: each input against its own optimized
    output, the paper's instances, and pairs with known verdicts."""
    rng = np.random.default_rng([seed, 5])
    ops = []

    def pair(prog, partner, expect: int):
        op = Op(prog.name, [], len(prog.gates), prog)
        op.commands.append(optimize_command(prog, work, op.files))
        if partner is None:
            other = op.files["out"]
        else:
            other = work / f"{partner.name}.qasm"
            other.write_text(partner.text())
            op.files["partner"] = partner
        op.commands.append((["verify", str(op.files["in"]), str(other)], expect))
        ops.append(op)

    generated = inputs.verify_programs(seed)
    for prog in generated:
        pair(prog, None, 0)
    for m in (2, 3, 4):
        pair(inputs.qpe(m), None, 0)
    for a, b, equivalent in inputs.known_pairs():
        pair(a, b, 0 if equivalent else 1)
    for j in MUTATED:
        prog = generated[j]
        pair(prog, choose_mutation(prog, rng), 1)
    return ops


def bench_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for i, (widths, dead, programs, blocks, mult, frac, palette) in enumerate(
            inputs.BENCH_SLICES):
        bench_seed = int(np.random.default_rng([seed, 4, i]).integers(2**31))
        out = work / f"bench{i}.csv"
        argv = ["bench", "--out", str(out), "--widths", widths, "--dead", dead,
                "--programs", str(programs), "--blocks", str(blocks),
                "--gate-multiplier", str(mult), "--1q-fraction", frac,
                "--palette", palette, "--seed", str(bench_seed)]
        ws = tuple(int(w) for w in widths.split(","))
        op = Op(f"bench{i}", [(argv, 0)], sum(mult * w for w in ws) * programs * blocks)
        op.files = {"csv": out, "widths": ws, "dead": dead, "programs": programs,
                    "blocks": blocks, "mult": mult, "frac": float(frac),
                    "palette": tuple(palette.split(",")), "seed": bench_seed}
        ops.append(op)
    return ops


def build_ops(workload: str, seed: int, work: Path) -> list[Op]:
    if workload == "optimize_live":
        return optimize_ops(inputs.live_programs(seed), work)
    if workload == "optimize_dead_tail":
        return optimize_ops(inputs.dead_tail_programs(seed), work)
    if workload == "optimize_verify":
        return verify_ops(seed, work)
    return bench_ops(seed, work)


def execute(cli, op: Op, tracer: Tracer | None) -> tuple[bool, float, list[str]]:
    """Run one operation; (every exit code as expected, seconds, stdout)."""
    ok = True
    captured = []
    start = time.perf_counter()
    for argv, expect in op.commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli"):
                        code = cli.main(argv)
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
        if code != expect:
            ok = False
            print(f"perfbench: {op.name}: {argv[0]} exited {code}, expected {expect}: "
                  f"{err.getvalue().strip()[-300:]}", file=sys.stderr)
        captured.append(out.getvalue())
    return ok, time.perf_counter() - start, captured


def one_setup() -> float:
    """Wall time for a fresh interpreter to import deadgate.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import deadgate.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(cli, ops, seconds: float, tracer: Tracer | None):
    """Whole rounds over `ops` until `seconds` have gone; times[i] holds op
    i's seconds per round. Untraced runs also start SETUP_SAMPLES fresh
    interpreters for setup_s, one between rounds each time another
    1/(SETUP_SAMPLES + 1) of the run has gone."""
    times = [[] for _ in ops]
    setups = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for i, op in enumerate(ops):
            ok, elapsed, op.stdout = execute(cli, op, tracer)
            times[i].append(elapsed)
            attempted += 1
            failed += not ok
        rounds += 1
        due = (time.perf_counter() - start) * (SETUP_SAMPLES + 1) / seconds
        if tracer is None and len(setups) < min(SETUP_SAMPLES, int(due)):
            setups.append(one_setup())
        if time.perf_counter() >= deadline:
            break
    while tracer is None and len(setups) < SETUP_SAMPLES:
        setups.append(one_setup())
    return times, setups, attempted, failed, rounds


# --- checks -----------------------------------------------------------------

def check_optimize(op: Op, parse) -> tuple[list[str], int]:
    """Problems with the op's optimize output, and the gates it removed."""
    out_text = op.files["out"].read_text()
    report = json.loads(op.files["report"].read_text())
    summary = op.stdout[0].splitlines()[0] if op.stdout and op.stdout[0] else ""
    problems = reference.check_optimize_output(op.prog, out_text, report, summary)
    try:
        parse(out_text)
    except ValueError as exc:
        problems.append(f"{op.name}: output does not reparse: {exc}")
    return problems, len(report["removed"])


def check_verify(ops, seed: int) -> list[str]:
    """Verdict lines agree with exit codes; the dense simulator agrees with
    each known verdict and with a seeded subset of optimize/verify pairs."""
    problems = []
    for op in ops:
        (_, expect) = op.commands[1]
        verdict = op.stdout[1].splitlines()[0] if len(op.stdout) > 1 and op.stdout[1] else ""
        want = "verdict: equivalent" if expect == 0 else "verdict: inequivalent"
        if verdict != want:
            problems.append(f"{op.name}: verify printed {verdict!r}, expected {want!r}")
    rng = np.random.default_rng([seed, 6])
    self_pairs = [op for op in ops if "partner" not in op.files]
    chosen = {int(i) for i in rng.choice(len(self_pairs), MARGINAL_PAIRS, replace=False)}
    for i, op in enumerate(self_pairs):
        if i not in chosen:
            continue
        out = reference.OutputFile(op.files["out"].read_text())
        gap = reference.marginal_gap(op.prog.n, reference.program_side(op.prog),
                                     reference.output_side(out), op.prog.opaque,
                                     MARGINAL_STATES, seed=[seed, 6, i])
        if gap > 1e-9:
            problems.append(f"{op.name}: kept-bit marginals of input and output differ "
                            f"by {gap:.3e}")
    for op in ops:
        partner = op.files.get("partner")
        if partner is None:
            continue
        gap = reference.marginal_gap(op.prog.n, reference.program_side(op.prog),
                                     reference.program_side(partner), op.prog.opaque,
                                     MARGINAL_STATES, seed=[seed, 7])
        equivalent = op.commands[1][1] == 0
        if equivalent != (gap <= 1e-9) or (not equivalent and gap < 1e-6):
            problems.append(f"{op.name}: simulator gap {gap:.3e} disagrees with the "
                            f"expected verdict")
    return problems


def check_bench(op: Op, bench) -> tuple[list[str], int]:
    """The CSV's per-width mean_removed against the removal reference on
    the regenerated circuits; returns problems and gates removed."""
    f = op.files
    lines = f["csv"].read_text().splitlines()
    problems = []
    if lines[0] != "width,dead_mode,mean_removed,mean_micros,programs,blocks,seed":
        problems.append(f"{op.name}: CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(f["widths"]):
        return problems + [f"{op.name}: CSV widths differ"], 0
    mode = bench.DeadMode.parse(f["dead"])
    removed_total = 0
    for row, width in zip(rows, f["widths"]):
        removed = []
        for program in range(f["programs"]):
            for block in range(f["blocks"]):
                root = (f["seed"], width, program, block)
                c = bench.random_circuit(width, f["mult"] * width, f["frac"],
                                         seed=(*root, 1), palette=f["palette"])
                dead = bench.select_dead(width, mode, seed=(*root, 2))
                gates = [gate_from_kind(g.kind) for g in c.gates]
                removed.append(len(reference.reference_removal(width, gates, dead)[0]))
        want = f"{sum(removed) / len(removed):.6f}"
        if row[2] != want or row[1] != f["dead"] or row[6] != str(f["seed"]):
            problems.append(f"{op.name}: width {width} row {row} != mean_removed {want}")
        removed_total += sum(removed)
    return problems, removed_total


def gate_from_kind(kind):
    name = type(kind).__name__
    if name == "SingleQubit":
        return (kind.base.lower(), (), (kind.qubit,))
    if name == "Swap":
        return ("swap", (), (kind.a, kind.b))
    op = {"X": "cx", "Z": "cz"}[kind.base]
    return (op, (), (*kind.controls, kind.target))


def check_all(workload: str, ops, seed: int) -> tuple[list[str], int]:
    import deadgate.bench
    import deadgate.qasm
    problems, removed = [], 0
    for op in ops:
        try:
            if workload == "bench_sweep":
                p, r = check_bench(op, deadgate.bench)
            else:
                p, r = check_optimize(op, deadgate.qasm.parse)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # output missing or malformed
            p, r = [f"{op.name}: cannot read the output: {exc!r}"], 0
        problems += p
        removed += r
    if workload == "optimize_verify":
        problems += check_verify(ops, seed)
    return problems, removed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(
        "optimize_live", "optimize_dead_tail", "optimize_verify", "bench_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    cli = import_program()

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(args.workload, args.seed, work)
        # Peak resident memory before the first command: the interpreter,
        # numpy, deadgate's import and the generated inputs.
        harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Untimed warm-up: the first operation runs every code path the
        # workload's operations share; a whole pass would only lengthen
        # the run, and the per-operation medians absorb each file's first
        # round.
        execute(cli, ops[0], None)
        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer)
        times, setups, attempted, failed, rounds = measure(
            cli, ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        problems, removed = check_all(args.workload, ops, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [t for op_times in times for t in op_times]
    op_ms = statistics.median(samples) * 1e3
    if tracer is None:
        # A typical pass: each operation at its median over the rounds.
        typical_pass_s = sum(statistics.median(op_times) for op_times in times)
        metrics = {
            "gates_per_s": (sum(op.gates for op in ops) / typical_pass_s, "gates/s"),
            "op_ms_p50": (op_ms, "ms"),
            "gates_removed": (removed, "gates"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, rounds)
        metrics["traced.op_ms_p50"] = (op_ms, "ms")
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")

    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed, {len(problems)} check failures")
    print(f"  peak RSS before the first command: {harness_rss_mb:.1f} MB")
    for name, (value, unit) in metrics.items():
        extra = f"  (median of {len(samples)} operations)" if name.endswith("op_ms_p50") else ""
        print(f"  {name:34s} {value:14.6g} {unit}{extra}")
    if tracer is not None:
        print("  self-time share of traced CLI time: " + ", ".join(
            f"{name} {share:.1%}" for name, share in self_shares(tracer)))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
