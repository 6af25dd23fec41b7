"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The bench-based criteria
share one session-scoped sweep (seed 7, widths 2-40 step 2, 20 programs,
10 blocks per program).
"""

import json
import math
import time

import numpy as np
import pytest

from deadgate import (
    Controlled,
    Opaque,
    SingleQubit,
    Swap,
    build_circuit,
    check_marginal_equiv,
    eliminate_dead_gates,
    parse,
    serialize,
)
from deadgate.bench import BenchConfig, DeadMode, run_bench
from deadgate.cli import main

import fixtures
from helpers import kept_wires, paired_wires, source_from_circuit

BENCH_SEED = 7
WIDTHS = tuple(range(2, 41, 2))
MODES = ("fixed:1", "pct:10", "pct:20")


def bench_config(mode: str, **overrides) -> BenchConfig:
    base = dict(
        widths=WIDTHS, dead_mode=DeadMode.parse(mode), programs=20, blocks=10, seed=BENCH_SEED,
        verify_fraction=0.05,
    )
    base.update(overrides)
    return BenchConfig(**base)


@pytest.fixture(scope="session")
def bench_sweep():
    """Timed per-width totals and CSV for each dead mode."""
    out = {}
    for mode in MODES:
        totals, csv_text = run_bench(bench_config(mode))
        out[mode] = (totals, csv_text)
    return out


def bench_runs() -> int:
    cfg = bench_config(MODES[0])
    return cfg.programs * cfg.blocks


def width_means(totals, micros=False):
    """Mean gates removed (or pass microseconds) per block, by width."""
    return {w: (t if micros else removed) / bench_runs() for w, removed, t in totals}


def test_criterion_1_three_qubit_fixture(tmp_path):
    start = time.perf_counter()
    src = parse(fixtures.three_qubit_example_source())
    optimized, report = eliminate_dead_gates(src.circuit)
    # removal order: the controlled-Y, the two-control gate, then the CX
    assert [r.id for r in report.removed] == [4, 3, 1]
    assert all(r.rule == "R2_controlled_target_dead" for r in report.removed)
    survivors = [g.kind for g in optimized.gates]
    assert survivors == [Opaque("U_3", (0, 1, 2)), Opaque("W_1", (2,))]
    kept = kept_wires(src.circuit)
    verdict = check_marginal_equiv(
        src.circuit, optimized, kept, kept,
        samples=20, seed=1, tol=1e-9,
    )
    assert verdict.equivalent
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - 3 removals, oracle equivalent, {elapsed:.2f}s")


def test_criterion_2_vqe_fixture():
    src = parse(fixtures.vqe_ansatz_source())
    assert src.circuit.dead == {0, 1}
    optimized, report = eliminate_dead_gates(src.circuit)
    assert len(report.removed) == 7
    rules = [r.rule for r in report.removed]
    assert rules.count("R1_single_on_dead") == 4  # the four dead rotations
    assert rules.count("R2_controlled_target_dead") == 3  # CZ and both CX
    simplified = parse(fixtures.vqe_simplified_source())
    assert [g.kind for g in optimized.gates] == [
        g.kind for g in simplified.circuit.gates
    ]
    assert optimized.dead == simplified.circuit.dead
    out = serialize(src.with_circuit(optimized))
    assert len(parse(out).circuit.gates) == 5
    print("\nACCEPTANCE 2: PASS - 7 removals (4xR1 + 3xR2), output matches A2")


def test_criterion_3_qpe_fixture():
    src = parse(fixtures.qpe_source(m=4, r=2))
    assert src.circuit.n == 7
    optimized, report = eliminate_dead_gates(src.circuit)
    assert len(report.removed) == 5  # m controlled rotations plus one Hadamard
    rules = [r.rule for r in report.removed]
    assert rules == ["R1_single_on_dead"] + ["R2_controlled_target_dead"] * 4
    kept = kept_wires(src.circuit)
    verdict = check_marginal_equiv(
        src.circuit, optimized, kept, kept,
        samples=20, seed=2, tol=1e-9,
    )
    assert verdict.equivalent
    print("\nACCEPTANCE 3: PASS - QPE m=4 drops 5 gates, oracle equivalent")


def test_criterion_4_theorem_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(401)

    def u3_params():
        return tuple(float(a) for a in rng.uniform(-math.pi, math.pi, size=3))

    for i in range(100):  # single-qubit gate on a dead wire
        n = int(rng.integers(2, 7))
        qi = int(rng.integers(n))
        kinds = [Opaque("U", tuple(range(n))), SingleQubit("U3", qi, u3_params())]
        c1 = build_circuit(n, kinds, dead={qi})
        c2 = build_circuit(n, kinds[:1], dead={qi})
        kept = kept_wires(c1)
        verdict = check_marginal_equiv(c1, c2, kept, kept, samples=1, seed=(403, i), tol=1e-9)
        assert verdict.equivalent, f"single-qubit instance {i}"

    for i in range(100):  # controlled gate targeting a dead wire
        nc = 1 + i % 3
        n = int(rng.integers(nc + 1, 7))
        wires = [int(q) for q in rng.permutation(n)[: nc + 1]]
        target, controls = wires[0], tuple(wires[1:])
        kinds = [
            Opaque("U", tuple(range(n))),
            Controlled("U3", controls, target, u3_params()),
        ]
        c1 = build_circuit(n, kinds, dead={target})
        c2 = build_circuit(n, kinds[:1], dead={target})
        kept = kept_wires(c1)
        verdict = check_marginal_equiv(c1, c2, kept, kept, samples=1, seed=(405, i), tol=1e-9)
        assert verdict.equivalent, f"controlled instance {i} (nc={nc})"

    for i in range(100):  # SWAP with one dead endpoint, relabeled comparison
        n = int(rng.integers(2, 7))
        qi, qj = (int(q) for q in rng.permutation(n)[:2])
        kinds = [Opaque("U", tuple(range(n))), Swap(qi, qj)]
        c1 = build_circuit(n, kinds, dead={qi})
        c2 = build_circuit(n, kinds[:1], dead={qj})
        verdict = check_marginal_equiv(
            c1, c2, *paired_wires(c1, {qi: qj}),
            samples=1, seed=(407, i), tol=1e-9,
        )
        assert verdict.equivalent, f"swap instance {i}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4: PASS - 300 theorem instances at 1e-9, {elapsed:.1f}s")


def test_criterion_5_counterexamples(tmp_path):
    pairs = [
        ("blocked", fixtures.blocked_controlled_source(),
         fixtures.blocked_controlled_invalid_source()),
        ("cz", fixtures.cz_blocked_source(), fixtures.cz_blocked_invalid_source()),
        ("cnot", fixtures.cnot_source(), fixtures.empty_two_qubit_source()),
    ]
    # (a) the pass never performs the invalid removal
    for name, source, _ in pairs[:2]:
        circuit = parse(source).circuit
        _, report = eliminate_dead_gates(circuit)
        assert report.removed == [], name
    conj = parse(fixtures.cnot_conjugated_source()).circuit
    optimized, _ = eliminate_dead_gates(conj)
    assert any(isinstance(g.kind, Controlled) for g in optimized.gates)
    # (b) the invalid simplification is flagged inequivalent, exit 1
    for name, original, invalid in pairs:
        a = tmp_path / f"{name}_a.qasm"
        b = tmp_path / f"{name}_b.qasm"
        a.write_text(original)
        b.write_text(invalid)
        assert main(["verify", str(a), str(b), "--seed", "3"]) == 1, name
    print("\nACCEPTANCE 5: PASS - invalid removals never produced, all flagged")


@pytest.fixture(scope="session")
def soundness_sweep(tmp_path_factory):
    """Criterion 6's 200 optimize-then-verify runs: the indices whose
    verify failed, every removal report, and the seconds taken."""
    tmp_path = tmp_path_factory.mktemp("soundness")
    start = time.perf_counter()
    failures = []
    reports = []
    for i in range(200):
        w = 3 + i % 8
        palette = ("cx", "cz", "swap") if i % 2 == 0 else ("cx", "cz")
        k = min(1 + i % 3, w - 1)
        circuit = random_circuit_with_dead(w, 20 * w, k, seed_tag=i, palette=palette)
        src_path = tmp_path / f"c{i}.qasm"
        out_path = tmp_path / f"c{i}.opt.qasm"
        rep_path = tmp_path / f"c{i}.json"
        src_path.write_text(serialize(source_from_circuit(circuit)))
        assert main(["optimize", str(src_path), str(out_path),
                     "--report", str(rep_path)]) == 0
        code = main(["verify", str(src_path), str(out_path),
                     "--samples", "20", "--tol", "1e-9", "--seed", str(i)])
        if code != 0:
            failures.append(i)
        reports.append(json.loads(rep_path.read_text()))
    return failures, reports, time.perf_counter() - start


def test_criterion_6_soundness_sweep(soundness_sweep):
    failures, _, elapsed = soundness_sweep
    assert failures == []
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6: PASS - 200/200 circuits verified, {elapsed:.0f}s")


def random_circuit_with_dead(w, gates, k, seed_tag, palette):
    from deadgate.bench import random_circuit, select_dead
    from deadgate.circuit import Circuit

    c = random_circuit(w, gates, 0.1, seed=(601, seed_tag), palette=palette)
    dead = select_dead(w, DeadMode("fixed", k), seed=(602, seed_tag))
    return Circuit(c.n, c.gates, dead, c.outcome_map)


def test_criterion_7_trend_reproduction(bench_sweep):
    fixed1, _ = bench_sweep["fixed:1"]
    means = width_means(fixed1)
    assert all(m > 0 for m in means.values())
    assert means[4] > means[40]
    window = np.array([means[w] for w in range(24, 41, 2)])
    center = float(window.mean())
    # "varies by < 25% relative": every width-24..40 mean stays within a
    # 25% band around the window mean
    deviation = float(np.max(np.abs(window - center))) / center
    assert deviation < 0.25

    group_means = {}
    for which in ("pct:10", "pct:20"):
        totals, _ = bench_sweep[which]
        mode = DeadMode.parse(which)
        by_count = {}
        for w, removed, _ in totals:
            by_count.setdefault(mode.count(w), []).append(removed)
        ordered = [sum(v) / (len(v) * bench_runs()) for _, v in sorted(by_count.items())]
        assert all(b >= a for a, b in zip(ordered, ordered[1:])), which
        group_means[which] = ordered

    p10 = width_means(bench_sweep["pct:10"][0])
    p20 = width_means(bench_sweep["pct:20"][0])
    assert all(p20[w] >= p10[w] for w in WIDTHS)
    print(
        f"\nACCEPTANCE 7: PASS - fixed1 {means[4]:.2f}@4 > {means[40]:.2f}@40, "
        f"stabilization deviation {deviation:.1%}, pct trends monotone"
    )


def test_criterion_8_complexity_contract(bench_sweep, soundness_sweep):
    _, reports, _ = soundness_sweep
    assert len(reports) == 200
    for doc in reports:
        g = doc["initial_gate_count"]
        assert doc["gate_checks"] <= g * (g + 1)
    for source in (
        fixtures.three_qubit_example_source(),
        fixtures.vqe_ansatz_source(),
        fixtures.qpe_source(m=4, r=2),
    ):
        c = parse(source).circuit
        _, report = eliminate_dead_gates(c)
        g = len(c.gates)
        assert report.gate_checks <= g * (g + 1)

    micros = width_means(bench_sweep["fixed:1"][0], micros=True)
    slope = float(np.polyfit(
        np.log(list(micros.keys())), np.log(list(micros.values())), 1
    )[0])
    assert slope < 1.6
    print(f"\nACCEPTANCE 8: PASS - quadratic check bound holds, time slope {slope:.2f}")


@pytest.fixture(scope="session")
def untimed_csvs():
    """Two untimed runs of each dead mode's sweep, as CSV text.

    Wall time is the one nondeterministic column, so the byte comparison
    runs untimed; the untimed CSV must agree with the timed sweep on
    every other column.
    """
    out = {}
    for mode in MODES:
        cfg = bench_config(mode, verify_fraction=0.0, measure_time=False)
        out[mode] = (run_bench(cfg)[1], run_bench(cfg)[1])
    return out


def test_criterion_9_determinism(tmp_path, untimed_csvs):
    # criteria 1-3: byte-identical outputs and reports on a rerun
    for name, source in (
        ("fig", fixtures.three_qubit_example_source()),
        ("vqe", fixtures.vqe_ansatz_source()),
        ("qpe", fixtures.qpe_source(m=4, r=2)),
    ):
        src = tmp_path / f"{name}.qasm"
        src.write_text(source)
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}.{attempt}.qasm"
            rep = tmp_path / f"{name}.{attempt}.json"
            assert main(["optimize", str(src), str(out), "--report", str(rep)]) == 0
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1], name

    # criterion 7: reruns with the same seeds produce byte-identical CSVs
    for mode in MODES:
        csv_a, csv_b = untimed_csvs[mode]
        assert csv_a == csv_b, mode
    print("\nACCEPTANCE 9: PASS - reports and CSVs byte-identical across reruns")


def test_criterion_9_timed_csv_matches_untimed(bench_sweep, untimed_csvs):
    def strip_timing(csv_text):
        rows = []
        for line in csv_text.strip().splitlines():
            cols = line.split(",")
            rows.append(",".join(cols[:3] + cols[4:]))
        return "\n".join(rows)

    for mode in MODES:
        _, timed_csv = bench_sweep[mode]
        untimed_csv, _ = untimed_csvs[mode]
        assert strip_timing(timed_csv) == strip_timing(untimed_csv)
