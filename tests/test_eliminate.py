import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadgate import (
    Circuit,
    CircuitError,
    Controlled,
    Opaque,
    OptimizationReport,
    RemovalRule,
    RuleFlags,
    SingleQubit,
    Swap,
    bind_opaques,
    build_circuit,
    check_marginal_equiv,
    eliminate_dead_gates,
)
from deadgate.bench import DeadMode, random_circuit, select_dead
from deadgate.circuit import BASE_PARAMS
from deadgate.eliminate import RemovedGate

from sweep_reference import (
    apply_removal,
    complexity_probe,
    is_dead_gate,
    sweep_eliminate,
)
from test_circuit import fig2_kinds


def with_dead(c: Circuit, dead) -> Circuit:
    return Circuit(c.n, c.gates, frozenset(dead), c.outcome_map)


class TestIsDeadGate:
    def test_controlled_target_dead(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        assert is_dead_gate(c, 4) is RemovalRule.R2

    def test_single_qubit_on_live_wire(self):
        c = build_circuit(2, [SingleQubit("H", 1)], dead={0})
        assert is_dead_gate(c, 0) is None

    def test_single_qubit_on_dead_wire(self):
        c = build_circuit(2, [SingleQubit("H", 0)], dead={0})
        assert is_dead_gate(c, 0) is RemovalRule.R1

    def test_swap_one_dead_endpoint(self):
        c = build_circuit(2, [Swap(0, 1)], dead={0})
        assert is_dead_gate(c, 0) is RemovalRule.R3

    def test_swap_both_dead(self):
        c = build_circuit(3, [Swap(0, 1)], dead={0, 1})
        assert is_dead_gate(c, 0) is RemovalRule.R3

    def test_swap_rule_disabled(self):
        c = build_circuit(2, [Swap(0, 1)], dead={0})
        assert is_dead_gate(c, 0, RuleFlags(swap_relabel=False)) is None

    def test_controls_dead_target_live(self):
        c = build_circuit(2, [Controlled("X", (0,), 1)], dead={0})
        assert is_dead_gate(c, 0) is None

    def test_extension_all_dead_opaque(self):
        c = build_circuit(3, [Opaque("B", (0, 1))], dead={0, 1})
        assert is_dead_gate(c, 0) is None
        assert is_dead_gate(c, 0, RuleFlags(extended=True)) is RemovalRule.R4

    def test_not_in_frontier_rejected(self):
        c = build_circuit(2, [SingleQubit("H", 0), SingleQubit("X", 0)], dead={0})
        with pytest.raises(CircuitError):
            is_dead_gate(c, 0)


class TestApplyRemoval:
    def test_swap_relabels_dead_and_outcome_map(self):
        c = build_circuit(2, [Swap(0, 1)], dead={0})
        out = apply_removal(c, 0, RemovalRule.R3)
        assert out.dead == {1}
        # label 1's outcome now lives on wire 0, and vice versa
        assert out.outcome_map == (1, 0)

    def test_swap_both_dead_no_relabel(self):
        c = build_circuit(3, [Swap(0, 2)], dead={0, 2})
        out = apply_removal(c, 0, RemovalRule.R3)
        assert out.dead == {0, 2}
        assert out.outcome_map == (0, 1, 2)

    def test_r1_leaves_dead_set(self):
        c = build_circuit(2, [SingleQubit("H", 0)], dead={0})
        out = apply_removal(c, 0, RemovalRule.R1)
        assert out.dead == {0}
        assert out.gates == ()

    def test_removed_gate_is_gone(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        out = apply_removal(c, 4, RemovalRule.R2)
        with pytest.raises(CircuitError):
            apply_removal(out, 4, RemovalRule.R2)

    def test_rule_mismatch(self):
        c = build_circuit(2, [SingleQubit("H", 0)], dead={0})
        with pytest.raises(CircuitError):
            apply_removal(c, 0, RemovalRule.R2)


class TestEliminate:
    def test_fig2_trace(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.id for r in rep.removed] == [4, 3, 1]
        assert all(r.rule == "R2_controlled_target_dead" for r in rep.removed)
        assert [g.id for g in opt.gates] == [0, 2]
        assert rep.iterations == 4  # three removing sweeps plus the empty one
        assert rep.initial_gate_count - rep.final_gate_count == len(rep.removed)

    def test_no_dead_qubits(self):
        c = build_circuit(3, fig2_kinds(), dead=set())
        opt, rep = eliminate_dead_gates(c)
        assert rep.removed == []
        assert rep.iterations == 1
        assert opt.gates == c.gates

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for i in range(20):
            w = int(rng.integers(3, 8))
            c = random_circuit(w, 15 * w, 0.1, seed=(21, i))
            c = with_dead(c, select_dead(w, DeadMode("fixed", 1), seed=(22, i)))
            once, _ = eliminate_dead_gates(c)
            twice, rep = eliminate_dead_gates(once)
            assert rep.removed == []
            assert twice.gates == once.gates

    def test_monotone_in_dead_set(self):
        rng = np.random.default_rng(31)
        for i in range(20):
            w = int(rng.integers(4, 9))
            perm = [int(q) for q in rng.permutation(w)]
            # no swaps: removed sets must nest as the dead set grows
            c = random_circuit(w, 12 * w, 0.1, seed=(31, i), palette=("cx", "cz"))
            _, rep1 = eliminate_dead_gates(with_dead(c, perm[:1]))
            _, rep2 = eliminate_dead_gates(with_dead(c, perm[:3]))
            assert {r.id for r in rep1.removed} <= {r.id for r in rep2.removed}
            # with swaps and relabeling only the counts are comparable
            cs = random_circuit(w, 12 * w, 0.1, seed=(32, i))
            _, rep1 = eliminate_dead_gates(with_dead(cs, perm[:1]))
            _, rep2 = eliminate_dead_gates(with_dead(cs, perm[:3]))
            assert len(rep1.removed) <= len(rep2.removed)

    def test_dead_cardinality_preserved(self):
        rng = np.random.default_rng(41)
        for i in range(20):
            w = int(rng.integers(3, 8))
            c = random_circuit(w, 15 * w, 0.1, seed=(41, i))
            k = int(rng.integers(1, w - 1)) if w > 2 else 1
            c = with_dead(c, select_dead(w, DeadMode("fixed", k), seed=(42, i)))
            opt, rep = eliminate_dead_gates(c)
            assert len(opt.dead) == len(c.dead)
            assert sorted(opt.dead) == rep.final_dead

    def test_blocked_controlled_gate_survives(self):
        # the cautionary example: W on the control wire keeps the
        # controlled gate out of the frontier, so nothing is removed
        c = build_circuit(
            2,
            [Opaque("U_2", (0, 1)), Controlled("Y", (1,), 0), Opaque("W", (1,))],
            dead={0},
        )
        opt, rep = eliminate_dead_gates(c)
        assert rep.removed == []
        assert len(opt.gates) == 3

    def test_report_deterministic(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        _, rep1 = eliminate_dead_gates(c)
        _, rep2 = eliminate_dead_gates(c)
        assert rep1.to_json() == rep2.to_json()

    def test_swap_chain_relabels_transitively(self):
        # swaps are removed back to front as they reach the frontier; the
        # dead label walks from wire 0 to wire 2 and the map composes
        kinds = [Opaque("U", (0, 1, 2)), Swap(1, 2), Swap(0, 1)]
        c = build_circuit(3, kinds, dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.id for r in rep.removed] == [2, 1]
        assert opt.dead == {2}
        assert opt.outcome_map == (2, 0, 1)
        bindings = bind_opaques([c], seed=17)
        valid = [1, 2]
        mapped = [opt.outcome_map[q] for q in valid]
        verdict = check_marginal_equiv(
            c, opt, valid, mapped, samples=10, seed=4, bindings=bindings
        )
        assert verdict.equivalent

    def test_extension_flag_removes_all_dead_opaque(self):
        c = build_circuit(
            3, [Opaque("U", (0, 1, 2)), Opaque("B", (0, 1))], dead={0, 1}
        )
        opt_default, rep_default = eliminate_dead_gates(c)
        assert rep_default.removed == []
        opt_ext, rep_ext = eliminate_dead_gates(c, RuleFlags(extended=True))
        assert [r.id for r in rep_ext.removed] == [1]
        assert rep_ext.removed[0].rule == "R4_all_dead_unitary"
        bindings = bind_opaques([c], seed=9)
        valid = [2]
        verdict = check_marginal_equiv(
            c, opt_ext, valid, valid, samples=10, seed=1, bindings=bindings
        )
        assert verdict.equivalent

    def test_swap_relabel_oracle_checked(self):
        # remove SWAP(0,1) with q0 dead, then read the kept outcome through
        # the updated outcome map
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c = build_circuit(3, kinds, dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.rule for r in rep.removed] == ["R3_swap_relabel"]
        assert opt.dead == {1}
        bindings = bind_opaques([c], seed=13)
        valid = [1, 2]
        mapped = [opt.outcome_map[q] for q in valid]
        verdict = check_marginal_equiv(
            c, opt, valid, mapped, samples=10, seed=2, bindings=bindings
        )
        assert verdict.equivalent


class TestComplexityProbe:
    def test_empty_circuit(self):
        assert complexity_probe(build_circuit(2, [], dead={0})) == (0, 1)

    def test_quadratic_bound_on_random_circuits(self):
        rng = np.random.default_rng(51)
        for i in range(10):
            w = int(rng.integers(3, 9))
            c = random_circuit(w, 100, 0.1, seed=(51, i))
            c = with_dead(c, select_dead(w, DeadMode("fixed", 2), seed=(52, i)))
            checks, sweeps = complexity_probe(c)
            assert checks <= 100 * 101
            assert sweeps >= 1

    def test_qpe_sweep_count(self):
        from fixtures import qpe_instance

        c = qpe_instance(m=4, r=2).circuit
        checks, sweeps = complexity_probe(c)
        assert sweeps == 6  # one per removed chain gate plus the final sweep


ALL_FLAGS = [
    RuleFlags(extended=e, swap_relabel=s) for e in (False, True) for s in (True, False)
]


def assert_matches_sweep(c: Circuit, flags: RuleFlags) -> None:
    fast, report = eliminate_dead_gates(c, flags)
    ref, ref_report = sweep_eliminate(c, flags)
    assert fast == ref
    assert report.to_json() == ref_report.to_json()


@st.composite
def wires(draw, n: int, k: int) -> tuple[int, ...]:
    return tuple(draw(st.permutations(range(n)))[:k])


@st.composite
def gate_kinds(draw, n: int) -> list:
    """One gate, or a chain of SWAPs that walks deadness across wires."""
    shapes = ["single", "opaque"] + (["controlled", "swap", "swap_chain"] if n > 1 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "single":
        base = draw(st.sampled_from(sorted(BASE_PARAMS)))
        params = tuple(draw(st.floats(-7, 7)) for _ in range(BASE_PARAMS[base]))
        return [SingleQubit(base, draw(st.integers(0, n - 1)), params)]
    if shape == "opaque":
        ws = draw(wires(n, draw(st.integers(1, min(n, 3)))))
        return [Opaque(f"B{len(ws)}", ws)]
    if shape == "controlled":
        base = draw(st.sampled_from(["X", "Y", "Z", "RZ"]))
        params = (draw(st.floats(-7, 7)),) if base == "RZ" else ()
        *controls, target = draw(wires(n, draw(st.integers(2, min(n, 3)))))
        return [Controlled(base, tuple(controls), target, params)]
    if shape == "swap":
        return [Swap(*draw(wires(n, 2)))]
    path = draw(wires(n, draw(st.integers(2, n))))
    return [Swap(a, b) for a, b in zip(path, path[1:])]


@st.composite
def dead_circuits(draw) -> Circuit:
    n = draw(st.integers(1, 14))
    groups = draw(st.lists(gate_kinds(n), max_size=40))
    dead = draw(st.sets(st.integers(0, n - 1)))
    return build_circuit(n, [k for group in groups for k in group], dead)


class TestLinearPassMatchesSweep:
    """The one-pass elimination against the frontier-sweep reference."""

    @settings(max_examples=400, deadline=None)
    @given(c=dead_circuits(), flags=st.sampled_from(ALL_FLAGS))
    def test_random_circuits(self, c, flags):
        assert_matches_sweep(c, flags)

    @pytest.mark.parametrize("mode", ["fixed:1", "pct:10", "pct:20", "pct:75"])
    def test_bench_circuits_at_every_width(self, mode):
        for w in range(2, 41):
            for i in range(2):
                c = random_circuit(w, 100 * w, 0.1, seed=(71, w, i))
                c = with_dead(c, select_dead(w, DeadMode.parse(mode), seed=(72, w, i)))
                assert_matches_sweep(c, ALL_FLAGS[(w + i) % 4])

    @pytest.mark.parametrize("g", [1, 64, 8000])
    def test_dead_chain_closed_forms(self, g):
        # a live H, then g gates on dead wire 0: one removal per sweep from
        # the back, while the H is checked in every sweep
        chain = [SingleQubit(("H", "T", "S", "X")[i % 4], 0) for i in range(g)]
        c = build_circuit(2, [SingleQubit("H", 1), *chain], dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.id for r in rep.removed] == list(range(g, 0, -1))
        assert rep.iterations == g + 1
        assert rep.gate_checks == g + (g + 1)
        assert [gt.id for gt in opt.gates] == [0]
        if g <= 64:
            assert_matches_sweep(c, RuleFlags())


def dumped_report(report: OptimizationReport) -> str:
    """The report as `json` writes it, the text `to_json` must equal."""
    doc = {
        "initial_gate_count": report.initial_gate_count,
        "final_gate_count": report.final_gate_count,
        "iterations": report.iterations,
        "gate_checks": report.gate_checks,
        "removed": [{"id": r.id, "gate": r.gate, "rule": r.rule} for r in report.removed],
        "final_dead": report.final_dead,
        "outcome_map": report.outcome_map,
    }
    return json.dumps(doc, indent=2) + "\n"


int_lists = st.lists(st.integers(), max_size=4)


class TestReportJson:
    """`to_json` writes its text directly; it must equal `json.dumps`'s."""

    @settings(max_examples=150, deadline=None)
    @given(
        report=st.builds(
            OptimizationReport,
            removed=st.lists(
                st.builds(RemovedGate, id=st.integers(), gate=st.text(), rule=st.text()),
                max_size=4,
            ),
            iterations=st.integers(),
            initial_gate_count=st.integers(),
            final_gate_count=st.integers(),
            final_dead=int_lists,
            outcome_map=int_lists,
            gate_checks=st.integers(),
        )
    )
    def test_generated_reports(self, report):
        assert report.to_json() == dumped_report(report)

    @settings(max_examples=100, deadline=None)
    @given(c=dead_circuits(), flags=st.sampled_from(ALL_FLAGS))
    def test_pass_reports(self, c, flags):
        report = eliminate_dead_gates(c, flags)[1]
        assert report.to_json() == dumped_report(report)
