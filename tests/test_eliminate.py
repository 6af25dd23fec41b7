import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deadgate import (
    Circuit,
    Controlled,
    Opaque,
    OptimizationReport,
    RemovalRule,
    RuleFlags,
    SingleQubit,
    Swap,
    build_circuit,
    check_marginal_equiv,
    eliminate_dead_gates,
)
from deadgate.bench import DeadMode, random_circuit, select_dead
from deadgate.eliminate import RemovedGate
from deadgate.qasm import parse

from fixtures import qpe_instance
from helpers import dead_circuits, programs
from sweep_reference import frontier, match_rule, sweep_eliminate
from test_circuit import fig2_kinds


def with_dead(c: Circuit, dead) -> Circuit:
    return Circuit(c.n, c.gates, frozenset(dead), c.outcome_map)


ALL_FLAGS = [
    RuleFlags(extended=e, swap_relabel=s) for e in (False, True) for s in (True, False)
]


def assert_matches_sweep(c: Circuit, flags: RuleFlags) -> None:
    fast, report = eliminate_dead_gates(c, flags)
    ref, ref_report = sweep_eliminate(c, flags)
    assert fast == ref
    assert report.to_json() == ref_report.to_json()


@st.composite
def bench_circuits(draw) -> Circuit:
    """A bench generator circuit at width 2-40 with a drawn dead set."""
    w = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**16))
    c = random_circuit(w, draw(st.sampled_from((5, 20))) * w, 0.1, seed=(seed, 1))
    dead = select_dead(w, DeadMode("fixed", draw(st.integers(1, w - 1))), seed=(seed, 2))
    return with_dead(c, dead)


def parsed(n: int, statement: str, measured) -> Circuit:
    """A parsed program: one gate statement, then measures of `measured`;
    every other wire is dead."""
    lines = ["OPENQASM 2.0;", f"qreg q[{n}];", f"creg c[{n}];", statement]
    lines += [f"measure q[{w}] -> c[{w}];" for w in measured]
    return parse("\n".join(lines) + "\n").circuit


R1, R2, R3, R4 = RemovalRule

# circuit, flags, removed (id, rule) pairs, dead, outcome map, sweeps, checks
RULE_EXAMPLES = [
    pytest.param(build_circuit(2, [SingleQubit("H", 0)], dead={0}), RuleFlags(),
                 [(0, R1)], {0}, (0, 1), 2, 1, id="single_on_dead_wire"),
    pytest.param(build_circuit(2, [SingleQubit("H", 1)], dead={0}), RuleFlags(),
                 [], {0}, (0, 1), 1, 1, id="single_on_live_wire"),
    # the live H stays at position 1; ids name positions in the input
    pytest.param(build_circuit(2, [SingleQubit("H", 0), SingleQubit("H", 1)], dead={0}),
                 RuleFlags(), [(0, R1)], {0}, (0, 1), 2, 3, id="single_before_live_gate"),
    # the X is removed in sweep 1, which brings the H to the frontier in sweep 2
    pytest.param(build_circuit(2, [SingleQubit("H", 0), SingleQubit("X", 0)], dead={0}),
                 RuleFlags(), [(1, R1), (0, R1)], {0}, (0, 1), 3, 2, id="dead_wire_chain"),
    # the kept cx blocks the H on the dead wire: it is never checked
    pytest.param(build_circuit(2, [SingleQubit("H", 0), Controlled("X", (0,), 1)], dead={0}),
                 RuleFlags(), [], {0}, (0, 1), 1, 1, id="dead_gate_behind_kept_gate"),
    pytest.param(build_circuit(2, [Controlled("X", (0,), 1)], dead={1}), RuleFlags(),
                 [(0, R2)], {1}, (0, 1), 2, 1, id="cx_dead_target"),
    pytest.param(build_circuit(2, [Controlled("X", (0,), 1)], dead={0}), RuleFlags(),
                 [], {0}, (0, 1), 1, 1, id="cx_dead_control_live_target"),
    pytest.param(build_circuit(2, [Controlled("X", (0,), 1)], dead={0, 1}), RuleFlags(),
                 [(0, R2)], {0, 1}, (0, 1), 2, 1, id="cx_both_dead"),
    pytest.param(build_circuit(3, [Controlled("X", (0, 1), 2)], dead={2}), RuleFlags(),
                 [(0, R2)], {2}, (0, 1, 2), 2, 1, id="ccx_dead_target"),
    # dead controls are not enough, even under the extension
    pytest.param(build_circuit(3, [Controlled("X", (0, 1), 2)], dead={0, 1}),
                 RuleFlags(extended=True),
                 [], {0, 1}, (0, 1, 2), 1, 1, id="ccx_dead_controls_extended"),
    # cz and ccz target their highest wire, whatever order they are written in
    pytest.param(parsed(2, "cz q[1],q[0];", [0]), RuleFlags(),
                 [(0, R2)], {1}, (0, 1), 2, 1, id="cz_highest_wire_dead"),
    pytest.param(parsed(2, "cz q[1],q[0];", [1]), RuleFlags(),
                 [], {0}, (0, 1), 1, 1, id="cz_lowest_wire_dead"),
    pytest.param(parsed(3, "ccz q[2],q[0],q[1];", [0, 1]), RuleFlags(),
                 [(0, R2)], {2}, (0, 1, 2), 2, 1, id="ccz_out_of_wire_order"),
    # label 1's outcome now lives on wire 0, and vice versa
    pytest.param(build_circuit(2, [Swap(0, 1)], dead={0}), RuleFlags(),
                 [(0, R3)], {1}, (1, 0), 2, 1, id="swap_one_dead_endpoint"),
    pytest.param(build_circuit(3, [Swap(0, 1)], dead={1}), RuleFlags(),
                 [(0, R3)], {0}, (1, 0, 2), 2, 1, id="swap_dead_second_endpoint"),
    # after the relabel the H sits on the dead wire and goes by R1
    pytest.param(build_circuit(2, [SingleQubit("H", 1), Swap(0, 1)], dead={0}), RuleFlags(),
                 [(1, R3), (0, R1)], {1}, (1, 0), 3, 2, id="swap_then_relabelled_gate"),
    # the H on the live wire is kept and blocks the SWAP
    pytest.param(build_circuit(2, [Swap(0, 1), SingleQubit("H", 1)], dead={0}), RuleFlags(),
                 [], {0}, (0, 1), 1, 1, id="swap_behind_kept_gate"),
    pytest.param(build_circuit(3, [Swap(0, 1)], dead={2}), RuleFlags(),
                 [], {2}, (0, 1, 2), 1, 1, id="swap_both_live"),
    pytest.param(build_circuit(3, [Swap(0, 2)], dead={0, 2}), RuleFlags(),
                 [(0, R3)], {0, 2}, (0, 1, 2), 2, 1, id="swap_both_dead_no_relabel"),
    pytest.param(build_circuit(2, [Swap(0, 1)], dead={0}), RuleFlags(swap_relabel=False),
                 [], {0}, (0, 1), 1, 1, id="swap_relabel_off"),
    pytest.param(build_circuit(2, [Swap(0, 1)], dead={0, 1}),
                 RuleFlags(extended=True, swap_relabel=False),
                 [(0, R4)], {0, 1}, (0, 1), 2, 1, id="swap_relabel_off_extended_both_dead"),
    pytest.param(build_circuit(3, [Opaque("B", (0, 1))], dead={0, 1}), RuleFlags(),
                 [], {0, 1}, (0, 1, 2), 1, 1, id="all_dead_opaque_default"),
    pytest.param(build_circuit(3, [Opaque("B", (0, 1))], dead={0, 1}),
                 RuleFlags(extended=True),
                 [(0, R4)], {0, 1}, (0, 1, 2), 2, 1, id="all_dead_opaque_extended"),
    pytest.param(build_circuit(3, [Opaque("B", (0, 1))], dead={0}), RuleFlags(extended=True),
                 [], {0}, (0, 1, 2), 1, 1, id="part_dead_opaque_extended"),
    # a one-wire block is not a named one-qubit gate: R1 does not apply
    pytest.param(build_circuit(2, [Opaque("B", (0,))], dead={0}), RuleFlags(),
                 [], {0}, (0, 1), 1, 1, id="one_wire_opaque_default"),
    pytest.param(build_circuit(2, [Opaque("B", (0,))], dead={0}), RuleFlags(extended=True),
                 [(0, R4)], {0}, (0, 1), 2, 1, id="one_wire_opaque_extended"),
    pytest.param(build_circuit(2, [], dead={0}), RuleFlags(),
                 [], {0}, (0, 1), 1, 0, id="empty"),
]


class TestRuleExamples:
    """The pass on single gates and the empty circuit, checked by hand and
    against the sweep reference."""

    @pytest.mark.parametrize(
        "c, flags, removed, dead, outcome_map, iterations, gate_checks", RULE_EXAMPLES
    )
    def test_example(self, c, flags, removed, dead, outcome_map, iterations, gate_checks):
        opt, rep = eliminate_dead_gates(c, flags)
        assert [(r.id, r.rule) for r in rep.removed] == [(i, r.value) for i, r in removed]
        gone = {i for i, _ in removed}
        assert opt.gates == tuple(g for i, g in enumerate(c.gates) if i not in gone)
        assert opt.dead == dead
        assert opt.outcome_map == outcome_map
        assert (rep.iterations, rep.gate_checks) == (iterations, gate_checks)
        assert_matches_sweep(c, flags)


class TestEliminate:
    def test_fig2_trace(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.id for r in rep.removed] == [4, 3, 1]
        assert all(r.rule == "R2_controlled_target_dead" for r in rep.removed)
        assert [g.kind for g in opt.gates] == [fig2_kinds()[0], fig2_kinds()[2]]
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

    @settings(max_examples=300, deadline=None)
    @given(c=dead_circuits() | bench_circuits(), flags=st.sampled_from(ALL_FLAGS),
           data=st.data())
    def test_monotone_in_dead_set(self, c, flags, data):
        # removed sets nest as the dead set grows, SWAP relabels included
        more = data.draw(st.sets(st.integers(0, c.n - 1)))
        _, rep1 = eliminate_dead_gates(c, flags)
        _, rep2 = eliminate_dead_gates(with_dead(c, c.dead | more), flags)
        assert {r.id for r in rep1.removed} <= {r.id for r in rep2.removed}

    @settings(max_examples=300, deadline=None)
    @given(c=dead_circuits() | bench_circuits(), flags=st.sampled_from(ALL_FLAGS))
    def test_output_is_a_fixpoint(self, c, flags):
        # no gate left on the output's frontier matches a rule
        opt, _ = eliminate_dead_gates(c, flags)
        assert all(match_rule(opt.gates[i].kind, opt.dead, flags) is None
                   for i in frontier(opt))

    def test_gate_checks_within_quadratic_bound(self):
        rng = np.random.default_rng(51)
        for i in range(10):
            w = int(rng.integers(3, 9))
            c = random_circuit(w, 100, 0.1, seed=(51, i))
            c = with_dead(c, select_dead(w, DeadMode("fixed", 2), seed=(52, i)))
            rep = eliminate_dead_gates(c)[1]
            assert rep.gate_checks <= 100 * 101
            assert rep.iterations >= 1

    def test_qpe_sweep_count(self):
        rep = eliminate_dead_gates(qpe_instance(m=4, r=2).circuit)[1]
        assert rep.iterations == 6  # one per removed chain gate plus the final sweep

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
        valid = [1, 2]
        mapped = [opt.outcome_map[q] for q in valid]
        verdict = check_marginal_equiv(c, opt, valid, mapped, samples=10, seed=4)
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
        valid = [2]
        verdict = check_marginal_equiv(c, opt_ext, valid, valid, samples=10, seed=1)
        assert verdict.equivalent

    def test_swap_relabel_oracle_checked(self):
        # remove SWAP(0,1) with q0 dead, then read the kept outcome through
        # the updated outcome map
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c = build_circuit(3, kinds, dead={0})
        opt, rep = eliminate_dead_gates(c)
        assert [r.rule for r in rep.removed] == ["R3_swap_relabel"]
        assert opt.dead == {1}
        valid = [1, 2]
        mapped = [opt.outcome_map[q] for q in valid]
        verdict = check_marginal_equiv(c, opt, valid, mapped, samples=10, seed=2)
        assert verdict.equivalent


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
        assert [gt.kind for gt in opt.gates] == [SingleQubit("H", 1)]
        if g <= 64:
            assert_matches_sweep(c, RuleFlags())


def assert_ids_are_positions(c: Circuit, report: OptimizationReport) -> None:
    """Each removal's id is the position in `c.gates` of the gate it names."""
    for r in report.removed:
        assert c.gates[r.id].kind.summary() == r.gate, r


# a first pass whose output a second pass, with other flags, removes more of
SECOND_PASSES = [
    (RuleFlags(), RuleFlags(extended=True)),
    (RuleFlags(swap_relabel=False), RuleFlags()),
]


class TestReportIdsArePositions:
    """A report names each removed gate by its position in the circuit the
    pass was given, whether that circuit was built, parsed, generated or
    returned by an earlier pass."""

    @settings(max_examples=200, deadline=None)
    @given(c=dead_circuits() | bench_circuits(), flags=st.sampled_from(ALL_FLAGS))
    def test_built_and_generated_circuits(self, c, flags):
        assert_ids_are_positions(c, eliminate_dead_gates(c, flags)[1])

    @settings(max_examples=150, deadline=None)
    @given(text=programs(), flags=st.sampled_from(ALL_FLAGS))
    def test_parsed_programs(self, text, flags):
        c = parse(text).circuit
        assert_ids_are_positions(c, eliminate_dead_gates(c, flags)[1])

    @settings(max_examples=300, deadline=None)
    @given(c=dead_circuits() | bench_circuits(), passes=st.sampled_from(SECOND_PASSES))
    # the first pass removes gate 0, and the second gate 1, now at position 0
    @example(c=build_circuit(2, [SingleQubit("H", 1), Opaque("B", (0,))], dead={0, 1}),
             passes=SECOND_PASSES[0])
    @example(c=build_circuit(3, [SingleQubit("H", 0), Swap(1, 2)], dead={0, 2}),
             passes=SECOND_PASSES[1])
    def test_second_pass_on_a_pass_output(self, c, passes):
        first, second = passes
        once, _ = eliminate_dead_gates(c, first)
        _, report = eliminate_dead_gates(once, second)
        assert_ids_are_positions(once, report)
        assert_matches_sweep(once, second)


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
