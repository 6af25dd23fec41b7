import itertools
import re

import pytest
from hypothesis import given, settings

from deadgate import (
    Circuit,
    CircuitError,
    Controlled,
    Opaque,
    SingleQubit,
    Swap,
    build_circuit,
)
from deadgate.circuit import BASE_PARAMS, NAMED_GATES, dialect_form, named_kind

from helpers import dead_circuits
from sweep_reference import frontier


def fig2_kinds():
    # U_3 block; CX(q1->q0); W_1 block; X on q0 with two controls; Y on q0
    # controlled by q2.
    return [
        Opaque("U_3", (0, 1, 2)),
        Controlled("X", (1,), 0),
        Opaque("W_1", (2,)),
        Controlled("X", (1, 2), 0),
        Controlled("Y", (2,), 0),
    ]


def brute_frontier(c: Circuit) -> set[int]:
    """Oracle: the gate at position i is frontier iff no later gate shares a
    wire with it."""
    out = set()
    for i, g in enumerate(c.gates):
        qs = set(g.kind.qubits())
        if all(qs.isdisjoint(h.kind.qubits()) for h in c.gates[i + 1 :]):
            out.add(i)
    return out


class TestBuildCircuit:
    def test_two_hadamards(self):
        c = build_circuit(2, [SingleQubit("H", 0), SingleQubit("H", 1)], dead={0})
        assert len(c.gates) == 2
        assert c.dead == {0}
        assert c.outcome_map == (0, 1)
        assert [g.kind for g in c.gates] == [SingleQubit("H", 0), SingleQubit("H", 1)]

    def test_empty(self):
        c = build_circuit(1, [], dead=())
        assert c.gates == ()
        assert frontier(c) == set()

    @pytest.mark.parametrize("n, kinds, dead, message", [
        (2, [Controlled("X", (0,), 0)], (), "duplicate qubit within one gate: x q[0] ctrl q[0]"),
        (2, [Swap(1, 1)], (), "duplicate qubit within one gate: swap q[1],q[1]"),
        (2, [SingleQubit("H", 2)], (), "qubit q[2] out of range for 2-qubit circuit"),
        (2, [Opaque("U", (0, -1))], (), "qubit q[-1] out of range for 2-qubit circuit"),
        (2, [SingleQubit("FOO", 0)], (), "unknown gate base 'FOO'"),
        (1, [SingleQubit("RZ", 0)], (), "RZ expects 1 parameter(s), got 0"),
        (1, [SingleQubit("H", 0, (0.5,))], (), "H expects 0 parameter(s), got 1"),
        (2, [Controlled("X", (), 0)], (), "controlled gate needs at least one control"),
        (2, [Opaque("U", ())], (), "opaque block needs at least one qubit"),
        (-1, [], (), "qubit count must be non-negative"),
        (2, [], {5}, "dead qubit q[5] out of range"),
        # the dead set is checked before the gates, and a gate's wires
        # for duplicates before their range
        (2, [SingleQubit("H", 2)], {5}, "dead qubit q[5] out of range"),
        (2, [Controlled("X", (5,), 5)], (), "duplicate qubit within one gate: x q[5] ctrl q[5]"),
    ], ids=["duplicate_qubit", "swap_one_wire", "qubit_out_of_range", "negative_qubit",
            "unknown_base", "missing_parameter", "extra_parameter", "no_control",
            "opaque_without_wires", "negative_width", "dead_out_of_range",
            "dead_before_gates", "duplicate_before_range"])
    def test_refusal_message(self, n, kinds, dead, message):
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            build_circuit(n, kinds, dead)


class TestFrontier:
    def test_definition_example(self):
        # CX(q0->q1); V4; V1; V2; U1(q0,q1); CX(q1->q2); U2(q0,q1); V5:
        # only the last block on the top wires and V5 remain frontier.
        c = build_circuit(
            3,
            [
                Controlled("X", (0,), 1),
                Opaque("V_4", (2,)),
                Opaque("V_1", (0,)),
                Opaque("V_2", (1,)),
                Opaque("U_1", (0, 1)),
                Controlled("X", (1,), 2),
                Opaque("U_2", (0, 1)),
                Opaque("V_5", (2,)),
            ],
        )
        assert frontier(c) == {6, 7}

    def test_fig2_frontier(self):
        c = build_circuit(3, fig2_kinds(), dead={0})
        assert frontier(c) == {4}

    def test_empty_circuit(self):
        assert frontier(build_circuit(3, [])) == set()

    @settings(max_examples=300, deadline=None)
    @given(c=dead_circuits())
    def test_matches_brute_force_on_random_circuits(self, c):
        assert frontier(c) == brute_frontier(c)


# the gates whose wires are interchangeable, written here apart from the table
SYMMETRIC = {"cz", "ccz"}


class TestNamedGates:
    """`named_kind` and its inverse `dialect_form` over the whole table."""

    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    def test_every_wire_order_round_trips(self, name):
        base, controls = NAMED_GATES[name]
        params = tuple(0.25 * (i + 1) for i in range(BASE_PARAMS[base] if base else 0))
        head = name + (f"({','.join(f'{p:.17g}' for p in params)})" if params else "")
        for wires in itertools.permutations((5, 2, 9)[: controls + 1]):
            kind = named_kind(name, wires, params)
            assert kind.qubits() == (
                (*[w for w in wires if w != max(wires)], max(wires))
                if name in SYMMETRIC else wires
            )
            written = tuple(sorted(wires)) if name in SYMMETRIC else wires
            assert dialect_form(kind) == (head, written)
            # the written wires read back in the same order: a second
            # write gives the same text
            assert named_kind(name, written, params).qubits() == dialect_form(kind)[1]

    def test_ccz_read_out_of_order(self):
        kind = named_kind("ccz", (2, 0, 1))
        assert kind == Controlled("Z", (0, 1), 2)
        assert dialect_form(kind) == ("ccz", (0, 1, 2))
        kind = named_kind("ccz", (1, 2, 0))
        assert kind == Controlled("Z", (1, 0), 2)
        assert dialect_form(kind) == ("ccz", (0, 1, 2))
