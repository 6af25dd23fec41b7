import copy
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadgate import oracle
from deadgate import (
    Circuit,
    CircuitError,
    Controlled,
    Gate,
    Opaque,
    RuleFlags,
    SingleQubit,
    Swap,
    bind_opaques,
    build_circuit,
    check_marginal_equiv,
    eliminate_dead_gates,
    haar_unitary,
    parse,
    random_state,
)
from deadgate.bench import DeadMode, random_circuit, select_dead
from deadgate.circuit import BASE_PARAMS
from deadgate.oracle import _marginal, base_matrix

import fixtures
from helpers import (
    basis_state,
    kept_wires,
    marginal,
    paired_wires,
    reduced_pair,
    reference_marginal_equiv,
    simulate,
)


def brute_marginal(amps, n, qubits) -> dict[str, float]:
    """Oracle: accumulate |amp|^2 per outcome by walking every basis index."""
    probs = {}
    for idx, amp in enumerate(amps):
        bits = format(idx, f"0{n}b")
        key = "".join(bits[q] for q in qubits)
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    return probs


def outcome(bits: str) -> int:
    """Index of an outcome bitstring in a marginal array."""
    return int(bits, 2) if bits else 0


class TestSimulate:
    def test_hadamard_on_zero(self):
        c = build_circuit(1, [SingleQubit("H", 0)])
        out = simulate(c, basis_state("0"))
        assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_cx_truth_table(self):
        c = build_circuit(2, [Controlled("X", (0,), 1)])
        out = simulate(c, basis_state("10"))
        assert np.allclose(out, basis_state("11"))
        out = simulate(c, basis_state("00"))
        assert np.allclose(out, basis_state("00"))

    def test_swap_moves_amplitude(self):
        c = build_circuit(2, [Swap(0, 1)])
        out = simulate(c, basis_state("10"))
        assert np.allclose(out, basis_state("01"))

    def test_fig2_norm_preserved(self):
        from fixtures import three_qubit_example

        c = three_qubit_example().circuit
        bindings = bind_opaques([c], seed=2)
        out = simulate(c, basis_state("000"), bindings)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_unbound_opaque_rejected(self):
        c = build_circuit(2, [Opaque("U", (0, 1))])
        with pytest.raises(CircuitError, match="^opaque block 'U' has no bound unitary$"):
            simulate(c, basis_state("00"))

    def test_controlled_u3_matches_manual_matrix(self):
        theta, phi, lam = 0.7, -0.4, 1.1
        c = build_circuit(2, [Controlled("U3", (0,), 1, (theta, phi, lam))])
        sv = random_state(2, seed=5)
        out = simulate(c, sv)
        u = np.array(
            [
                [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
                [
                    np.exp(1j * phi) * math.sin(theta / 2),
                    np.exp(1j * (phi + lam)) * math.cos(theta / 2),
                ],
            ]
        )
        full = np.eye(4, dtype=complex)
        full[2:, 2:] = u
        assert np.allclose(out, full @ sv)


class TestApply:
    @pytest.mark.parametrize("batch", [1, 4, 20])
    @pytest.mark.parametrize("width", [1, 6, 12])
    def test_one_qubit_gate_on_every_axis(self, width, batch):
        # a one-qubit gate contracts its axis with the matrix's columns,
        # whichever way _apply takes for that axis, also on the strided
        # layout a multi-qubit gate's moveaxis leaves
        rng = np.random.default_rng([width, batch])
        u = haar_unitary(2, rng)
        shape = (2,) * width + (batch,)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(state, -1, 0)), 0, -1)
        for q in range(width):
            want = np.moveaxis(np.tensordot(u, state, axes=(1, q)), 0, q)
            for given_state in (state, strided):
                got = oracle._apply(given_state, u, (q,))
                assert got.shape == shape
                assert np.abs(got - want).max() <= 1e-12


# cx, ccx, cz, ccz and swap on every placement over four wires: control
# above and below the target, both orders of two controls, either wire first
SLICE_WIDTH = 4
SLICE_GATES = {
    "cx": [Controlled("X", (c,), t) for c, t in itertools.permutations(range(SLICE_WIDTH), 2)],
    "ccx": [Controlled("X", (a, b), t)
            for a, b, t in itertools.permutations(range(SLICE_WIDTH), 3)],
    "cz": [Controlled("Z", (c,), t) for c, t in itertools.permutations(range(SLICE_WIDTH), 2)],
    "ccz": [Controlled("Z", (a, b), t)
            for a, b, t in itertools.permutations(range(SLICE_WIDTH), 3)],
    "swap": [Swap(a, b) for a, b in itertools.permutations(range(SLICE_WIDTH), 2)],
}


def exact_matrix(kind) -> np.ndarray:
    """The 0/1 or 0/-1 matrix of a cx, ccx, cz, ccz or swap over its wires
    in `qubits()` order, controls first."""
    m = np.eye(2 ** len(kind.qubits()), dtype=complex)
    if isinstance(kind, Swap):
        return m[[0, 2, 1, 3]]
    if kind.base == "X":
        m[-2:] = m[[-1, -2]]
    else:
        m[-1, -1] = -1
    return m


def amplitude_bits(state) -> list[str]:
    """Every real and imaginary part, in index order, as `float.hex`."""
    return [x.hex() for x in np.ravel(state).view(np.float64).tolist()]


def random_batch(rng, width: int, batch: int) -> np.ndarray:
    shape = (2,) * width + (batch,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSliceOps:
    """cx, ccx, cz, ccz and swap compile to ops that move or negate parts
    of the state in place; each amplitude must come out bit for bit as the
    tensordot of the gate's own matrix gives it."""

    @pytest.mark.parametrize("batch", [1, 20])
    @pytest.mark.parametrize("name", SLICE_GATES)
    def test_equals_tensordot_of_its_matrix(self, name, batch):
        rng = np.random.default_rng([list(SLICE_GATES).index(name), batch])
        state = random_batch(rng, SLICE_WIDTH, batch)
        # the strided layout a multi-qubit gate's moveaxis leaves
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(state, -1, 0)), 0, -1)
        axis = {q: q for q in range(SLICE_WIDTH)}
        for kind in SLICE_GATES[name]:
            ops = oracle._compile([Gate(kind)], {}, axis)
            assert isinstance(ops[0][0], str), "compiled to a matrix, not a slice op"
            axes = kind.qubits()
            k = len(axes)
            m = exact_matrix(kind).reshape((2,) * (2 * k))
            want = np.tensordot(m, state, axes=(tuple(range(k, 2 * k)), axes))
            want = amplitude_bits(np.moveaxis(want, tuple(range(k)), axes))
            for given_state in (state, strided):
                assert amplitude_bits(oracle._run(ops, given_state)) == want, kind

    @pytest.mark.parametrize("name", SLICE_GATES)
    def test_input_left_unwritten(self, name):
        # both circuits of a check start from one input batch; each gate is
        # its own inverse, so applying it twice gives the input back
        state = random_batch(np.random.default_rng(5), SLICE_WIDTH, 3)
        before = amplitude_bits(state)
        kind = SLICE_GATES[name][-1]
        ops = oracle._compile([Gate(kind)] * 2, {}, {q: q for q in range(SLICE_WIDTH)})
        got = oracle._run(ops, state)
        assert amplitude_bits(state) == before
        assert not np.shares_memory(got, state)
        assert amplitude_bits(got) == before


def state_marginal(amps, n, axes) -> np.ndarray:
    """`_marginal` of one state of 2**n amplitudes, as a (2,)*n + (1,) tensor."""
    return _marginal(np.asarray(amps).reshape((2,) * n + (1,)), tuple(axes))[0]


class TestMarginal:
    def setup_method(self):
        a = np.array([0.1, 0.2, 0.3, 0.4])
        self.phi = a / np.linalg.norm(a)

    def test_two_qubit_values(self):
        m = state_marginal(self.phi, 2, (0, 1))
        assert m[outcome("01")] == pytest.approx(abs(self.phi[1]) ** 2)
        assert m[outcome("10")] == pytest.approx(abs(self.phi[2]) ** 2)
        assert m[outcome("00")] == pytest.approx(abs(self.phi[0]) ** 2)

    def test_single_qubit_sums_partner(self):
        m = state_marginal(self.phi, 2, (0,))
        expect = abs(self.phi[2]) ** 2 + abs(self.phi[3]) ** 2
        assert m[outcome("1")] == pytest.approx(expect)

    def test_empty_subset(self):
        m = state_marginal(self.phi, 2, ())
        assert m.tolist() == [pytest.approx(1.0)]

    def test_matches_brute_force_any_order(self):
        # a batch of three states: one row per state, in batch order
        rng = np.random.default_rng(7)
        for i in range(20):
            n = int(rng.integers(1, 6))
            states = [random_state(n, seed=(7, i, j)) for j in range(3)]
            k = int(rng.integers(0, n + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            got = _marginal(np.stack(states, axis=-1).reshape((2,) * n + (3,)), qubits)
            assert got.shape == (3, 2**k)
            for row, amps in zip(got, states):
                for key, p in brute_marginal(amps, n, qubits).items():
                    assert row[outcome(key)] == pytest.approx(p, abs=1e-12)

    def test_coarse_graining(self):
        amps = random_state(4, seed=99)
        fine = state_marginal(amps, 4, (0, 2, 3))
        coarse = state_marginal(amps, 4, (0, 3))
        for i, p in enumerate(coarse):
            key = format(i, "02b")
            total = sum(fine[outcome(key[0] + mid + key[1])] for mid in "01")
            assert total == pytest.approx(p, abs=1e-12)

    def test_distribution_normalized(self):
        amps = random_state(5, seed=123)
        assert state_marginal(amps, 5, (1, 3)).sum() == pytest.approx(1.0, abs=1e-9)


class TestRandomState:
    def test_normalized(self):
        assert abs(np.linalg.norm(random_state(1, seed=0)) - 1.0) < 1e-12

    def test_deterministic(self):
        a = random_state(4, seed=42)
        b = random_state(4, seed=42)
        assert np.array_equal(a, b)

    def test_near_orthogonality_monte_carlo(self):
        # mean squared overlap of independent random states is 2^-n
        states = [random_state(10, seed=(55, i)) for i in range(100)]
        overlaps = []
        for i in range(100):
            for j in range(i + 1, 100):
                overlaps.append(abs(np.vdot(states[i], states[j])) ** 2)
        overlaps = np.array(overlaps)
        se = overlaps.std() / math.sqrt(len(overlaps))
        assert abs(overlaps.mean() - 2.0**-10) < 5 * se


class TestHaarUnitary:
    def test_unitary(self):
        u = haar_unitary(8, np.random.default_rng(3))
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


class TestBindOpaques:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_each_label_bound_to_a_unitary(self, arity):
        # the oracle applies the table as drawn: a zero or NaN matrix would
        # make every marginal equal and read as equivalence
        c = build_circuit(3, [Opaque("U", tuple(range(arity))), Opaque("V", (2,))])
        table = bind_opaques([c], seed=arity)
        assert sorted(table) == ["U", "V"]
        for label, k in (("U", arity), ("V", 1)):
            u = table[label]
            assert u.shape == (2**k, 2**k)
            assert np.allclose(u @ u.conj().T, np.eye(2**k), atol=1e-12)

    def test_bindings_within_budget_are_made(self, monkeypatch):
        # the stub stands in for each binding by its dimension
        monkeypatch.setattr(oracle, "haar_unitary", lambda dim, rng: dim)
        # two 12-wire blocks take exactly the 512 MiB allowed
        c = build_circuit(12, [Opaque("A", tuple(range(12))), Opaque("B", tuple(range(12)))])
        assert bind_opaques([c], seed=1) == {"A": 4096, "B": 4096}

    @pytest.mark.parametrize("seed", [0, 5, 2**40, (3, 10, 0, 0, 3)], ids=str)
    def test_bindings_drawn_apart_from_the_states(self, monkeypatch, seed):
        # numpy reads (seed, 0) and [seed, 0] as the same entropy: label 0's
        # binding must not repeat the draws of sample 0's input state
        first_draws = []
        haar, state = oracle.haar_unitary, oracle.random_state

        def spy_haar(dim, rng):
            first_draws.append(copy.deepcopy(rng).standard_normal(8))
            return haar(dim, rng)

        def spy_state(n, seed, cap):
            first_draws.append(np.random.default_rng(seed).standard_normal(8))
            return state(n, seed, cap)

        monkeypatch.setattr(oracle, "haar_unitary", spy_haar)
        monkeypatch.setattr(oracle, "random_state", spy_state)
        c1 = build_circuit(1, [Opaque("U", (0,)), SingleQubit("H", 0)])
        c2 = build_circuit(1, [Opaque("U", (0,)), SingleQubit("X", 0)])
        check_marginal_equiv(c1, c2, [0], [0], samples=1, seed=seed)
        binding, sample = first_draws
        assert not np.isclose(binding, sample).any()


def opaque_pair(n1=13, n2=13, wires1=(12,), wires2=(12,), **kwargs):
    """`check_marginal_equiv` on an n1- and an n2-qubit circuit, each one
    12-wire opaque block, whose binding alone would take 256 MiB."""
    block = Opaque("U", tuple(range(12)))
    c1, c2 = build_circuit(n1, [block]), build_circuit(n2, [block])
    return check_marginal_equiv(c1, c2, wires1, wires2, **kwargs)


def bind_blocks(*arities, n=13):
    """`bind_opaques` on an n-qubit circuit of one block U{i} per arity."""
    blocks = [Opaque(f"U{i}", tuple(range(k))) for i, k in enumerate(arities)]
    return bind_opaques([build_circuit(n, blocks)], seed=1)


ARITY = "opaque label 'U' used with inconsistent arity"

# Every refusal of the oracle, as (call, error class, message); each is
# made before any opaque block is bound. The options are refused as a
# ValueError and the circuits as a CircuitError. Rows also pin which of
# two refusals comes first.
REFUSALS = {
    "cap": (lambda: opaque_pair(), CircuitError, "13 qubits exceeds the cap of 12"),
    # no cap lifts the ceiling
    "ceiling": (lambda: opaque_pair(n1=21, n2=21, cap=40), CircuitError,
                "21 qubits exceeds the cap of 20"),
    **{f"samples_{n}": (lambda n=n: opaque_pair(cap=13, samples=n), ValueError,
                        f"samples must be at least 1, got {n}") for n in (0, -3)},
    # a gap between probabilities is below 1, so a tolerance of 1 or more
    # accepts every pair; a negative or NaN one accepts none
    **{f"tol_{tol}": (lambda tol=tol: opaque_pair(cap=13, tol=tol), ValueError,
                      f"tol must be finite and in [0, 1), got {tol}")
       for tol in (1.0, 5, -1, math.inf, math.nan)},
    "seed": (lambda: opaque_pair(cap=13, seed=-1), ValueError,
             "seed must be non-negative, got -1"),
    # each entry of a tuple seed, not numpy's unnamed refusal
    "seed_tuple_first": (lambda: opaque_pair(cap=13, seed=(-1, 2)), ValueError,
                         "seed must be non-negative, got (-1, 2)"),
    "seed_tuple_second": (lambda: opaque_pair(cap=13, seed=(1, -2)), ValueError,
                          "seed must be non-negative, got (1, -2)"),
    # a numpy integer, a list and a nested entry, as numpy reads them
    "seed_numpy_int": (lambda: opaque_pair(cap=13, seed=np.int64(-1)), ValueError,
                       "seed must be non-negative, got -1"),
    "seed_list": (lambda: opaque_pair(cap=13, seed=[-1, 2]), ValueError,
                  "seed must be non-negative, got [-1, 2]"),
    "seed_nested": (lambda: opaque_pair(cap=13, seed=((-1, 2), 3)), ValueError,
                    "seed must be non-negative, got ((-1, 2), 3)"),
    "qubit_counts": (lambda: opaque_pair(n2=12, cap=13), CircuitError,
                     "qubit counts differ: 13 vs 12"),
    "wire_lists_unequal": (lambda: opaque_pair(cap=13, wires2=(12, 0)), CircuitError,
                           "wire lists must have equal length"),
    "duplicate_in_first": (lambda: opaque_pair(cap=13, wires1=(12, 12), wires2=(0, 1)),
                           CircuitError, "duplicate qubit in marginal: (12, 12)"),
    "duplicate_in_second": (lambda: opaque_pair(cap=13, wires1=(0, 1), wires2=(1, 1)),
                            CircuitError, "duplicate qubit in marginal: (1, 1)"),
    "wire_out_of_range": (lambda: opaque_pair(cap=13, wires1=(13,)), CircuitError,
                          "qubit q[13] out of range"),
    "wire_negative": (lambda: opaque_pair(cap=13, wires2=(-1,)), CircuitError,
                      "qubit q[-1] out of range"),
    # samples, tol and seed are checked in that order, then the counts,
    # then the cap
    "samples_before_tol": (lambda: opaque_pair(cap=13, samples=0, tol=5), ValueError,
                           "samples must be at least 1, got 0"),
    "tol_before_seed": (lambda: opaque_pair(cap=13, tol=5, seed=-1), ValueError,
                        "tol must be finite and in [0, 1), got 5"),
    "seed_before_counts": (lambda: opaque_pair(n2=12, seed=-1), ValueError,
                           "seed must be non-negative, got -1"),
    "counts_before_cap": (lambda: opaque_pair(n2=14), CircuitError,
                          "qubit counts differ: 13 vs 14"),
    "random_state_cap": (lambda: random_state(13, seed=0), CircuitError,
                         "13 qubits exceeds the cap of 12"),
    "random_state_given_cap": (lambda: random_state(3, seed=0, cap=2), CircuitError,
                               "3 qubits exceeds the cap of 2"),
    "base_matrix": (lambda: base_matrix("FOO", ()), CircuitError, "unknown gate base 'FOO'"),
    # one label has one arity across all the circuits bound together
    "bind_one_circuit_two_arities": (
        lambda: bind_opaques([build_circuit(3, [Opaque("U", (0, 1)), Opaque("U", (0, 1, 2))])],
                             seed=1), CircuitError, ARITY),
    "bind_two_circuits_disagree": (
        lambda: bind_opaques([build_circuit(2, [Opaque("U", (0,))]),
                              build_circuit(2, [Opaque("U", (0, 1))])], seed=1),
        CircuitError, ARITY),
    # a k-wire binding is 16 * 4**k bytes, 256 MiB at 12 wires; all
    # bindings together may take 512 MiB
    "bind_one_block": (lambda: bind_blocks(13), CircuitError,
                       "opaque bindings need 1024 MiB, above 512 MiB"),
    "bind_two_and_a_bit": (lambda: bind_blocks(12, 12, 1), CircuitError,
                           "opaque bindings need 513 MiB, above 512 MiB"),
    "bind_three_blocks": (lambda: bind_blocks(12, 12, 12), CircuitError,
                          "opaque bindings need 768 MiB, above 512 MiB"),
}


def check_kept(c1, c2, **kwargs):
    """c1 and c2 compared on c1's kept wires."""
    kept = kept_wires(c1)
    return check_marginal_equiv(c1, c2, kept, kept, **kwargs)


class TestCheckEquiv:
    def test_hh_vs_zh(self):
        c1 = build_circuit(2, [SingleQubit("H", 0), SingleQubit("H", 1)], dead={0})
        c2 = build_circuit(2, [SingleQubit("Z", 0), SingleQubit("H", 1)], dead={0})
        assert check_kept(c1, c2, samples=20, seed=1).equivalent

    def test_cx_vs_empty_inequivalent(self):
        c1 = build_circuit(2, [Controlled("X", (0,), 1)], dead={0})
        c2 = build_circuit(2, [], dead={0})
        verdict = check_kept(c1, c2, samples=20, seed=1)
        assert not verdict.equivalent
        assert verdict.witness is not None
        # the deterministic witness: |10> maps to q1-marginals 1 vs 0
        out1 = marginal(simulate(c1, basis_state("10")), 2, (1,))
        out2 = marginal(simulate(c2, basis_state("10")), 2, (1,))
        assert out1[outcome("1")] == pytest.approx(1.0)
        assert out2[outcome("1")] == pytest.approx(0.0)

    def test_reflexive(self):
        from fixtures import vqe_ansatz

        c = vqe_ansatz().circuit
        verdict = check_kept(c, c, samples=5, seed=2)
        assert verdict.equivalent
        assert verdict.max_discrepancy == 0.0

    def test_cap_can_be_raised(self):
        # up to the ceiling of 20 qubits (the table's `ceiling` row)
        c = build_circuit(13, [SingleQubit("H", 0)])
        assert check_marginal_equiv(c, c, [0], [0], samples=1, cap=13).equivalent

    def test_binds_opaques_from_its_seed(self):
        # no shared start, so the oracle simulates both blocks on both
        # wires, as the reference does
        c1 = build_circuit(2, [Opaque("U", (0, 1)), Opaque("V", (1,))])
        c2 = build_circuit(2, [Opaque("V", (1,)), Opaque("U", (0, 1))])
        got = check_marginal_equiv(c1, c2, [0, 1], [0, 1], seed=5)
        want, _ = reference_marginal_equiv(
            c1, c2, [0, 1], [0, 1], seed=5, bindings=bind_opaques((c1, c2), 5)
        )
        assert not got.equivalent
        assert abs(got.max_discrepancy - want.max_discrepancy) <= 1e-12
        assert got.witness == want.witness

    def test_bindings_keyword_refused(self):
        # opaque blocks are bound from the oracle's own seed only
        c = build_circuit(1, [SingleQubit("H", 0)])
        with pytest.raises(TypeError, match="bindings"):
            check_marginal_equiv(c, c, [0], [0], bindings={})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("wires", [(0,), (0, 1)], ids=["one_wire", "two_wires"])
    def test_drawn_block_after_differing_gate_caught(self, wires, seed):
        # the shared block follows the differing gate, so it is bound and
        # applied; whichever unitary the seed draws, H against X shows
        c1 = build_circuit(2, [SingleQubit("H", 0), Opaque("U", wires)])
        c2 = build_circuit(2, [SingleQubit("X", 0), Opaque("U", wires)])
        got, _, whole = assert_matches_reference(c1, c2, [0, 1], [0, 1], samples=3, seed=seed)
        assert not got.equivalent and not whole.equivalent
        assert got.witness is not None

    @pytest.mark.parametrize("call, cls, message", REFUSALS.values(), ids=REFUSALS)
    def test_refuses_before_binding(self, monkeypatch, call, cls, message):
        def unbounded(dim, rng):
            raise AssertionError(f"asked for a {dim}x{dim} binding")

        monkeypatch.setattr(oracle, "haar_unitary", unbounded)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            call()
        assert err.type is cls


class TestCheckEquivExtended:
    def test_swap_relabel_equivalent(self):
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c1 = build_circuit(3, kinds, dead={0})
        c2 = build_circuit(3, kinds[:1], dead={1})
        wires1, wires2 = paired_wires(c1, {0: 1})
        verdict = check_marginal_equiv(c1, c2, wires1, wires2, samples=10, seed=3)
        assert verdict.equivalent

    def test_wrong_dead_set_caught(self):
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c1 = build_circuit(3, kinds, dead={0})
        c2 = build_circuit(3, kinds[:1], dead={0})
        verdict = check_kept(c1, c2, samples=10, seed=3)
        assert not verdict.equivalent

    def test_identity_pairing_matches_check_equiv(self):
        c1 = build_circuit(2, [SingleQubit("H", 0), SingleQubit("H", 1)], dead={0})
        c2 = build_circuit(2, [SingleQubit("Z", 0), SingleQubit("H", 1)], dead={0})
        a = check_kept(c1, c2, samples=10, seed=5)
        b = check_marginal_equiv(c1, c2, *paired_wires(c1, {}), samples=10, seed=5)
        assert a.equivalent == b.equivalent
        assert a.max_discrepancy == b.max_discrepancy


def random_u3_params(rng) -> tuple[float, float, float]:
    return tuple(float(a) for a in rng.uniform(-math.pi, math.pi, size=3))


class TestTheoremProperties:
    """Small randomized instances of the three removal equations; the full
    100-instance suites run in the acceptance tests."""

    def test_single_qubit_removal(self):
        rng = np.random.default_rng(61)
        for i in range(10):
            n = int(rng.integers(2, 7))
            qi = int(rng.integers(n))
            kinds = [Opaque("U", tuple(range(n))), SingleQubit("U3", qi, random_u3_params(rng))]
            c1 = build_circuit(n, kinds, dead={qi})
            c2 = build_circuit(n, kinds[:1], dead={qi})
            assert check_kept(c1, c2, samples=2, seed=(62, i)).equivalent

    def test_controlled_removal(self):
        rng = np.random.default_rng(71)
        for i in range(10):
            nc = int(rng.integers(1, 4))
            n = int(rng.integers(nc + 1, 7))
            wires = [int(q) for q in rng.permutation(n)[: nc + 1]]
            target, controls = wires[0], tuple(wires[1:])
            kinds = [
                Opaque("U", tuple(range(n))),
                Controlled("U3", controls, target, random_u3_params(rng)),
            ]
            c1 = build_circuit(n, kinds, dead={target})
            c2 = build_circuit(n, kinds[:1], dead={target})
            assert check_kept(c1, c2, samples=2, seed=(72, i)).equivalent

    def test_swap_removal(self):
        rng = np.random.default_rng(81)
        for i in range(10):
            n = int(rng.integers(2, 7))
            qi, qj = (int(q) for q in rng.permutation(n)[:2])
            kinds = [Opaque("U", tuple(range(n))), Swap(qi, qj)]
            c1 = build_circuit(n, kinds, dead={qi})
            c2 = build_circuit(n, kinds[:1], dead={qj})
            assert check_marginal_equiv(
                c1, c2, *paired_wires(c1, {qi: qj}), samples=2, seed=(82, i)
            ).equivalent

    def test_counterexample_fails(self):
        # removing a controlled gate that is *not* on the frontier changes
        # the kept distribution
        rng = np.random.default_rng(91)
        kinds = [
            Opaque("U", (0, 1)),
            Controlled("U3", (1,), 0, random_u3_params(rng)),
            Opaque("W", (1,)),
        ]
        c1 = build_circuit(2, kinds, dead={0})
        c2 = build_circuit(2, [kinds[0], kinds[2]], dead={0})
        verdict = check_kept(c1, c2, samples=20, seed=93)
        assert not verdict.equivalent


@st.composite
def oracle_gate(draw, n: int):
    """Any gate kind the oracle compiles, on distinct wires of an n-qubit circuit."""
    shapes = ["single", "opaque"] + (["controlled", "swap"] if n > 1 else [])
    shape = draw(st.sampled_from(shapes))
    order = draw(st.permutations(range(n)))
    if shape == "opaque":
        ws = tuple(order[: draw(st.integers(1, min(n, 3)))])
        return Opaque(f"B{len(ws)}", ws)
    if shape == "swap":
        return Swap(order[0], order[1])
    base = draw(st.sampled_from(sorted(BASE_PARAMS)))
    params = tuple(draw(st.floats(-7, 7)) for _ in range(BASE_PARAMS[base]))
    if shape == "single":
        return SingleQubit(base, order[0], params)
    controls = tuple(order[1 : 1 + draw(st.integers(1, min(n - 1, 2)))])
    return Controlled(base, controls, order[0], params)


@st.composite
def oracle_pairs(draw):
    """Two circuits with a shared start, and the wire lists to compare.

    The second circuit's tail is the first's with gates deleted, an
    independent tail, or nothing, so shared prefixes of every length and
    both verdicts occur.
    """
    n = draw(st.integers(1, 12))
    gates = st.lists(oracle_gate(n), max_size=12)
    shared, tail1 = draw(gates), draw(gates)
    how = draw(st.sampled_from(["subsequence", "independent", "empty"]))
    if how == "subsequence":
        tail2 = [g for g in tail1 if draw(st.booleans())]
    elif how == "independent":
        tail2 = draw(gates)
    else:
        tail2 = []
    c1 = build_circuit(n, shared + tail1)
    c2 = build_circuit(n, shared + tail2)
    if draw(st.booleans()):
        c1, c2 = c2, c1
    k = draw(st.integers(0, n))
    wires1 = draw(st.permutations(range(n)))[:k]
    wires2 = draw(st.permutations(range(n)))[:k] if draw(st.booleans()) else wires1
    return c1, c2, wires1, wires2


def outcome_gaps(c1, c2, wires1, wires2, sample, bindings) -> np.ndarray:
    """Per-outcome gaps of one seeded sample, each circuit simulated whole."""
    amps = random_state(c1.n, seed=sample)
    p1 = marginal(simulate(c1, amps, bindings), c1.n, wires1)
    p2 = marginal(simulate(c2, amps, bindings), c2.n, wires2)
    return np.abs(p1 - p2)


# Two references draw different states, so their worst gaps differ; only
# gaps this far from the tolerance are sure to give the same verdict.
_CLEAR_OF_TOL = 1e3


def assert_matches_reference(c1, c2, wires1, wires2, **kwargs):
    """The oracle against the per-sample reference: (a) run on the reduced
    circuits, the worst gap and witness to rounding; (b) run on the whole
    circuits, the verdict. Both references bind opaque blocks to the
    table the oracle draws. Returns (oracle, reduced, whole) verdicts."""
    got = check_marginal_equiv(c1, c2, wires1, wires2, **kwargs)
    bindings = bind_opaques((c1, c2), kwargs.get("seed", 0))
    r1, r2, rw1, rw2, kept = reduced_pair(c1, c2, wires1, wires2)
    want, sample_gaps = reference_marginal_equiv(r1, r2, rw1, rw2, bindings=bindings, **kwargs)
    assert got.equivalent == want.equivalent
    assert abs(got.max_discrepancy - want.max_discrepancy) <= 1e-12
    if got.witness is not None:
        sample, bits = got.witness
        # one character per compared position, x where it was not simulated
        assert len(bits) == len(wires1)
        assert [k for k, b in enumerate(bits) if b != "x"] == kept
        gaps = outcome_gaps(r1, r2, rw1, rw2, sample, bindings)
        assert gaps[outcome(bits.replace("x", ""))] >= gaps.max() - 1e-12
    top = sorted(sample_gaps, reverse=True)[:2]
    if len(top) == 1 or top[0] - top[1] > 1e-12:
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness[0] == want.witness[0]
    whole, _ = reference_marginal_equiv(c1, c2, wires1, wires2, bindings=bindings, **kwargs)
    tol = kwargs.get("tol", 1e-9)
    if not tol / _CLEAR_OF_TOL < whole.max_discrepancy < tol * _CLEAR_OF_TOL:
        assert got.equivalent == whole.equivalent
    return got, want, whole


def worst_sample_beyond(c1, c2, wires, first: int, samples: int) -> int:
    """A seed whose worst sample, clear of the runner-up, comes at index
    `first` or later."""
    for seed in range(200):
        _, gaps = reference_marginal_equiv(c1, c2, wires, wires, samples=samples, seed=seed)
        top = sorted(gaps, reverse=True)
        if gaps.index(top[0]) >= first and top[0] - top[1] > 1e-6:
            return seed
    raise AssertionError("no seed puts the worst sample past the first batch")


def kept_bit_wires(a, b) -> tuple[list[int], list[int]]:
    """The wires carrying each file's kept classical bits, bit by bit, as
    `deadgate verify` compares them."""
    kept_a = {c: w for w, c in a.measures if w not in a.circuit.dead}
    kept_b = {c: w for w, c in b.measures if w not in b.circuit.dead}
    assert set(kept_a) == set(kept_b)
    return [kept_a[c] for c in sorted(kept_a)], [kept_b[c] for c in sorted(kept_a)]


OUTPUTS = ("optimized", "optimized_cut", "extended", "extended_cut")
# (A, B, verdict), each file named by its `fixtures` function: the
# paper's hand simplifications, the known counterexamples, and each
# fixture against its own optimizer output (verdict True), under the
# default rules or `extended`, or against that output with its last gate
# dropped (`_cut`; None: not known beforehand).
FIXTURE_PAIRS = [
    ("three_qubit_example_source", "three_qubit_simplified_source", True),
    ("vqe_ansatz_source", "vqe_simplified_source", True),
    ("blocked_controlled_source", "blocked_controlled_invalid_source", False),
    ("cz_blocked_source", "cz_blocked_invalid_source", False),
    ("cnot_source", "empty_two_qubit_source", False),
    *((name, output, None if output.endswith("_cut") else True)
      for name in sorted(dir(fixtures)) if name.endswith("_source")
      for output in OUTPUTS),
]


def fixture_pair(a: str, b: str):
    """The parsed files of a FIXTURE_PAIRS row."""
    src = parse(getattr(fixtures, a)())
    if b in OUTPUTS:
        optimized, _ = eliminate_dead_gates(src.circuit, RuleFlags(extended=b.startswith("ext")))
        if b.endswith("_cut"):
            optimized = Circuit(optimized.n, optimized.gates[:-1], optimized.dead,
                                optimized.outcome_map)
        return src, src.with_circuit(optimized)
    return src, parse(getattr(fixtures, b)())


@st.composite
def bench_pairs(draw):
    """A bench circuit at width 2-10 against its optimizer output, or
    against that output with one to three of its last gates dropped."""
    w = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**16))
    original = random_circuit(w, draw(st.sampled_from((5, 20))) * w, 0.1, seed=(seed, 1))
    dead = select_dead(w, DeadMode("fixed", draw(st.integers(1, w - 1))), seed=(seed, 2))
    original = Circuit(w, original.gates, dead, original.outcome_map)
    optimized, _ = eliminate_dead_gates(original, RuleFlags())
    drop = draw(st.integers(0, min(3, len(optimized.gates))))
    gates = optimized.gates[: len(optimized.gates) - drop]
    other = Circuit(w, gates, optimized.dead, optimized.outcome_map)
    valid = [q for q in range(w) if q not in dead]
    return original, other, valid, [optimized.outcome_map[q] for q in valid], drop


class TestBatchedOracle:
    """The batched oracle, which simulates only what differs, against the
    per-sample reference on reduced and on whole circuits."""

    @settings(max_examples=300, deadline=None)
    @given(pair=oracle_pairs(), samples=st.integers(1, 25), seed=st.integers(0, 2**16))
    def test_matches_reference(self, pair, samples, seed):
        c1, c2, wires1, wires2 = pair
        assert_matches_reference(c1, c2, wires1, wires2, samples=samples, seed=seed)

    @pytest.mark.parametrize("n, samples, batches", [
        (10, 20, [16, 4]), (11, 20, [8, 8, 4]), (12, 9, [4, 4, 1]),
    ])
    def test_batch_boundaries(self, monkeypatch, n, samples, batches):
        # the lists differ in their first gate and the rest touches every
        # wire, so the states span all n wires, 16384 >> n to a batch
        kinds = [SingleQubit("RY", q, (0.3 + 0.2 * q,)) for q in range(n)]
        kinds += [Controlled("X", (q,), q + 1) for q in range(n - 1)]
        c1 = build_circuit(n, [SingleQubit("H", n - 1)] + kinds)
        c2 = build_circuit(n, [SingleQubit("RX", n - 1, (0.4,))] + kinds)
        wires = [n - 1, 0]
        assert reduced_pair(c1, c2, wires, wires)[0].n == n
        seed = worst_sample_beyond(c1, c2, wires, batches[0], samples=samples)
        seen = []
        run = oracle._run

        def spy(ops, state):
            seen.append(state.shape[-1])
            return run(ops, state)

        want, _ = reference_marginal_equiv(c1, c2, wires, wires, samples=samples, seed=seed)
        monkeypatch.setattr(oracle, "_run", spy)
        got = check_marginal_equiv(c1, c2, wires, wires, samples=samples, seed=seed)
        assert not got.equivalent
        assert abs(got.max_discrepancy - want.max_discrepancy) <= 1e-12
        assert got.witness == want.witness
        assert got.witness[0][1] >= batches[0]
        # per batch: each circuit's gates after the shared start
        assert seen[::2] == batches and seen[1::2] == batches

    def test_batches_sized_by_touched_wires(self, monkeypatch):
        # a shared start on all 12 wires, then gates on wires 0-9 only:
        # the states span 10 wires, sixteen to a batch
        shared = [SingleQubit("H", q) for q in range(12)]
        shared += [Controlled("X", (q,), q + 1) for q in range(11)]
        rest = [Controlled("X", (q,), q + 1) for q in range(9)]
        c1 = build_circuit(12, shared + [SingleQubit("RY", 0, (0.5,))] + rest)
        c2 = build_circuit(12, shared + [SingleQubit("RX", 0, (0.5,))] + rest)
        wires = list(range(12))
        shapes = []
        run = oracle._run

        def spy(ops, state):
            shapes.append(state.shape)
            return run(ops, state)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_run", spy)
            check_marginal_equiv(c1, c2, wires, wires, samples=20, seed=3)
        got, _, whole = assert_matches_reference(c1, c2, wires, wires, samples=20, seed=3)
        assert not got.equivalent and not whole.equivalent
        assert got.witness[1][10:] == "xx"
        assert [s[-1] for s in shapes[::2]] == [16, 4]
        assert {s[:-1] for s in shapes} == {(2,) * 10}

    def test_non_frontier_removal_caught(self):
        # the controlled gate targets the dead wire but is not on the
        # frontier, since W follows it on its control; removing it changes
        # the kept marginal
        rng = np.random.default_rng(91)
        u, cu, w = (
            Opaque("U", (0, 1)),
            Controlled("U3", (1,), 0, random_u3_params(rng)),
            Opaque("W", (1,)),
        )
        original = build_circuit(2, [u, cu, w], dead={0})
        removed = build_circuit(2, [u, w], dead={0})
        assert oracle._common_prefix(original.gates, removed.gates) == 1
        got, _, whole = assert_matches_reference(
            original, removed, [1], [1], samples=20, seed=93
        )
        assert not got.equivalent and not whole.equivalent
        # "kept gates, then removed gates" would simulate the removed gate
        # last, on the frontier, and hide the error
        shortcut = build_circuit(2, [u, w, cu], dead={0})
        assert check_kept(shortcut, removed, samples=20, seed=93).equivalent

    def test_no_common_prefix(self):
        c1 = build_circuit(2, [SingleQubit("X", 1), SingleQubit("H", 0)], dead={1})
        c2 = build_circuit(2, [SingleQubit("H", 0)], dead={1})
        assert oracle._common_prefix(c1.gates, c2.gates) == 0
        got, _, _ = assert_matches_reference(c1, c2, [0], [0], samples=5, seed=4)
        assert got.equivalent
        got, _, _ = assert_matches_reference(c1, c2, [1], [1], samples=5, seed=4)
        assert not got.equivalent

    @pytest.mark.parametrize("tail, equivalent", [
        (SingleQubit("H", 1), True), (SingleQubit("H", 0), False),
    ], ids=["dead_tail", "live_tail"])
    def test_one_list_prefix_of_other(self, tail, equivalent):
        head = [SingleQubit("H", 0), Controlled("X", (0,), 1), SingleQubit("T", 1)]
        longer = build_circuit(2, head + [tail], dead={1})
        shorter = build_circuit(2, head, dead={1})
        for c1, c2 in ((longer, shorter), (shorter, longer)):
            assert oracle._common_prefix(c1.gates, c2.gates) == len(head)
            got, _, whole = assert_matches_reference(c1, c2, [0], [0], samples=7, seed=2)
            assert got.equivalent == whole.equivalent == equivalent
        same = check_kept(longer, longer, samples=7, seed=2)
        assert same.equivalent and same.max_discrepancy == 0.0

    def test_batches_stay_within_16384_amplitudes(self, monkeypatch):
        sizes = {}
        run = oracle._run

        def spy(ops, state):
            sizes[n] = max(sizes.get(n, 0), state.size)
            return run(ops, state)

        monkeypatch.setattr(oracle, "_run", spy)
        for n in range(0, 15):
            # no shared start, and every wire touched
            c1 = build_circuit(n, [SingleQubit("H", q) for q in range(n)])
            c2 = build_circuit(n, [SingleQubit("X", q) for q in range(n)])
            check_marginal_equiv(c1, c2, list(range(n)), list(range(n)), samples=25, cap=14)
        # 16384 >> n states to a batch, at least one: up to 9 wires all 25
        # run together, and from 14 wires up a batch is one state
        assert sizes == {n: min(25, max(1, 16384 >> n)) << n for n in range(15)}
        assert max(sizes.values()) == 16384

    @pytest.mark.parametrize("n", [2, 3])
    def test_equal_lists_through_swapped_wires(self, n):
        # nothing differs in the gates, so S is the two swapped wires: a
        # random state tells q0 from q1, and a third wire is not compared
        c = build_circuit(n, [SingleQubit("H", 0), Controlled("X", (0,), n - 1)])
        wires1, wires2 = list(range(n)), [1, 0] + list(range(2, n))
        assert oracle._common_prefix(c.gates, c.gates) == 2
        got, _, whole = assert_matches_reference(c, c, wires1, wires2, samples=5, seed=1)
        assert not got.equivalent and not whole.equivalent
        assert re.fullmatch("[01][01]" + "x" * (n - 2), got.witness[1])
        same = check_marginal_equiv(c, c, wires1, wires1, samples=5, seed=1)
        assert same.equivalent and same.max_discrepancy == 0.0

    @pytest.mark.parametrize("tail", [[SingleQubit("H", 0)], []], ids=["prefix", "whole"])
    def test_opaque_arity_in_skipped_prefix_still_checked(self, tail):
        # both uses of U lie in the shared start, which is never simulated
        kinds = [Opaque("U", (0, 1)), SingleQubit("T", 1), Opaque("U", (1,))]
        c1 = build_circuit(2, kinds + tail)
        c2 = build_circuit(2, kinds)
        with pytest.raises(CircuitError, match=r"^opaque label 'U' used with inconsistent arity$"):
            check_marginal_equiv(c1, c2, [0, 1], [0, 1])

    @pytest.mark.parametrize("a, b, verdict", FIXTURE_PAIRS,
                             ids=[f"{a}-{b}" for a, b, _ in FIXTURE_PAIRS])
    def test_fixture_pairs_agree_with_whole_reference(self, a, b, verdict):
        a, b = fixture_pair(a, b)
        wires_a, wires_b = kept_bit_wires(a, b)
        got, _, whole = assert_matches_reference(a.circuit, b.circuit, wires_a, wires_b, seed=11)
        assert got.equivalent == whole.equivalent
        if verdict is not None:
            assert got.equivalent == verdict

    @settings(max_examples=40, deadline=None)
    @given(pair=bench_pairs(), seed=st.integers(0, 2**16))
    def test_bench_pairs_and_mutants(self, pair, seed):
        original, other, wires1, wires2, drop = pair
        got, _, whole = assert_matches_reference(
            original, other, wires1, wires2, samples=10, seed=seed
        )
        assert got.equivalent == whole.equivalent
        if not drop:
            assert got.equivalent


class TestReadmeExample:
    def test_library_snippet_verifies_swap_relabel(self):
        # the optimizer removes the SWAP and moves q[0]'s outcome to wire 1;
        # the snippet must read it there to see the circuits agree
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        library = readme[readme.index("## Library"):]
        snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
        text = "\n".join([
            "OPENQASM 2.0;",
            "qreg q[2];",
            "creg c[2];",
            "h q[0];",
            "cx q[0],q[1];",
            "swap q[0],q[1];",
            "measure q[0] -> c[0];",
            "#pragma dge discard q[1]",
            "",
        ])
        scope = {"text": text}
        exec(snippet, scope)
        assert [r.rule for r in scope["report"].removed] == ["R3_swap_relabel"]
        assert scope["verdict"].equivalent
