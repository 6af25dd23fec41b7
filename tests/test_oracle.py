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
from deadgate.oracle import _marginal

import fixtures
from helpers import (
    FIXTURE_SOURCES,
    basis_state,
    kept_wires,
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
        with pytest.raises(CircuitError):
            simulate(c, basis_state("00"))

    def test_qubit_cap(self):
        c = build_circuit(13, [])
        with pytest.raises(CircuitError):
            check_marginal_equiv(c, c, [], [], cap=12)

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


class TestMarginal:
    def setup_method(self):
        a = np.array([0.1, 0.2, 0.3, 0.4])
        self.phi = a / np.linalg.norm(a)

    def test_two_qubit_values(self):
        m = _marginal(self.phi, 2, (0, 1))
        assert m[outcome("01")] == pytest.approx(abs(self.phi[1]) ** 2)
        assert m[outcome("10")] == pytest.approx(abs(self.phi[2]) ** 2)
        assert m[outcome("00")] == pytest.approx(abs(self.phi[0]) ** 2)

    def test_single_qubit_sums_partner(self):
        m = _marginal(self.phi, 2, (0,))
        expect = abs(self.phi[2]) ** 2 + abs(self.phi[3]) ** 2
        assert m[outcome("1")] == pytest.approx(expect)

    def test_empty_subset(self):
        m = _marginal(self.phi, 2, ())
        assert m.tolist() == [pytest.approx(1.0)]

    def test_duplicate_rejected(self):
        c = build_circuit(2, [])
        with pytest.raises(CircuitError, match="duplicate"):
            check_marginal_equiv(c, c, [0, 0], [0, 1])
        with pytest.raises(CircuitError, match="duplicate"):
            check_marginal_equiv(c, c, [0, 1], [1, 1])
        with pytest.raises(CircuitError, match="out of range"):
            check_marginal_equiv(c, c, [0, 2], [0, 1])

    def test_matches_brute_force_any_order(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            n = int(rng.integers(1, 6))
            amps = random_state(n, seed=(7, i))
            k = int(rng.integers(0, n + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            got = _marginal(amps, n, qubits)
            want = brute_marginal(amps, n, qubits)
            assert got.size == 2**k
            for key, p in want.items():
                assert got[outcome(key)] == pytest.approx(p, abs=1e-12)

    def test_coarse_graining(self):
        amps = random_state(4, seed=99)
        fine = _marginal(amps, 4, (0, 2, 3))
        coarse = _marginal(amps, 4, (0, 3))
        for i, p in enumerate(coarse):
            key = format(i, "02b")
            total = sum(fine[outcome(key[0] + mid + key[1])] for mid in "01")
            assert total == pytest.approx(p, abs=1e-12)

    def test_distribution_normalized(self):
        amps = random_state(5, seed=123)
        assert _marginal(amps, 5, (1, 3)).sum() == pytest.approx(1.0, abs=1e-9)


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

    def test_cap(self):
        with pytest.raises(CircuitError):
            random_state(13, seed=0)


class TestHaarUnitary:
    def test_unitary(self):
        u = haar_unitary(8, np.random.default_rng(3))
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


class TestBindOpaques:
    """One label must have one arity across all the circuits bound together."""

    ARITY = r"^opaque label 'U' used with inconsistent arity$"

    def test_one_circuit_with_two_arities(self):
        c = build_circuit(3, [Opaque("U", (0, 1)), Opaque("U", (0, 1, 2))])
        with pytest.raises(CircuitError, match=self.ARITY):
            bind_opaques([c], seed=1)

    def test_two_circuits_that_disagree(self):
        c1 = build_circuit(2, [Opaque("U", (0,))])
        c2 = build_circuit(2, [Opaque("U", (0, 1))])
        with pytest.raises(CircuitError, match=self.ARITY):
            bind_opaques([c1, c2], seed=1)

    @pytest.mark.parametrize("arities, mib", [
        ((13,), 1024), ((12, 12, 1), 513), ((12, 12, 12), 768),
    ])
    def test_bindings_above_budget_refused_before_binding(self, monkeypatch, arities, mib):
        # a k-wire binding is 16 * 4**k bytes, 256 MiB at 12 wires; all
        # bindings together may take 512 MiB
        def unbounded(dim, rng):
            raise AssertionError(f"asked for a {dim}x{dim} binding")

        monkeypatch.setattr(oracle, "haar_unitary", unbounded)
        gates = [Opaque(f"U{i}", tuple(range(k))) for i, k in enumerate(arities)]
        with pytest.raises(CircuitError, match=rf"^opaque bindings need {mib} MiB, above 512 MiB$"):
            bind_opaques([build_circuit(max(arities), gates)], seed=1)

    def test_bindings_within_budget_are_made(self, monkeypatch):
        # the stub stands in for each binding by its dimension
        monkeypatch.setattr(oracle, "haar_unitary", lambda dim, rng: dim)
        # two 12-wire blocks take exactly the 512 MiB allowed
        c = build_circuit(12, [Opaque("A", tuple(range(12))), Opaque("B", tuple(range(12)))])
        assert bind_opaques([c], seed=1) == {"A": 4096, "B": 4096}


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
        out1 = _marginal(simulate(c1, basis_state("10")), 2, (1,))
        out2 = _marginal(simulate(c2, basis_state("10")), 2, (1,))
        assert out1[outcome("1")] == pytest.approx(1.0)
        assert out2[outcome("1")] == pytest.approx(0.0)

    def test_reflexive(self):
        from fixtures import vqe_ansatz

        c = vqe_ansatz().circuit
        bindings = bind_opaques([c], seed=4)
        verdict = check_kept(c, c, samples=5, seed=2, bindings=bindings)
        assert verdict.equivalent
        assert verdict.max_discrepancy == 0.0

    def test_qubit_count_mismatch(self):
        with pytest.raises(CircuitError):
            check_marginal_equiv(build_circuit(2, []), build_circuit(3, []), [], [])

    def test_wire_lists_of_unequal_length_raise(self):
        c = build_circuit(2, [])
        with pytest.raises(CircuitError, match="^wire lists must have equal length$"):
            check_marginal_equiv(c, c, [0], [0, 1])

    H_VS_X = (build_circuit(1, [SingleQubit("H", 0)]), build_circuit(1, [SingleQubit("X", 0)]))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_raise(self, samples):
        # with no sample there is no evidence, so no verdict
        with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
            check_marginal_equiv(*self.H_VS_X, [0], [0], samples=samples)

    @pytest.mark.parametrize("tol", [1, 5, -1, math.inf, math.nan])
    def test_tol_outside_unit_interval_raises(self, tol):
        assert not check_marginal_equiv(*self.H_VS_X, [0], [0]).equivalent
        with pytest.raises(ValueError, match=r"^tol must be finite and in \[0, 1\), got "):
            check_marginal_equiv(*self.H_VS_X, [0], [0], tol=tol)

    def test_cap_lifts_to_the_ceiling_only(self):
        c = build_circuit(13, [SingleQubit("H", 0)])
        assert check_marginal_equiv(c, c, [0], [0], samples=1, cap=13).equivalent
        wide = build_circuit(21, [])
        with pytest.raises(CircuitError, match=r"^21 qubits exceeds the cap of 20$"):
            check_marginal_equiv(wide, wide, [], [], cap=40)

    def test_binds_opaques_from_seed_when_given_none(self):
        c1 = build_circuit(2, [Opaque("U", (0, 1)), Opaque("V", (1,))])
        c2 = build_circuit(2, [Opaque("U", (0, 1))])
        bindings = bind_opaques([c1, c2], seed=5)
        given = check_marginal_equiv(c1, c2, [0, 1], [0, 1], seed=5, bindings=bindings)
        assert check_marginal_equiv(c1, c2, [0, 1], [0, 1], seed=5) == given
        assert not given.equivalent

    @pytest.mark.parametrize("kwargs, message", [
        ({}, "13 qubits exceeds the cap of 12"),
        ({"cap": 13, "samples": 0}, "samples must be at least 1, got 0"),
        ({"cap": 13, "tol": 1.0}, "tol must be finite and in [0, 1), got 1.0"),
        ({"cap": 13, "seed": -1}, "seed must be non-negative, got -1"),
        # the seed is checked after samples and tol
        ({"cap": 13, "seed": -1, "samples": 0}, "samples must be at least 1, got 0"),
        # each entry of a tuple seed, not numpy's unnamed refusal
        ({"cap": 13, "seed": (-1, 2)}, "seed must be non-negative, got (-1, 2)"),
        ({"cap": 13, "seed": (1, -2)}, "seed must be non-negative, got (1, -2)"),
        # a numpy integer, a list and a nested entry, as numpy reads them
        ({"cap": 13, "seed": np.int64(-1)}, "seed must be non-negative, got -1"),
        ({"cap": 13, "seed": [-1, 2]}, "seed must be non-negative, got [-1, 2]"),
        ({"cap": 13, "seed": ((-1, 2), 3)}, "seed must be non-negative, got ((-1, 2), 3)"),
    ])
    def test_refuses_before_binding(self, monkeypatch, kwargs, message):
        def unbounded(dim, rng):
            raise AssertionError(f"asked for a {dim}x{dim} binding")

        monkeypatch.setattr(oracle, "haar_unitary", unbounded)
        c = build_circuit(13, [Opaque("U", tuple(range(12)))])
        with pytest.raises((CircuitError, ValueError), match=f"^{re.escape(message)}$"):
            check_marginal_equiv(c, c, [12], [12], **kwargs)


class TestCheckEquivExtended:
    def test_swap_relabel_equivalent(self):
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c1 = build_circuit(3, kinds, dead={0})
        c2 = build_circuit(3, kinds[:1], dead={1})
        bindings = bind_opaques([c1], seed=6)
        wires1, wires2 = paired_wires(c1, {0: 1})
        verdict = check_marginal_equiv(
            c1, c2, wires1, wires2, samples=10, seed=3, bindings=bindings
        )
        assert verdict.equivalent

    def test_wrong_dead_set_caught(self):
        kinds = [Opaque("U", (0, 1, 2)), Swap(0, 1)]
        c1 = build_circuit(3, kinds, dead={0})
        c2 = build_circuit(3, kinds[:1], dead={0})
        bindings = bind_opaques([c1], seed=6)
        verdict = check_kept(c1, c2, samples=10, seed=3, bindings=bindings)
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
            bindings = bind_opaques([c1], seed=(61, i))
            assert check_kept(c1, c2, samples=2, seed=(62, i), bindings=bindings).equivalent

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
            bindings = bind_opaques([c1], seed=(71, i))
            assert check_kept(
                c1, c2, samples=2, seed=(72, i), bindings=bindings
            ).equivalent

    def test_swap_removal(self):
        rng = np.random.default_rng(81)
        for i in range(10):
            n = int(rng.integers(2, 7))
            qi, qj = (int(q) for q in rng.permutation(n)[:2])
            kinds = [Opaque("U", tuple(range(n))), Swap(qi, qj)]
            c1 = build_circuit(n, kinds, dead={qi})
            c2 = build_circuit(n, kinds[:1], dead={qj})
            bindings = bind_opaques([c1], seed=(81, i))
            assert check_marginal_equiv(
                c1, c2, *paired_wires(c1, {qi: qj}), samples=2, seed=(82, i),
                bindings=bindings,
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
        bindings = bind_opaques([c1], seed=92)
        verdict = check_kept(c1, c2, samples=20, seed=93, bindings=bindings)
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


def outcome_gaps(c1, c2, wires1, wires2, sample, bindings=None) -> np.ndarray:
    """Per-outcome gaps of one seeded sample, each circuit simulated whole."""
    amps = random_state(c1.n, seed=sample)
    p1 = _marginal(simulate(c1, amps, bindings), c1.n, tuple(wires1))
    p2 = _marginal(simulate(c2, amps, bindings), c2.n, tuple(wires2))
    return np.abs(p1 - p2)


# Two references draw different states, so their worst gaps differ; only
# gaps this far from the tolerance are sure to give the same verdict.
_CLEAR_OF_TOL = 1e3


def assert_matches_reference(c1, c2, wires1, wires2, **kwargs):
    """The oracle against the per-sample reference: (a) run on the reduced
    circuits, the worst gap and witness to rounding; (b) run on the whole
    circuits, the verdict. Returns (oracle, reduced, whole) verdicts."""
    got = check_marginal_equiv(c1, c2, wires1, wires2, **kwargs)
    r1, r2, rw1, rw2, kept = reduced_pair(c1, c2, wires1, wires2)
    want, sample_gaps = reference_marginal_equiv(r1, r2, rw1, rw2, **kwargs)
    assert got.equivalent == want.equivalent
    assert abs(got.max_discrepancy - want.max_discrepancy) <= 1e-12
    if got.witness is not None:
        sample, bits = got.witness
        # one character per compared position, x where it was not simulated
        assert len(bits) == len(wires1)
        assert [k for k, b in enumerate(bits) if b != "x"] == kept
        gaps = outcome_gaps(r1, r2, rw1, rw2, sample, kwargs.get("bindings"))
        assert gaps[outcome(bits.replace("x", ""))] >= gaps.max() - 1e-12
    top = sorted(sample_gaps, reverse=True)[:2]
    if len(top) == 1 or top[0] - top[1] > 1e-12:
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness[0] == want.witness[0]
    whole, _ = reference_marginal_equiv(c1, c2, wires1, wires2, **kwargs)
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


def fixture_pairs():
    """(A, B, verdict) for the paper's hand simplifications, the known
    counterexamples, and each fixture against its own optimizer output
    (verdict True) or that output with its last gate dropped (None: not
    known beforehand)."""
    pairs = [
        ("three_qubit", fixtures.three_qubit_example_source(),
         fixtures.three_qubit_simplified_source(), True),
        ("vqe", fixtures.vqe_ansatz_source(), fixtures.vqe_simplified_source(), True),
        ("blocked", fixtures.blocked_controlled_source(),
         fixtures.blocked_controlled_invalid_source(), False),
        ("cz", fixtures.cz_blocked_source(), fixtures.cz_blocked_invalid_source(), False),
        ("cnot", fixtures.cnot_source(), fixtures.empty_two_qubit_source(), False),
    ]
    out = [(name, parse(a), parse(b), verdict) for name, a, b, verdict in pairs]
    for text in FIXTURE_SOURCES:
        src = parse(text)
        for flags in (RuleFlags(), RuleFlags(extended=True)):
            optimized, _ = eliminate_dead_gates(src.circuit, flags)
            name = f"{len(out)}_{src.circuit.n}q"
            out.append((name, src, src.with_circuit(optimized), True))
            if optimized.gates:
                cut = Circuit(optimized.n, optimized.gates[:-1], optimized.dead,
                              optimized.outcome_map)
                out.append((name + "_cut", src, src.with_circuit(cut), None))
    return out


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
        bindings = bind_opaques([c1, c2], seed=seed)
        assert_matches_reference(
            c1, c2, wires1, wires2, samples=samples, seed=seed, bindings=bindings
        )

    @pytest.mark.parametrize("n, batches", [
        (10, [4, 4, 1]), (11, [2, 2, 2, 2, 1]), (12, [1] * 9),
    ])
    def test_batch_boundaries(self, monkeypatch, n, batches):
        # the lists differ in their first gate and the rest touches every
        # wire, so the states span all n wires
        kinds = [SingleQubit("RY", q, (0.3 + 0.2 * q,)) for q in range(n)]
        kinds += [Controlled("X", (q,), q + 1) for q in range(n - 1)]
        c1 = build_circuit(n, [SingleQubit("H", n - 1)] + kinds)
        c2 = build_circuit(n, [SingleQubit("RX", n - 1, (0.4,))] + kinds)
        wires = [n - 1, 0]
        assert reduced_pair(c1, c2, wires, wires)[0].n == n
        seed = worst_sample_beyond(c1, c2, wires, batches[0], samples=9)
        seen = []
        run = oracle._run

        def spy(ops, state):
            seen.append(state.shape[-1])
            return run(ops, state)

        want, _ = reference_marginal_equiv(c1, c2, wires, wires, samples=9, seed=seed)
        monkeypatch.setattr(oracle, "_run", spy)
        got = check_marginal_equiv(c1, c2, wires, wires, samples=9, seed=seed)
        assert not got.equivalent
        assert abs(got.max_discrepancy - want.max_discrepancy) <= 1e-12
        assert got.witness == want.witness
        assert got.witness[0][1] >= batches[0]
        # per batch: each circuit's gates after the shared start
        assert seen[::2] == batches and seen[1::2] == batches

    def test_batches_sized_by_touched_wires(self, monkeypatch):
        # a shared start on all 12 wires, then gates on wires 0-9 only:
        # the states span 10 wires, four to a batch
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
            check_marginal_equiv(c1, c2, wires, wires, samples=9, seed=3)
        got, _, whole = assert_matches_reference(c1, c2, wires, wires, samples=9, seed=3)
        assert not got.equivalent and not whole.equivalent
        assert got.witness[1][10:] == "xx"
        assert [s[-1] for s in shapes[::2]] == [4, 4, 1]
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
        bindings = bind_opaques([original], seed=92)
        assert oracle._common_prefix(original.gates, removed.gates, bindings) == 1
        got, _, whole = assert_matches_reference(
            original, removed, [1], [1], samples=20, seed=93, bindings=bindings
        )
        assert not got.equivalent and not whole.equivalent
        # "kept gates, then removed gates" would simulate the removed gate
        # last, on the frontier, and hide the error
        shortcut = build_circuit(2, [u, w, cu], dead={0})
        assert check_kept(shortcut, removed, samples=20, seed=93, bindings=bindings).equivalent

    def test_no_common_prefix(self):
        c1 = build_circuit(2, [SingleQubit("X", 1), SingleQubit("H", 0)], dead={1})
        c2 = build_circuit(2, [SingleQubit("H", 0)], dead={1})
        assert oracle._common_prefix(c1.gates, c2.gates, {}) == 0
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
            assert oracle._common_prefix(c1.gates, c2.gates, {}) == len(head)
            got, _, whole = assert_matches_reference(c1, c2, [0], [0], samples=7, seed=2)
            assert got.equivalent == whole.equivalent == equivalent
        same = check_kept(longer, longer, samples=7, seed=2)
        assert same.equivalent and same.max_discrepancy == 0.0

    def test_batches_stay_within_one_capped_state(self, monkeypatch):
        sizes = {}
        run = oracle._run

        def spy(ops, state):
            sizes[n] = max(sizes.get(n, 0), state.size)
            return run(ops, state)

        monkeypatch.setattr(oracle, "_run", spy)
        for n in range(0, 13):
            # no shared start, and every wire touched
            c1 = build_circuit(n, [SingleQubit("H", q) for q in range(n)])
            c2 = build_circuit(n, [SingleQubit("X", q) for q in range(n)])
            check_marginal_equiv(c1, c2, list(range(n)), list(range(n)), samples=25)
        assert max(sizes.values()) <= 4096
        # small circuits do run their samples together
        assert sizes[3] == 8 * 25 and sizes[9] == 512 * 8 and sizes[12] == 4096

    @pytest.mark.parametrize("n", [2, 3])
    def test_equal_lists_through_swapped_wires(self, n):
        # nothing differs in the gates, so S is the two swapped wires: a
        # random state tells q0 from q1, and a third wire is not compared
        c = build_circuit(n, [SingleQubit("H", 0), Controlled("X", (0,), n - 1)])
        wires1, wires2 = list(range(n)), [1, 0] + list(range(2, n))
        assert oracle._common_prefix(c.gates, c.gates, {}) == 2
        got, _, whole = assert_matches_reference(c, c, wires1, wires2, samples=5, seed=1)
        assert not got.equivalent and not whole.equivalent
        assert re.fullmatch("[01][01]" + "x" * (n - 2), got.witness[1])
        same = check_marginal_equiv(c, c, wires1, wires1, samples=5, seed=1)
        assert same.equivalent and same.max_discrepancy == 0.0

    @pytest.mark.parametrize("bindings, message", [
        ({}, "opaque block 'U' has no bound unitary"),
        ({"U": np.eye(2)}, "binding for 'U' has shape (2, 2), expected (4, 4)"),
    ], ids=["unbound", "wrong_shape"])
    @pytest.mark.parametrize("tail", [[SingleQubit("H", 0)], []], ids=["prefix", "whole"])
    def test_opaque_in_skipped_prefix_still_checked(self, bindings, message, tail):
        kinds = [Opaque("U", (0, 1)), SingleQubit("T", 1)]
        c1 = build_circuit(2, kinds + tail)
        c2 = build_circuit(2, kinds)
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            check_marginal_equiv(c1, c2, [0, 1], [0, 1], bindings=bindings)

    @pytest.mark.parametrize("pair", fixture_pairs(), ids=lambda pair: pair[0])
    def test_fixture_pairs_agree_with_whole_reference(self, pair):
        _, a, b, verdict = pair
        wires_a, wires_b = kept_bit_wires(a, b)
        bindings = bind_opaques([a.circuit, b.circuit], seed=11)
        got, _, whole = assert_matches_reference(
            a.circuit, b.circuit, wires_a, wires_b, seed=11, bindings=bindings
        )
        assert got.equivalent == whole.equivalent
        if verdict is not None:
            assert got.equivalent == verdict

    @settings(max_examples=40, deadline=None)
    @given(pair=bench_pairs(), seed=st.integers(0, 2**16))
    def test_bench_pairs_and_mutants(self, pair, seed):
        original, other, wires1, wires2, drop = pair
        got, _, whole = assert_matches_reference(
            original, other, wires1, wires2, samples=10, seed=seed, bindings={}
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
