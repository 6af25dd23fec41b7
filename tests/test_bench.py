import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deadgate
from deadgate import (
    Circuit, Controlled, Gate, RuleFlags, SingleQubit, Swap, build_circuit,
    check_marginal_equiv,
)
from deadgate import bench
from deadgate.bench import (
    DEFAULT_PALETTE,
    BenchConfig,
    DeadMode,
    DrawnGates,
    manifest_json,
    random_circuit,
    run_bench,
    select_dead,
)
from deadgate.eliminate import eliminate_dead_gates
from deadgate.qasm import parse, serialize

from helpers import eager_random_circuit, generator_draws, source_from_circuit


class TestRandomCircuit:
    def test_gate_count_and_palette(self):
        c = random_circuit(4, 120, 0.1, seed=1)
        assert len(c.gates) == 120
        for g in c.gates:
            assert isinstance(g.kind, (SingleQubit, Controlled, Swap))

    def test_one_qubit_fraction_in_binomial_interval(self):
        c = random_circuit(2, 200, 0.1, seed=2)
        ones = sum(isinstance(g.kind, SingleQubit) for g in c.gates)
        sd = math.sqrt(200 * 0.1 * 0.9)
        assert abs(ones - 20) <= 2.576 * sd  # 99% interval around the mean

    def test_zero_gates(self):
        assert random_circuit(3, 0, 0.1, seed=3).gates == ()

    def test_deterministic(self):
        a = random_circuit(5, 80, 0.1, seed=4)
        b = random_circuit(5, 80, 0.1, seed=4)
        assert a.gates == b.gates

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.integers(1, 40),
        gates=st.integers(0, 400),
        fraction=st.floats(0, 1.5) | st.just(float("nan")),
        palette=st.lists(st.sampled_from(DEFAULT_PALETTE), min_size=1, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_gates_are_valid(self, w, gates, fraction, palette, seed):
        """The generator draws every wire in range and two distinct wires
        per two-qubit gate, so `build_circuit` accepts every gate it yields."""
        palette = tuple(palette)
        if w < 2 and not fraction >= 1.0:
            with pytest.raises(ValueError, match="^two-qubit gates need width >= 2$"):
                random_circuit(w, gates, fraction, seed=seed, palette=palette)
            return
        c = random_circuit(w, gates, fraction, seed=seed, palette=palette)
        assert build_circuit(w, [g.kind for g in c.gates]).gates == c.gates

    def test_restricted_palette(self):
        c = random_circuit(4, 60, 0.1, seed=6, palette=("cx",))
        assert not any(isinstance(g.kind, Swap) for g in c.gates)


PALETTES = [("cx",), ("cx", "cz"), ("cx", "cz", "swap")]
ALL_FLAGS = [
    RuleFlags(extended=e, swap_relabel=r) for e in (False, True) for r in (True, False)
]


class TestGeneratorAndParserAgree:
    @pytest.mark.parametrize("palette", [
        p for k in range(1, 4) for p in itertools.combinations(DEFAULT_PALETTE, k)
    ], ids=",".join)
    def test_drawn_circuits_read_back_as_drawn(self, palette):
        """Every drawn gate, written out, parses back to the kind drawn."""
        for w in (2, 3, 7, 20):
            c = random_circuit(w, 30 * w, 0.1, seed=(84, w), palette=palette)
            back = parse(serialize(source_from_circuit(c))).circuit
            assert [g.kind for g in back.gates] == [g.kind for g in c.gates]
        # cz drawn with its first wire above its second is among them
        if "cz" in palette:
            is_1q, _, _, pal_idx, a, b = generator_draws(w, 30 * w, 0.1, (84, w), palette)
            two = ~is_1q & (np.asarray(palette)[pal_idx] == "cz")
            assert (a[two] > b[two]).any()
            for i in np.flatnonzero(two):
                lo, hi = sorted((int(a[i]), int(b[i])))
                assert c.gates[i].kind == Controlled("Z", (lo,), hi)


class TestLazyMatchesEager:
    """The lazily built generator against the eager reference loop."""

    @pytest.mark.parametrize("fraction", [0.1, 0.9])
    @pytest.mark.parametrize("palette", PALETTES, ids=",".join)
    def test_same_gates_and_pass_at_every_width(self, palette, fraction):
        for w in range(2, 41):
            seed = (81, w)
            lazy = random_circuit(w, 100 * w, fraction, seed=seed, palette=palette)
            eager = eager_random_circuit(w, 100 * w, fraction, seed=seed, palette=palette)
            assert isinstance(lazy.gates, DrawnGates)
            assert lazy.gates == eager.gates
            assert lazy == eager
            dead = select_dead(w, DeadMode("pct", 20), seed=(82, w))
            flags = ALL_FLAGS[w % 4]
            on_lazy = eliminate_dead_gates(
                Circuit(w, lazy.gates, dead, lazy.outcome_map), flags)
            on_tuple = eliminate_dead_gates(
                Circuit(w, tuple(lazy.gates), dead, lazy.outcome_map), flags)
            assert on_lazy[0] == on_tuple[0]
            assert on_lazy[1].to_json() == on_tuple[1].to_json()

    @pytest.mark.parametrize("palette", PALETTES, ids=",".join)
    def test_zero_gates(self, palette):
        lazy = random_circuit(4, 0, 0.1, seed=83, palette=palette)
        assert lazy.gates == eager_random_circuit(4, 0, 0.1, seed=83, palette=palette).gates
        assert lazy.gates == () and len(lazy.gates) == 0

    def test_width_40_block_builds_only_the_walked_tail(self, monkeypatch):
        c = random_circuit(40, 4000, 0.1, seed=(7, 40, 0, 0, 1))
        dead = select_dead(40, DeadMode("pct", 20), seed=(7, 40, 0, 0, 2))
        c = Circuit(40, c.gates, dead, c.outcome_map)
        built = []

        def spy(kind):
            built.append(kind)
            return real_gate(kind)

        real_gate = bench.Gate
        monkeypatch.setattr(bench, "Gate", spy)
        _, report = eliminate_dead_gates(c)
        monkeypatch.undo()
        walked = walked_count(c, report)
        assert 0 < walked < 200
        # each walked gate is built once, by the walk, last gate first, and
        # no gate before the walked tail is built at all
        assert built == [c.gates[i].kind for i in range(3999, 3999 - walked, -1)]


    def test_spot_verify_reads_only_past_the_shared_start(self, monkeypatch):
        built = []

        def spy(kind):
            built.append(kind)
            return real_gate(kind)

        real_gate = bench.Gate
        # block 0 removes nothing, block 2 removes gates 997 and 998
        for block in (0, 2):
            root = (7, 10, 0, block)
            c = random_circuit(10, 1000, 0.1, seed=(*root, 1))
            dead = select_dead(10, DeadMode("pct", 20), seed=(*root, 2))
            c = Circuit(10, c.gates, dead, c.outcome_map)
            optimized, report = eliminate_dead_gates(c)
            first = min((r.id for r in report.removed), default=len(c.gates))
            assert first >= len(c.gates) - walked_count(c, report) > 900
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(bench, "Gate", spy)
                bench._spot_verify(c, optimized, report, seed=(*root, 3))
            # no gate before the first removal is built, since the pass
            # keeps those in place, and each one from it on once, in order
            assert built == [c.gates[i].kind for i in range(first, len(c.gates))]


def walked_count(c: Circuit, report) -> int:
    """How many gates the pass walks back from the end: until every wire
    carries a gate it keeps."""
    removed = {r.id for r in report.removed}
    blocked: set[int] = set()
    walked = 0
    for i, g in reversed(tuple(enumerate(c.gates))):
        if len(blocked) == c.n:
            break
        walked += 1
        if i not in removed:
            blocked.update(g.kind.qubits())
    return walked


class TestSpotVerifyTails:
    """`_spot_verify` hands the oracle only the gates from the pass's
    first removal on, and its verdict is the oracle's on the whole
    circuits."""

    @pytest.mark.parametrize("mode", ["fixed:1", "pct:10", "pct:20"])
    def test_tail_verdict_matches_whole_circuits(self, monkeypatch, mode):
        calls = []
        oracle_check = bench.check_marginal_equiv

        def spy(c1, c2, *args, **kwargs):
            verdict = oracle_check(c1, c2, *args, **kwargs)
            calls.append((c1.gates, c2.gates, verdict))
            return verdict

        monkeypatch.setattr(bench, "check_marginal_equiv", spy)
        for w in range(2, 11):
            for block in range(3):
                root = (3, w, 0, block)
                c = random_circuit(w, 100 * w, 0.1, seed=(*root, 1))
                dead = select_dead(w, DeadMode.parse(mode), seed=(*root, 2))
                c = Circuit(w, c.gates, dead, c.outcome_map)
                optimized, report = eliminate_dead_gates(c)
                bench._spot_verify(c, optimized, report, (*root, 3))
                tail1, tail2, verdict = calls.pop()
                first = min((r.id for r in report.removed), default=len(c.gates))
                assert type(tail1) is tuple and type(tail2) is tuple
                assert tuple(optimized.gates)[:first] == tuple(c.gates)[:first]
                assert tail1 == tuple(c.gates)[first:]
                assert tail2 == tuple(optimized.gates)[first:]
                assert len(tail1) <= walked_count(c, report)
                assert verdict == whole_verdict(c, optimized, (*root, 3))

    def test_tuple_circuits_give_the_whole_circuit_verdict(self, monkeypatch):
        verdicts = []
        oracle_check = bench.check_marginal_equiv

        def spy(*args, **kwargs):
            verdicts.append(oracle_check(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(bench, "check_marginal_equiv", spy)
        caught = 0
        for w in range(2, 8):
            root = (4, w, 0, 0)
            drawn = random_circuit(w, 100 * w, 0.1, seed=(*root, 1))
            dead = select_dead(w, DeadMode("pct", 20), seed=(*root, 2))
            c = Circuit(w, tuple(drawn.gates), dead, drawn.outcome_map)
            optimized, report = eliminate_dead_gates(c)
            assert type(optimized.gates) is tuple
            bench._spot_verify(c, optimized, report, (*root, 3))
            assert verdicts.pop() == whole_verdict(c, optimized, (*root, 3))
            # an X appended on a kept wire's outcome wire: past the first
            # removal, so the tails differ as the whole circuits do
            kept_wire = optimized.outcome_map[min(set(range(w)) - dead)]
            flip = Gate(SingleQubit("X", kept_wire))
            broken = dataclasses.replace(optimized, gates=optimized.gates + (flip,))
            whole = whole_verdict(c, broken, (*root, 3))
            if whole.equivalent:
                bench._spot_verify(c, broken, report, (*root, 3))
            else:
                caught += 1
                with pytest.raises(AssertionError, match="spot verification failed"):
                    bench._spot_verify(c, broken, report, (*root, 3))
            assert verdicts.pop() == whole
        assert caught

    def test_nothing_removed_gives_two_empty_tails(self, monkeypatch):
        calls = []

        def spy(c1, c2, *args, **kwargs):
            calls.append((c1.gates, c2.gates))
            return check_marginal_equiv(c1, c2, *args, **kwargs)

        monkeypatch.setattr(bench, "check_marginal_equiv", spy)
        for block in itertools.count():
            root = (6, 6, 0, block)
            c = random_circuit(6, 600, 0.1, seed=(*root, 1))
            dead = select_dead(6, DeadMode("fixed", 1), seed=(*root, 2))
            c = Circuit(6, c.gates, dead, c.outcome_map)
            optimized, report = eliminate_dead_gates(c)
            if not report.removed:
                break
        bench._spot_verify(c, optimized, report, (*root, 3))
        assert calls == [((), ())]


def whole_verdict(original: Circuit, optimized: Circuit, seed):
    """The oracle's verdict on the whole circuits, read as `_spot_verify` reads them."""
    valid = [q for q in range(original.n) if q not in original.dead]
    mapped = [optimized.outcome_map[q] for q in valid]
    return check_marginal_equiv(original, optimized, valid, mapped, seed=seed)


class TestDrawnGates:
    @pytest.fixture
    def pair(self):
        lazy = random_circuit(5, 50, 0.3, seed=84).gates
        eager = eager_random_circuit(5, 50, 0.3, seed=84).gates
        return lazy, eager

    def test_indexing(self, pair):
        lazy, eager = pair
        assert len(lazy) == 50
        assert [lazy[i] for i in range(50)] == list(eager)
        assert lazy[-1] == eager[-1] and lazy[-50] == eager[0]
        assert lazy[np.int64(7)] == eager[7]
        for bad in (50, -51, 10**6):
            with pytest.raises(IndexError):
                lazy[bad]

    def test_prefix_slice_is_a_view(self, pair):
        lazy, eager = pair
        for k in (0, 1, 20, 49, 50, 80, -5):
            view = lazy[:k]
            assert isinstance(view, DrawnGates)
            assert view == eager[:k] and len(view) == len(eager[:k])
        assert lazy[0:20] == eager[:20] and isinstance(lazy[0:20], DrawnGates)

    def test_other_slices_are_tuples(self, pair):
        lazy, eager = pair
        for s in (slice(30, None), slice(5, 10), slice(None, None, 2),
                  slice(None, None, -1), slice(-3, None)):
            got = lazy[s]
            assert type(got) is tuple and got == eager[s]

    def test_iteration_and_reversed(self, pair):
        lazy, eager = pair
        assert list(lazy) == list(eager)
        assert list(reversed(lazy)) == list(reversed(eager))

    def test_add_tuple_appends_tail(self, pair):
        lazy, eager = pair
        joined = lazy[:20] + eager[40:]
        want = eager[:20] + eager[40:]
        assert isinstance(joined, DrawnGates)
        assert joined == want and len(joined) == 30
        assert joined[20] == eager[40] and joined[-1] == eager[-1]
        assert list(reversed(joined)) == list(reversed(want))
        assert joined[:25] == want[:25] and joined[:10] == want[:10]
        assert joined[15:] == want[15:]
        assert joined + (eager[0],) == want + (eager[0],)
        assert lazy[:20] + () == eager[:20]
        with pytest.raises(TypeError):
            lazy + list(eager)

    def test_equality_with_tuples_both_ways(self, pair):
        lazy, eager = pair
        assert lazy == eager and eager == lazy
        assert not lazy != eager and not eager != lazy
        assert lazy != eager[:-1] and eager[:-1] != lazy
        assert lazy != eager[:-1] + (eager[0],) and eager[:-1] + (eager[0],) != lazy
        assert lazy == random_circuit(5, 50, 0.3, seed=84).gates
        assert lazy != random_circuit(5, 50, 0.3, seed=85).gates
        assert lazy != list(eager)
        with pytest.raises(TypeError):
            hash(lazy)


class TestSelectDead:
    def test_percent_counts(self):
        assert len(select_dead(10, DeadMode("pct", 10), seed=1)) == 1
        assert len(select_dead(10, DeadMode("pct", 20), seed=1)) == 2
        assert len(select_dead(5, DeadMode("pct", 10), seed=1)) == 1  # floor, min 1

    def test_nested_for_shared_seed(self):
        small = select_dead(20, DeadMode("pct", 10), seed=9)
        large = select_dead(20, DeadMode("pct", 20), seed=9)
        assert small < large

    def test_uniform_coverage(self):
        hits = set()
        for i in range(200):
            hits |= select_dead(6, DeadMode("fixed", 1), seed=(3, i))
        assert hits == set(range(6))

    def test_mode_parse(self):
        assert DeadMode.parse("fixed:2") == DeadMode("fixed", 2)
        assert DeadMode.parse("pct:20") == DeadMode("pct", 20)


def small_config(**overrides) -> BenchConfig:
    base = dict(
        widths=(3, 4, 5),
        dead_mode=DeadMode("fixed", 1),
        gate_multiplier=10,
        programs=2,
        blocks=2,
        seed=5,
        verify_fraction=0.5,
        measure_time=False,
    )
    base.update(overrides)
    return BenchConfig(**base)


def sweep_blocks(cfg: BenchConfig):
    """`(width, circuit, report)` for each block of `cfg`'s sweep, in
    `run_bench`'s order, each drawn and optimized here on its own."""
    for width in cfg.widths:
        for program in range(cfg.programs):
            for block in range(cfg.blocks):
                root = (cfg.seed, width, program, block)
                c = random_circuit(width, cfg.gate_multiplier * width,
                                   cfg.single_qubit_fraction, seed=(*root, 1),
                                   palette=cfg.palette)
                dead = select_dead(width, cfg.dead_mode, seed=(*root, 2))
                c = Circuit(c.n, c.gates, dead, c.outcome_map)
                yield width, c, eliminate_dead_gates(c, RuleFlags())[1]


VERIFY_FRACTION = "verify fraction must be in [0, 1] with a finite 1/fraction, got "
RUNS = "gate multiplier, blocks and programs must be >= 1"

# Every refusal of the bench library, as (call, message), each a plain
# ValueError, with rows that pin which of two refusals comes first. A
# configuration is refused when it is built, before any sweep runs.
REFUSALS = {
    "dead_mode_unknown": (lambda: DeadMode("half", 2), "unknown dead mode 'half'"),
    "dead_mode_zero": (lambda: DeadMode("fixed", 0), "dead mode value must be positive"),
    "dead_mode_negative": (lambda: DeadMode("pct", -5), "dead mode value must be positive"),
    "dead_mode_text": (lambda: DeadMode.parse("every-other"),
                       "dead mode 'every-other' is not of the form fixed:k or pct:p"),
    # the kind is checked before the value
    "dead_mode_kind_before_value": (lambda: DeadMode.parse("half:0"), "unknown dead mode 'half'"),
    "no_widths": (lambda: small_config(widths=()), "widths must all be >= 2"),
    "width_one": (lambda: small_config(widths=(1, 3)), "widths must all be >= 2"),
    "fraction_one": (lambda: small_config(single_qubit_fraction=1.0),
                     "single-qubit fraction must be in (0,1)"),
    "fraction_nan": (lambda: small_config(single_qubit_fraction=math.nan),
                     "single-qubit fraction must be in (0,1)"),
    "gate_multiplier": (lambda: small_config(gate_multiplier=0), RUNS),
    "blocks": (lambda: small_config(blocks=0), RUNS),
    "programs": (lambda: small_config(programs=0), RUNS),
    "gates_per_circuit": (lambda: small_config(widths=(2, 10), gate_multiplier=100_001),
                          "1000010 gates per circuit exceeds 1000000"),
    "seed": (lambda: small_config(seed=-1), "seed must be non-negative"),
    "fixed_dead_too_many": (lambda: BenchConfig(widths=(4,), dead_mode=DeadMode("fixed", 5)),
                            "dead mode fixed:5 gives 5 dead qubits at width 4"),
    "pct_dead_leaves_none": (lambda: small_config(widths=(3, 2), dead_mode=DeadMode("pct", 100)),
                             "dead mode pct:100 gives 3 dead qubits at width 3"),
    "palette_unknown": (lambda: small_config(palette=("cx", "iswap")),
                        "unsupported two-qubit palette entries: ['iswap']"),
    "palette_empty": (lambda: small_config(palette=()),
                      "unsupported two-qubit palette entries: []"),
    **{f"verify_fraction_{f}": (lambda f=f: small_config(verify_fraction=f),
                                VERIFY_FRACTION + str(f))
       for f in (7.0, -1.0, math.nan, math.inf, 1e-320)},
    "random_circuit_width_one": (lambda: random_circuit(1, 10, 0.1, seed=5),
                                 "two-qubit gates need width >= 2"),
    "random_circuit_nan_fraction": (lambda: random_circuit(1, 5, math.nan, seed=0),
                                    "two-qubit gates need width >= 2"),
    "select_dead_leaves_none": (lambda: select_dead(3, DeadMode("fixed", 3), seed=1),
                                "dead count 3 must leave at least one kept wire (w=3)"),
}


class TestRefusals:
    @pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            call()
        assert err.type is ValueError


class TestRunBench:
    def test_total_and_row_counts(self):
        totals, csv_text = run_bench(small_config())
        assert [w for w, _, _ in totals] == [3, 4, 5]
        lines = csv_text.strip().splitlines()
        assert lines[0] == "width,dead_mode,mean_removed,mean_micros,programs,blocks,seed"
        assert len(lines) == 1 + 3

    def test_reproducible_bytes_without_timing(self):
        _, a = run_bench(small_config())
        _, b = run_bench(small_config())
        assert a == b

    def test_every_width_removes_something_on_average(self):
        totals, _ = run_bench(small_config())
        assert all(removed > 0 for _, removed, _ in totals)

    def test_totals_sum_the_blocks(self):
        cfg = small_config(dead_mode=DeadMode("pct", 40))
        expected = {}
        for width, _, report in sweep_blocks(cfg):
            expected[width] = expected.get(width, 0) + len(report.removed)
        assert run_bench(cfg)[0] == [(w, expected[w], 0.0) for w in cfg.widths]

    def test_duplicate_widths_give_identical_rows(self):
        totals, csv_text = run_bench(small_config(widths=(4, 3, 4, 4)))
        _, alone = run_bench(small_config(widths=(4,)))
        rows = csv_text.strip().splitlines()[1:]
        assert rows[0] == rows[2] == rows[3] == alone.strip().splitlines()[1]
        assert totals[0] == totals[2] == totals[3]

    def test_memory_does_not_grow_with_blocks(self):
        cfg = small_config(widths=(2,), gate_multiplier=100, programs=1, blocks=20_000,
                           verify_fraction=0.0)
        # a first sweep pays the one-time costs (lazy imports, caches)
        run_bench(dataclasses.replace(cfg, blocks=3))
        tracemalloc.start()
        try:
            run_bench(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_dead_count_per_block(self):
        cfg = small_config(widths=(10,), dead_mode=DeadMode("pct", 20))
        assert all(len(c.dead) == 2 for _, c, _ in sweep_blocks(cfg))

    def test_removed_never_exceeds_gates(self):
        for _, c, report in sweep_blocks(small_config()):
            assert report.initial_gate_count == len(c.gates)
            assert 0 <= len(report.removed) <= report.initial_gate_count

    def test_bounds_admit_their_limits(self):
        # the gate bound is on gate_multiplier * the widest width (the
        # refusal table's `gates_per_circuit` row is one gate over)
        small_config(widths=(2, 10), gate_multiplier=100_000)
        # a sweep holds one total per width, so its block count is unbounded
        small_config(widths=(2,), programs=1_500_001, blocks=1)

    def test_config_is_frozen(self):
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.verify_fraction = 7.0

    def test_manifest_mentions_config(self):
        cfg = small_config()
        text = manifest_json(cfg)
        assert f'"tool_version": "{deadgate.__version__}"' in text
        assert '"dead_mode": "fixed:1"' in text
        assert '"seed": 5' in text

    def test_summary_means(self):
        cfg = small_config(widths=(3,))
        _, csv_text = run_bench(cfg)
        removed = [len(report.removed) for _, _, report in sweep_blocks(cfg)]
        mean = sum(removed) / len(removed)
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[0] == "3"
        assert float(row[2]) == pytest.approx(mean, abs=5e-7)

    def test_spot_verification_runs(self):
        # verify_fraction=1 forces the oracle check on every block
        totals, _ = run_bench(small_config(verify_fraction=1.0))
        assert totals  # would have raised on any unsound removal
