import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from deadgate import (
    Circuit, Controlled, RuleFlags, SingleQubit, Swap, build_circuit, check_marginal_equiv,
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

from helpers import eager_random_circuit, source_from_circuit


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

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(1, 10, 0.1, seed=5)

    def test_width_one_rejects_nan_fraction(self):
        with pytest.raises(ValueError, match="width >= 2"):
            random_circuit(1, 5, float("nan"), seed=0)

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
            with pytest.raises(ValueError, match="width >= 2"):
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
            draws = c.gates._draws
            two = ~draws.is_1q & (np.asarray(palette)[draws.pal_idx] == "cz")
            assert (draws.a[two] > draws.b[two]).any()


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

        def spy(i, kind):
            built.append(i)
            return real_gate(i, kind)

        real_gate = bench.Gate
        monkeypatch.setattr(bench, "Gate", spy)
        _, report = eliminate_dead_gates(c)
        monkeypatch.undo()
        walked = walked_count(c, report)
        assert 0 < walked < 200
        # each walked gate is built once, by the walk, and no gate before
        # the walked tail is built at all
        assert Counter(built) == {i: 1 for i in range(4000 - walked, 4000)}
        assert len(built) == walked


    def test_spot_verify_reads_only_past_the_shared_start(self, monkeypatch):
        c = random_circuit(10, 1000, 0.1, seed=(7, 10, 0, 0, 1))
        dead = select_dead(10, DeadMode("pct", 20), seed=(7, 10, 0, 0, 2))
        c = Circuit(10, c.gates, dead, c.outcome_map)
        optimized, report = eliminate_dead_gates(c)
        start = len(c.gates) - walked_count(c, report)
        drawn = []

        def spy(draws, i):
            drawn.append(i)
            return real_kind(draws, i)

        real_kind = bench._Draws.kind
        monkeypatch.setattr(bench._Draws, "kind", spy)
        bench._spot_verify(c, optimized, seed=(7, 10, 0, 0, 3))
        # no gate before the walk's start is drawn, since the pass keeps
        # those as the same draws, and each one after it at most twice
        assert drawn and min(drawn) >= start > 900
        assert max(Counter(drawn).values()) <= 2


def walked_count(c: Circuit, report) -> int:
    """How many gates the pass walks back from the end: until every wire
    carries a gate it keeps."""
    removed = {r.id for r in report.removed}
    blocked: set[int] = set()
    walked = 0
    for g in reversed(tuple(c.gates)):
        if len(blocked) == c.n:
            break
        walked += 1
        if g.id not in removed:
            blocked.update(g.qubits)
    return walked


class TestSpotVerifyTails:
    """`_spot_verify` hands the oracle only the walked tails, and its
    verdict is the oracle's on the whole circuits."""

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
                bench._spot_verify(c, optimized, (*root, 3))
                tail1, tail2, verdict = calls.pop()
                walked = walked_count(c, report)
                assert type(tail1) is tuple and type(tail2) is tuple
                assert tail1 == tuple(c.gates)[len(c.gates) - walked:]
                assert tail2 == tuple(optimized.gates)[len(c.gates) - walked:]
                valid = [q for q in range(w) if q not in dead]
                mapped = [optimized.outcome_map[q] for q in valid]
                whole = check_marginal_equiv(c, optimized, valid, mapped, seed=(*root, 3))
                assert verdict == whole


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

    def test_fixed_count_must_leave_a_kept_wire(self):
        with pytest.raises(ValueError):
            select_dead(3, DeadMode("fixed", 3), seed=1)

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
        with pytest.raises(ValueError):
            DeadMode.parse("every-other")
        with pytest.raises(ValueError):
            DeadMode.parse("half:0")


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


class TestRunBench:
    def test_record_and_row_counts(self):
        records, csv_text = run_bench(small_config())
        assert len(records) == 3 * 2 * 2
        lines = csv_text.strip().splitlines()
        assert lines[0] == "width,dead_mode,mean_removed,mean_micros,programs,blocks,seed"
        assert len(lines) == 1 + 3

    def test_reproducible_bytes_without_timing(self):
        _, a = run_bench(small_config())
        _, b = run_bench(small_config())
        assert a == b

    def test_every_width_removes_something_on_average(self):
        records, _ = run_bench(small_config())
        for w in (3, 4, 5):
            rows = [r for r in records if r.width == w]
            assert sum(r.gates_removed for r in rows) > 0

    def test_records_share_one_dead_mode_string(self):
        records, _ = run_bench(small_config(widths=(10,), dead_mode=DeadMode("pct", 20)))
        assert records[0].dead_mode == "pct:20"
        assert all(r.dead_mode is records[0].dead_mode for r in records)

    def test_dead_count_recorded(self):
        records, _ = run_bench(small_config(widths=(10,), dead_mode=DeadMode("pct", 20)))
        assert all(r.dead_count == 2 for r in records)

    def test_removed_never_exceeds_gates(self):
        records, _ = run_bench(small_config())
        assert all(0 <= r.gates_removed <= r.gates_before for r in records)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_bench(small_config(widths=(4,), dead_mode=DeadMode("fixed", 5)))
        with pytest.raises(ValueError):
            run_bench(small_config(widths=(1, 3)))
        with pytest.raises(ValueError):
            run_bench(small_config(palette=("cx", "iswap")))

    def test_invalid_config_raises_at_construction(self):
        with pytest.raises(ValueError, match="gives 5 dead qubits at width 4"):
            BenchConfig(widths=(4,), dead_mode=DeadMode("fixed", 5))
        # the gate bound is on gate_multiplier * the widest width
        small_config(widths=(2, 10), gate_multiplier=100_000)
        with pytest.raises(ValueError, match="^1000010 gates per circuit exceeds 1000000$"):
            small_config(widths=(2, 10), gate_multiplier=100_001)
        # the sweep bound is on widths * programs * blocks, and admits the
        # library defaults over 20 widths
        BenchConfig(widths=tuple(range(2, 42, 2)), dead_mode=DeadMode("fixed", 1))
        small_config(widths=(2, 3, 4), programs=1000, blocks=500)
        with pytest.raises(ValueError, match="^1500001 blocks per sweep exceeds 1500000$"):
            small_config(widths=(2,), programs=1_500_001, blocks=1)

    def test_config_is_frozen(self):
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.verify_fraction = 7.0

    def test_manifest_mentions_config(self):
        cfg = small_config()
        text = manifest_json(cfg, "0.1.0")
        assert '"dead_mode": "fixed:1"' in text
        assert '"seed": 5' in text

    def test_summary_means(self):
        cfg = small_config(widths=(3,))
        records, csv_text = run_bench(cfg)
        mean = sum(r.gates_removed for r in records) / len(records)
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[0] == "3"
        assert float(row[2]) == pytest.approx(mean, abs=5e-7)

    def test_spot_verification_runs(self):
        # verify_fraction=1 forces the oracle check on every block
        records, _ = run_bench(small_config(verify_fraction=1.0))
        assert records  # would have raised on any unsound removal
