"""Spans around the calls into deadgate's layers, kept in memory.

The tracer replaces a function where a layer calls it (for example
``deadgate.cli.parse``) with a wrapper that records a span: name, parent
span, start, end, time covered by child spans, and counts read from the
call's arguments and result. A span's self time is its duration minus the
time its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # [name, parent index, start, end, child seconds, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Trace calls to `module.attr`; counts(args, kwargs, result) -> dict."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index][5] = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def totals(self) -> dict:
        """name -> {busy_s, self_s, calls, <counts>}."""
        out: dict = {}
        for name, parent, start, end, child, counts in self.spans:
            agg = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child
            agg["calls"] += 1
            for k, v in counts.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def busy_under(self, name: str, parent: str) -> float:
        """Seconds spent in `name` spans whose parent span is `parent`."""
        return sum(end - start for n, p, start, end, _, _ in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s[0], "parent": s[1], "start": s[2], "end": s[3],
                        "counts": s[5]} for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions each deadgate layer calls, at the names
    bound inside deadgate.cli, deadgate.qasm and deadgate.bench."""
    import deadgate.bench as bench
    import deadgate.cli as cli
    import deadgate.qasm as qasm

    def parsed(args, kwargs, result):
        return {"gates": len(result.circuit.gates)}

    def serialized(args, kwargs, result):
        return {"gates": len(args[0].circuit.gates)}

    def built(args, kwargs, result):
        return {"gates": len(result.gates)}

    def eliminated(args, kwargs, result):
        report = result[1]
        return {"gate_checks": report.gate_checks, "sweeps": report.iterations,
                "removed": len(report.removed)}

    def simulated(args, kwargs, result):
        samples = kwargs.get("samples", 20)
        return {"gate_applications": (len(args[0].gates) + len(args[1].gates)) * samples}

    tracer.wrap(cli, "parse", "qasm.parse", parsed)
    tracer.wrap(cli, "serialize", "qasm.serialize", serialized)
    tracer.wrap(cli, "eliminate_dead_gates", "eliminate", eliminated)
    tracer.wrap(cli, "bind_opaques", "oracle")
    tracer.wrap(cli, "check_marginal_equiv", "oracle", simulated)
    tracer.wrap(cli, "run_bench", "bench")
    tracer.wrap(qasm, "build_circuit", "circuit.build", built)
    tracer.wrap(bench, "build_circuit", "circuit.build", built)
    tracer.wrap(bench, "random_circuit", "bench.generate", built)
    tracer.wrap(bench, "select_dead", "bench.generate")
    tracer.wrap(bench, "eliminate_dead_gates", "eliminate", eliminated)
    tracer.wrap(bench, "_spot_verify", "bench.spot_verify")
    tracer.wrap(bench, "check_marginal_equiv", "oracle", simulated)
    tracer.wrap(bench, "summary_csv", "bench.aggregate")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics for one pass over the workload's inputs."""
    t = tracer.totals()
    empty = {"busy_s": 0.0, "self_s": 0.0, "calls": 0}

    def get(name, key):
        return t.get(name, empty).get(key, 0) / passes

    def rate(name, key):
        busy = t.get(name, empty)["busy_s"]
        return t.get(name, empty).get(key, 0) / busy if busy else 0.0

    return {
        "cli.self_s": (get("cli", "self_s"), "s"),
        "qasm.parse.busy_s": (get("qasm.parse", "busy_s"), "s"),
        "qasm.parse.self_s": (get("qasm.parse", "self_s"), "s"),
        "qasm.parse.gates_per_s": (rate("qasm.parse", "gates"), "gates/s"),
        "qasm.serialize.busy_s": (get("qasm.serialize", "busy_s"), "s"),
        "qasm.serialize.gates_per_s": (rate("qasm.serialize", "gates"), "gates/s"),
        "circuit.build.busy_s": (get("circuit.build", "busy_s"), "s"),
        "circuit.build.gates_per_s": (rate("circuit.build", "gates"), "gates/s"),
        "eliminate.busy_s": (get("eliminate", "busy_s"), "s"),
        "eliminate.gate_checks": (get("eliminate", "gate_checks"), "count"),
        "eliminate.sweeps": (get("eliminate", "sweeps"), "count"),
        "eliminate.removed": (get("eliminate", "removed"), "gates"),
        "oracle.busy_s": (get("oracle", "busy_s"), "s"),
        "oracle.gate_applications": (get("oracle", "gate_applications"), "count"),
        "oracle.gate_applications_per_s": (rate("oracle", "gate_applications"), "1/s"),
        "bench.self_s": (get("bench", "self_s"), "s"),
        "bench.generate.busy_s": (get("bench.generate", "busy_s"), "s"),
        "bench.generate.self_s": (get("bench.generate", "self_s"), "s"),
        "bench.generate.gates_per_s": (rate("bench.generate", "gates"), "gates/s"),
        "bench.eliminate.busy_s": (tracer.busy_under("eliminate", "bench") / passes, "s"),
        "bench.spot_verify.busy_s": (get("bench.spot_verify", "busy_s"), "s"),
        "bench.spot_verify.calls": (get("bench.spot_verify", "calls"), "count"),
        "bench.aggregate.busy_s": (get("bench.aggregate", "busy_s"), "s"),
    }


def self_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Each span name's self time as a share of all traced time, largest first."""
    t = tracer.totals()
    total = sum(agg["self_s"] for agg in t.values())
    return sorted(((name, agg["self_s"] / total) for name, agg in t.items()),
                  key=lambda item: -item[1])
