"""`perfbench/spans.py` wraps deadgate's functions by name with `setattr`:
each name it wraps must exist, the wrapped calls must record their spans,
and `uninstall` must put back what was there."""

import importlib.util
from collections import Counter
from pathlib import Path

from deadgate import bench, cli, qasm

import fixtures

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bench_and_verify_record_spans_and_uninstall_restores(tmp_path, capsys):
    spans = load_spans()
    # bind the names cli loads on first use, so the snapshot holds them
    for name in cli._LAZY:
        getattr(cli, name)
    before = {module: dict(vars(module)) for module in (bench, cli, qasm)}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patches = list(tracer._patches)
        # cli loads lazily only names the tracer wraps there
        assert set(cli._LAZY) <= {attr for module, attr, _ in patches if module is cli}
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--no-timing", "--verify-fraction", "1", "--widths", "2,3,4",
                         "--programs", "1", "--blocks", "2", "--out", str(out)]) == 0
        source = tmp_path / "a.qasm"
        source.write_text(fixtures.three_qubit_example_source())
        assert cli.main(["optimize", str(source), str(tmp_path / "b.qasm")]) == 0
        assert cli.main(["verify", str(source), str(tmp_path / "b.qasm")]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["bench.spot_verify"]["calls"] == 6
    # one oracle span in each spot check, and the verify's at the top level
    oracle_parents = Counter(tracer.spans[parent][0] if parent >= 0 else None
                             for name, parent, *_ in tracer.spans if name == "oracle")
    assert oracle_parents == {"bench.spot_verify": 6, None: 1}
    assert {"bench", "bench.generate", "eliminate", "bench.aggregate",
            "qasm.parse", "qasm.serialize"} <= set(totals)
    assert patches
    for module, attr, fn in patches:
        assert getattr(module, attr) is fn is before[module][attr]
