"""The benchmark's tracer reads starcone from outside ``src/``: it rebinds
traced functions by name and sizes matrices through ``rows`` and ``terms``.
This runs it, unedited, on the warm-up op."""
import json
from pathlib import Path

from helpers import load_perfbench

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_reports_every_per_layer_metric():
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = workloads.warmup_op()
        out = op.run()
    finally:
        tracer.uninstall()
    assert op.check(out) is None
    metrics = tracer.layer_metrics(1, 0.0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(metrics)
    assert metrics["complexes.cells"]["value"] > 0
    assert 0 < metrics["complexes.density"]["value"] <= 1
