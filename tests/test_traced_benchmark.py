"""The benchmark's traced CLI over a tiny pipeline reports every per-layer
metric that BENCHMARK.json names, each finite and strict-JSON serializable.

A per-layer metric goes absent when the entry point the benchmark wraps is
renamed or removed; this test catches that before a benchmark run does.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _traced(tmp_path, env, name, argv):
    out = tmp_path / f"trace-{name}.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), str(out), *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_traced_pipeline_reports_every_layer_metric(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    (tmp_path / "config.json").write_text(json.dumps({"epochs": 1}))
    hier = "data/hierarchy.json"
    commands = {
        "synth": ["synth", "--n-docs", "60", "--n-sections", "4", "--seed", "1",
                  "--out-dir", "data"],
        "split": ["split", "--facts", "data/facts.jsonl", "--hierarchy", hier, "--seed", "1",
                  "--out-dir", "splits"],
        "build-graph": ["build-graph", "--facts", "splits/train.jsonl", "--hierarchy", hier,
                        "--out-dir", "graph"],
        "train": ["train", "--config", "config.json", "--facts", "splits/train.jsonl",
                  "--val-facts", "splits/validation.jsonl", "--hierarchy", hier,
                  "--graph", "graph/graph.json", "--seed", "1", "--desk-scale",
                  "--tune-threshold", "--out-dir", "train"],
        "predict": ["predict", "--checkpoint", "train/checkpoint.npz",
                    "--graph", "graph/graph.json", "--hierarchy", hier,
                    "--facts", "splits/test.jsonl", "--out-dir", "pred"],
    }
    parts = [_traced(tmp_path, env, name, argv) for name, argv in commands.items()]

    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    metrics = spans.layer_metrics(spans.merge(parts))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer"]
              if not m["name"].startswith(("cli.", "trace."))]
    missing = [name for name in wanted if name not in metrics]
    assert not missing, f"per-layer metrics absent: {missing}"
    bad = {name: metrics[name] for name in wanted if not math.isfinite(metrics[name])}
    assert not bad, f"non-finite per-layer metrics: {bad}"
    json.dumps(metrics, allow_nan=False)
