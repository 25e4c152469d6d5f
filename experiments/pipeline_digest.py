"""Digest of the desk pipeline's outputs, for checking that a change leaves
them byte-identical.

    PYTHONPATH=src python3 experiments/pipeline_digest.py

Runs the CLI of the `lexcite` on `PYTHONPATH` into a temporary directory:
`synth --n-docs 500 --n-sections 10 --seed 1`, `split`, `build-graph`,
`train --desk-scale` with `{"epochs": 3}` and `--tune-threshold`, `predict`
and `evaluate` on the test split. Prints one JSON line with the sha256 of
each output below. Run it on two trees and compare the lines. This is a
checking tool, not a test; nothing runs it in the test suite.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("graph/graph.json", "train/train_log.jsonl", "train/checkpoint.npz",
           "predict/predictions.jsonl", "evaluate/eval_report.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def lexcite(*args):
            subprocess.run([sys.executable, "-m", "lexcite.cli", *map(str, args)], check=True,
                           stdout=subprocess.DEVNULL)

        data, splits, graph, train = (root / d for d in ("data", "splits", "graph", "train"))
        (root / "config.json").write_text(json.dumps({"epochs": 3}))
        hierarchy = data / "hierarchy.json"
        lexcite("synth", "--n-docs", 500, "--n-sections", 10, "--seed", 1, "--out-dir", data)
        lexcite("split", "--facts", data / "facts.jsonl", "--hierarchy", hierarchy,
                "--out-dir", splits)
        lexcite("build-graph", "--facts", splits / "train.jsonl", "--hierarchy", hierarchy,
                "--out-dir", graph)
        lexcite("train", "--facts", splits / "train.jsonl",
                "--val-facts", splits / "validation.jsonl", "--hierarchy", hierarchy,
                "--graph", graph / "graph.json", "--config", root / "config.json",
                "--desk-scale", "--tune-threshold", "--out-dir", train)
        for command in ("predict", "evaluate"):
            lexcite(command, "--checkpoint", train / "checkpoint.npz", "--graph",
                    graph / "graph.json", "--hierarchy", hierarchy,
                    "--facts", splits / "test.jsonl", "--out-dir", root / command)
        print(json.dumps({Path(name).name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                          for name in OUTPUTS}))


if __name__ == "__main__":
    main()
