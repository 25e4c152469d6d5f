"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk-train --seeds 1-10 --seconds 20 [--trace 1]
    python3 perfbench/spread.py --compare BEFORE.jsonl AFTER.jsonl

For every metric: the median over the seeds, the quartiles from
`statistics.quantiles(values, n=4)` and the interquartile distance as a share
of the median, checked against the bound in BENCHMARK.json. Runs go one at a
time. With --out, every run's two output lines are appended to that file.

--compare reads two such files and, per workload and metric, divides each
seed's value after by its value before. A metric whose value depends on the
seed (statute-wide `setup_s`: `split` is slow on some corpora) spreads less
in these per-seed ratios than across seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path: Path) -> dict[tuple[str, int], dict[str, float]]:
    """(workload, seed) -> metric values, from the lines --out appends."""
    lines = path.read_text(encoding="utf-8").splitlines()
    out = {}
    for info_line, result_line in zip(lines[::2], lines[1::2]):
        info, result = json.loads(info_line), json.loads(result_line)
        out[info["workload"], info["seed"]] = {k: m["value"]
                                               for k, m in result["metrics"].items()}
    return out


def compare(before_path: Path, after_path: Path) -> int:
    before, after = load(before_path), load(after_path)
    ratios: dict[tuple[str, str], list[float]] = {}
    for key in sorted(before.keys() & after.keys()):
        for name, value in before[key].items():
            if name in after[key] and value:
                ratios.setdefault((key[0], name), []).append(after[key][name] / value)
    print(f"{'workload':14s} {'metric':34s} {'seeds':>5s} {'median':>8s} {'q1':>8s} {'q3':>8s}"
          "  (after / before, per seed)")
    for (workload, name), vals in ratios.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        print(f"{workload:14s} {name:34s} {len(vals):5d} {statistics.median(vals):8.4f} "
              f"{q1:8.4f} {q3:8.4f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="per-seed ratios of two files written with --out")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append every run's output lines here")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if args.out:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write("\n".join(lines[-2:]) + "\n")
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        print(f"seed {seed}: {elapsed:.1f} s, exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"rounds {info.get('rounds')} errors {info.get('errors')}", flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"failed share(s): {sorted(failed_shares)}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}  bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound:5.2f} {'ok' if share < bound / 3 else 'WIDE'}"
        print(f"{name:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} {share:8.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
