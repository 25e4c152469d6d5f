"""lexcite benchmark: three workloads run through the program's own CLI.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs come from `lexcite synth` with --seed
and are made before any timer starts. Each CLI command runs in its own
process, one at a time (a closed loop with one caller), so its wall time and
peak RSS are its own. The benchmark sets no BLAS or OpenMP thread variable.

--trace 0 repeats whole rounds (train + predict, or predict alone on
paper-infer) until --seconds have passed and prints the end-to-end metrics.
--trace 1 runs pairs of an untraced set-up and round and a traced set-up and
round, in which each command calls `lexcite.cli.main` under the spans of
`spans.py`, and prints the per-layer metrics plus the cost of tracing, taken
against the untraced commands of the same pair. The last stdout line is the
JSON result; the line before it describes the inputs and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import envinfo  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
CONSISTENCY_FACTS = 4  # test facts re-predicted among other batch-mates
TRACE_MIN_PAIRS = 2  # --trace 1 runs at least this many untraced/traced pairs
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    n_docs: int
    n_sections: int
    epochs: int
    desk_scale: bool
    lengthen: bool = False  # pad facts with seeded filler sentences
    predict_tau: float | None = None  # --tau for predict; None keeps the checkpoint's
    f1_factor: float | None = None  # test macro-F1 must beat this x the top-2 baseline
    predicts_per_round: int = 1  # short predict commands are repeated to damp start-up noise


WORKLOADS = {
    # criterion-4 shape at desk dimensions; HAN, backward, walks and validation
    "desk-train": Workload(n_docs=500, n_sections=10, epochs=4, desk_scale=True,
                           f1_factor=2.0, predicts_per_round=3),
    # paper dimensions, untrained checkpoint; facts up to and past the 128x64 caps.
    # Untrained scores sit near 0.5, so tau 0.5 keeps the threshold check busy.
    "paper-infer": Workload(n_docs=150, n_sections=10, epochs=0, desk_scale=False,
                            lengthen=True, predict_tau=0.5),
    # the paper's 100 IPC sections at desk dimensions
    "statute-wide": Workload(n_docs=1000, n_sections=100, epochs=2, desk_scale=True,
                             predicts_per_round=2),
}

# filler for paper-infer: sentence counts log-uniform from a fact's own up to
# FILLER_MAX_SENTS, filler sentence lengths uniform in FILLER_WORDS. This mix
# is a stand-in, not measured from real facts: both ranges end 25 % past the
# paper's 128-sentence and 64-word caps so that truncation is exercised. With
# grids padded to the caps it sets the padding share (han.token_fill) almost
# alone; README.md ("Length mix") gives the fill under other mixes.
FILLER_MAX_SENTS = 160
FILLER_WORDS = (6, 80)
FILLER_TOKENS = 30  # synth's noise vocabulary: filler0 .. filler29


@dataclass
class Command:
    name: str
    wall_s: float
    rss_mb: float
    traced: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class CommandFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.hier = work / "data" / "hierarchy.json"
        self.facts = work / "data" / "facts.jsonl"
        self.splits = work / "splits"
        self.graph = work / "graph" / "graph.json"
        self.config = work / "config.json"
        self.train_dir = work / "train"
        self.pred_dir = work / "pred"

    # -- processes --------------------------------------------------------------

    def cli(self, args: list[str], traced: bool = False, facts: int = 0) -> Command:
        """Run one lexcite command in its own process; `facts` predictions
        count as operations beside the command itself."""
        self.tally.attempted += 1 + facts
        trace_out = self.work / f"trace-{args[0]}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *args]
        else:
            argv = [sys.executable, "-m", "lexcite.cli", *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CommandFailed(f"no time left for {args[0]}")
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.work)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.tally.failed += 1 + facts
            if time.monotonic() >= self.deadline:
                raise CommandFailed(
                    f"{args[0]} stopped at the {RUN_DEADLINE_S:.0f} s run deadline")
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-1500:]
            raise CommandFailed(f"{args[0]} exited {proc.returncode}: {tail}")
        summary = json.loads(trace_out.read_text()) if traced else None
        return Command(args[0], wall, usage.ru_maxrss / 1024.0, summary)

    # -- inputs -----------------------------------------------------------------

    def make_inputs(self) -> dict:
        self.cli(["synth", "--n-docs", str(self.w.n_docs), "--n-sections",
                  str(self.w.n_sections), "--seed", str(self.seed),
                  "--out-dir", str(self.facts.parent)])
        if self.w.lengthen:
            self._lengthen()
        self.config.write_text(json.dumps({"epochs": self.w.epochs}), encoding="utf-8")
        return self._describe_facts()

    def _lengthen(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x1E7C17E]))
        records = checks.read_jsonl(self.facts)
        lo, hi = FILLER_WORDS
        with self.facts.open("w", encoding="utf-8") as fh:
            for rec in records:
                own = len(rec["text"])
                target = int(math.exp(rng.uniform(math.log(own), math.log(FILLER_MAX_SENTS))))
                for _ in range(target - own):
                    words = [f"filler{int(rng.integers(FILLER_TOKENS))}"
                             for _ in range(int(rng.integers(lo, hi + 1)))]
                    rec["text"].insert(int(rng.integers(len(rec["text"]) + 1)),
                                       " ".join(words) + ".")
                fh.write(json.dumps(rec) + "\n")

    def _describe_facts(self) -> dict:
        records = checks.read_jsonl(self.facts)
        sents = [len(r["text"]) for r in records]
        words = [len(s.split()) for r in records for s in r["text"]]
        return {"facts": len(records), "sections": self.w.n_sections,
                "sentences_per_fact": _quartiles(sents),
                "words_per_sentence": _quartiles(words)}

    # -- commands of a round --------------------------------------------------------

    def setup(self, traced: bool = False) -> list[Command]:
        hier = str(self.hier)
        cmds = [
            self.cli(["split", "--facts", str(self.facts), "--hierarchy", hier,
                      "--seed", str(self.seed), "--out-dir", str(self.splits)], traced),
            self.cli(["build-graph", "--facts", str(self.splits / "train.jsonl"),
                      "--hierarchy", hier, "--out-dir", str(self.graph.parent)], traced),
        ]
        if self.w.epochs == 0:
            cmds.append(self.train(traced))
        return cmds

    def train(self, traced: bool = False) -> Command:
        args = ["train", "--config", str(self.config),
                "--facts", str(self.splits / "train.jsonl"),
                "--val-facts", str(self.splits / "validation.jsonl"),
                "--hierarchy", str(self.hier), "--graph", str(self.graph),
                "--seed", str(self.seed), "--out-dir", str(self.train_dir)]
        if self.w.desk_scale:
            args.append("--desk-scale")
        if self.w.epochs:
            args.append("--tune-threshold")
        cmd = self.cli(args, traced)
        self.tally.errors += checks.check_train_log(
            checks.read_jsonl(self.train_dir / "train_log.jsonl"), self.w.epochs)
        return cmd

    def predict(self, facts: Path, out_dir: Path, traced: bool = False) -> Command:
        args = ["predict", "--checkpoint", str(self.train_dir / "checkpoint.npz"),
                "--graph", str(self.graph), "--hierarchy", str(self.hier),
                "--facts", str(facts), "--out-dir", str(out_dir)]
        if self.w.predict_tau is not None:
            args += ["--tau", str(self.w.predict_tau)]
        n_facts = len(checks.read_jsonl(facts))
        cmd = self.cli(args, traced, facts=n_facts)
        self._check_predictions(facts, out_dir)
        return cmd

    def round(self, traced: bool = False) -> list[Command]:
        cmds = [self.train(traced)] if self.w.epochs else []
        cmds += [self.predict(self.splits / "test.jsonl", self.pred_dir, traced)
                 for _ in range(self.w.predicts_per_round)]
        if self.w.f1_factor is not None:
            self._check_f1()
        return cmds

    # -- checks -----------------------------------------------------------------------

    def _check_predictions(self, facts: Path, out_dir: Path):
        universe = checks.section_ids(json.loads(self.hier.read_text(encoding="utf-8")))
        tau = json.loads((out_dir / "effective_config.json").read_text())["tau"]
        docs = checks.read_jsonl(facts)
        records = checks.read_jsonl(out_dir / "predictions.jsonl")
        self.tally.errors += checks.check_predictions(records, [d["id"] for d in docs],
                                                      universe, tau)

    def _check_f1(self):
        universe = checks.section_ids(json.loads(self.hier.read_text(encoding="utf-8")))
        test = checks.read_jsonl(self.splits / "test.jsonl")
        train = checks.read_jsonl(self.splits / "train.jsonl")
        errors, _, _ = checks.check_f1(checks.read_jsonl(self.pred_dir / "predictions.jsonl"),
                                       [set(d["labels"]) for d in test],
                                       [set(d["labels"]) for d in train], universe,
                                       self.w.f1_factor)
        self.tally.errors += errors

    def check_batch_independence(self):
        """Re-predict a few test facts reversed and followed by validation
        facts; their scores must not move. Runs outside the timed region."""
        test = checks.read_jsonl(self.splits / "test.jsonl")
        val = checks.read_jsonl(self.splits / "validation.jsonl")
        subset = test[:CONSISTENCY_FACTS][::-1] + val[:2]
        path = self.work / "consistency.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in subset), encoding="utf-8")
        out_dir = self.work / "consistency"
        self.predict(path, out_dir)
        self.tally.errors += checks.check_batch_independence(
            checks.read_jsonl(self.pred_dir / "predictions.jsonl"),
            checks.read_jsonl(out_dir / "predictions.jsonl"))

    # -- metrics ----------------------------------------------------------------------

    def counts(self) -> tuple[int, int]:
        n_train = len(checks.read_jsonl(self.splits / "train.jsonl"))
        n_test = len(checks.read_jsonl(self.splits / "test.jsonl"))
        return n_train, n_test

    def train_rate(self, cmds: list[Command]) -> float:
        """Training facts x epochs / train wall time. With zero epochs
        (paper-infer) train makes one pass over the training facts, encoding
        them and writing the untrained checkpoint."""
        n_train, _ = self.counts()
        passes = self.w.epochs or 1
        return statistics.median(n_train * passes / c.wall_s for c in cmds if c.name == "train")

    def predict_rate(self, cmds: list[Command]) -> float:
        _, n_test = self.counts()
        return statistics.median(n_test / c.wall_s for c in cmds if c.name == "predict")


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [float(values[0])] * 3 if values else []
    q = statistics.quantiles(values, n=4)
    return [min(values), *q, max(values)]


def _median_wall(cmds: list[Command], name: str) -> float:
    return statistics.median(c.wall_s for c in cmds if c.name == name)


def _peak(cmds: list[Command], name: str | None = None) -> float:
    return max(c.rss_mb for c in cmds if name is None or c.name == name)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _split_commands(bench: Bench, setups: list[list[Command]], rounds: list[list[Command]]):
    """Set-up commands, round commands, and the train commands among them
    (set-up on paper-infer, where train only writes the untrained checkpoint)."""
    setup_cmds = [c for s in setups for c in s]
    round_cmds = [c for r in rounds for c in r]
    return setup_cmds, round_cmds, round_cmds if bench.w.epochs else setup_cmds


def end_to_end(bench: Bench, setups: list[list[Command]], rounds: list[list[Command]]) -> dict:
    setup_cmds, round_cmds, train_cmds = _split_commands(bench, setups, rounds)
    return {
        "setup_s": statistics.median(sum(c.wall_s for c in s) for s in setups),
        "train_facts_per_s": bench.train_rate(train_cmds),
        "predict_facts_per_s": bench.predict_rate(round_cmds),
        "peak_rss_mb": _peak(setup_cmds + round_cmds),
    }


E2E_UNITS = {"setup_s": "s", "train_facts_per_s": "facts/s", "predict_facts_per_s": "facts/s",
             "peak_rss_mb": "MB"}


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work, deadline)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": envinfo.environment()}
    metrics: dict = {}
    try:
        info["inputs"] = bench.make_inputs()
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        n_train, n_test = bench.counts()
        info["inputs"].update(train_facts=n_train, test_facts=n_test)
        rounds, paired_setups, traced_setups, traced_rounds = [], [], [], []
        min_rounds = TRACE_MIN_PAIRS if args.trace else 1
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            if not args.trace:
                rounds.append(bench.round())
                continue
            # a pair is an untraced set-up and round and a traced one; the traced
            # half runs second in even pairs and first in odd ones, so that drift
            # over the run does not read as the cost of tracing
            for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
                setup, rnd = bench.setup(traced), bench.round(traced)
                (traced_setups if traced else paired_setups).append(setup)
                (traced_rounds if traced else rounds).append(rnd)
        bench.check_batch_independence()
        info["rounds"] = len(rounds)
        info["walls_s"] = {}
        for c in [c for cmds in setups + rounds for c in cmds]:
            info["walls_s"].setdefault(c.name, []).append(round(c.wall_s, 4))
        if not args.trace:
            metrics = {k: _metric(v, E2E_UNITS[k])
                       for k, v in end_to_end(bench, setups, rounds).items()}
        else:
            metrics = per_layer(bench, setups, rounds, paired_setups, traced_setups,
                                traced_rounds, info)
    except CommandFailed as e:
        bench.tally.errors.append(str(e))
    result = {"correct": not bench.tally.errors, "attempted": bench.tally.attempted,
              "failed": bench.tally.failed, "metrics": metrics}
    info["errors"] = bench.tally.errors
    if result["correct"] and not result["failed"]:
        shutil.rmtree(work)
    else:
        info["kept"] = str(work.relative_to(ROOT))
    return info, result


def costs(bench: Bench, setup: list[Command], rnd: list[Command]) -> dict[str, list[float]]:
    """What each end-to-end metric measures in one set-up plus round, as a
    cost (wall time or memory): a rate's cost is the wall time of its command."""
    train_cmds = rnd if bench.w.epochs else setup
    return {
        "setup_s": [sum(c.wall_s for c in setup)],
        "train_facts_per_s": [c.wall_s for c in train_cmds if c.name == "train"],
        "predict_facts_per_s": [c.wall_s for c in rnd if c.name == "predict"],
        "peak_rss_mb": [_peak(setup + rnd)],
    }


def trace_overhead(untraced: list[dict], traced: list[dict],
                   more_untraced: list[dict] = ()) -> dict[str, tuple[float, float]]:
    """Per metric, the extra cost of tracing and the noise it is read against,
    both in %. `untraced[i]` and `traced[i]` are the costs of the i-th pair: a
    traced set-up and round and the untraced ones run next to them. The
    extra cost is the median over commands paired by name and position of
    traced / untraced - 1. The noise is the range of all untraced costs of the
    run (the pairs' and `more_untraced`) as a share of their median. An extra
    cost no larger than the noise is not resolved."""
    out = {}
    for name in untraced[0]:
        ratios = [t / u for pu, pt in zip(untraced, traced)
                  for u, t in zip(pu[name], pt[name])]
        plain = [u for pu in [*untraced, *more_untraced] for u in pu.get(name, [])]
        out[name] = (100.0 * (statistics.median(ratios) - 1.0),
                     100.0 * (max(plain) - min(plain)) / statistics.median(plain))
    return out


def per_layer(bench: Bench, setups, rounds, paired_setups, traced_setups, traced_rounds,
              info: dict) -> dict:
    setup_cmds, round_cmds, train_cmds = _split_commands(bench, setups, rounds)
    out = {
        "cli.split_s": _metric(_median_wall(setup_cmds, "split"), "s"),
        "cli.build_graph_s": _metric(_median_wall(setup_cmds, "build-graph"), "s"),
        "cli.train_s": _metric(_median_wall(train_cmds, "train"), "s"),
        "cli.predict_s": _metric(_median_wall(round_cmds, "predict"), "s"),
        "cli.train.peak_rss_mb": _metric(_peak(train_cmds, "train"), "MB"),
        "cli.predict.peak_rss_mb": _metric(_peak(round_cmds, "predict"), "MB"),
    }
    per_round = [spans.layer_metrics(spans.merge([c.traced for c in s + r]))
                 for s, r in zip(traced_setups, traced_rounds)]
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        values = [m[name] for m in per_round if name in m]
        if values:
            out[name] = _metric(statistics.median(values), unit)
    # the set-ups run before the rounds add to the noise of set-up time (and of
    # train on paper-infer, where train is part of set-up), not to peak RSS
    up_front = [{k: v for k, v in costs(bench, s, []).items() if k != "peak_rss_mb"}
                for s in setups]
    overhead = trace_overhead([costs(bench, u, r) for u, r in zip(paired_setups, rounds)],
                              [costs(bench, t, r) for t, r in zip(traced_setups, traced_rounds)],
                              up_front)
    for name, (cost_pct, noise_pct) in overhead.items():
        out[f"trace.overhead.{name}"] = _metric(cost_pct, "%")
        out[f"trace.noise.{name}"] = _metric(noise_pct, "%")
    info["trace_overhead_unresolved"] = [name for name, (cost_pct, noise_pct) in overhead.items()
                                         if abs(cost_pct) <= noise_pct]
    info["blas_threads_in_cli"] = sorted({c.traced["blas_threads"] for r in traced_rounds
                                          for c in r if c.traced["blas_threads"] is not None})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexcite" / "cli.py").is_file():
        print(f"error: no lexcite sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    info, result = run(args)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
