"""Recurrent-layer timing: one BiLSTM and one BiGRU, forward plus backward,
and the forward pass alone under `no_grad`, at desk (32-d) and paper (200-d)
shapes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 experiments/layer_bench.py --repeats 21

Run from the repository root. The shapes are the layers' places in the model:

- `BiLSTM` is the scorer's section sequence, the attribute and structural
  section sets (N = 2) over the 100 sections of the statute-wide workload,
  with d' = 32 (desk scale) and d' = 200 (paper default).
- `BiGRU` is the word level of the text encoder on a packed batch of 128
  sentences whose lengths are uniform up to the word cap: 16 words with
  32-d embeddings and 16 units per direction (desk scale), 64 words with
  200-d embeddings and 100 units (paper default).

Inputs and parameters are drawn from a fixed seed and cast to the model's
dtype, `lexcite.model.PARAM_DTYPE` (float32). Each case runs twice
untimed, then `--repeats` times; the backward pass starts from the sum of
the outputs. Prints one JSON line per case with the median and quartiles in
milliseconds. This is a measuring tool, not a test; nothing runs it in the
test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from lexcite import autodiff as ad
from lexcite.autodiff import Parameter, no_grad
from lexcite.model import PARAM_DTYPE
from lexcite.nn import BiGRU, BiLSTM, pack

SEED = 0
SECTION_SETS, SECTIONS = 2, 100
SENTENCES = 128
SHAPES = {"desk": {"d_prime": 32, "embed": 32, "words": 16},
          "paper": {"d_prime": 200, "embed": 200, "words": 64}}


def _cases(scale: str, rng: np.random.Generator):
    """(name, layer call) pairs of one scale; each call builds a fresh graph."""
    s = SHAPES[scale]
    lstm = BiLSTM(rng, s["d_prime"], s["d_prime"], "l")
    x_lstm = Parameter(rng.normal(size=(SECTION_SETS, SECTIONS, s["d_prime"])))
    gru = BiGRU(rng, s["embed"], s["d_prime"] // 2, "g")
    sizes, _, _ = pack(rng.integers(1, s["words"] + 1, size=SENTENCES))
    x_gru = Parameter(rng.normal(size=(int(sizes.sum()), s["embed"])))
    for p in [x_lstm, x_gru, *lstm.params.values(), *gru.params.values()]:
        p.data = p.data.astype(PARAM_DTYPE)
    yield (f"BiLSTM {scale} (N={SECTION_SETS}, T={SECTIONS}, d={s['d_prime']})",
           lambda: lstm(x_lstm))
    yield (f"BiGRU {scale} ({SENTENCES} sentences, <= {s['words']} words, "
           f"d_in={s['embed']}, h={s['d_prime'] // 2})", lambda: gru(x_gru, sizes))


def _time_ms(run, repeats: int) -> list[float]:
    for _ in range(2):
        run()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        out.append((time.perf_counter() - start) * 1e3)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=21, help="timed runs per case (default 21)")
    args = ap.parse_args(argv)
    if args.repeats < 2:
        raise SystemExit("--repeats must be at least 2")
    rng = np.random.default_rng(SEED)
    for scale in SHAPES:
        for name, call in _cases(scale, rng):
            def train_step(call=call):
                ad.tsum(call()).backward()

            def inference(call=call):
                with no_grad():
                    call()

            for mode, run in (("forward+backward", train_step), ("no_grad forward", inference)):
                ms = _time_ms(run, args.repeats)
                q1, med, q3 = statistics.quantiles(ms, n=4)
                print(json.dumps({"case": name, "mode": mode, "median_ms": round(med, 2),
                                  "q1_ms": round(q1, 2), "q3_ms": round(q3, 2),
                                  "repeats": args.repeats}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
