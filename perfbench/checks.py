"""Output checks built on properties the method must have.

Nothing here compares against a stored copy of earlier output, and nothing
calls lexcite: macro-F1 and its baseline are recomputed from the files the
CLI wrote and the gold labels. Every check returns a list of error strings;
an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

# predict writes scores rounded to 6 decimals; a score this close to tau may
# sit on either side of it before rounding.
SCORE_HALF_ULP = 5e-7
LOSS_KEYS = ("loss", "loss_attribute", "loss_structural", "loss_alignment")


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def section_ids(hierarchy: dict) -> list[str]:
    return [s["id"] for ch in hierarchy["chapters"] for t in ch["topics"] for s in t["sections"]]


def check_predictions(records: list[dict], fact_ids: list[str], universe: list[str],
                      tau: float) -> list[str]:
    """One record per fact, in input order; every score finite and in [0, 1];
    each predicted set equal to {sections with score >= tau}."""
    errors = []
    got_ids = [r.get("id") for r in records]
    if got_ids != fact_ids:
        errors.append(f"prediction ids differ from the input facts ({len(got_ids)} records "
                      f"for {len(fact_ids)} facts)")
    for r in records:
        scores = r.get("scores", {})
        if sorted(scores) != sorted(universe):
            errors.append(f"{r.get('id')}: scores cover {len(scores)} of {len(universe)} sections")
            continue
        bad = [s for s, v in scores.items()
               if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0)]
        if bad:
            errors.append(f"{r['id']}: scores outside [0, 1] or not finite for {bad}")
            continue
        predicted = set(r.get("predicted", []))
        must = {s for s, v in scores.items() if v >= tau + SCORE_HALF_ULP}
        may = {s for s, v in scores.items() if v >= tau - SCORE_HALF_ULP}
        if not must <= predicted <= may:
            errors.append(f"{r['id']}: predicted {sorted(predicted)} but sections with "
                          f"score >= {tau} are {sorted(must)}")
    return errors


def macro_f1(preds: list[set], golds: list[set], universe: list[str]) -> float:
    """Mean over the whole label universe of per-label F1, in percent; a
    label with no true or predicted positives scores 0."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for p, g in zip(preds, golds, strict=True):
        tp.update(p & g)
        fp.update(p - g)
        fn.update(g - p)
    total = 0.0
    for lab in universe:
        denom = 2 * tp[lab] + fp[lab] + fn[lab]
        total += 2 * tp[lab] / denom if denom else 0.0
    return 100.0 * total / len(universe)


def top_cited_baseline(train_labels: list[set], golds: list[set], universe: list[str],
                       k: int = 2) -> float:
    """Macro-F1 of always predicting the k sections most cited in training."""
    freq = Counter(lab for labels in train_labels for lab in labels)
    top = set(sorted(universe, key=lambda s: (-freq[s], universe.index(s)))[:k])
    return macro_f1([top] * len(golds), golds, universe)


def check_f1(records: list[dict], golds: list[set], train_labels: list[set],
             universe: list[str], factor: float) -> tuple[list[str], float, float]:
    """Test macro-F1 must be at least `factor` times the top-2 baseline."""
    f1 = macro_f1([set(r["predicted"]) for r in records], golds, universe)
    baseline = top_cited_baseline(train_labels, golds, universe)
    errors = []
    if f1 < factor * baseline:
        errors.append(f"macro-F1 {f1:.2f} < {factor:g} x top-2 baseline {baseline:.2f}")
    return errors, f1, baseline


def check_train_log(records: list[dict], epochs: int) -> list[str]:
    """One record per epoch, finite losses, and a total loss that falls from
    the first epoch to the last."""
    errors = []
    if len(records) != epochs:
        errors.append(f"train log has {len(records)} records for {epochs} epochs")
    for r in records:
        bad = [k for k in LOSS_KEYS
               if not (isinstance(r.get(k), (int, float)) and math.isfinite(r[k]))]
        if bad:
            errors.append(f"epoch {r.get('epoch')}: non-finite or missing {bad}")
    if len(records) >= 2 and not errors and not records[-1]["loss"] < records[0]["loss"]:
        errors.append(f"loss did not fall: epoch 0 {records[0]['loss']:.4f}, "
                      f"last {records[-1]['loss']:.4f}")
    return errors


def check_batch_independence(reference: list[dict], rerun: list[dict]) -> list[str]:
    """Every fact of `rerun` that is also in `reference` has exactly the same
    scores, although its batch-mates differ in order and number."""
    by_id = {r["id"]: r["scores"] for r in reference}
    shared = [r for r in rerun if r["id"] in by_id]
    if not shared:
        return ["batch-independence check shares no fact with the reference run"]
    return [f"{r['id']}: scores changed with its batch-mates"
            for r in shared if r["scores"] != by_id[r["id"]]]
