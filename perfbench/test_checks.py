"""Each output check accepts a sound output and rejects a deliberately
corrupted one. Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

UNIVERSE = ["100", "101", "102", "103"]
TAU = 0.65


def record(doc_id, scores, tau=TAU):
    return {"id": doc_id, "predicted": sorted(s for s, v in scores.items() if v >= tau),
            "scores": scores}


@pytest.fixture
def sound():
    rng = random.Random(0)
    return [record(f"doc{i}", {s: round(rng.random(), 6) for s in UNIVERSE}) for i in range(20)]


# -- predictions ----------------------------------------------------------------------


def test_sound_predictions_pass(sound):
    assert checks.check_predictions(sound, [r["id"] for r in sound], UNIVERSE, TAU) == []


def test_out_of_threshold_prediction_is_rejected(sound):
    below = next(s for s, v in sound[3]["scores"].items() if v < TAU)
    sound[3]["predicted"].append(below)
    errors = checks.check_predictions(sound, [r["id"] for r in sound], UNIVERSE, TAU)
    assert len(errors) == 1 and "doc3" in errors[0]


def test_missed_section_above_threshold_is_rejected(sound):
    r = next(r for r in sound if r["predicted"])
    r["predicted"].pop()
    assert checks.check_predictions(sound, [r["id"] for r in sound], UNIVERSE, TAU)


def test_flipped_predicted_label_is_rejected(sound):
    r = sound[0]
    r["predicted"] = sorted(set(UNIVERSE) ^ set(r["predicted"]))
    assert checks.check_predictions(sound, [x["id"] for x in sound], UNIVERSE, TAU)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -0.1])
def test_score_outside_unit_interval_is_rejected(sound, bad):
    sound[5]["scores"]["101"] = bad
    assert checks.check_predictions(sound, [r["id"] for r in sound], UNIVERSE, TAU)


def test_missing_or_reordered_records_are_rejected(sound):
    ids = [r["id"] for r in sound]
    assert checks.check_predictions(sound[:-1], ids, UNIVERSE, TAU)
    assert checks.check_predictions(sound[::-1], ids, UNIVERSE, TAU)


def test_rounding_at_threshold_is_tolerated():
    # 0.65 as written may be 0.6499997 before rounding: either side is sound
    scores = {"100": 0.65, "101": 0.1, "102": 0.9, "103": 0.2}
    for predicted in (["102"], ["100", "102"]):
        r = {"id": "d", "predicted": predicted, "scores": scores}
        assert checks.check_predictions([r], ["d"], UNIVERSE, TAU) == []


# -- macro-F1 -------------------------------------------------------------------------


def test_macro_f1_matches_the_program_definition():
    from lexcite.metrics import macro_prf

    rng = random.Random(1)
    for _ in range(50):
        preds = [set(rng.sample(UNIVERSE, rng.randint(0, 3))) for _ in range(15)]
        golds = [set(rng.sample(UNIVERSE, rng.randint(1, 3))) for _ in range(15)]
        assert math.isclose(checks.macro_f1(preds, golds, UNIVERSE),
                            macro_prf(preds, golds, UNIVERSE)[2], abs_tol=1e-9)


def _labelled(preds):
    return [{"id": f"d{i}", "predicted": sorted(p), "scores": {}} for i, p in enumerate(preds)]


def test_f1_check_passes_good_predictions_and_rejects_flipped_labels():
    rng = random.Random(2)
    golds = [set(rng.sample(UNIVERSE, rng.randint(1, 2))) for _ in range(40)]
    train = [set(rng.sample(UNIVERSE, rng.randint(1, 2))) for _ in range(80)]
    errors, f1, baseline = checks.check_f1(_labelled(golds), golds, train, UNIVERSE, 2.0)
    assert errors == [] and f1 == 100.0 and baseline < 50.0
    flipped = [set(UNIVERSE) - g for g in golds]
    errors, f1, _ = checks.check_f1(_labelled(flipped), golds, train, UNIVERSE, 2.0)
    assert f1 == 0.0 and errors


def test_top_cited_baseline_predicts_the_two_most_cited_sections():
    train = [{"102"}, {"102", "103"}, {"103"}, {"100"}]
    golds = [{"102"}, {"103"}, {"100"}]
    # predicting {102, 103} for all three: F1 = 2*1 / (2*1 + 2) = 0.5 on each, 0 elsewhere
    assert math.isclose(checks.top_cited_baseline(train, golds, UNIVERSE), 25.0)


# -- training log ---------------------------------------------------------------------


def log(losses):
    return [{"epoch": i, "loss": v, "loss_attribute": v, "loss_structural": v,
             "loss_alignment": v, "val_macro_f1": 0.0} for i, v in enumerate(losses)]


def test_falling_losses_pass():
    assert checks.check_train_log(log([5.0, 4.0, 4.5, 3.0]), 4) == []
    assert checks.check_train_log([], 0) == []


@pytest.mark.parametrize("losses", [[5.0, 5.0], [4.0, 4.5], [5.0, float("nan")],
                                    [float("inf"), 1.0]])
def test_flat_rising_or_non_finite_losses_are_rejected(losses):
    assert checks.check_train_log(log(losses), 2)


def test_missing_epochs_are_rejected():
    assert checks.check_train_log(log([5.0, 4.0]), 3)


# -- batch independence ---------------------------------------------------------------


def test_scores_changed_by_batch_mates_are_rejected(sound):
    rerun = json.loads(json.dumps(sound[:4][::-1] + [record("extra", sound[0]["scores"])]))
    assert checks.check_batch_independence(sound, rerun) == []
    rerun[1]["scores"]["102"] += 1e-6
    errors = checks.check_batch_independence(sound, rerun)
    assert len(errors) == 1 and rerun[1]["id"] in errors[0]


def test_batch_independence_needs_a_shared_fact(sound):
    assert checks.check_batch_independence(sound, [record("other", sound[0]["scores"])])


# -- tracing --------------------------------------------------------------------------


def test_self_time_subtracts_child_spans_and_recursion_is_counted_once():
    tracer = spans.Tracer()
    tracer.spans = [
        ["model.forward", 0.0, 10.0, -1, False],
        ["han.encode", 1.0, 4.0, 0, False],
        ["corpus.encode", 2.0, 3.0, 1, False],
        ["corpus.encode", 5.0, 9.0, 0, False],
        ["corpus.encode", 6.0, 8.0, 3, True],
    ]
    s = tracer.summary()
    assert s["model.forward"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 3.0}
    assert s["han.encode"]["self_s"] == 2.0
    assert s["corpus.encode"] == {"calls": 3, "inclusive_s": 5.0, "self_s": 5.0}


def test_missing_entry_point_makes_its_metrics_absent():
    traced = {"spans": {"han.encode": {"calls": 2, "inclusive_s": 1.0, "self_s": 1.0}},
              "counts": Counter({"han.docs": 4, "han.cells": 40, "han.tokens": 10}),
              "installed": {"han.encode"}}
    out = spans.layer_metrics(traced)
    assert out == {"han.encode_s": 1.0, "han.docs": 4.0, "han.cells": 40.0,
                   "han.token_fill": 0.25}


def test_every_layer_entry_point_is_wrapped(tmp_path):
    out = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(out), "synth",
                    "--n-docs", "5", "--n-sections", "3", "--seed", "0",
                    "--out-dir", str(tmp_path / "data")],
                   check=True, capture_output=True,
                   env={"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""})
    traced = json.loads(out.read_text())
    assert traced["status"] == 0 and "cli.synth" in traced["spans"]
    metrics = spans.layer_metrics({"spans": traced["spans"], "counts": Counter(),
                                   "installed": set(traced["installed"])})
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_trace_overhead_pairs_each_traced_command_with_the_untraced_one_beside_it():
    # the box slows down by half between the pairs; tracing costs 10 % within each
    untraced = [{"predict": [1.0, 1.0]}, {"predict": [1.5, 1.5]}]
    traced = [{"predict": [1.1, 1.1]}, {"predict": [1.65, 1.65]}]
    cost_pct, noise_pct = run.trace_overhead(untraced, traced)["predict"]
    assert cost_pct == pytest.approx(10.0)
    assert noise_pct == pytest.approx(40.0)  # range 0.5 over median 1.25: not resolved


def test_trace_overhead_noise_counts_the_extra_untraced_costs():
    untraced = [{"setup": [1.0], "rss": [200.0]}, {"setup": [1.0], "rss": [200.0]}]
    traced = [{"setup": [1.05], "rss": [202.0]}, {"setup": [1.05], "rss": [202.0]}]
    out = run.trace_overhead(untraced, traced, [{"setup": [1.2]}, {"setup": [0.9]}])
    assert out["setup"] == pytest.approx((5.0, 30.0))
    assert out["rss"] == pytest.approx((1.0, 0.0))
