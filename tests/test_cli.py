import json
from pathlib import Path

import numpy as np
import pytest

from lexcite.cli import main


CONFIG = {
    "epochs": 4, "d_prime": 16, "d_node": 16, "d_m": 16, "d_s": 16, "embed_dim": 16,
    "max_sents": 6, "max_words": 12, "k_instances": 4, "lr": 0.005, "dropout": 0.2,
    "batch_size": 8,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> build-graph -> train, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    data, splits, graph_dir, run = root / "data", root / "splits", root / "graph", root / "run"

    assert main(["synth", "--n-docs", "70", "--n-sections", "5", "--seed", "0",
                 "--out-dir", str(data)]) == 0
    assert main(["split", "--facts", str(data / "facts.jsonl"),
                 "--hierarchy", str(data / "hierarchy.json"), "--seed", "0",
                 "--out-dir", str(splits)]) == 0
    assert main(["build-graph", "--facts", str(splits / "train.jsonl"),
                 "--hierarchy", str(data / "hierarchy.json"), "--out-dir", str(graph_dir)]) == 0
    assert main(["train", "--facts", str(splits / "train.jsonl"),
                 "--val-facts", str(splits / "validation.jsonl"),
                 "--hierarchy", str(data / "hierarchy.json"),
                 "--graph", str(graph_dir / "graph.json"), "--config", str(cfg_path),
                 "--seed", "0", "--out-dir", str(run)]) == 0
    return root


def test_synth_outputs_and_config_echo(pipeline):
    data = pipeline / "data"
    assert (data / "facts.jsonl").exists()
    assert (data / "hierarchy.json").exists()
    echo = json.loads((data / "effective_config.json").read_text())
    assert echo["command"] == "synth"
    assert echo["n_docs"] == 70 and echo["seed"] == 0


def test_split_outputs(pipeline):
    splits = pipeline / "splits"
    report = json.loads((splits / "split_report.json").read_text())
    sizes = report["fold_sizes"]
    assert sum(sizes) == 70
    assert sizes == [45, 11, 14]  # largest-remainder targets for 70 docs
    assert report["files"] == {"train": "train.jsonl", "validation": "validation.jsonl",
                               "test": "test.jsonl"}
    for name in report["files"].values():
        assert (splits / name).exists()
    for lab, row in report["labels"].items():
        assert len(row["counts"]) == 3


def test_split_honours_ratio_flag(pipeline, tmp_path):
    out = tmp_path / "even"
    assert main(["split", "--facts", str(pipeline / "data" / "facts.jsonl"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--ratios", "0.5,0.5,0", "--seed", "1", "--out-dir", str(out)]) == 0
    report = json.loads((out / "split_report.json").read_text())
    assert report["fold_sizes"] == [35, 35, 0]


def test_split_accepts_numeric_fact_ids(pipeline, tmp_path):
    lines = []
    for i, line in enumerate((pipeline / "data" / "facts.jsonl").read_text().splitlines()):
        lines.append(json.dumps({**json.loads(line), "id": i + 1}))
    facts = tmp_path / "numeric.jsonl"
    facts.write_text("\n".join(lines) + "\n")
    out = tmp_path / "splits"
    assert main(["split", "--facts", str(facts),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--out-dir", str(out)]) == 0
    written = [line for role in ("train", "validation", "test")
               for line in (out / f"{role}.jsonl").read_text().splitlines()]
    assert sorted(written) == sorted(lines)


def test_split_rejects_bad_ratios(pipeline, tmp_path):
    with pytest.raises(SystemExit):
        main(["split", "--facts", str(pipeline / "data" / "facts.jsonl"),
              "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
              "--ratios", "0.9,0.9,0.9", "--out-dir", str(tmp_path)])


def test_build_graph_stats(pipeline):
    stats = json.loads((pipeline / "graph" / "graph_stats.json").read_text())
    assert stats["nodes"]["S"] == 5
    assert stats["nodes"]["F"] == 45
    assert stats["edges"]["ct"] == stats["edges"]["ctb"]


def test_build_graph_refuses_test_split(pipeline, tmp_path):
    with pytest.raises(SystemExit, match="training facts only"):
        main(["build-graph", "--facts", str(pipeline / "splits" / "test.jsonl"),
              "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
              "--out-dir", str(tmp_path)])


def test_train_outputs(pipeline):
    run = pipeline / "run"
    assert (run / "checkpoint.npz").exists()
    log = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == CONFIG["epochs"]
    assert {"epoch", "loss_attribute", "loss_structural", "loss_alignment", "loss",
            "val_macro_f1"} <= set(log[0])
    echo = json.loads((run / "effective_config.json").read_text())
    assert echo["epochs"] == 4
    assert echo["ablation"] == "full"


def test_evaluate_reemits_logged_validation_f1(pipeline, tmp_path, capsys):
    run = pipeline / "run"
    log = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    best_logged = max(rec["val_macro_f1"] for rec in log)
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.npz"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--facts", str(pipeline / "splits" / "validation.jsonl"),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert abs(report["macro_f1"] - best_logged) < 1e-6


def test_evaluate_report_contents(pipeline, tmp_path):
    out = tmp_path / "eval2"
    assert main(["evaluate", "--checkpoint", str(pipeline / "run" / "checkpoint.npz"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--facts", str(pipeline / "splits" / "test.jsonl"),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert {"macro_p", "macro_r", "macro_f1", "jaccard", "per_label",
            "frequency_groups", "per_court"} <= set(report)
    assert len(report["per_label"]) == 5


def test_predict_output_format(pipeline, tmp_path):
    out = tmp_path / "pred"
    assert main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint.npz"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--facts", str(pipeline / "splits" / "test.jsonl"),
                 "--out-dir", str(out)]) == 0
    lines = (out / "predictions.jsonl").read_text().splitlines()
    test_lines = (pipeline / "splits" / "test.jsonl").read_text().splitlines()
    assert len(lines) == len(test_lines)
    record = json.loads(lines[0])
    assert {"id", "predicted", "scores"} <= set(record)
    assert len(record["scores"]) == 5
    assert all(0.0 <= v <= 1.0 for v in record["scores"].values())


def test_ablation_flag_echoes_effective_config(pipeline, tmp_path):
    out = tmp_path / "ablation_run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**CONFIG, "epochs": 1}))
    assert main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                 "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--config", str(cfg_path), "--ablation", "S",
                 "--out-dir", str(out)]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["ablation"] == "S"
    assert echo["theta_s"] == 0.0
    log = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert log[0]["loss_structural"] == 0.0


def test_unknown_config_key_rejected(pipeline, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(SystemExit, match="unknown config"):
        main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
              "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
              "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
              "--graph", str(pipeline / "graph" / "graph.json"),
              "--config", str(cfg_path), "--out-dir", str(tmp_path)])


def test_invalid_config_value_rejected_before_echo(pipeline, tmp_path, capsys):
    cfg_path = tmp_path / "bogus.json"
    cfg_path.write_text(json.dumps({**CONFIG, "structural": "bogus"}))
    out = tmp_path / "run"
    assert main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                 "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize("command,missing", [
    ("train", "--graph"), ("evaluate", "--facts"), ("predict", "--graph"),
])
def test_missing_input_file_is_an_error_line(pipeline, tmp_path, capsys, command, missing):
    if command == "train":
        argv = ["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                "--graph", str(pipeline / "graph" / "graph.json")]
    else:
        argv = [command, "--checkpoint", str(pipeline / "run" / "checkpoint.npz"),
                "--graph", str(pipeline / "graph" / "graph.json"),
                "--facts", str(pipeline / "splits" / "test.jsonl")]
    argv[argv.index(missing) + 1] = str(tmp_path / "nope.json")
    out = tmp_path / "out"
    assert main([*argv, "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "nope.json" in err[0]
    assert not (out / "effective_config.json").exists()


def _reverse_every_list(node):
    if isinstance(node, list):
        return [_reverse_every_list(item) for item in reversed(node)]
    if isinstance(node, dict):
        return {k: _reverse_every_list(v) for k, v in node.items()}
    return node


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_hierarchy_in_another_order_is_refused(pipeline, tmp_path, capsys, command):
    hierarchy = json.loads((pipeline / "data" / "hierarchy.json").read_text())
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(_reverse_every_list(hierarchy)))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--checkpoint", str(pipeline / "run" / "checkpoint.npz"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--hierarchy", str(reordered),
                 "--facts", str(pipeline / "splits" / "test.jsonl"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "section order" in err[0]
    assert not (out / "effective_config.json").exists()


def test_vectors_of_another_width_are_refused(pipeline, tmp_path, capsys):
    # embed_dim is 16; a 3-d file must not silently leave every embedding random
    tokens = (pipeline / "data" / "facts.jsonl").read_text().split()[:5]
    vectors = tmp_path / "vec.txt"
    vectors.write_text("".join(f"{t} 0.1 0.2 0.3\n" for t in tokens))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                 "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--config", str(pipeline / "config.json"), "--vectors", str(vectors),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "widths seen: [3]" in err
    assert not (out / "effective_config.json").exists()
    assert not (out / "train_log.jsonl").exists()
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--checkpoint", "c.npz", "--graph", "g.json", "--hierarchy", "h.json",
     "--facts", "f.jsonl", "--seed", "1"],
    ["build-graph", "--facts", "f.jsonl", "--hierarchy", "h.json", "--seed", "1"],
    ["split", "--facts", "f.jsonl", "--hierarchy", "h.json", "--desk-scale"],
], ids=["predict-seed", "build-graph-seed", "split-desk-scale"])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_tau_flag_overrides_checkpoint_config(pipeline, tmp_path):
    out_lo = tmp_path / "lo"
    assert main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint.npz"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--facts", str(pipeline / "splits" / "test.jsonl"),
                 "--tau", "0.05", "--out-dir", str(out_lo)]) == 0
    lo = [json.loads(l) for l in (out_lo / "predictions.jsonl").read_text().splitlines()]
    echo = json.loads((out_lo / "effective_config.json").read_text())
    assert echo["tau"] == 0.05
    n_predicted = sum(len(r["predicted"]) for r in lo)
    assert n_predicted >= len(lo)  # low threshold predicts liberally


def _run_args(pipeline, checkpoint, facts="test.jsonl"):
    return ["--checkpoint", str(checkpoint),
            "--graph", str(pipeline / "graph" / "graph.json"),
            "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
            "--facts", str(pipeline / "splits" / facts)]


def _read_checkpoint_meta(path):
    with np.load(path) as blob:
        return json.loads(bytes(blob["__meta__"]).decode())


def _rewrite_checkpoint_meta(src, dst, edit):
    with np.load(src) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(dst, **arrays)


@pytest.fixture(scope="module")
def tuned_run(pipeline):
    out = pipeline / "tuned"
    assert main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                 "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                 "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                 "--graph", str(pipeline / "graph" / "graph.json"),
                 "--config", str(pipeline / "config.json"), "--seed", "0",
                 "--tune-threshold", "--out-dir", str(out)]) == 0
    return out / "checkpoint.npz"


def test_predict_defaults_to_tuned_tau(pipeline, tuned_run, tmp_path):
    tuned = _read_checkpoint_meta(tuned_run)["extra"]["tuned_tau"]
    out = tmp_path / "pred"
    assert main(["predict", *_run_args(pipeline, tuned_run), "--out-dir", str(out)]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["tau"] == tuned and echo["tau_source"] == "checkpoint"
    # scores are written rounded to 6 decimals; allow that much at the boundary
    for line in (out / "predictions.jsonl").read_text().splitlines():
        rec = json.loads(line)
        must = {s for s, v in rec["scores"].items() if v >= tuned + 5e-7}
        may = {s for s, v in rec["scores"].items() if v >= tuned - 5e-7}
        assert must <= set(rec["predicted"]) <= may, rec["id"]


def test_tau_source_flag_and_config(pipeline, tuned_run, tmp_path):
    assert main(["evaluate", *_run_args(pipeline, tuned_run), "--tau", "0.3",
                 "--out-dir", str(tmp_path / "flag")]) == 0
    echo = json.loads((tmp_path / "flag" / "effective_config.json").read_text())
    assert (echo["tau"], echo["tau_source"]) == (0.3, "flag")
    # trained without --tune-threshold: the checkpoint has no tuned tau
    untuned = pipeline / "run" / "checkpoint.npz"
    assert _read_checkpoint_meta(untuned)["extra"]["tuned_tau"] is None
    assert main(["evaluate", *_run_args(pipeline, untuned),
                 "--out-dir", str(tmp_path / "config")]) == 0
    echo = json.loads((tmp_path / "config" / "effective_config.json").read_text())
    assert (echo["tau"], echo["tau_source"]) == (0.65, "config")


@pytest.mark.parametrize("value", [True, False])
def test_checkpoint_with_retired_config_key_still_loads(pipeline, tmp_path, value, capsys):
    # checkpoints written while the exclude_self_edges option existed carry it
    # in the training config; older checkpoints also carry a model_spec record
    # (a second copy of the architecture), which named dynamic_context while
    # the attention-context mode existed, as did the training config
    new = pipeline / "run" / "checkpoint.npz"
    self_edges, context = tmp_path / "self_edges.npz", tmp_path / "context.npz"
    spec = tmp_path / "spec.npz"
    _rewrite_checkpoint_meta(new, self_edges,
                             lambda meta: meta["train_config"].update(exclude_self_edges=value))

    def add_spec(meta, **retired):
        arch = ("embed_dim", "d_prime", "d_node", "d_m", "d_s", "dropout", "structural")
        meta["model_spec"] = {**{k: meta["train_config"][k] for k in arch}, **retired}
        meta["train_config"].update(retired)

    _rewrite_checkpoint_meta(new, spec, add_spec)
    _rewrite_checkpoint_meta(new, context, lambda meta: add_spec(meta, dynamic_context=value))
    old = {"self_edges": self_edges, "spec": spec}
    if value:
        old["context"] = context
    else:
        # a static-context model is refused, never scored with today's model
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert main([command, *_run_args(pipeline, context), "--out-dir",
                         str(tmp_path / f"context_{command}")]) == 1
            assert "dynamic_context=false" in capsys.readouterr().err
            assert not (tmp_path / f"context_{command}").exists()
    for name, ckpt in (*old.items(), ("new", new)):
        assert main(["predict", *_run_args(pipeline, ckpt), "--out-dir",
                     str(tmp_path / name)]) == 0
        assert main(["evaluate", *_run_args(pipeline, ckpt), "--out-dir",
                     str(tmp_path / f"{name}_eval")]) == 0
    for name in old:
        assert (tmp_path / name / "predictions.jsonl").read_text() == \
            (tmp_path / "new" / "predictions.jsonl").read_text()
        echo = json.loads((tmp_path / name / "effective_config.json").read_text())
        assert "exclude_self_edges" not in echo and "dynamic_context" not in echo


@pytest.mark.parametrize("value", [True, False])
def test_config_file_with_retired_key_rejected(pipeline, tmp_path, value):
    for key in ("exclude_self_edges", "dynamic_context"):
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps({**CONFIG, key: value}))
        with pytest.raises(SystemExit, match=rf"unknown config keys \['{key}'\]"):
            main(["train", "--facts", str(pipeline / "splits" / "train.jsonl"),
                  "--val-facts", str(pipeline / "splits" / "validation.jsonl"),
                  "--hierarchy", str(pipeline / "data" / "hierarchy.json"),
                  "--graph", str(pipeline / "graph" / "graph.json"),
                  "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")])
