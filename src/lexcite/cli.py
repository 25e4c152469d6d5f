"""Command-line pipeline: synth, split, build-graph, train, evaluate, predict.

Each command takes only the flags it reads. `train` resolves its configuration
as built-in defaults < --config file (flat JSON object) < explicit flags.
Every command echoes its fully resolved configuration to stdout and writes it
next to its outputs as ``effective_config.json``; all randomness flows from
the single --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .corpus import (CorpusError, build_vocab, load_facts_with_report, load_hierarchy)
from .graph import HeteroGraph, build_citation_graph
from .metrics import evaluate_predictions
from .model import Model
from .split import SplitSpec, iterative_stratified_split, split_report
from .synth import write_synth
from .training import (TrainingConfig, citation_frequencies, load_checkpoint, predict_corpus,
                       save_checkpoint, train_model, tune_threshold)

SPLIT_ROLES = ("train", "validation", "test")
INPUT_FLAGS = ("facts", "val_facts", "hierarchy", "graph", "checkpoint", "vectors", "config")


def _add_out_dir(parser: argparse.ArgumentParser):
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")


def _resolve_config(args) -> tuple[TrainingConfig, str]:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: config file {args.config}: {e}")
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config}: expected a flat JSON object")
    known = {f.name for f in fields(TrainingConfig)}
    unknown = set(values) - known - {"ablation"}
    if unknown:
        raise SystemExit(f"error: unknown config keys {sorted(unknown)}")
    ablation = values.pop("ablation", "full")
    for flag in ("seed", "tau", "eta"):
        if getattr(args, flag) is not None:
            values[flag] = getattr(args, flag)
    config = TrainingConfig.desk_scale(**values) if args.desk_scale else TrainingConfig(**values)
    ablation = args.ablation or ablation
    return config.with_ablation(ablation), ablation


def _echo_and_store(out_dir: Path, command: str, config_dict: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, **config_dict}
    print(json.dumps(payload, indent=2, default=str))
    (out_dir / "effective_config.json").write_text(
        json.dumps(payload, indent=2, default=str), encoding="utf-8")


def _load_corpus(facts_path: Path, hierarchy):
    docs, report = load_facts_with_report(facts_path, hierarchy)
    if report.n_dropped_labels or report.n_excluded:
        print(f"warning: dropped {report.n_dropped_labels} unknown label refs, "
              f"excluded {report.n_excluded} documents with no known labels", file=sys.stderr)
    return docs


def _check_role(facts_path: Path, wanted: str):
    """Refuse building graphs from anything but the training split when a
    split report sits next to the facts file."""
    report_path = facts_path.parent / "split_report.json"
    if not report_path.exists():
        return
    roles = json.loads(report_path.read_text(encoding="utf-8")).get("files", {})
    for role, name in roles.items():
        if name == facts_path.name and role != wanted:
            raise SystemExit(
                f"error: {facts_path.name} is the {role} split; training facts only")


# -- commands -----------------------------------------------------------------------


def cmd_synth(args) -> int:
    _echo_and_store(args.out_dir, "synth", {
        "n_docs": args.n_docs, "n_sections": args.n_sections, "seed": args.seed,
        "n_topics": args.n_topics, "topic_coherence": args.topic_coherence,
        "skew": args.skew, "dilute_rare": args.dilute_rare,
    })
    facts, hierarchy = write_synth(args.out_dir, args.n_docs, args.n_sections, args.seed,
                                   args.n_topics, args.topic_coherence, args.skew,
                                   args.dilute_rare)
    print(f"wrote {facts} and {hierarchy}")
    return 0


def cmd_split(args) -> int:
    ratios = tuple(float(x) for x in args.ratios.split(",")) if args.ratios else (0.64, 0.16, 0.20)
    try:
        spec = SplitSpec(ratios=ratios, seed=args.seed)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    # Read every input before writing anything, so a refused one leaves no output.
    hierarchy = load_hierarchy(args.hierarchy)
    docs = _load_corpus(args.facts, hierarchy)
    _echo_and_store(args.out_dir, "split", {"ratios": list(spec.ratios), "seed": spec.seed,
                                            "facts": str(args.facts)})
    folds = iterative_stratified_split(docs, spec)

    files = {}
    raw_lines = {}
    with Path(args.facts).open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                raw_lines[str(json.loads(line)["id"])] = line.rstrip("\n")
    for role, fold in zip(SPLIT_ROLES, folds):
        path = args.out_dir / f"{role}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for doc in fold:
                fh.write(raw_lines[doc.id] + "\n")
        files[role] = path.name
    report = split_report(folds, labels=hierarchy.section_ids)
    report["files"] = files
    report["seed"] = spec.seed
    (args.out_dir / "split_report.json").write_text(json.dumps(report, indent=2),
                                                    encoding="utf-8")
    print(f"fold sizes: {report['fold_sizes']}")
    return 0


def cmd_build_graph(args) -> int:
    _check_role(args.facts, "train")
    hierarchy = load_hierarchy(args.hierarchy)
    docs = _load_corpus(args.facts, hierarchy)
    _echo_and_store(args.out_dir, "build-graph", {"facts": str(args.facts),
                                                  "hierarchy": str(args.hierarchy)})
    graph = build_citation_graph(docs, hierarchy)
    graph_path = args.out_dir / "graph.json"
    graph.save(graph_path)
    stats = graph.stats()
    (args.out_dir / "graph_stats.json").write_text(json.dumps(stats, indent=2), encoding="utf-8")
    print(json.dumps(stats))
    print(f"wrote {graph_path}")
    return 0


def cmd_train(args) -> int:
    config, ablation = _resolve_config(args)
    _check_role(args.facts, "train")
    # Read every input before writing anything, so a refused one leaves no output.
    hierarchy = load_hierarchy(args.hierarchy)
    train_docs = _load_corpus(args.facts, hierarchy)
    val_docs = _load_corpus(args.val_facts, hierarchy)
    graph = HeteroGraph.load(args.graph)

    vocab = build_vocab([d.tokens() for d in train_docs] +
                        [s.tokens() for s in hierarchy.sections], min_freq=config.min_freq)
    pretrained = pretrained_mask = None
    if args.vectors:
        pretrained, pretrained_mask = vocab.load_vectors(args.vectors, config.embed_dim)
    _echo_and_store(args.out_dir, "train", {**asdict(config), "ablation": ablation,
                                            "facts": str(args.facts), "val_facts": str(args.val_facts),
                                            "graph": str(args.graph)})
    if args.vectors:
        print(f"initialized {int(pretrained_mask.sum())}/{len(vocab)} embeddings "
              f"from {args.vectors}")
    rng = np.random.default_rng(config.seed)
    model = Model(rng, config, vocab, graph, hierarchy, pretrained=pretrained,
                  pretrained_mask=pretrained_mask)

    log_path = args.out_dir / "train_log.jsonl"
    with log_path.open("w", encoding="utf-8") as log_fh:
        def hook(record):
            log_fh.write(json.dumps(record) + "\n")
            log_fh.flush()
            print(f"epoch {record['epoch']:3d}  loss {record['loss']:9.4f}  "
                  f"val macro-F1 {record['val_macro_f1']:6.2f}")
        result = train_model(model, train_docs, val_docs, log_hook=hook)

    if args.tune_threshold:
        scores = result.best_val_scores
        if scores is None:  # no epoch ran, so nothing was validated
            _, scores = predict_corpus(model, val_docs)
        tuned = tune_threshold(scores, [d.labels for d in val_docs], model.section_ids)
        print(f"tuned tau: {tuned}")
    else:
        tuned = None
    checkpoint = args.out_dir / "checkpoint.npz"
    save_checkpoint(checkpoint, model,
                    extra={"ablation": ablation, "best_epoch": result.best_epoch,
                           "best_val_macro_f1": result.best_val_f1, "tuned_tau": tuned})
    print(f"best epoch {result.best_epoch} val macro-F1 {result.best_val_f1:.2f}")
    print(f"wrote {checkpoint}")
    return 0


def _restore(args):
    """Load a checkpoint for scoring. Its threshold is --tau if given, else
    the tau tuned by `train --tune-threshold`, else the training config's."""
    hierarchy = load_hierarchy(args.hierarchy)
    model, meta = load_checkpoint(args.checkpoint, HeteroGraph.load(args.graph), hierarchy)
    tuned = meta["extra"].get("tuned_tau")
    if args.tau is not None:
        model.config, tau_source = replace(model.config, tau=args.tau), "flag"
    elif tuned is not None:
        model.config, tau_source = replace(model.config, tau=tuned), "checkpoint"
    else:
        tau_source = "config"
    return model, tau_source


def cmd_evaluate(args) -> int:
    model, tau_source = _restore(args)
    _echo_and_store(args.out_dir, "evaluate", {**asdict(model.config), "tau_source": tau_source,
                                               "checkpoint": str(args.checkpoint),
                                               "facts": str(args.facts)})
    hierarchy = model.hierarchy
    docs = _load_corpus(args.facts, hierarchy)
    preds, _ = predict_corpus(model, docs)
    golds = [d.labels for d in docs]
    freqs = citation_frequencies(docs, hierarchy.section_ids)
    report = evaluate_predictions(preds, golds, hierarchy.section_ids,
                                  courts=[d.court for d in docs],
                                  citation_freqs=dict(zip(hierarchy.section_ids, freqs)))
    (args.out_dir / "eval_report.json").write_text(report.to_json(), encoding="utf-8")
    print(report.summary())
    return 0


def cmd_predict(args) -> int:
    model, tau_source = _restore(args)
    _echo_and_store(args.out_dir, "predict", {**asdict(model.config), "tau_source": tau_source,
                                              "checkpoint": str(args.checkpoint),
                                              "facts": str(args.facts)})
    hierarchy = model.hierarchy
    docs = _load_corpus(args.facts, hierarchy)
    preds, all_scores = predict_corpus(model, docs)
    out_path = args.out_dir / "predictions.jsonl"
    with out_path.open("w", encoding="utf-8") as fh:
        for doc, labels, scores in zip(docs, preds, all_scores):
            record = {
                "id": doc.id,
                "predicted": sorted(labels, key=hierarchy.section_index.get),
                "scores": {sid: round(float(s), 6)
                           for sid, s in zip(hierarchy.section_ids, scores)},
            }
            fh.write(json.dumps(record) + "\n")
            print(f"{doc.id}: {record['predicted']}")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcite",
        description="Statute identification over a heterogeneous legal citation network")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus and hierarchy")
    p.add_argument("--n-docs", type=int, required=True)
    p.add_argument("--n-sections", type=int, required=True)
    p.add_argument("--n-topics", type=int, default=None)
    p.add_argument("--topic-coherence", type=float, default=0.85)
    p.add_argument("--skew", type=float, default=1.0,
                   help="citation-popularity exponent (higher = rarer tail)")
    p.add_argument("--dilute-rare", type=float, default=0.0,
                   help="fraction of rare-half section keywords replaced by topic keywords")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_out_dir(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="iterative stratified train/val/test split")
    p.add_argument("--facts", type=Path, required=True)
    p.add_argument("--hierarchy", type=Path, required=True)
    p.add_argument("--ratios", type=str, default=None, help="e.g. 0.64,0.16,0.20")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_out_dir(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-graph", help="build the citation network from training facts")
    p.add_argument("--facts", type=Path, required=True)
    p.add_argument("--hierarchy", type=Path, required=True)
    _add_out_dir(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train the model")
    p.add_argument("--facts", type=Path, required=True, help="training split")
    p.add_argument("--val-facts", type=Path, required=True)
    p.add_argument("--hierarchy", type=Path, required=True)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--vectors", type=Path, default=None,
                   help="pretrained word vectors (token v1..vd per line)")
    p.add_argument("--tune-threshold", action="store_true",
                   help="grid-search tau on the validation split after training")
    p.add_argument("--config", type=Path, help="flat JSON config file")
    p.add_argument("--seed", type=int, help="root random seed")
    p.add_argument("--ablation", choices=["full", "E", "S", "V"], default=None,
                   help="E: lookup structural encoder, S: no structural loss, V: vanilla weights")
    p.add_argument("--tau", type=float, help="decision threshold override")
    p.add_argument("--eta", type=float, help="class-weight cap override")
    p.add_argument("--desk-scale", action="store_true",
                   help="small dimensions/epochs for laptop-scale runs")
    _add_out_dir(p)
    p.set_defaults(func=cmd_train)

    for name, help_, func in (("evaluate", "evaluate a checkpoint on a facts file", cmd_evaluate),
                              ("predict", "predict sections for each fact in a file",
                               cmd_predict)):
        p = sub.add_parser(name, help=help_)
        for flag in ("--checkpoint", "--graph", "--hierarchy", "--facts"):
            p.add_argument(flag, type=Path, required=True)
        p.add_argument("--tau", type=float,
                       help="decision threshold (default: the checkpoint's tuned tau, "
                            "else its training config's)")
        _add_out_dir(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in INPUT_FLAGS:  # before the command writes anything
            path = getattr(args, flag, None)
            if path is not None and not path.is_file():
                raise FileNotFoundError(f"--{flag.replace('_', '-')} {path}: no such file")
        return args.func(args)
    except (CorpusError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
