"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic end-to-end
criteria train real models and take several minutes on a laptop CPU.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import Tensor, no_grad
from lexcite.corpus import (FactDocument, build_vocab, encode_corpus, load_facts,
                            load_facts_with_report, load_hierarchy)
from lexcite.graph import build_citation_graph, default_schemas
from lexcite.metrics import macro_prf, mean_jaccard
from lexcite.model import Model
from lexcite.scorer import MatchScorer
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import synth_corpus, write_synth
from lexcite.training import (TrainingConfig, citation_frequencies, class_weights,
                              class_weights_tws, class_weights_vws, combined_loss, predict_corpus,
                              train_model, tune_threshold, weighted_bce)

from conftest import make_fact, widen_to_float64
from oracles import (average_labels_per_doc, conforms, enumerate_instances, fd_gradients,
                     inter_aggregate_scalar, intra_aggregate_scalar, jaccard_scalar,
                     macro_prf_scalar, matvec_scalar, max_rel_error, softmax_scalar, tws_scalar,
                     vws_scalar, weighted_bce_scalar)
from test_graph import random_graph
from test_structural import (encode_one, feature, randomize, rotation_oracle,
                             single_schema_encoder)


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# -- shared end-to-end fixture (criteria 4, 6, 8) -------------------------------


@pytest.fixture(scope="module")
def synth500(tmp_path_factory):
    """cmd_synth(500 docs, 10 sections, seed 0) -> split -> graph -> 20-epoch
    desk-scale training of the full model, threshold tuned on validation."""
    tmp = tmp_path_factory.mktemp("synth500")
    t0 = time.time()
    facts_path, hier_path = write_synth(tmp, n_docs=500, n_sections=10, seed=0)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, test = iterative_stratified_split(docs, SplitSpec(seed=0))
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    config = TrainingConfig.desk_scale(seed=0)
    model = Model(np.random.default_rng(config.seed), config, vocab, graph, hierarchy)
    result = train_model(model, train, val)
    tuned_tau = tune_threshold(result.best_val_scores, [d.labels for d in val],
                               hierarchy.section_ids)
    return {
        "tmp": tmp, "hierarchy": hierarchy, "train": train, "val": val, "test": test,
        "graph": graph, "vocab": vocab, "config": config, "model": model,
        "tuned_tau": tuned_tau, "train_result": result,
        "runtime": time.time() - t0, "facts_path": facts_path, "hier_path": hier_path,
    }


# -- criterion 1: gradient fidelity ---------------------------------------------


def test_criterion_1_gradient_fidelity(tmp_path):
    t0 = time.time()
    facts_path, hier_path = write_synth(tmp_path, n_docs=4, n_sections=3, seed=0)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    graph = build_citation_graph(docs, hierarchy)
    vocab = build_vocab([d.tokens() for d in docs] + [s.tokens() for s in hierarchy.sections])
    cfg = TrainingConfig(d_prime=8, d_node=8, d_m=8, d_s=8, embed_dim=8, max_sents=3,
                         max_words=6, k_instances=2, batch_size=4, dropout=0.0, epochs=1,
                         lr=1e-3, seed=0)
    # finite differences need float64: the model is widened from its float32
    model = widen_to_float64(Model(np.random.default_rng(0), cfg, vocab, graph, hierarchy))
    grids, masks = encode_corpus(docs, vocab, cfg.max_sents, cfg.max_words)
    targets = np.stack([hierarchy.label_vector(d.labels) for d in docs])
    weights = class_weights(citation_frequencies(docs, hierarchy.section_ids), len(docs), cfg)
    fact_ids = [d.id for d in docs]

    def loss_tensor():
        triple = model.forward(grids, masks, sample_seed=7, fact_ids=fact_ids)
        return combined_loss(weighted_bce(triple.attribute, targets, weights),
                             weighted_bce(triple.structural, targets, weights),
                             weighted_bce(triple.alignment, targets, weights), cfg)

    params = model.parameters()
    n_params = sum(p.data.size for p in params.values())
    loss = loss_tensor()
    loss.backward()

    def loss_value():
        with no_grad():
            return loss_tensor().item()

    numeric = fd_gradients(loss_value, params, h=1e-5)
    # Coordinates below the finite-difference noise floor (eps * |loss| / h)
    # cannot be compared relatively; the floor reflects that.
    floor = max(1e-6, 1e-5 * abs(loss.item()))
    worst, worst_name = 0.0, None
    for name, p in params.items():
        analytic = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        err = max_rel_error(analytic, numeric[name], floor=floor)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.time() - t0
    assert worst <= 1e-4, f"max rel error {worst:.2e} at {worst_name}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report("1 (gradient fidelity)",
           f"{n_params} parameters, max rel error {worst:.2e} vs central differences, "
           f"{elapsed:.1f}s")


# -- criterion 2: sampling vs enumeration oracle ---------------------------------


def test_criterion_2_oracle_equivalence():
    schemas = default_schemas()
    n_graphs = 0
    n_checked = 0
    trial = 0
    while n_graphs < 100:
        rng = np.random.default_rng(1000 + trial)
        trial += 1
        g = random_graph(rng, n_chapters=int(rng.integers(1, 4)),
                         n_topics=int(rng.integers(2, 6)),
                         n_sections=int(rng.integers(3, 10)),
                         n_facts=int(rng.integers(3, 12)))
        if g.n_nodes() > 50:
            continue
        n_graphs += 1
        for schema in schemas:
            for v in g.type_ids(schema.node_types[0]):
                sampled = g.sample_instances(v, schema, k=4, seed=trial)
                enumerated = enumerate_instances(g, v, schema)
                if not sampled:
                    assert enumerated == []
                    continue
                members = {i.nodes for i in enumerated}
                for inst in sampled:
                    assert conforms(g, inst, schema), (schema.id, inst.nodes)
                    assert inst.nodes in members, (schema.id, inst.nodes)
                    n_checked += 1
    report("2 (oracle equivalence)",
           f"{n_graphs} random graphs (<= 50 nodes), all 8 schemas, "
           f"{n_checked} sampled instances conform and appear in the enumeration")


# -- criterion 3: formula oracles -------------------------------------------------


def test_criterion_3_formula_oracles():
    rng = np.random.default_rng(42)
    checks = {}

    for name in ("tws", "vws"):
        for _ in range(100):
            freqs = rng.integers(1, 5000, size=int(rng.integers(2, 40)))
            if name == "tws":
                eta = float(rng.uniform(1, 30))
                got = class_weights_tws(freqs, eta)
                want = tws_scalar(freqs.tolist(), eta)
            else:
                n = int(freqs.max() + rng.integers(0, 1000))
                got = class_weights_vws(freqs, n)
                want = vws_scalar(freqs.tolist(), n)
            npt.assert_allclose(got, want, atol=1e-9)
        checks[name] = 100

    for _ in range(100):
        b, s = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        scores = rng.uniform(1e-4, 1 - 1e-4, size=(b, s))
        y = (rng.random((b, s)) > 0.5).astype(float)
        w = rng.uniform(0.2, 20, size=s)
        got = weighted_bce(Tensor(scores), y, w).item()
        npt.assert_allclose(got, weighted_bce_scalar(scores.tolist(), y.tolist(), w.tolist()),
                            atol=1e-9)
    checks["weighted_bce"] = 100

    cfg = TrainingConfig(d_prime=8, d_node=8, d_m=8, d_s=8, embed_dim=8)
    for _ in range(100):
        a, s, l = rng.uniform(0, 10, size=3)
        got = combined_loss(Tensor(a), Tensor(s), Tensor(l), cfg).item()
        npt.assert_allclose(got, cfg.theta_a * a + cfg.theta_s * s + cfg.theta_l * l, atol=1e-9)
    checks["combined_loss"] = 100

    # The structural formulas are checked through the production encoder,
    # whose attention contexts come from random attribute embeddings. A
    # one-schema encoder (single_schema_encoder) returns relu of the pooled
    # instance encodings; with k=1 that is relu(q_M / (M + 1)), and negating
    # every feature negates q_M, which exposes the other half.
    g = random_graph(np.random.default_rng(7))
    sections = [v for v in g.type_ids("S") if g.neighbors(v, "ctb")]
    schemas = [s for s in default_schemas() if s.side == "section"]
    schema = schemas[2]  # S-po-T-po-C-inc-T-inc-S, length 4
    for i in range(100):
        d = int(rng.integers(2, 6))
        enc = single_schema_encoder(g, schema, d=d, seed=i)
        randomize(enc, rng)
        attr = rng.normal(size=d)
        v = sections[i % len(sections)]
        inst = g.sample_instances(v, schema, k=1, seed=i)[0]
        want = np.array(rotation_oracle(enc, g, schema, inst))
        got, _ = encode_one(enc, g, v, k=1, seed=i, attr=attr)
        npt.assert_allclose(got, np.maximum(want, 0.0), atol=1e-9)
        for t in enc.node_embed:
            enc.node_embed[t].data = -enc.node_embed[t].data
        got, _ = encode_one(enc, g, v, k=1, seed=i, attr=attr)
        npt.assert_allclose(got, np.maximum(-want, 0.0), atol=1e-9)
    checks["relational_rotation"] = 100

    # attention softmaxes: intra alpha (MetapathEncoder.encode with
    # return_weights), inter beta (MetapathEncoder._inter_aggregate), pooling gamma
    for i in range(100):
        d = int(rng.integers(2, 5))
        schema = schemas[int(rng.integers(len(schemas)))]
        v = sections[int(rng.integers(len(sections)))]
        k = int(rng.integers(1, 6))
        enc = single_schema_encoder(g, schema, d=d, seed=i)
        randomize(enc, rng)
        enc.schema_ctx[schema.id].data = rng.normal(size=(d, 2 * d))
        attr = rng.normal(size=d)
        insts = g.sample_instances(v, schema, k=k, seed=i)
        _, alpha = encode_one(enc, g, v, k=k, seed=i, attr=attr)
        a_p = matvec_scalar(enc.schema_ctx[schema.id].data.T.tolist(), attr.tolist())
        _, exp_alpha = intra_aggregate_scalar(feature(enc, g, v).tolist(),
                                              [rotation_oracle(enc, g, schema, inst)
                                               for inst in insts], a_p)
        npt.assert_allclose(alpha, exp_alpha, atol=1e-9)

        n_schemas, n_nodes = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        per = [Tensor(rng.normal(size=(n_nodes, d))) for _ in range(n_schemas)]
        enc.summary_m["S"].data = rng.normal(size=(d, d))
        enc.summary_b["S"].data = rng.normal(size=d)
        enc.side_ctx["S"].data = rng.normal(size=(d, d))
        attrs = rng.normal(size=(n_nodes, d))
        _, beta = enc._inter_aggregate(per, "S", Tensor(attrs))
        q_rows = [matvec_scalar(enc.side_ctx["S"].data.T.tolist(), row)
                  for row in attrs.tolist()]
        _, exp_betas = inter_aggregate_scalar([p.data.tolist() for p in per],
                                              enc.summary_m["S"].data.T.tolist(),
                                              enc.summary_b["S"].data.tolist(), q_rows)
        npt.assert_allclose(beta, exp_betas, atol=1e-9)

        scores = rng.normal(size=int(rng.integers(1, 9)))
        got = ad.softmax(Tensor(scores), axis=0).data
        npt.assert_allclose(got, softmax_scalar(scores.tolist()), atol=1e-9)
    checks["attention_softmaxes"] = 300

    for _ in range(100):
        n_docs = int(rng.integers(1, 40))
        universe = [f"L{i}" for i in range(int(rng.integers(1, 8)))]
        preds = [{lab for lab in universe if rng.random() < 0.35} for _ in range(n_docs)]
        golds = [{lab for lab in universe if rng.random() < 0.35} for _ in range(n_docs)]
        got = macro_prf(preds, golds, universe)
        mp, mr, mf, _ = macro_prf_scalar(preds, golds, universe)
        npt.assert_allclose(got, (mp, mr, mf), atol=1e-9)
        npt.assert_allclose(mean_jaccard(preds, golds), jaccard_scalar(preds, golds), atol=1e-9)
    checks["macro_prf+jaccard"] = 200

    report("3 (formula oracles)",
           "all formulas match scalar-loop recomputation to 1e-9: " +
           ", ".join(f"{k} x{v}" for k, v in checks.items()))


# -- criterion 4: synthetic end-to-end ---------------------------------------------


def test_criterion_4_synthetic_end_to_end(synth500):
    s = synth500
    preds, _ = predict_corpus(s["model"], s["test"], tau=s["tuned_tau"])
    golds = [d.labels for d in s["test"]]
    _, _, macro_f1 = macro_prf(preds, golds, s["hierarchy"].section_ids)

    freqs = citation_frequencies(s["train"], s["hierarchy"].section_ids)
    top2 = {s["hierarchy"].section_ids[i] for i in np.argsort(-freqs)[:2]}
    _, _, baseline_f1 = macro_prf([top2] * len(golds), golds, s["hierarchy"].section_ids)

    assert macro_f1 >= 70.0, f"macro-F1 {macro_f1:.2f} < 70"
    assert macro_f1 >= 2 * baseline_f1, f"{macro_f1:.2f} < 2x baseline {baseline_f1:.2f}"
    assert s["runtime"] < 600.0, f"training pipeline took {s['runtime']:.0f}s"
    report("4 (synthetic end-to-end)",
           f"test macro-F1 {macro_f1:.2f} >= 70 and >= 2x top-2 baseline "
           f"({baseline_f1:.2f}); pipeline {s['runtime']:.0f}s < 600s")


# -- criterion 5: ablation direction ------------------------------------------------


def test_criterion_5_ablation_direction(tmp_path):
    """Known red: the no-structural-loss comparison does not reproduce at
    desk scale.

    The corpus pairs a frequent and a rare section per topic, with the rare
    half's keywords diluted, so co-cited sections share a topic and the graph
    carries signal the text lacks. In this regime the embedding-table and
    vanilla-weighting ablations land below the full model as the published
    ordering says, but dropping the auxiliary structural loss reliably helps
    rather than hurts at this scale (observed across ~19 regimes spanning
    corpus family, size, skew, text difficulty, dimensions, learning rate and
    epoch budget; see the build notes). The criterion is asserted as stated.
    """
    t0 = time.time()
    facts_path, hier_path = write_synth(tmp_path, n_docs=800, n_sections=12, seed=0,
                                        n_topics=6, topic_coherence=0.65, skew=2.2,
                                        dilute_rare=0.85)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, test = iterative_stratified_split(docs, SplitSpec(seed=0))
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    golds = [d.labels for d in test]

    means = {}
    per_seed = {}
    for ablation in ("full", "E", "S", "V"):
        scores = []
        for seed in (0, 1, 2):
            cfg = TrainingConfig(epochs=10, seed=seed, d_prime=32, d_node=32, d_m=32,
                                 d_s=32, embed_dim=32, max_sents=8, max_words=16,
                                 k_instances=8, batch_size=32, dropout=0.5,
                                 lr=3e-3).with_ablation(ablation)
            model = Model(np.random.default_rng(seed), cfg, vocab, graph, hierarchy)
            train_model(model, train, val)
            preds, _ = predict_corpus(model, test)
            scores.append(macro_prf(preds, golds, hierarchy.section_ids)[2])
        means[ablation] = float(np.mean(scores))
        per_seed[ablation] = [round(s, 1) for s in scores]

    summary = ", ".join(f"{name} {means[name]:.2f}" for name in ("full", "E", "S", "V"))
    failed = [name for name in ("E", "S", "V") if means["full"] < means[name]]
    if failed:
        pytest.fail(
            f"ablation direction violated for {failed}: mean macro-F1 over seeds (0,1,2): "
            f"{summary}; per-seed {per_seed} ({time.time() - t0:.0f}s)")
    report("5 (ablation direction)",
           f"mean macro-F1 over 3 seeds: {summary} ({time.time() - t0:.0f}s)")


# -- criterion 6: inductive hygiene ---------------------------------------------------


def test_criterion_6_inductive_hygiene(synth500, tmp_path):
    s = synth500
    graph, model = s["graph"], s["model"]

    graph.recorder = []
    preds_a, scores_a = predict_corpus(model, s["test"])
    recorded = set(graph.recorder)
    graph.recorder = None
    test_ids = {d.id for d in s["test"]}
    assert not (recorded & test_ids), "evaluation touched test-fact nodes"
    unknown = {n for n in recorded if n not in graph}
    assert not unknown
    fact_queries = {n for n in recorded if graph.phi(n) == "F"}
    train_ids = {d.id for d in s["train"]}
    assert fact_queries <= train_ids

    # appending unseen facts to the corpus file must not move any prediction
    extra_records, _ = synth_corpus(50, 10, seed=99)
    original = [json.loads(line) for line in
                Path(s["facts_path"]).read_text().splitlines() if line.strip()]
    by_id = {r["id"]: r for r in original}
    augmented = tmp_path / "augmented.jsonl"
    with augmented.open("w") as fh:
        for doc in s["test"]:
            fh.write(json.dumps(by_id[doc.id]) + "\n")
        for rec in extra_records:
            rec = dict(rec, id="extra_" + rec["id"])
            fh.write(json.dumps(rec) + "\n")
    docs_b = load_facts(augmented, s["hierarchy"])
    preds_b, scores_b = predict_corpus(model, docs_b)
    for i, doc in enumerate(s["test"]):
        assert docs_b[i].id == doc.id
        npt.assert_array_equal(scores_b[i], scores_a[i])
        assert preds_b[i] == preds_a[i]
    report("6 (inductive hygiene)",
           f"zero non-training fact queries over {len(recorded)} recorded accesses; "
           f"predictions bit-identical with {len(extra_records)} unseen facts appended")


# -- criterion 7: stratification --------------------------------------------------------


def test_criterion_7_stratification():
    records, _ = synth_corpus(5000, 20, seed=0)
    docs = [make_fact(r["id"], set(r["labels"])) for r in records]
    spec = SplitSpec(seed=0)
    folds = iterative_stratified_split(docs, spec)
    sizes = [len(f) for f in folds]
    targets = (3200, 800, 1000)
    for size, target in zip(sizes, targets):
        assert abs(size - target) <= 1, f"sizes {sizes} vs targets {targets}"

    labels = sorted({lab for d in docs for lab in d.labels})
    worst = 0.0
    for lab in labels:
        total = sum(1 for d in docs if lab in d.labels)
        if total < 50:
            continue
        for ratio, fold in zip(spec.ratios, folds):
            dev = abs(sum(1 for d in fold if lab in d.labels) / total - ratio)
            worst = max(worst, dev)
            assert dev <= 0.02, f"label {lab}: deviation {dev:.4f}"

    again = iterative_stratified_split(docs, spec)
    assert [[d.id for d in f] for f in folds] == [[d.id for d in f] for f in again]
    report("7 (stratification)",
           f"fold sizes {sizes} within +/-1 of {targets}; worst well-supported label "
           f"deviation {100 * worst:.2f}pp <= 2pp; deterministic under seed 0")


# -- criterion 8: threshold behavior ------------------------------------------------------


def test_criterion_8_threshold_behavior(synth500):
    s = synth500
    golds = [d.labels for d in s["test"]]
    universe = s["hierarchy"].section_ids

    preds_tuned, _ = predict_corpus(s["model"], s["test"], tau=s["tuned_tau"])
    preds_low, _ = predict_corpus(s["model"], s["test"], tau=0.3)
    p_tuned, r_tuned, _ = macro_prf(preds_tuned, golds, universe)
    p_low, r_low, _ = macro_prf(preds_low, golds, universe)

    assert s["tuned_tau"] > 0.3, f"tuned tau {s['tuned_tau']} not above 0.3"
    assert r_low >= r_tuned, f"recall {r_low:.2f} < {r_tuned:.2f}"
    assert p_low <= p_tuned, f"precision {p_low:.2f} > {p_tuned:.2f}"
    report("8 (threshold behavior)",
           f"tau {s['tuned_tau']:.2f} -> 0.3: macro-R {r_tuned:.2f} -> {r_low:.2f} (>=), "
           f"macro-P {p_tuned:.2f} -> {p_low:.2f} (<=)")


# -- criterion 9: conditional, real data ----------------------------------------------------


ILSI_DIR = os.environ.get("LEXCITE_ILSI_DIR", "")


@pytest.mark.skipif(not ILSI_DIR, reason="set LEXCITE_ILSI_DIR to run against released data")
def test_criterion_9_real_data():
    root = Path(ILSI_DIR)
    hierarchy = load_hierarchy(root / "hierarchy.json", expected_sections=100)
    docs, _ = load_facts_with_report(root / "facts.jsonl", hierarchy)
    assert len(docs) == 66_090
    test_docs = load_facts(root / "test.jsonl", hierarchy)
    mean_labels = average_labels_per_doc(test_docs)
    assert abs(mean_labels - 3.78) <= 0.01
    train_docs = load_facts(root / "train.jsonl", hierarchy)
    graph = build_citation_graph(train_docs, hierarchy)
    assert graph.n_nodes("F") == 42_884
    assert graph.n_nodes("S") == 100
    report("9 (real data)",
           f"{len(docs)} documents, 100 labels, test mean labels/doc {mean_labels:.3f}, "
           f"{graph.n_nodes('F')} fact nodes")
