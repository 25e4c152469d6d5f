
import gc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lexcite import autodiff as ad
from lexcite import training
from lexcite.autodiff import Parameter, Tensor
from lexcite.corpus import build_vocab, encode_corpus, load_facts, load_hierarchy
from lexcite.graph import build_citation_graph
from lexcite.han import TextEncoder
from lexcite.model import Model
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import write_synth
from lexcite.training import (DivergenceError, TrainingConfig, citation_frequencies,
                              class_weights_tws, class_weights_vws, combined_loss,
                              predict_corpus, train_model, tune_threshold, weighted_bce)

from oracles import encode_capped_then_trimmed, tws_scalar, vws_scalar, weighted_bce_scalar


TINY = dict(d_prime=8, d_node=8, d_m=8, d_s=8, embed_dim=8, max_sents=4, max_words=8,
            k_instances=2, batch_size=8, dropout=0.0, lr=5e-3)


def tiny_setup(tmp_path, n_docs=24, n_sections=3, seed=0, epochs=2, **overrides):
    facts_path, hier_path = write_synth(tmp_path, n_docs=n_docs, n_sections=n_sections,
                                        seed=seed)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, test = iterative_stratified_split(docs, SplitSpec(seed=seed))
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    config = TrainingConfig(epochs=epochs, seed=seed, **{**TINY, **overrides})
    model = Model(np.random.default_rng(seed), config, vocab, graph, hierarchy)
    return model, graph, train, val, test, hierarchy, vocab, config


class TestClassWeights:
    def test_vws_formula(self):
        npt.assert_allclose(class_weights_vws(np.array([1000]), 1000), [1.0])
        npt.assert_allclose(class_weights_vws(np.array([10]), 1000), [100.0])

    def test_vws_monotone(self, rng):
        freqs = rng.integers(1, 500, size=50)
        weights = class_weights_vws(freqs, 1000)
        order = np.argsort(freqs)
        assert (np.diff(weights[order]) <= 1e-12).all()
        npt.assert_allclose(weights, vws_scalar(freqs.tolist(), 1000), atol=1e-12)

    def test_tws_formula(self):
        npt.assert_allclose(class_weights_tws(np.array([1000, 100, 10]), 10.0), [1, 10, 10])

    def test_tws_equal_frequencies(self):
        npt.assert_allclose(class_weights_tws(np.array([7, 7, 7]), 10.0), [1, 1, 1])

    def test_uncited_section_fallbacks(self):
        npt.assert_allclose(class_weights_vws(np.array([0, 5]), 100), [100, 20])
        npt.assert_allclose(class_weights_tws(np.array([0, 5]), 4.0), [4.0, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 10_000), min_size=2, max_size=30), st.floats(1.0, 50.0))
    def test_tws_cap_property(self, freqs, eta):
        weights = class_weights_tws(np.array(freqs), eta)
        assert weights.max() <= eta + 1e-12
        assert (weights > 0).all()

    def test_tws_equals_capped_vws_when_fmax_is_n(self, rng):
        freqs = rng.integers(1, 200, size=20)
        n = int(freqs.max())
        npt.assert_allclose(class_weights_tws(freqs, 7.0),
                            np.minimum(class_weights_vws(freqs, n), 7.0))


class TestWeightedBce:
    def test_perfect_scores_vanish(self):
        y = np.array([[1.0, 0.0, 1.0]])
        scores = Tensor(np.array([[1.0, 0.0, 1.0]]))
        loss = weighted_bce(scores, y, np.ones(3))
        assert loss.item() < 1e-5

    def test_single_midpoint(self):
        loss = weighted_bce(Tensor(np.array([[0.5]])), np.array([[1.0]]), np.ones(1))
        npt.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(20):
            b, s = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            scores = rng.uniform(0.01, 0.99, size=(b, s))
            y = (rng.random((b, s)) > 0.5).astype(float)
            w = rng.uniform(0.5, 10.0, size=s)
            got = weighted_bce(Tensor(scores), y, w).item()
            expected = weighted_bce_scalar(scores.tolist(), y.tolist(), w.tolist())
            npt.assert_allclose(got, expected, atol=1e-9)

    def test_normalized_by_batch_not_sections(self, rng):
        scores = np.full((2, 4), 0.5)
        loss = weighted_bce(Tensor(scores), np.ones((2, 4)), np.ones(4)).item()
        npt.assert_allclose(loss, 4 * np.log(2.0), atol=1e-12)  # |S| survives

    def test_finite_at_exact_zero_one(self):
        scores = Tensor(np.array([[0.0, 1.0]]))
        y = np.array([[1.0, 0.0]])
        loss = weighted_bce(scores, y, np.ones(2))
        assert np.isfinite(loss.item())


class TestCombinedLoss:
    def config(self, **kw):
        return TrainingConfig(**{**TINY, **kw})

    def test_arithmetic(self):
        cfg = self.config(theta_a=1.0, theta_s=2.0, theta_l=3.0)
        total = combined_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), cfg)
        npt.assert_allclose(total.item(), 6.0)

    def test_random_arithmetic(self, rng):
        for _ in range(10):
            a, s, l = rng.uniform(0, 5, size=3)
            cfg = self.config(theta_a=float(rng.uniform(0, 2)), theta_s=float(rng.uniform(0, 2)),
                              theta_l=float(rng.uniform(0, 2)))
            got = combined_loss(Tensor(a), Tensor(s), Tensor(l), cfg).item()
            npt.assert_allclose(got, cfg.theta_a * a + cfg.theta_s * s + cfg.theta_l * l,
                                atol=1e-12)

    def test_zero_theta_s_matches_dropping_the_term(self, rng):
        # gradient through the structural branch is identically zero
        scores_s = Parameter(rng.uniform(0.2, 0.8, size=(2, 3)))
        scores_a = Parameter(rng.uniform(0.2, 0.8, size=(2, 3)))
        y = (rng.random((2, 3)) > 0.5).astype(float)
        w = np.ones(3)
        cfg = self.config(theta_s=0.0)

        loss_with = combined_loss(weighted_bce(scores_a, y, w), weighted_bce(scores_s, y, w),
                                  weighted_bce(scores_a, y, w), cfg)
        loss_with.backward()
        assert scores_s.grad is None or np.allclose(scores_s.grad, 0.0)
        grad_a_with = scores_a.grad.copy()

        scores_a.grad = None
        loss_without = combined_loss(weighted_bce(scores_a, y, w), None,
                                     weighted_bce(scores_a, y, w), cfg)
        loss_without.backward()
        npt.assert_allclose(loss_with.item(), loss_without.item(), atol=1e-12)
        npt.assert_array_equal(grad_a_with, scores_a.grad)


class TestConfigValidation:
    def test_defaults_echo_published_values(self):
        cfg = TrainingConfig()
        assert (cfg.theta_a, cfg.theta_s, cfg.theta_l) == (1.0, 2.0, 3.0)
        assert (cfg.lambda_a, cfg.lambda_l) == (0.25, 0.75)
        assert cfg.tau == 0.65
        assert cfg.eta == 10.0
        assert cfg.k_instances == 8
        assert cfg.batch_size == 32
        assert cfg.epochs == 100
        assert cfg.dropout == 0.5
        assert cfg.d_prime == 200 and cfg.embed_dim == 200
        assert 1e-6 <= cfg.lr <= 1e-2

    @pytest.mark.parametrize("bad", [
        {"tau": 0.0}, {"tau": 1.0}, {"eta": 0.5}, {"lr": 0.5}, {"lr": 1e-9},
        {"theta_a": -1.0}, {"lambda_a": 0.0, "lambda_l": 0.0}, {"weighting": "nope"},
        {"dropout": -0.5}, {"dropout": 1.0}, {"dropout": 1.5},
        {"batch_size": 0}, {"batch_size": -3}, {"epochs": -3}, {"structural": "bogus"},
        {"d_prime": 7},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad)

    @pytest.mark.parametrize("name", ["embed_dim", "d_prime", "d_node", "d_m", "d_s",
                                      "max_sents", "max_words", "k_instances"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_degenerate_sizes_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            TrainingConfig(**{**TINY, name: value})

    def test_dropout_and_batch_size_edges_accepted(self):
        cfg = TrainingConfig(dropout=0.0, batch_size=1)
        assert (cfg.dropout, cfg.batch_size) == (0.0, 1)

    def test_ablations(self):
        cfg = TrainingConfig(**TINY)
        assert cfg.with_ablation("E").structural == "lookup"
        assert cfg.with_ablation("S").theta_s == 0.0
        assert cfg.with_ablation("V").weighting == "vws"
        assert cfg.with_ablation("full") is cfg


class TestTrainLoop:
    def test_loss_decreases_on_most_seeds(self, tmp_path):
        improved = 0
        for seed in range(5):
            model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(
                tmp_path / f"s{seed}", n_docs=20, n_sections=3, seed=seed, epochs=2)
            result = train_model(model, train, val)
            if result.log[1]["loss"] < result.log[0]["loss"]:
                improved += 1
        assert improved >= 4

    def test_zero_thetas_leave_parameters_unchanged(self, tmp_path):
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(
            tmp_path, epochs=1, theta_a=0.0, theta_s=0.0, theta_l=0.0)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        train_model(model, train, val)
        # the best-epoch state is restored, so compare raw arrays
        for name, arr in model.state_arrays().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_epoch_one_deterministic_under_seed(self, tmp_path):
        runs = []
        for _ in range(2):
            model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(
                tmp_path / "det", n_docs=20, epochs=1, dropout=0.5)
            result = train_model(model, train, val)
            runs.append(result.log[0])
        assert runs[0] == runs[1]

    def test_tied_validation_keeps_the_last_epoch(self, tmp_path, monkeypatch):
        # a run whose validation F1 never moves keeps its most trained weights
        monkeypatch.setattr(training, "macro_prf", lambda *args, **kwargs: (0.0, 0.0, 0.0))
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=3)
        seen = []
        result = train_model(model, train, val,
                             log_hook=lambda record: seen.append(model.state_arrays()))
        assert result.best_epoch == config.epochs - 1
        for name, arr in model.state_arrays().items():
            npt.assert_array_equal(arr, seen[-1][name], err_msg=name)

    def test_paper_defaults_train_on_real_extent_only(self, tmp_path, monkeypatch):
        # 200-d, 128 x 64 caps: each HAN call must end at a real sentence and a
        # real word; the spy fails before a padded batch can exhaust memory
        calls = []
        encode = TextEncoder.__call__

        def spy(self, grids, masks, *args, **kwargs):
            calls.append(masks.shape)
            assert masks[:, -1, :].any(), f"trailing padding sentence in {masks.shape}"
            assert masks[:, :, -1].any(), f"trailing padding word in {masks.shape}"
            return encode(self, grids, masks, *args, **kwargs)

        monkeypatch.setattr(TextEncoder, "__call__", spy)
        facts_path, hier_path = write_synth(tmp_path, n_docs=60, n_sections=4, seed=0)
        hierarchy = load_hierarchy(hier_path)
        docs = load_facts(facts_path, hierarchy)
        train, val, _ = iterative_stratified_split(docs, SplitSpec(seed=0))
        graph = build_citation_graph(train, hierarchy)
        vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
        config = TrainingConfig(epochs=1)
        assert (config.d_prime, config.max_sents, config.max_words) == (200, 128, 64)
        model = Model(np.random.default_rng(0), config, vocab, graph, hierarchy)
        result = train_model(model, train, val)
        (record,) = result.log
        assert all(np.isfinite(record[k]) for k in
                   ("loss_attribute", "loss_structural", "loss_alignment", "loss"))
        n_batches = -(-len(train) // config.batch_size)
        # per batch the facts, then the sections; at validation the sections
        # once, then each val fact
        assert len(calls) == 2 * n_batches + 1 + len(val)
        sections = encode_capped_then_trimmed(hierarchy.sections, vocab, config.max_sents,
                                              config.max_words)[1].shape
        assert calls[1 : 2 * n_batches : 2] == [sections] * n_batches

    def test_batches_are_encoded_as_they_are_taken(self, tmp_path, monkeypatch):
        # no grid of the whole training split is ever built: each encode
        # call inside train_model takes one batch or one validation fact
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=2)
        assert len(train) > config.batch_size
        sizes = []
        encode = training.encode_corpus

        def spy(docs, *args, **kwargs):
            sizes.append(len(docs))
            return encode(docs, *args, **kwargs)

        monkeypatch.setattr(training, "encode_corpus", spy)
        train_model(model, train, val)
        n_batches = -(-len(train) // config.batch_size)
        assert len(sizes) == config.epochs * (n_batches + len(val))
        assert max(sizes) <= config.batch_size
        assert sum(sizes) == config.epochs * (len(train) + len(val))

    def test_no_tape_of_a_batch_outlives_its_backward(self, tmp_path, monkeypatch):
        # backward consumes the graph, so the next batch's forward starts with
        # no recorded node of the last batch alive, though train_model still
        # holds that batch's loss
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        assert -(-len(train) // config.batch_size) == 2
        live = []
        forward = Model.forward

        def spy(self, *args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, Tensor) and bool(o._parents)
                            for o in gc.get_objects()))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", spy)
        train_model(model, train, val)
        assert len(live) == 2
        assert live[1] == live[0]

    def test_walk_memo_keeps_one_entry_per_schema_and_k(self, tmp_path, monkeypatch):
        # each batch walks new facts; the memo must not keep the earlier ones
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=2)
        assert len(train) > config.batch_size
        memos = []
        validate = training.predict_corpus

        def spy(*args, **kwargs):  # at the end of each epoch's batches
            memos.append([key[:2] for key in graph._walk_cache])
            return validate(*args, **kwargs)

        monkeypatch.setattr(training, "predict_corpus", spy)
        train_model(model, train, val)
        assert len(memos) == config.epochs
        for pairs in memos:
            assert any(schema.startswith("F") for schema, _ in pairs)
            assert len(pairs) == len(set(pairs)), pairs

    def test_nan_attention_context_diverges_at_the_first_batch(self, tmp_path):
        # a NaN score must reach the loss, not vanish into all-zero weights
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        model.scorer.att_ctx.data[:] = np.nan
        with pytest.raises(DivergenceError, match="epoch 0 batch 0:"):
            train_model(model, train, val)

    def test_divergence_aborts_with_diagnostic(self, tmp_path):
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        model.scorer.classifier_b.data[:] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            train_model(model, train, val)


class TestPrediction:
    def test_threshold_arithmetic(self, tmp_path, monkeypatch):
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        fixed = {
            "attr": np.array([0.8, 1.0, 0.2]),
            "align": np.array([0.8, 0.5, 0.2]),
        }
        monkeypatch.setattr(model, "score_one",
                            lambda state, grid, mask: (fixed["attr"], fixed["align"]))
        preds, scores = predict_corpus(model, [train[0]])
        # 0.25*0.8 + 0.75*0.8 = 0.8 >= 0.65 predicted
        # 0.25*1.0 + 0.75*0.5 = 0.625 < 0.65 not predicted
        npt.assert_allclose(scores[0], [0.8, 0.625, 0.2])
        assert preds[0] == {hierarchy.section_ids[0]}

    def test_recall_tuned_threshold_is_config_change(self, tmp_path, monkeypatch):
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        monkeypatch.setattr(model, "score_one",
                            lambda state, grid, mask: (np.array([0.8, 1.0, 0.2]),
                                                       np.array([0.8, 0.5, 0.2])))
        preds, _ = predict_corpus(model, [train[0]], tau=0.3)
        assert preds[0] == {hierarchy.section_ids[0], hierarchy.section_ids[1]}

    def test_predict_never_touches_fact_neighbourhoods(self, tmp_path):
        model, graph, train, val, test, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        graph.recorder = []
        predict_corpus(model, test)
        test_ids = {d.id for d in test}
        assert not (set(graph.recorder) & test_ids)
        queried_facts = {n for n in graph.recorder if graph.phi(n) == "F"}
        train_ids = {d.id for d in train}
        assert queried_facts <= train_ids


class TestTuneThreshold:
    def test_single_value_grid(self, tmp_path):
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(tmp_path, epochs=1)
        assert tune_threshold(model, val, grid=(0.4,)) == 0.4

    def test_returns_grid_maximum(self, tmp_path):
        from lexcite.metrics import macro_prf
        model, graph, train, val, _, hierarchy, vocab, config = tiny_setup(
            tmp_path, n_docs=40, epochs=2)
        train_model(model, train, val)
        tau = tune_threshold(model, val)
        _, scores = predict_corpus(model, val)
        golds = [d.labels for d in val]

        def f1_at(t):
            preds = [{hierarchy.section_ids[i] for i in np.flatnonzero(row >= t)}
                     for row in scores]
            return macro_prf(preds, golds, hierarchy.section_ids)[2]

        best = max(f1_at(t) for t in np.arange(0.05, 0.951, 0.05))
        npt.assert_allclose(f1_at(tau), best, atol=1e-12)
