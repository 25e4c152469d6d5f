import zipfile
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from lexcite.autodiff import no_grad
from lexcite.corpus import (StatuteHierarchy, build_vocab, encode_corpus, load_facts,
                            load_hierarchy)
from lexcite.graph import build_citation_graph
from lexcite.han import TextEncoder, trim_to_extent
from lexcite.model import Model
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import write_synth
from lexcite.training import TrainingConfig, load_checkpoint, save_checkpoint, train_model

from oracles import forward_concatenated


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    facts_path, hier_path = write_synth(tmp, n_docs=30, n_sections=4, seed=0)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, test = iterative_stratified_split(docs, SplitSpec(seed=0))
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    config = TrainingConfig(d_prime=8, d_node=8, d_m=8, d_s=8, embed_dim=8, max_sents=4,
                            max_words=8, k_instances=2, batch_size=8, dropout=0.0,
                            epochs=1, lr=5e-3, seed=0)
    model = Model(np.random.default_rng(0), config, vocab, graph, hierarchy)
    return model, graph, train, val, test, hierarchy, vocab, config


def test_forward_shapes(setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    grids, masks = encode_corpus(train[:5], vocab, config.max_sents, config.max_words)
    with no_grad():
        triple = model.forward(grids, masks, sample_seed=0, fact_ids=[d.id for d in train[:5]],
                               training=True)
    n_sections = len(hierarchy.section_ids)
    assert triple.attribute.shape == (5, n_sections)
    assert triple.alignment.shape == (5, n_sections)
    assert triple.structural.shape == (5, n_sections)
    for part in (triple.attribute, triple.alignment, triple.structural):
        assert ((part.data > 0) & (part.data < 1)).all()


def test_forward_matches_one_concatenated_call(setup):
    # facts and sections in their own text-encoder calls score as one joint
    # call trimmed to the longest of them, up to rounding
    model, graph, train, _, _, hierarchy, vocab, config = setup
    batch = train[:6]
    grids, masks = encode_corpus(batch, vocab, config.max_sents, config.max_words)
    fact_ids = [d.id for d in batch]
    with no_grad():
        got = model.forward(grids, masks, sample_seed=3, fact_ids=fact_ids, training=True)
        want = forward_concatenated(model, grids, masks, sample_seed=3, fact_ids=fact_ids)
    for name in ("attribute", "structural", "alignment"):
        npt.assert_allclose(getattr(got, name).data, getattr(want, name).data, rtol=0,
                            atol=1e-12, err_msg=name)


def test_sections_are_stored_at_their_own_extent(setup):
    model, _, _, _, _, hierarchy, vocab, config = setup
    grids, masks = trim_to_extent(*encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                                 config.max_words))
    npt.assert_array_equal(model.section_grids, grids)
    npt.assert_array_equal(model.section_masks, masks)
    assert model.section_grids.base is None  # the cap-shape grid is not kept alive


def test_dropout_of_a_fact_ignores_its_batch_mates(setup, monkeypatch):
    # a training fact's sentence- and document-level multipliers, and so its
    # encoding, are the same beside a long and beside a short batch-mate
    _, graph, train, _, _, hierarchy, vocab, config = setup
    cfg = replace(config, max_sents=16, max_words=16, dropout=0.5)
    model = Model(np.random.default_rng(0), cfg, vocab, graph, hierarchy)
    by_length = sorted(train, key=lambda d: (len(d.sentences), max(map(len, d.sentences))))
    fact, short, long_ = by_length[len(by_length) // 2], by_length[0], by_length[-1]
    seen = []
    encode = TextEncoder.__call__

    def spy(self, grids, masks, keep=None, **kwargs):
        out = encode(self, grids, masks, keep=keep, **kwargs)
        seen.append((masks.shape, keep, out.data))
        return out

    monkeypatch.setattr(TextEncoder, "__call__", spy)
    for mate in (long_, short):
        grids, masks = encode_corpus([fact, mate], vocab, cfg.max_sents, cfg.max_words)
        model.forward(grids, masks, sample_seed=0, training=True,
                      dropout_rng=np.random.default_rng(7))
    (long_shape, long_keep, long_out), _, (short_shape, short_keep, short_out), _ = seen
    assert long_shape != short_shape
    npt.assert_array_equal(long_keep[0][0], short_keep[0][0])  # sentence level, at the cap
    npt.assert_array_equal(long_keep[1][0], short_keep[1][0])  # document level
    assert (long_keep[0][0] == 0).any() and (long_keep[1][0] == 0).any()
    npt.assert_allclose(long_out[0], short_out[0], rtol=0, atol=1e-12)


def test_fact_structural_requires_training_flag(setup):
    model, graph, train, _, _, hierarchy, vocab, config = setup
    grids, masks = encode_corpus(train[:2], vocab, config.max_sents, config.max_words)
    with pytest.raises(ValueError, match="training-only"):
        model.forward(grids, masks, sample_seed=0, fact_ids=[d.id for d in train[:2]],
                      training=False)


def test_inference_path_matches_training_scores(setup):
    model, graph, train, _, _, hierarchy, vocab, config = setup
    doc = train[0]
    grids, masks = encode_corpus([doc], vocab, config.max_sents, config.max_words)
    with no_grad():
        triple = model.forward(grids, masks, sample_seed=config.seed)
    state = model.prepare_inference()
    o_attr, o_align = model.score_one(state, grids[0], masks[0])
    npt.assert_allclose(o_attr, triple.attribute.data[0], atol=1e-12)
    npt.assert_allclose(o_align, triple.alignment.data[0], atol=1e-12)


def test_checkpoint_roundtrip(tmp_path, setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, extra={"note": "x"})
    restored, meta = load_checkpoint(path, graph, hierarchy)
    assert restored.vocab.tokens == vocab.tokens
    assert meta["extra"]["note"] == "x"
    assert "model_spec" not in meta
    assert restored.config == model.config
    for name, arr in model.state_arrays().items():
        npt.assert_array_equal(restored.state_arrays()[name], arr, err_msg=name)

    grids, masks = encode_corpus([test[0]], vocab, config.max_sents, config.max_words)
    s1 = model.prepare_inference()
    s2 = restored.prepare_inference()
    npt.assert_array_equal(model.score_one(s1, grids[0], masks[0])[0],
                           restored.score_one(s2, grids[0], masks[0])[0])


def test_compressed_checkpoint_still_loads(tmp_path, setup):
    # checkpoints are written uncompressed; older ones were compressed
    model, graph, *_, hierarchy, _, _ = setup
    path, packed = tmp_path / "ckpt.npz", tmp_path / "compressed.npz"
    save_checkpoint(path, model, extra={"note": "x"})
    with zipfile.ZipFile(path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path) as blob:
        np.savez_compressed(packed, **{k: blob[k] for k in blob.files})
    with zipfile.ZipFile(packed) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    restored, meta = load_checkpoint(packed, graph, hierarchy)
    assert meta["extra"]["note"] == "x"
    for name, arr in model.state_arrays().items():
        npt.assert_array_equal(restored.state_arrays()[name], arr, err_msg=name)


def test_checkpoint_rejects_wrong_graph(tmp_path, setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    other_facts, other_hier = write_synth(tmp_path, n_docs=10, n_sections=4, seed=9)
    hierarchy2 = load_hierarchy(other_hier)
    docs2 = load_facts(other_facts, hierarchy2)
    graph2 = build_citation_graph(docs2, hierarchy2)
    with pytest.raises(ValueError, match="shape mismatch|parameter mismatch"):
        load_checkpoint(path, graph2, hierarchy)


def test_checkpoint_rejects_reordered_hierarchy(tmp_path, setup):
    # the classifier's columns follow the stored section order
    model, graph, train, val, test, hierarchy, vocab, config = setup
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    reordered = StatuteHierarchy(hierarchy.act_id, hierarchy.chapters, hierarchy.topics,
                                 hierarchy.sections[::-1], hierarchy.parent)
    with pytest.raises(ValueError, match="section order"):
        load_checkpoint(path, graph, reordered)


def test_lookup_variant_trains(setup, tmp_path):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    cfg = replace(config, structural="lookup", epochs=1)
    lookup_model = Model(np.random.default_rng(0), cfg, vocab, graph, hierarchy)
    result = train_model(lookup_model, train, val)
    assert len(result.log) == 1
    assert np.isfinite(result.log[0]["loss"])


def test_caps_are_caps_not_shapes(setup):
    # a fact and sections that fit within caps (S, W) score bitwise-equally at
    # those caps and at the paper's 128 x 64: every grid is cut to its real extent
    model, graph, train, _, _, hierarchy, vocab, config = setup
    doc = train[0]
    texts = [doc] + list(hierarchy.sections)
    s_cap = max(len(t.sentences) for t in texts)
    w_cap = max(len(s) for t in texts for s in t.sentences)
    assert s_cap < 128 and w_cap < 64
    outputs = []
    for caps in ((s_cap, w_cap), (128, 64)):
        capped = Model(np.random.default_rng(0),
                       replace(config, max_sents=caps[0], max_words=caps[1]),
                       vocab, graph, hierarchy)
        grids, masks = encode_corpus([doc], vocab, *caps)
        state = capped.prepare_inference()
        outputs.append(capped.score_one(state, grids[0], masks[0]))
    for at_fit, at_paper in zip(*outputs):
        npt.assert_array_equal(at_fit, at_paper)


def test_all_padding_fact_rejected_after_trimming(setup):
    model, graph, _, _, _, hierarchy, vocab, config = setup
    state = model.prepare_inference()
    grid = np.zeros((config.max_sents, config.max_words), dtype=np.int64)
    with pytest.raises(ValueError, match="all-padding"):
        model.score_one(state, grid, np.zeros_like(grid, dtype=bool))
