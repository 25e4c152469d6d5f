import numpy as np
import numpy.testing as npt
import pytest

from lexcite.autodiff import no_grad
from lexcite.corpus import build_vocab, encode_corpus, load_facts, load_hierarchy
from lexcite.graph import build_citation_graph
from lexcite.model import Model
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import write_synth
from lexcite.training import TrainingConfig, load_checkpoint, save_checkpoint, train_model


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
    model = Model(np.random.default_rng(0), config, len(vocab), graph,
                  hierarchy.section_ids)
    return model, graph, train, val, test, hierarchy, vocab, config


def test_forward_shapes(setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    grids, masks = encode_corpus(train[:5], vocab, config.max_sents, config.max_words)
    sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                         config.max_words)
    with no_grad():
        triple = model.forward(graph, grids, masks, sec_grids, sec_masks, k=2, sample_seed=0,
                               fact_ids=[d.id for d in train[:5]], training=True)
    n_sections = len(hierarchy.section_ids)
    assert triple.attribute.shape == (5, n_sections)
    assert triple.alignment.shape == (5, n_sections)
    assert triple.structural.shape == (5, n_sections)
    for part in (triple.attribute, triple.alignment, triple.structural):
        assert ((part.data > 0) & (part.data < 1)).all()


def test_fact_structural_requires_training_flag(setup):
    model, graph, train, _, _, hierarchy, vocab, config = setup
    grids, masks = encode_corpus(train[:2], vocab, config.max_sents, config.max_words)
    sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                         config.max_words)
    with pytest.raises(ValueError, match="training-only"):
        model.forward(graph, grids, masks, sec_grids, sec_masks, k=2, sample_seed=0,
                      fact_ids=[d.id for d in train[:2]], training=False)


def test_inference_path_matches_training_scores(setup):
    model, graph, train, _, _, hierarchy, vocab, config = setup
    doc = train[0]
    grids, masks = encode_corpus([doc], vocab, config.max_sents, config.max_words)
    sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                         config.max_words)
    with no_grad():
        triple = model.forward(graph, grids, masks, sec_grids, sec_masks,
                               k=config.k_instances, sample_seed=config.seed)
    state = model.prepare_inference(graph, sec_grids, sec_masks, config.k_instances, config.seed)
    o_attr, o_align = model.score_one(state, grids[0], masks[0])
    npt.assert_allclose(o_attr, triple.attribute.data[0], atol=1e-12)
    npt.assert_allclose(o_align, triple.alignment.data[0], atol=1e-12)


def test_checkpoint_roundtrip(tmp_path, setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, vocab, extra={"note": "x"})
    restored, vocab2, meta = load_checkpoint(path, graph)
    assert vocab2.tokens == vocab.tokens
    assert meta["extra"]["note"] == "x"
    assert "model_spec" not in meta
    assert restored.config == model.config
    for name, arr in model.state_arrays().items():
        npt.assert_array_equal(restored.state_arrays()[name], arr, err_msg=name)

    sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                         config.max_words)
    grids, masks = encode_corpus([test[0]], vocab, config.max_sents, config.max_words)
    s1 = model.prepare_inference(graph, sec_grids, sec_masks, 2, 0)
    s2 = restored.prepare_inference(graph, sec_grids, sec_masks, 2, 0)
    npt.assert_array_equal(model.score_one(s1, grids[0], masks[0])[0],
                           restored.score_one(s2, grids[0], masks[0])[0])


def test_checkpoint_rejects_wrong_graph(tmp_path, setup):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, vocab)
    other_facts, other_hier = write_synth(tmp_path, n_docs=10, n_sections=4, seed=9)
    hierarchy2 = load_hierarchy(other_hier)
    docs2 = load_facts(other_facts, hierarchy2)
    graph2 = build_citation_graph(docs2, hierarchy2)
    with pytest.raises(ValueError, match="shape mismatch|parameter mismatch"):
        load_checkpoint(path, graph2)


def test_lookup_variant_trains(setup, tmp_path):
    model, graph, train, val, test, hierarchy, vocab, config = setup
    from dataclasses import replace
    cfg = replace(config, structural="lookup", epochs=1)
    lookup_model = Model(np.random.default_rng(0), cfg, len(vocab), graph,
                         hierarchy.section_ids)
    result = train_model(lookup_model, graph, train, val, hierarchy, vocab, cfg)
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
        sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, *caps)
        grids, masks = encode_corpus([doc], vocab, *caps)
        state = model.prepare_inference(graph, sec_grids, sec_masks, 2, 0)
        outputs.append(model.score_one(state, grids[0], masks[0]))
    for at_fit, at_paper in zip(*outputs):
        npt.assert_array_equal(at_fit, at_paper)


def test_all_padding_fact_rejected_after_trimming(setup):
    model, graph, _, _, _, hierarchy, vocab, config = setup
    sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, config.max_sents,
                                         config.max_words)
    state = model.prepare_inference(graph, sec_grids, sec_masks, 2, 0)
    grid = np.zeros((config.max_sents, config.max_words), dtype=np.int64)
    with pytest.raises(ValueError, match="all-padding"):
        model.score_one(state, grid, np.zeros_like(grid, dtype=bool))
