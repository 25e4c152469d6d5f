import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import no_grad
from lexcite.han import TextEncoder

from oracles import attention_pool_scalar, fd_gradients, gru_scalar, max_rel_error


def encoder(rng, vocab=10, embed=4, out=4, dropout=0.0):
    return TextEncoder(rng, vocab, embed, out, dropout=dropout)


def grids_from(sentences, max_sents, max_words):
    grid = np.zeros((max_sents, max_words), dtype=np.int64)
    mask = np.zeros((max_sents, max_words), dtype=bool)
    for i, sent in enumerate(sentences):
        grid[i, : len(sent)] = sent
        mask[i, : len(sent)] = True
    return grid[None], mask[None]


def test_odd_output_dim_rejected(rng):
    with pytest.raises(ValueError):
        TextEncoder(rng, 10, 4, 5)


def test_all_padding_grid_rejected(rng):
    enc = encoder(rng)
    grid = np.zeros((1, 2, 3), dtype=np.int64)
    mask = np.zeros((1, 2, 3), dtype=bool)
    with pytest.raises(ValueError, match="all-padding"):
        enc(grid, mask)


@pytest.mark.parametrize("gap", ["word", "sentence"])
def test_mask_that_is_not_a_prefix_is_rejected(rng, gap):
    enc = encoder(rng)
    grid, mask = grids_from([[2, 3, 4], [5, 6]], max_sents=3, max_words=4)
    if gap == "word":
        mask[0, 1, 0] = False  # a padded word before a real one
    else:
        grid[0, 2, 0], mask[0, 2, 0] = 7, True  # a real sentence after a padded one
        grid[0, 1], mask[0, 1] = 0, False
    with pytest.raises(ValueError, match=f"{gap} masks must be prefixes"):
        enc(grid, mask)


def test_word_level_runs_only_real_tokens(rng, monkeypatch):
    # the embedding lookup, both directions' input projections and the word
    # attention's projection each see exactly one row per real token
    enc = encoder(rng, out=6)
    g1, m1 = grids_from([[2, 3, 4], [5]], max_sents=4, max_words=5)
    g2, m2 = grids_from([[6, 7], [8, 9, 2, 3], [4]], max_sents=4, max_words=5)
    grids, masks = np.concatenate([g1, g2]), np.concatenate([m1, m2])
    word_weights = {id(enc.word_att_m), id(enc.word_rnn.params["han.word_rnn.fw.W"]),
                    id(enc.word_rnn.params["han.word_rnn.bw.W"])}
    rows = {"embedding": [], "word": []}
    embedding = ad.embedding

    def spy_embedding(table, idx):
        rows["embedding"].append(np.size(idx))
        return embedding(table, idx)

    def spy(op):
        def wrapper(a, b, *rest):
            if id(b) in word_weights:
                rows["word"].append(a.shape[0])
            return op(a, b, *rest)
        return wrapper

    monkeypatch.setattr(ad, "embedding", spy_embedding)
    for name in ("matmul", "affine"):  # a projection with a bias is one affine op
        monkeypatch.setattr(ad, name, spy(getattr(ad, name)))
    enc(grids, masks)
    assert masks.sum() == 11 < masks.size
    assert rows == {"embedding": [11], "word": [11, 11, 11]}


def test_single_sentence_gets_full_attention(rng):
    enc = encoder(rng)
    grid, mask = grids_from([[2, 3, 4]], max_sents=3, max_words=4)
    _, weights = enc(grid, mask, return_weights=True)
    npt.assert_allclose(weights["sentence"][0, 0], 1.0)
    npt.assert_allclose(weights["sentence"][0, 1:], 0.0)


def test_identical_sentences_symmetric_weights(rng):
    # symmetric initialization: both directions share parameters and the
    # attention projection treats the two halves identically
    enc = encoder(rng, out=6)
    for suffix in ("W", "U_zr", "U_n", "b"):
        enc.sent_rnn.params[f"han.sent_rnn.bw.{suffix}"].data = \
            enc.sent_rnn.params[f"han.sent_rnn.fw.{suffix}"].data.copy()
    half = 3
    m = enc.sent_att_m.data
    m[half:, :] = m[:half, :]
    grid, mask = grids_from([[2, 3], [2, 3]], max_sents=2, max_words=2)
    _, weights = enc(grid, mask, return_weights=True)
    npt.assert_allclose(weights["sentence"][0], [0.5, 0.5], atol=1e-12)


def test_word_attention_sums_to_one_on_real_rows(rng):
    enc = encoder(rng)
    grid, mask = grids_from([[2, 3, 4], [5, 6]], max_sents=3, max_words=4)
    _, weights = enc(grid, mask, return_weights=True)
    word = weights["word"][0]
    npt.assert_allclose(word[0].sum(), 1.0)
    npt.assert_allclose(word[1].sum(), 1.0)
    npt.assert_allclose(word[1, 2:], 0.0)  # padded words get zero mass
    npt.assert_allclose(word[2], 0.0)      # padded sentence row


def test_padding_extension_invariance(rng):
    enc = encoder(rng, out=6)
    small_grid, small_mask = grids_from([[2, 3, 4], [5, 6]], max_sents=2, max_words=3)
    big_grid, big_mask = grids_from([[2, 3, 4], [5, 6]], max_sents=5, max_words=7)
    with no_grad():
        out_small = enc(small_grid, small_mask).data
        out_big = enc(big_grid, big_mask).data
    npt.assert_allclose(out_big, out_small, atol=1e-6)


def test_batch_rows_are_independent(rng):
    enc = encoder(rng, out=6)
    g1, m1 = grids_from([[2, 3], [4, 5]], 2, 3)
    g2, m2 = grids_from([[6, 7, 8]], 2, 3)
    with no_grad():
        alone = enc(g1, m1).data
        together = enc(np.concatenate([g1, g2]), np.concatenate([m1, m2])).data
    npt.assert_array_equal(together[0], alone[0])


def test_matches_scalar_reference(rng):
    # d'=4, vocab 10: replay the recurrences and softmaxes with scalar loops
    enc = encoder(rng, vocab=10, embed=3, out=4)
    sentences = [[2, 5, 7], [1, 8]]
    grid, mask = grids_from(sentences, max_sents=3, max_words=3)
    with no_grad():
        out, weights = enc(grid, mask, return_weights=True)

    emb = enc.embedding.data
    p = {k: v.data for k, v in enc.parameters().items()}
    hidden = 2

    def bigru(seq_vecs, seq_mask, prefix):
        fw = gru_scalar(seq_vecs, seq_mask, p[f"{prefix}.fw.W"], p[f"{prefix}.fw.U_zr"],
                        p[f"{prefix}.fw.U_n"], p[f"{prefix}.fw.b"], hidden)
        bw = gru_scalar(seq_vecs[::-1], seq_mask[::-1], p[f"{prefix}.bw.W"],
                        p[f"{prefix}.bw.U_zr"], p[f"{prefix}.bw.U_n"], p[f"{prefix}.bw.b"],
                        hidden)[::-1]
        return [f + b for f, b in zip(fw, bw)]

    sent_vecs = []
    for row in range(3):
        words = [list(emb[grid[0, row, t]]) for t in range(3)]
        wmask = [1.0 if mask[0, row, t] else 0.0 for t in range(3)]
        if not any(wmask):
            sent_vecs.append([0.0] * 4)
            continue
        states = bigru(words, wmask, "han.word_rnn")
        pooled, _ = attention_pool_scalar(states, p["han.word_att.m"].T.tolist(),
                                          p["han.word_att.b"], p["han.word_att.ctx"],
                                          mask=[bool(m) for m in wmask])
        sent_vecs.append(pooled)

    smask = [1.0, 1.0, 0.0]
    sent_states = bigru(sent_vecs, smask, "han.sent_rnn")
    doc, sent_w = attention_pool_scalar(sent_states, p["han.sent_att.m"].T.tolist(),
                                        p["han.sent_att.b"], p["han.sent_att.ctx"],
                                        mask=[True, True, False])
    npt.assert_allclose(out.data[0], doc, atol=1e-9)
    npt.assert_allclose(weights["sentence"][0], sent_w, atol=1e-9)


def test_gradients_match_finite_differences(rng):
    enc = encoder(rng, vocab=8, embed=3, out=4)
    grid, mask = grids_from([[2, 3, 4], [5, 6]], max_sents=2, max_words=3)
    grid2, mask2 = grids_from([[7, 1]], max_sents=2, max_words=3)
    grids = np.concatenate([grid, grid2])
    masks = np.concatenate([mask, mask2])
    params = enc.parameters()

    def loss_tensor():
        return ad.tsum(ad.tanh(enc(grids, masks)))

    for p in params.values():
        p.grad = None
    loss_tensor().backward()

    def loss_value():
        with no_grad():
            return loss_tensor().item()

    numeric = fd_gradients(loss_value, params, h=1e-5)
    for name, p in params.items():
        analytic = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        err = max_rel_error(analytic, numeric[name])
        assert err <= 1e-4, f"{name}: rel error {err}"


def test_dropout_only_in_training(rng):
    enc = encoder(rng, dropout=0.5)
    grid, mask = grids_from([[2, 3]], 2, 2)
    with no_grad():
        a = enc(grid, mask).data
        b = enc(grid, mask).data
    npt.assert_array_equal(a, b)
    keep = enc.dropout_multipliers(np.random.default_rng(0), n_rows=1, max_sents=2)
    assert keep[0].shape == (1, 2, 4) and keep[1].shape == (1, 4)
    assert set(np.unique(np.concatenate([keep[0].ravel(), keep[1].ravel()]))) <= {0.0, 2.0}
    with no_grad():
        c = enc(grid, mask, keep=keep).data
    assert not np.allclose(a, c)
