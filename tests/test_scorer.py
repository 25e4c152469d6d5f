import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import Parameter, Tensor, no_grad
from lexcite.scorer import MatchScorer

from oracles import (attention_pool_scalar, fd_gradients, lstm_scalar, matvec_scalar,
                     max_rel_error)


def scorer(rng, n_sections=3, d=4):
    return MatchScorer(rng, n_sections, d_prime=d, d_s=d)


def pair(sc, h_attr, h_struct):
    """The contextualized (attribute, structural) section pair score_triple takes."""
    return sc.contextualize_sections(ad.stack([h_attr, h_struct], axis=0))


class TestContextualize:
    def test_singleton_sequence(self, rng):
        sc = scorer(rng, n_sections=1, d=2)
        x = Tensor(rng.normal(size=(1, 1, 2)))
        with no_grad():
            out = sc.contextualize_sections(x)
        p = {k: v.data for k, v in sc.seq.params.items()}
        fw = lstm_scalar([x.data[0, 0].tolist()], p["scorer.seq.fw.W"], p["scorer.seq.fw.U"],
                         p["scorer.seq.fw.b"], 2)[0]
        bw = lstm_scalar([x.data[0, 0].tolist()], p["scorer.seq.bw.W"], p["scorer.seq.bw.U"],
                         p["scorer.seq.bw.b"], 2)[0]
        state = fw + bw
        expected = [sum(state[i] * sc.seq_proj.data[i, j] for i in range(4)) +
                    sc.seq_proj_b.data[j] for j in range(2)]
        npt.assert_allclose(out.data[0, 0], expected, atol=1e-9)

    def test_order_sensitivity(self, rng):
        sc = scorer(rng, n_sections=4, d=4)
        x = rng.normal(size=(1, 4, 4))
        with no_grad():
            fwd = sc.contextualize_sections(Tensor(x)).data
            rev = sc.contextualize_sections(Tensor(x[:, ::-1, :].copy())).data
        assert not np.allclose(fwd, rev[:, ::-1, :])

    def test_matches_scalar_recurrence_length_three(self, rng):
        sc = scorer(rng, n_sections=3, d=2)
        x = Tensor(rng.normal(size=(1, 3, 2)))
        with no_grad():
            out = sc.contextualize_sections(x)
        p = {k: v.data for k, v in sc.seq.params.items()}
        seq = [x.data[0, t].tolist() for t in range(3)]
        fw = lstm_scalar(seq, p["scorer.seq.fw.W"], p["scorer.seq.fw.U"],
                         p["scorer.seq.fw.b"], 2)
        bw = lstm_scalar(seq[::-1], p["scorer.seq.bw.W"], p["scorer.seq.bw.U"],
                         p["scorer.seq.bw.b"], 2)[::-1]
        for t in range(3):
            state = fw[t] + bw[t]
            expected = [sum(state[i] * sc.seq_proj.data[i, j] for i in range(4)) +
                        sc.seq_proj_b.data[j] for j in range(2)]
            npt.assert_allclose(out.data[0, t], expected, atol=1e-9)


class TestPoolSections:
    def test_identical_rows_pool_uniformly(self, rng):
        sc = scorer(rng, d=4)
        row = rng.normal(size=4)
        ctx = Tensor(np.tile(row, (5, 1)))
        facts = Tensor(rng.normal(size=(2, 4)))
        with no_grad():
            pooled, gamma = sc.pool_sections(ctx, sc.fact_context(facts))
        npt.assert_allclose(gamma.data, np.full((2, 5), 0.2), atol=1e-12)
        npt.assert_allclose(pooled.data, np.tile(row, (2, 1)), atol=1e-12)

    def test_single_section(self, rng):
        sc = scorer(rng, n_sections=1, d=4)
        ctx = Tensor(rng.normal(size=(1, 4)))
        facts = Tensor(rng.normal(size=(2, 4)))
        with no_grad():
            pooled, gamma = sc.pool_sections(ctx, sc.fact_context(facts))
        npt.assert_allclose(gamma.data, [[1.0], [1.0]])
        npt.assert_allclose(pooled.data, np.tile(ctx.data[0], (2, 1)))

    def test_matches_scalar_oracle(self, rng):
        sc = scorer(rng, d=3)
        vecs = rng.normal(size=(3, 3))
        facts = rng.normal(size=(2, 3))
        with no_grad():
            pooled, gamma = sc.pool_sections(Tensor(vecs), sc.fact_context(Tensor(facts)))
        for i, h_f in enumerate(facts):
            expected, weights = attention_pool_scalar(
                vecs.tolist(), sc.att_m.data.T.tolist(), sc.att_b.data.tolist(),
                matvec_scalar(sc.att_ctx.data.T.tolist(), h_f.tolist()))
            npt.assert_allclose(gamma.data[i], weights, atol=1e-9)
            npt.assert_allclose(pooled.data[i], expected, atol=1e-9)

    def test_gamma_sums_to_one(self, rng):
        sc = scorer(rng, d=4)
        ctx = Tensor(rng.normal(size=(6, 4)))
        facts = Tensor(rng.normal(size=(3, 4)))
        with no_grad():
            _, gamma = sc.pool_sections(ctx, sc.fact_context(facts))
        npt.assert_allclose(gamma.data.sum(axis=1), np.ones(3), atol=1e-12)


class TestScore:
    def test_zero_classifier_scores_half(self, rng):
        sc = scorer(rng, n_sections=4, d=3)
        sc.classifier_w.data[:] = 0.0
        sc.classifier_b.data[:] = 0.0
        with no_grad():
            out = sc.score(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
        npt.assert_allclose(out.data, 0.5)

    def test_monotone_in_bias(self, rng):
        sc = scorer(rng, n_sections=3, d=3)
        h_f = Tensor(rng.normal(size=(1, 3)))
        h_s = Tensor(rng.normal(size=(1, 3)))
        values = []
        for shift in (0.0, 2.0, 5.0, 20.0):
            sc.classifier_b.data[1] = shift
            with no_grad():
                values.append(sc.score(h_f, h_s).data[0, 1])
        assert values == sorted(values)
        assert values[-1] > 0.99

    def test_strictly_interior(self, rng):
        sc = scorer(rng, n_sections=3, d=3)
        with no_grad():
            out = sc.score(Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 3)))).data
        assert (out > 0).all() and (out < 1).all()

    def test_matches_scalar_oracle(self, rng):
        sc = scorer(rng, n_sections=2, d=2)
        h_f = rng.normal(size=2)
        h_s = rng.normal(size=2)
        with no_grad():
            out = sc.score(Tensor(h_f[None]), Tensor(h_s[None])).data[0]
        cat = h_f.tolist() + h_s.tolist()
        logits = [v + b for v, b in zip(matvec_scalar(sc.classifier_w.data.T.tolist(), cat),
                                        sc.classifier_b.data.tolist())]
        expected = [1.0 / (1.0 + np.exp(-v)) for v in logits]
        npt.assert_allclose(out, expected, atol=1e-9)


class TestDynamicContext:
    """The pooling context the model derives from fact embeddings
    (MatchScorer.fact_context); the structural side's per-schema and
    inter-schema contexts are checked in test_structural's dynamic
    composition test."""

    def test_identity_blocks_tile_embedding(self, rng):
        d = 3
        sc = scorer(rng, d=d)
        sc.att_ctx.data = np.eye(d)
        h = Tensor(rng.normal(size=(2, d)))
        with no_grad():
            npt.assert_allclose(sc.fact_context(h).data, h.data)

    def test_zero_embedding_gives_zero_contexts(self, rng):
        sc = scorer(rng, d=3)
        with no_grad():
            npt.assert_allclose(sc.fact_context(Tensor(np.zeros((2, 3)))).data, 0.0)

    def test_matches_scalar_matvec(self, rng):
        d = 3
        sc = scorer(rng, d=d)
        h = rng.normal(size=(1, d))
        with no_grad():
            got = sc.fact_context(Tensor(h)).data[0]
        npt.assert_allclose(got, matvec_scalar(sc.att_ctx.data.T.tolist(), h[0].tolist()),
                            atol=1e-12)


class TestScoreTriple:
    def test_inference_has_no_structural_score(self, rng):
        sc = scorer(rng, n_sections=3, d=4)
        h_f = Tensor(rng.normal(size=(2, 4)))
        h_attr = Tensor(rng.normal(size=(3, 4)))
        h_struct = Tensor(rng.normal(size=(3, 4)))
        with no_grad():
            triple = sc.score_triple(h_f, pair(sc, h_attr, h_struct))
        assert triple.structural is None
        assert triple.attribute.shape == (2, 3)
        assert triple.alignment.shape == (2, 3)

    def test_identical_embeddings_collapse_scores(self, rng):
        sc = scorer(rng, n_sections=3, d=4)
        h_f = Tensor(rng.normal(size=(2, 4)))
        h_s = Tensor(rng.normal(size=(3, 4)))
        with no_grad():
            triple = sc.score_triple(h_f, pair(sc, h_s, h_s), h_f)
        npt.assert_array_equal(triple.attribute.data, triple.alignment.data)
        npt.assert_array_equal(triple.attribute.data, triple.structural.data)

    def test_one_parameter_set_serves_all_scores(self, rng):
        # no score-type-specific parameters exist: nudging the shared
        # classifier moves every score
        sc = scorer(rng, n_sections=3, d=4)
        names = set(sc.parameters())
        assert not any("attribute" in n or "alignment" in n for n in names)
        h_f = Tensor(rng.normal(size=(1, 4)))
        h_attr = Tensor(rng.normal(size=(3, 4)))
        h_struct = Tensor(rng.normal(size=(3, 4)))
        with no_grad():
            before = sc.score_triple(h_f, pair(sc, h_attr, h_struct), h_f)
            sc.classifier_b.data += 0.5
            after = sc.score_triple(h_f, pair(sc, h_attr, h_struct), h_f)
        for name in ("attribute", "alignment", "structural"):
            assert not np.allclose(getattr(before, name).data, getattr(after, name).data)

    def test_gradients_match_finite_differences(self, rng):
        sc = scorer(rng, n_sections=3, d=4)
        h_f = Parameter(rng.normal(size=(2, 4)))
        h_fs = Parameter(rng.normal(size=(2, 4)))
        h_attr = Parameter(rng.normal(size=(3, 4)))
        h_struct = Parameter(rng.normal(size=(3, 4)))
        params = dict(sc.parameters())
        params.update({"h_f": h_f, "h_fs": h_fs, "h_attr": h_attr, "h_struct": h_struct})
        y = (rng.random((2, 3)) > 0.5).astype(float)

        def loss_tensor():
            triple = sc.score_triple(h_f, pair(sc, h_attr, h_struct), h_fs)
            total = Tensor(0.0)
            for part in (triple.attribute, triple.alignment, triple.structural):
                clamped = ad.clip(part, 1e-7, 1 - 1e-7)
                total = ad.add(total, ad.tsum(ad.add(
                    ad.mul(ad.log(clamped), y), ad.mul(ad.log(ad.sub(1.0, clamped)), 1 - y))))
            return ad.mul(total, -0.5)

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
