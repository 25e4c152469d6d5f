import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import Parameter, Tensor, no_grad
from lexcite.graph import NODE_TYPES, UnknownNodeError, build_citation_graph, default_schemas
from lexcite.structural import LookupEncoder, MetapathEncoder

from conftest import make_fact, make_hierarchy
from oracles import (fd_gradients, inter_aggregate_scalar, intra_aggregate_scalar,
                     matvec_scalar, max_rel_error, rotation_encode_scalar)
from test_graph import minimal_graph, paper_figure_graph, schema_by_id


def make_encoder(rng, graph, d=4):
    return MetapathEncoder(rng, graph, default_schemas(), d_node=d, d_prime=d, d_m=d)


def attr_rows(rng, n, d=4):
    """Random attribute embeddings for n nodes, the source of every context."""
    return Tensor(rng.normal(size=(n, d)))


def single_schema_encoder(graph, schema, d, seed=0):
    """An encoder over one schema with identity projections.

    A node's feature is then its embedding row, and with one schema the inter
    weight is exactly 1, so encode() returns that schema's pooled vector
    relu(sum_i alpha_i q_i) and return_weights exposes the intra alpha.
    """
    enc = MetapathEncoder(np.random.default_rng(seed), graph, [schema], d_node=d, d_prime=d,
                          d_m=d)
    for t in NODE_TYPES:
        enc.node_proj[t].data = np.eye(d)
    return enc


def randomize(enc, rng, low=None):
    """Fresh node embeddings and relation vectors: normal, or uniform in
    [low, 1] when `low` is given."""
    def draw(shape):
        return rng.normal(size=shape) if low is None else rng.uniform(low, 1.0, size=shape)

    for t in NODE_TYPES:
        enc.node_embed[t].data = draw(enc.node_embed[t].data.shape)
    enc.relation_vecs.data = draw(enc.relation_vecs.data.shape)


def feature(enc, graph, node):
    gi = graph.global_index(node)
    t = graph.node_type[gi]
    return (enc.node_embed[t].data @ enc.node_proj[t].data)[graph.type_index[gi]]


def rotation_oracle(enc, graph, schema, inst):
    rels = [enc.relation_vecs.data[enc.rel_index[r]].tolist() for r in schema.relations]
    return rotation_encode_scalar([feature(enc, graph, n).tolist() for n in inst.nodes], rels)


def encode_one(enc, graph, v, k, seed, attr=None):
    """(pooled vector, alpha row) of one node under a single-schema encoder.

    `attr` is the node's attribute embedding (d',); by default a normal draw
    seeded by `seed`.
    """
    if attr is None:
        attr = np.random.default_rng(seed).normal(size=enc.d_prime)
    with no_grad():
        out, weights = enc.encode(graph, [v], k=k, seed=seed, attr_embeddings=Tensor(attr[None]),
                                  return_weights=True)
    (sid,) = enc.schemas
    return out.data[0], weights[f"alpha.{sid}"][0]


def table_row(enc, graph, v):
    """h' of one node: its row of the transformed feature table."""
    g = graph.global_index(v)
    with no_grad():
        return enc.feature_table(graph.node_type[g]).data[graph.type_index[g]]


class TestNodeFeature:
    def test_identity_transform_returns_embedding_row(self, rng):
        g = minimal_graph()
        enc = make_encoder(rng, g)
        enc.node_proj["S"].data = np.eye(4)
        row = enc.node_embed["S"].data[g.type_index[g.global_index("S1")]]
        npt.assert_allclose(table_row(enc, g, "S1"), row)

    def test_zero_transform_gives_zero(self, rng):
        g = minimal_graph()
        enc = make_encoder(rng, g)
        enc.node_proj["F"].data[:] = 0.0
        npt.assert_allclose(table_row(enc, g, "F1"), 0.0)

    def test_matches_scalar_matvec(self, rng):
        g = minimal_graph()
        enc = MetapathEncoder(rng, g, default_schemas(), d_node=2, d_prime=3, d_m=3)
        x = enc.node_embed["T"].data[g.type_index[g.global_index("T1")]]
        w = enc.node_proj["T"].data
        got = table_row(enc, g, "T1")
        npt.assert_allclose(got, matvec_scalar(w.T.tolist(), x.tolist()), atol=1e-12)

    def test_unknown_node_is_hard_error(self, rng):
        g = minimal_graph()
        enc = make_encoder(rng, g)
        with pytest.raises(UnknownNodeError), no_grad():
            enc.encode(g, ["F_unseen"], k=2, seed=0, attr_embeddings=attr_rows(rng, 1))


class TestEncodeInstance:
    def test_ones_relations_reduce_to_prefix_sums(self, rng):
        # with r = 1 the recurrence is a running sum: q_M = h_0 + h_1 + h_2
        schema = schema_by_id("S-ctb-F-ct-S")
        g = paper_figure_graph()
        enc = single_schema_encoder(g, schema, d=2)
        randomize(enc, rng, low=0.1)  # positive, so the ReLU is the identity
        enc.relation_vecs.data[:] = 1.0
        inst = g.sample_instances("S1", schema, k=1, seed=0)[0]
        out, _ = encode_one(enc, g, "S1", k=1, seed=0)
        npt.assert_allclose(out, sum(feature(enc, g, n) for n in inst.nodes) / 3)

    def test_zero_relations_leave_target_only(self, rng):
        schema = schema_by_id("S-ctb-F-ct-S")
        g = minimal_graph()
        enc = single_schema_encoder(g, schema, d=3)
        randomize(enc, rng, low=0.1)
        enc.relation_vecs.data[:] = 0.0
        out, _ = encode_one(enc, g, "S1", k=1, seed=0)
        npt.assert_allclose(out, feature(enc, g, "S1") / 3)

    def test_matches_scalar_recurrence_on_length_five(self, rng):
        schema = schema_by_id("S-po-T-po-C-inc-T-inc-S")  # 5 nodes
        h = make_hierarchy({"T1": ["S1", "S2"], "T2": ["S3"]}, chapters={"C1": ["T1", "T2"]})
        g = build_citation_graph([make_fact("F1", {"S1"})], h)
        enc = single_schema_encoder(g, schema, d=3)
        randomize(enc, rng)
        inst = g.sample_instances("S1", schema, k=1, seed=1)[0]
        expected = np.array(rotation_oracle(enc, g, schema, inst))
        out, _ = encode_one(enc, g, "S1", k=1, seed=1)
        npt.assert_allclose(out, np.maximum(expected, 0.0), atol=1e-12)
        # the ReLU hides negative components: negated features negate q_M
        for t in NODE_TYPES:
            enc.node_embed[t].data = -enc.node_embed[t].data
        out, _ = encode_one(enc, g, "S1", k=1, seed=1)
        npt.assert_allclose(out, np.maximum(-expected, 0.0), atol=1e-12)


class TestIntraAggregate:
    def test_identical_encodings_split_weight(self, rng):
        # S1-F1-S1 is the only instance, so k=2 draws it twice
        schema = schema_by_id("S-ctb-F-ct-S")
        g = minimal_graph()
        enc = single_schema_encoder(g, schema, d=4)
        randomize(enc, rng)
        inst = g.sample_instances("S1", schema, k=1, seed=0)[0]
        out, alpha = encode_one(enc, g, "S1", k=2, seed=0)
        npt.assert_allclose(alpha, [0.5, 0.5])
        npt.assert_allclose(out, np.maximum(rotation_oracle(enc, g, schema, inst), 0.0))

    def test_singleton(self, rng):
        schema = schema_by_id("S-ctb-F-ct-S")
        g = paper_figure_graph()
        enc = single_schema_encoder(g, schema, d=4)
        randomize(enc, rng)
        inst = g.sample_instances("S1", schema, k=1, seed=4)[0]
        out, alpha = encode_one(enc, g, "S1", k=1, seed=4)
        npt.assert_allclose(alpha, [1.0])
        npt.assert_allclose(out, np.maximum(rotation_oracle(enc, g, schema, inst), 0.0))

    def test_empty_list_gives_zero_vector(self, rng):
        # S2 is never cited: no S-ctb-F-ct-S instance, so no alpha row either
        schema = schema_by_id("S-ctb-F-ct-S")
        h = make_hierarchy({"T1": ["S1", "S2"]})
        g = build_citation_graph([make_fact("F1", {"S1"})], h)
        enc = single_schema_encoder(g, schema, d=4)
        randomize(enc, rng)
        with no_grad():
            out, weights = enc.encode(g, ["S1", "S2"], k=3, seed=0,
                                      attr_embeddings=attr_rows(rng, 2), return_weights=True)
        npt.assert_array_equal(out.data[1], 0.0)
        assert weights[f"alpha.{schema.id}"].shape == (1, 3)

    def test_matches_scalar_oracle(self, rng):
        schema = schema_by_id("S-ctb-F-ct-S")
        g = paper_figure_graph()
        enc = single_schema_encoder(g, schema, d=3)
        randomize(enc, rng)
        enc.schema_ctx[schema.id].data = rng.normal(size=(3, 6))
        attr = rng.normal(size=3)
        insts = g.sample_instances("S1", schema, k=3, seed=2)
        out, alpha = encode_one(enc, g, "S1", k=3, seed=2, attr=attr)
        exp_out, exp_alpha = intra_aggregate_scalar(
            feature(enc, g, "S1").tolist(),
            [rotation_oracle(enc, g, schema, inst) for inst in insts],
            matvec_scalar(enc.schema_ctx[schema.id].data.T.tolist(), attr.tolist()))
        npt.assert_allclose(alpha, exp_alpha, atol=1e-9)
        npt.assert_allclose(out, exp_out, atol=1e-9)


def inter_encoder(d, d_m, rng):
    """Encoder with random inter-aggregation parameters."""
    enc = MetapathEncoder(np.random.default_rng(0), paper_figure_graph(), default_schemas(),
                          d_node=d, d_prime=d, d_m=d_m)
    enc.summary_m["S"] = Parameter(rng.normal(size=(d, d_m)))
    enc.summary_b["S"] = Parameter(rng.normal(size=d_m))
    enc.side_ctx["S"] = Parameter(rng.normal(size=(d, d_m)))
    return enc


class TestInterAggregate:
    def test_identical_summaries_quarter_weights(self, rng):
        enc = inter_encoder(3, 2, rng)
        h = Tensor(rng.normal(size=(2, 3)))
        out, beta = enc._inter_aggregate([h, h, h, h], "S", attr_rows(rng, 2, 3))
        npt.assert_allclose(beta, [[0.25] * 4] * 2)
        npt.assert_allclose(out.data, h.data, atol=1e-12)

    def test_single_schema(self, rng):
        enc = inter_encoder(3, 2, rng)
        h = Tensor(rng.normal(size=(2, 3)))
        out, beta = enc._inter_aggregate([h], "S", attr_rows(rng, 2, 3))
        npt.assert_allclose(beta, [[1.0], [1.0]])
        npt.assert_allclose(out.data, h.data)

    def test_matches_scalar_oracle_two_schemas(self, rng):
        n, d, d_m = 3, 2, 2
        per_schema_t = [Tensor(rng.normal(size=(n, d))) for _ in range(2)]
        enc = inter_encoder(d, d_m, rng)
        attr = attr_rows(rng, n, d)
        out, beta = enc._inter_aggregate(per_schema_t, "S", attr)
        q_rows = [matvec_scalar(enc.side_ctx["S"].data.T.tolist(), row)
                  for row in attr.data.tolist()]
        exp_outs, exp_betas = inter_aggregate_scalar(
            [t.data.tolist() for t in per_schema_t], enc.summary_m["S"].data.T.tolist(),
            enc.summary_b["S"].data.tolist(), q_rows)
        npt.assert_allclose(out.data, exp_outs, atol=1e-9)
        npt.assert_allclose(beta, exp_betas, atol=1e-9)


class TestEncodeNode:
    def test_node_with_no_instances_is_zero(self, rng):
        # S2 exists in the hierarchy but has no citations: the fact-citation
        # schema yields nothing, yet the hierarchy schemas do; remove those by
        # isolating the section in its own topic with no chance of length-2
        # walks back (single topic, single section, no other sections)
        h = make_hierarchy({"T1": ["S1"]}, chapters={"C1": ["T1"]})
        g = build_citation_graph([], h)
        # S1 has no fact citations: S-ctb-F-ct-S empty; S-po-T-inc-S gives S1-T1-S1
        enc = make_encoder(rng, g)
        with no_grad():
            out = enc.encode(g, ["S1"], k=2, seed=0, attr_embeddings=attr_rows(rng, 1))
        assert np.isfinite(out.data).all()

    def test_dynamic_context_composition(self, rng):
        g = paper_figure_graph()
        d = 3
        enc = MetapathEncoder(rng, g, default_schemas(), d_node=d, d_prime=d, d_m=d)
        sections = g.type_ids("S")
        attr = Tensor(rng.normal(size=(len(sections), d)))
        k, seed = 2, 5
        with no_grad():
            got = enc.encode(g, sections, k=k, seed=seed, attr_embeddings=attr).data

        tables = {t: enc.node_embed[t].data @ enc.node_proj[t].data for t in "ACTSF"}

        def feature(node):
            gi = g.global_index(node)
            return tables[g.node_type[gi]][g.type_index[gi]].tolist()

        rels = {r: enc.relation_vecs.data[enc.rel_index[r]].tolist() for r in enc.rel_index}
        per_schema = []
        for schema in (s for s in default_schemas() if s.side == "section"):
            vecs = []
            for vi, v in enumerate(sections):
                insts = g.sample_instances(v, schema, k=k, seed=seed)
                enc_list = [rotation_encode_scalar([feature(n) for n in inst.nodes],
                                                   [rels[r] for r in schema.relations])
                            for inst in insts]
                a_p = matvec_scalar(enc.schema_ctx[schema.id].data.T.tolist(),
                                    attr.data[vi].tolist())
                pooled, _ = intra_aggregate_scalar(feature(v), enc_list, a_p)
                vecs.append(pooled)
            per_schema.append(vecs)
        q_rows = [matvec_scalar(enc.side_ctx["S"].data.T.tolist(), row)
                  for row in attr.data.tolist()]
        expected, _ = inter_aggregate_scalar(per_schema, enc.summary_m["S"].data.T.tolist(),
                                             enc.summary_b["S"].data.tolist(), q_rows)
        npt.assert_allclose(got, expected, atol=1e-9)

    def test_attention_weights_normalized(self, rng):
        g = paper_figure_graph()
        enc = make_encoder(rng, g)
        sections = g.type_ids("S")
        with no_grad():
            _, weights = enc.encode(g, sections, k=3, seed=0,
                                    attr_embeddings=attr_rows(rng, len(sections)),
                                    return_weights=True)
        for key, alpha in weights.items():
            if key.startswith("alpha."):
                npt.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(weights["beta"].sum(axis=1), 1.0, atol=1e-12)

    def test_bit_identical_across_runs(self, rng):
        g = paper_figure_graph()
        enc = make_encoder(rng, g)
        sections = g.type_ids("S")
        attr = attr_rows(rng, len(sections))
        with no_grad():
            a = enc.encode(g, sections, k=4, seed=9, attr_embeddings=attr).data
            b = enc.encode(g, sections, k=4, seed=9, attr_embeddings=attr).data
        npt.assert_array_equal(a, b)

    def test_unknown_node_rejected(self, rng):
        g = paper_figure_graph()
        enc = make_encoder(rng, g)
        with pytest.raises(UnknownNodeError):
            enc.encode(g, ["F_test_99"], k=2, seed=0, attr_embeddings=attr_rows(rng, 1))

    def test_missing_attribute_embeddings_rejected(self, rng):
        # every attention context is derived from them; there is no fallback
        g = paper_figure_graph()
        enc = make_encoder(rng, g)
        with pytest.raises(ValueError, match="attribute embeddings"), no_grad():
            enc.encode(g, g.type_ids("S"), k=2, seed=0)

    def test_gradients_match_finite_differences(self, rng):
        g = paper_figure_graph()  # 10 nodes
        d = 4
        enc = MetapathEncoder(rng, g, default_schemas(), d_node=d, d_prime=d, d_m=d)
        attr = Parameter(rng.normal(size=(3, d)) * 0.5)
        params = dict(enc.parameters())
        params["attr"] = attr
        weights = rng.normal(size=(3, d))

        def loss_tensor():
            out = enc.encode(g, g.type_ids("S"), k=2, seed=3, attr_embeddings=attr)
            return ad.tsum(ad.mul(ad.tanh(out), weights))

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


class TestLookupEncoder:
    def test_identity_on_table_column(self, rng):
        g = paper_figure_graph()
        enc = LookupEncoder(rng, g, d_prime=4)
        with no_grad():
            out = enc.encode(g, ["S2"]).data
        gi = g.global_index("S2")
        npt.assert_array_equal(out[0], enc.tables["S"].data[g.type_index[gi]])

    def test_unknown_node_rejected(self, rng):
        g = paper_figure_graph()
        enc = LookupEncoder(rng, g, d_prime=4)
        with pytest.raises(UnknownNodeError):
            enc.encode(g, ["F_nope"])

    @pytest.mark.parametrize("encoder", ["metapath", "lookup"])
    def test_mixed_or_empty_batch_rejected(self, rng, encoder):
        # a mixed batch would look an F node up by its type-local index in
        # the S table; both encoders refuse it and an empty batch alike
        g = paper_figure_graph()
        enc = make_encoder(rng, g) if encoder == "metapath" else LookupEncoder(rng, g, d_prime=4)
        with pytest.raises(ValueError, match="single type"), no_grad():
            enc.encode(g, ["S1", "F1"], k=2, seed=0, attr_embeddings=attr_rows(rng, 2))
        with pytest.raises(ValueError, match="empty node batch"), no_grad():
            enc.encode(g, [], k=2, seed=0, attr_embeddings=attr_rows(rng, 0))

    def test_gradient_touches_only_queried_rows(self, rng):
        g = paper_figure_graph()
        enc = LookupEncoder(rng, g, d_prime=4)
        out = enc.encode(g, ["S1", "S3"])
        ad.tsum(out).backward()
        grad = enc.tables["S"].grad
        touched = {g.type_index[g.global_index(s)] for s in ("S1", "S3")}
        for row in range(grad.shape[0]):
            if row in touched:
                assert np.abs(grad[row]).sum() > 0
            else:
                npt.assert_allclose(grad[row], 0.0)
        assert enc.tables["F"].grad is None
