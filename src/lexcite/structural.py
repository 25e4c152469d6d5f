"""Structural node embeddings from the citation network.

Pipeline per node: sample metapath instances per schema, fold each instance
into one vector with the relational-rotation recurrence, attention-pool the
instances of each schema (intra), then attention-combine the schemas (inter).
Both attention contexts are derived from the node's attribute (text)
embedding through a learned matrix per schema and per side, so the graph
side attends by what the node's text says.

A lookup-table variant (:class:`LookupEncoder`) replaces the whole pipeline
for the embedding-ablation configuration.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Tensor
from .graph import NODE_TYPES, RELATIONS, HeteroGraph, MetapathSchema

LEAKY_SLOPE = 0.01


class MetapathEncoder:
    def __init__(self, rng: np.random.Generator, graph: HeteroGraph,
                 schemas: list[MetapathSchema], d_node: int, d_prime: int, d_m: int):
        self.schemas = {s.id: s for s in schemas}
        self.sides = {"S": [s for s in schemas if s.side == "section"],
                      "F": [s for s in schemas if s.side == "fact"]}
        self.d_node = d_node
        self.d_prime = d_prime
        self.d_m = d_m

        self.node_embed = {t: nn.uniform_init(rng, (graph.n_nodes(t), d_node))
                           for t in NODE_TYPES}
        self.node_proj = {t: nn.glorot_init(rng, (d_node, d_prime)) for t in NODE_TYPES}
        self.relation_vecs = nn.uniform_init(rng, (len(RELATIONS), d_prime))
        self.rel_index = {r: i for i, r in enumerate(RELATIONS)}

        self.schema_ctx: dict[str, Parameter] = {}
        self.summary_m: dict[str, Parameter] = {}
        self.summary_b: dict[str, Parameter] = {}
        self.side_ctx: dict[str, Parameter] = {}
        for s in schemas:
            self.schema_ctx[s.id] = nn.glorot_init(rng, (d_prime, 2 * d_prime))
        for t in ("S", "F"):
            self.summary_m[t] = nn.glorot_init(rng, (d_prime, d_m))
            self.summary_b[t] = nn.zeros_init((d_m,))
            self.side_ctx[t] = nn.glorot_init(rng, (d_prime, d_m))

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"structural.relations": self.relation_vecs}
        for t in NODE_TYPES:
            params[f"structural.embed.{t}"] = self.node_embed[t]
            params[f"structural.proj.{t}"] = self.node_proj[t]
        for sid, p in self.schema_ctx.items():
            params[f"structural.schema_ctx.{sid}"] = p
        for t in ("S", "F"):
            params[f"structural.summary_m.{t}"] = self.summary_m[t]
            params[f"structural.summary_b.{t}"] = self.summary_b[t]
            params[f"structural.side_ctx.{t}"] = self.side_ctx[t]
        return params

    # -- node features ----------------------------------------------------------

    def feature_table(self, node_type: str) -> Tensor:
        """Transformed per-node features for one type: X_t projected to d'."""
        return ad.matmul(self.node_embed[node_type], self.node_proj[node_type])

    # -- batched encoding ---------------------------------------------------------

    def encode(self, graph: HeteroGraph, node_ids: list[str], k: int, seed: int,
               attr_embeddings: Tensor | None = None, return_weights: bool = False):
        """Encode nodes of one type into (n, d') structural embeddings.

        `attr_embeddings` (n, d') are the nodes' attribute embeddings, row for
        row; every attention context is derived from them."""
        if not node_ids:
            raise ValueError("empty node batch")
        gidx = np.array([graph.global_index(v) for v in node_ids])
        node_type = graph.node_type[gidx[0]]
        if any(graph.node_type[g] != node_type for g in gidx):
            raise ValueError("encode() expects nodes of a single type")
        if attr_embeddings is None:
            raise ValueError("attention contexts require attribute embeddings")
        schemas = self.sides[node_type]
        n = len(node_ids)
        type_local = np.array(graph.type_index)

        tables = {t: self.feature_table(t) for t in NODE_TYPES}

        per_schema: list[Tensor] = []
        weights: dict[str, np.ndarray] = {}
        for schema in schemas:
            walks = [graph._sample_walks_idx(int(g), schema, k, seed) for g in gidx]
            with_idx = np.array([i for i, w in enumerate(walks) if w], dtype=int)
            if len(with_idx) == 0:
                per_schema.append(Tensor(np.zeros((n, self.d_prime))))
                continue
            arr = np.array([walks[i] for i in with_idx])  # (n_w, k, M+1) instance order
            m_len = schema.length

            feats = []
            for pos in range(m_len + 1):
                pos_type = schema.node_types[m_len - pos]
                feats.append(ad.embedding(tables[pos_type], type_local[arr[:, :, pos]]))
            q = feats[0]
            for i in range(1, m_len + 1):
                r = self.relation_vecs[self.rel_index[schema.relations[i - 1]]]
                q = ad.add(feats[i], ad.mul(q, r))
            h_inst = ad.mul(q, 1.0 / (m_len + 1))

            h_v = ad.embedding(tables[node_type], type_local[gidx[with_idx]])
            a_full = ad.matmul(attr_embeddings, self.schema_ctx[schema.id])[with_idx]
            a1 = a_full[:, : self.d_prime]
            a2 = ad.reshape(a_full[:, self.d_prime :], (len(with_idx), 1, self.d_prime))
            scores = ad.add(ad.tsum(ad.mul(a1, h_v), axis=-1, keepdims=True),
                            ad.tsum(ad.mul(a2, h_inst), axis=2))
            alpha = ad.softmax(ad.leaky_relu(scores, LEAKY_SLOPE), axis=1)
            pooled = ad.relu(ad.tsum(ad.mul(ad.reshape(alpha, alpha.shape + (1,)), h_inst), axis=1))
            per_schema.append(ad.scatter_rows(pooled, with_idx, n))
            if return_weights:
                weights[f"alpha.{schema.id}"] = alpha.data

        out, beta = self._inter_aggregate(per_schema, node_type, attr_embeddings)
        if return_weights:
            weights["beta"] = beta
            return out, weights
        return out

    def _inter_aggregate(self, per_schema: list[Tensor], node_type: str,
                         attr_embeddings: Tensor):
        n = per_schema[0].shape[0]
        m = self.summary_m[node_type]
        b = self.summary_b[node_type]
        summaries = [ad.tmean(ad.tanh(ad.add(ad.matmul(h, m), b)), axis=0) for h in per_schema]
        q = ad.matmul(attr_embeddings, self.side_ctx[node_type])  # (n, d_m)
        scores = ad.stack([ad.tsum(ad.mul(q, s), axis=1) for s in summaries], axis=1)
        beta = ad.softmax(scores, axis=1)
        out = Tensor(np.zeros((n, self.d_prime)))
        for j, h in enumerate(per_schema):
            out = ad.add(out, ad.mul(ad.reshape(beta[:, j], (n, 1)), h))
        return out, beta.data


class LookupEncoder:
    """Trainable per-node embedding table standing in for the metapath
    pipeline (the embedding-table ablation)."""

    def __init__(self, rng: np.random.Generator, graph: HeteroGraph, d_prime: int):
        self.d_prime = d_prime
        self.tables = {t: nn.uniform_init(rng, (graph.n_nodes(t), d_prime)) for t in ("S", "F")}

    def parameters(self) -> dict[str, Tensor]:
        return {f"lookup.{t}": p for t, p in self.tables.items()}

    def encode(self, graph: HeteroGraph, node_ids: list[str], k: int = 0, seed: int = 0,
               attr_embeddings: Tensor | None = None, return_weights: bool = False):
        gidx = [graph.global_index(v) for v in node_ids]
        node_type = graph.node_type[gidx[0]]
        local = np.array([graph.type_index[g] for g in gidx])
        out = ad.embedding(self.tables[node_type], local)
        if return_weights:
            return out, {}
        return out
