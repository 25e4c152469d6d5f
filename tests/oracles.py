"""Independent scalar-loop reference implementations.

Everything here is written with plain Python loops over floats (and, for the
graph, over the public neighbour queries), deliberately avoiding the
vectorized code paths under test. These are the oracles the
test suite compares against. The exceptions run the model's own layers in
an earlier arrangement: the pair of unfused recurrences, which record every
time step as elementary tape ops and so check the fused scan ops, forward
and backward, on the tape itself; and the model forward that encodes facts
and sections in one text-encoder call.
"""

from __future__ import annotations

import math

import numpy as np

from lexcite import autodiff as ad
from lexcite.corpus import CorpusError, encode_corpus
from lexcite.graph import MetapathInstance
from lexcite.han import trim_to_extent


def softmax_scalar(scores, mask=None):
    idx = range(len(scores)) if mask is None else [i for i in range(len(scores)) if mask[i]]
    if not idx:
        return [0.0] * len(scores)
    mx = max(scores[i] for i in idx)
    exps = [0.0] * len(scores)
    for i in idx:
        exps[i] = math.exp(scores[i] - mx)
    z = sum(exps)
    return [e / z for e in exps]


def leaky_relu_scalar(x, slope=0.01):
    return x if x > 0 else slope * x


def matvec_scalar(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def rotation_encode_scalar(node_features, relation_vectors):
    """q_i = h_i + q_{i-1} * r_i elementwise; returns q_M / (M + 1).

    node_features: list of M+1 vectors in neighbour-first order.
    relation_vectors: list of M vectors (one per step).
    """
    d = len(node_features[0])
    q = list(node_features[0])
    for i in range(1, len(node_features)):
        r = relation_vectors[i - 1]
        q = [node_features[i][j] + q[j] * r[j] for j in range(d)]
    m = len(node_features) - 1
    return [x / (m + 1) for x in q]


def intra_aggregate_scalar(h_v, instance_encodings, a_p, slope=0.01):
    """Attention over instance encodings; returns (vector, weights)."""
    d = len(h_v)
    if not instance_encodings:
        return [0.0] * d, []
    scores = []
    for enc in instance_encodings:
        cat = list(h_v) + list(enc)
        scores.append(leaky_relu_scalar(sum(a_p[j] * cat[j] for j in range(2 * d)), slope))
    alphas = softmax_scalar(scores)
    out = [0.0] * d
    for a, enc in zip(alphas, instance_encodings):
        for j in range(d):
            out[j] += a * enc[j]
    return [max(x, 0.0) for x in out], alphas


def inter_aggregate_scalar(per_schema, m_mat, b_vec, q_vec):
    """per_schema: list over schemas of per-node vectors (n x d).

    Returns (per-node combined vectors, per-node schema weights).
    """
    n = len(per_schema[0])
    d = len(per_schema[0][0])
    summaries = []
    for vecs in per_schema:
        acc = [0.0] * len(b_vec)
        for v in vecs:
            t = [math.tanh(x + b) for x, b in zip(matvec_scalar(m_mat, v), b_vec)]
            acc = [a + x for a, x in zip(acc, t)]
        summaries.append([a / n for a in acc])
    outs, betas_all = [], []
    for i in range(n):
        q = q_vec[i] if isinstance(q_vec[0], (list, tuple)) else q_vec
        scores = [sum(qj * sj for qj, sj in zip(q, s)) for s in summaries]
        betas = softmax_scalar(scores)
        out = [0.0] * d
        for b, vecs in zip(betas, per_schema):
            for j in range(d):
                out[j] += b * vecs[i][j]
        outs.append(out)
        betas_all.append(betas)
    return outs, betas_all


def gru_scalar(xs, mask, w, u_zr, u_n, b, hidden):
    """Single-direction GRU over a list of input vectors; returns states."""
    h = [0.0] * hidden
    states = []
    for x, m in zip(xs, mask):
        pre = [sum(x[i] * w[i][j] for i in range(len(x))) + b[j] for j in range(3 * hidden)]
        zr_in = [pre[j] + sum(h[i] * u_zr[i][j] for i in range(hidden)) for j in range(2 * hidden)]
        z = [1.0 / (1.0 + math.exp(-v)) for v in zr_in[:hidden]]
        r = [1.0 / (1.0 + math.exp(-v)) for v in zr_in[hidden:]]
        rh = [r[i] * h[i] for i in range(hidden)]
        n_in = [pre[2 * hidden + j] + sum(rh[i] * u_n[i][j] for i in range(hidden))
                for j in range(hidden)]
        n = [math.tanh(v) for v in n_in]
        new = [(1.0 - z[i]) * n[i] + z[i] * h[i] for i in range(hidden)]
        h = [m * new[i] + (1.0 - m) * h[i] for i in range(hidden)]
        states.append(list(h))
    return states


def lstm_scalar(xs, w, u, b, hidden):
    """Single-direction LSTM over input vectors; returns hidden states."""
    h = [0.0] * hidden
    c = [0.0] * hidden
    states = []
    for x in xs:
        pre = [sum(x[i] * w[i][j] for i in range(len(x))) + b[j] +
               sum(h[i] * u[i][j] for i in range(hidden)) for j in range(4 * hidden)]
        i_g = [1.0 / (1.0 + math.exp(-v)) for v in pre[:hidden]]
        f_g = [1.0 / (1.0 + math.exp(-v)) for v in pre[hidden:2 * hidden]]
        g_g = [math.tanh(v) for v in pre[2 * hidden:3 * hidden]]
        o_g = [1.0 / (1.0 + math.exp(-v)) for v in pre[3 * hidden:]]
        c = [f_g[i] * c[i] + i_g[i] * g_g[i] for i in range(hidden)]
        h = [o_g[i] * math.tanh(c[i]) for i in range(hidden)]
        states.append(list(h))
    return states


def _projection(layer, x, d):
    n, t_len, d_in = x.shape
    w, b = layer.params[f"{layer.name}.{d}.W"], layer.params[f"{layer.name}.{d}.b"]
    pre = ad.add(ad.matmul(ad.reshape(x, (n * t_len, d_in)), w), b)
    return ad.reshape(pre, (n, t_len, w.shape[1]))


def bigru_direction_unfused(layer, x, mask, d):
    """One direction of an `nn.BiGRU`, one set of tape nodes per time step;
    returns the (N, T, hidden) states."""
    n, t_len, _ = x.shape
    u_zr = layer.params[f"{layer.name}.{d}.U_zr"]
    u_n = layer.params[f"{layer.name}.{d}.U_n"]
    h = u_n.shape[0]
    pre = _projection(layer, x, d)
    order = range(t_len) if d == "fw" else range(t_len - 1, -1, -1)
    state = ad.Tensor(np.zeros((n, h)))
    outs = [None] * t_len
    for t in order:
        pre_t = pre[:, t, :]
        zr = ad.sigmoid(ad.add(pre_t[:, : 2 * h], ad.matmul(state, u_zr)))
        z = zr[:, :h]
        r = zr[:, h:]
        ncand = ad.tanh(ad.add(pre_t[:, 2 * h:], ad.matmul(ad.mul(r, state), u_n)))
        new = ad.add(ad.mul(ad.sub(1.0, z), ncand), ad.mul(z, state))
        m = mask[:, t : t + 1].astype(np.float64)
        new = ad.add(ad.mul(new, m), ad.mul(state, 1.0 - m))
        state = new
        outs[t] = state
    return ad.stack(outs, axis=1)


def bilstm_direction_unfused(layer, x, d):
    """One direction of an `nn.BiLSTM`, one set of tape nodes per time step;
    returns the (N, T, hidden) hidden states."""
    n, t_len, _ = x.shape
    u = layer.params[f"{layer.name}.{d}.U"]
    h = u.shape[0]
    pre = _projection(layer, x, d)
    order = range(t_len) if d == "fw" else range(t_len - 1, -1, -1)
    hs = ad.Tensor(np.zeros((n, h)))
    cs = ad.Tensor(np.zeros((n, h)))
    outs = [None] * t_len
    for t in order:
        gates = ad.add(pre[:, t, :], ad.matmul(hs, u))
        i = ad.sigmoid(gates[:, :h])
        f = ad.sigmoid(gates[:, h : 2 * h])
        g = ad.tanh(gates[:, 2 * h : 3 * h])
        o = ad.sigmoid(gates[:, 3 * h:])
        cs = ad.add(ad.mul(f, cs), ad.mul(i, g))
        hs = ad.mul(o, ad.tanh(cs))
        outs[t] = hs
    return ad.stack(outs, axis=1)


def forward_concatenated(model, fact_grids, fact_masks, sample_seed, fact_ids=None):
    """`Model.forward` without dropout, with the facts and the sections
    encoded in one text-encoder call, cut to the extent of the longest of
    them; returns the score triple."""
    config = model.config
    sec_grids, sec_masks = encode_corpus(model.hierarchy.sections, model.vocab,
                                         config.max_sents, config.max_words)
    grids, masks = trim_to_extent(np.concatenate([fact_grids, sec_grids]),
                                  np.concatenate([fact_masks, sec_masks]))
    n_facts = fact_grids.shape[0]
    attr = model.text_encoder(grids, masks)
    h_f, h_s = attr[:n_facts], attr[n_facts:]
    encode = model.struct_encoder.encode
    h_s_struct = encode(model.graph, model.section_ids, config.k_instances, sample_seed,
                        attr_embeddings=h_s)
    h_f_struct = None
    if fact_ids is not None:
        h_f_struct = encode(model.graph, fact_ids, config.k_instances, sample_seed,
                            attr_embeddings=h_f)
    return model.scorer.score_triple(h_f, h_s, h_s_struct, h_f_struct)


def attention_pool_scalar(vecs, m_mat, b_vec, context, mask=None):
    """tanh-projected attention; returns (pooled, weights)."""
    scores = []
    for v in vecs:
        u = [math.tanh(x + b) for x, b in zip(matvec_scalar(m_mat, v), b_vec)]
        scores.append(sum(ui * ci for ui, ci in zip(u, context)))
    weights = softmax_scalar(scores, mask)
    pooled = [0.0] * len(vecs[0])
    for w, v in zip(weights, vecs):
        for j in range(len(v)):
            pooled[j] += w * v[j]
    return pooled, weights


def weighted_bce_scalar(scores, targets, weights, eps=1e-7):
    """-(1/B) sum_f sum_s [w_s y log o + (1-y) log(1-o)] with clamping."""
    total = 0.0
    for row, yrow in zip(scores, targets):
        for s, (o, y) in enumerate(zip(row, yrow)):
            o = min(max(o, eps), 1.0 - eps)
            total += weights[s] * y * math.log(o) + (1.0 - y) * math.log(1.0 - o)
    return -total / len(scores)


def vws_scalar(freqs, n_docs):
    return [n_docs / f if f > 0 else float(n_docs) for f in freqs]


def tws_scalar(freqs, eta):
    fmax = max(freqs)
    return [min(fmax / f, eta) if f > 0 else eta for f in freqs]


def macro_prf_scalar(preds, golds, universe):
    """Per-label confusion counting; returns percentages."""
    per_label = {}
    for lab in universe:
        tp = fp = fn = 0
        for p, g in zip(preds, golds):
            if lab in p and lab in g:
                tp += 1
            elif lab in p:
                fp += 1
            elif lab in g:
                fn += 1
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_label[lab] = (prec, rec, f1)
    n = len(universe)
    mp = 100.0 * sum(v[0] for v in per_label.values()) / n
    mr = 100.0 * sum(v[1] for v in per_label.values()) / n
    mf = 100.0 * sum(v[2] for v in per_label.values()) / n
    return mp, mr, mf, per_label


def jaccard_scalar(preds, golds):
    vals = []
    for p, g in zip(preds, golds):
        union = p | g
        vals.append(len(p & g) / len(union) if union else 1.0)
    return 100.0 * sum(vals) / len(vals)


# -- graph oracles, written over the public node/neighbour API ------------------


def has_edge(graph, u, v, relation):
    return v in graph.neighbors(u, relation)


def conforms(graph, instance, schema):
    """Type- and relation-check an instance (target-last) against a schema."""
    if len(instance.nodes) != schema.length + 1:
        return False
    walk = tuple(reversed(instance.nodes))  # target-first order
    for node, want in zip(walk, schema.node_types):
        if node not in graph or graph.phi(node) != want:
            return False
    return all(has_edge(graph, u, v, rel)
               for u, rel, v in zip(walk, schema.relations, walk[1:]))


def enumerate_instances(graph, v, schema):
    """Every instance of `schema` ending at v, by exhaustive depth-first
    expansion; exponential in schema length, so desk-scale graphs only."""
    walks = [[v]] if graph.phi(v) == schema.node_types[0] else []
    for rel in schema.relations:
        walks = [w + [nbr] for w in walks for nbr in graph.neighbors(w[-1], rel)]
    return [MetapathInstance(nodes=tuple(reversed(w)), schema_id=schema.id) for w in walks]


def typed_walk_counts(graph, schema):
    """Count conforming walks from every start node, position by position
    from the far end (independent of the depth-first enumeration). Returns a
    list indexed like graph.node_ids."""
    ids = graph.node_ids
    counts = {u: 1 if graph.phi(u) == schema.node_types[-1] else 0 for u in ids}
    # after step j, counts[u] = number of completions from u at position j
    for j in range(schema.length - 1, -1, -1):
        rel = schema.relations[j]
        counts = {u: sum(counts[nbr] for nbr in graph.neighbors(u, rel))
                  if graph.phi(u) == schema.node_types[j] else 0 for u in ids}
    return [counts[u] for u in ids]


def fd_gradients(loss_fn, params, h=1e-6):
    """Central finite differences of loss_fn() w.r.t. every parameter entry.

    loss_fn re-evaluates the forward pass from current parameter data.
    Returns dict name -> flat gradient list.
    """
    grads = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = [0.0] * flat.size
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = max(abs(a), abs(b), floor)
        worst = max(worst, abs(a - b) / denom)
    return worst


# -- corpus ---------------------------------------------------------------------


def average_labels_per_doc(docs) -> float:
    """Mean number of gold sections per fact (criterion 9's label density)."""
    if not docs:
        raise CorpusError("empty corpus")
    return sum(len(d.labels) for d in docs) / len(docs)


def decode_text(grid, mask, vocab) -> list[list[str]]:
    """Inverse of `encode_text` on the masked region."""
    out = []
    for row, mrow in zip(grid, mask):
        if mrow.any():
            out.append([vocab.decode(int(i)) for i in row[mrow]])
    return out
