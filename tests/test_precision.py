"""Precision: a new model computes in float32 throughout, its
gradients agree with the float64 ones of the same parameters, thresholds
compare in float64, saturated float32 values stay finite and quiet, and a
checkpoint keeps the dtype it was written in."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lexcite import autodiff as ad
from lexcite import nn, training
from lexcite.autodiff import Tensor
from lexcite.corpus import build_vocab, encode_corpus, load_facts, load_hierarchy
from lexcite.graph import build_citation_graph
from lexcite.model import Model
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import write_synth
from lexcite.training import (TrainingConfig, citation_frequencies, class_weights,
                              combined_loss, load_checkpoint, predict_corpus, save_checkpoint,
                              weighted_bce)

from conftest import widen_to_float64


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("precision")
    facts_path, hier_path = write_synth(tmp, n_docs=60, n_sections=10, seed=0)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, test = iterative_stratified_split(docs, SplitSpec(seed=0))
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    config = TrainingConfig.desk_scale(seed=0, epochs=1)
    assert config.dropout > 0.0 and config.theta_s > 0.0
    return SimpleNamespace(tmp=tmp, hierarchy=hierarchy, train=train, val=val, test=test,
                           graph=graph, vocab=vocab, config=config)


def _model(desk) -> Model:
    return Model(np.random.default_rng(0), desk.config, desk.vocab, desk.graph, desk.hierarchy)


def _training_loss(model: Model, desk) -> Tensor:
    """The combined loss of one training batch, with dropout and the fact-side
    structural branch on; the same draws whatever the model's dtype."""
    docs = desk.train[:8]
    config = desk.config
    grids, masks = encode_corpus(docs, desk.vocab, config.max_sents, config.max_words)
    targets = np.stack([desk.hierarchy.label_vector(d.labels) for d in docs])
    weights = class_weights(citation_frequencies(desk.train, model.section_ids),
                            len(desk.train), config)
    triple = model.forward(grids, masks, sample_seed=3, fact_ids=[d.id for d in docs],
                           dropout_rng=np.random.default_rng(5))
    return combined_loss(weighted_bce(triple.attribute, targets, weights),
                         weighted_bce(triple.structural, targets, weights),
                         weighted_bce(triple.alignment, targets, weights), config)


# -- gradients -------------------------------------------------------------------


def _group(name: str) -> str:
    """A parameter's group: its first two name parts, such as
    ``han.word_rnn`` or ``scorer.seq``."""
    return ".".join(name.split(".")[:2])


def _grouped_gradients(model: Model) -> dict[str, np.ndarray]:
    flat: dict[str, list[np.ndarray]] = {}
    for name, p in model.parameters().items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        flat.setdefault(_group(name), []).append(g.astype(np.float64).reshape(-1))
    return {k: np.concatenate(v) for k, v in flat.items()}


def test_float32_gradients_agree_with_float64_of_the_same_parameters(desk):
    # criterion 1 checks the float64 gradients against finite differences;
    # this checks that the float32 ones, the ones training uses, are the
    # float64 ones up to float32 rounding, as a relative norm per group
    model = _model(desk)
    _training_loss(model, desk).backward()
    g32 = _grouped_gradients(model)
    widen_to_float64(model)
    for p in model.parameters().values():
        p.grad = None
    _training_loss(model, desk).backward()
    g64 = _grouped_gradients(model)
    assert g32.keys() == g64.keys() and len(g64) >= 10
    # A group whose gradient cancels to far below the rest (such as a
    # direction a softmax is invariant to) cannot be compared relatively: its
    # error is measured against a millionth of the whole gradient's norm.
    floor = 1e-6 * np.linalg.norm(np.concatenate(list(g64.values())))
    rtol = 100 * np.finfo(np.float32).eps
    for group, want in g64.items():
        rel = np.linalg.norm(g32[group] - want) / max(np.linalg.norm(want), floor)
        assert rel <= rtol, f"{group}: relative gradient error {rel:.2e}"


# -- no silent upcast --------------------------------------------------------------


def test_a_float32_model_computes_in_float32_throughout(desk, monkeypatch):
    # one float64 constant (a 0-d array, an np.where literal, a float64 mask)
    # would widen every array downstream of it and double the cost
    seen = []

    def spy(fn):
        def wrapper(data, *args, **kwargs):
            seen.append((fn.__name__, np.asarray(data).dtype))
            return fn(data, *args, **kwargs)
        return wrapper

    def _record(share):
        seen.append(("share", np.asarray(share).dtype))
        return share

    run_vjps = ad._run_vjps

    def spy_run_vjps(node):
        seen.append(("gradient", node.grad.dtype))
        if node._parents:  # record every share each VJP hands an input
            parts = list(node._parents)
            for i in range(1, len(parts), 2):
                parts[i] = lambda g, vjp=parts[i]: _record(vjp(g))
            node._parents = tuple(parts)
        run_vjps(node)

    monkeypatch.setattr(ad, "_tracked", spy(ad._tracked))
    monkeypatch.setattr(ad, "_raw", spy(ad._raw))
    monkeypatch.setattr(ad, "_run_vjps", spy_run_vjps)

    model = _model(desk)
    params = model.parameters()
    optimizer = nn.Adam(params, lr=desk.config.lr)
    loss = _training_loss(model, desk)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    for kind in ("_tracked", "_raw", "gradient", "share"):
        assert any(k == kind for k, _ in seen), kind
    _, scores = predict_corpus(model, desk.val[:4])

    wide = sorted({(kind, str(dtype)) for kind, dtype in seen if dtype != np.float32})
    assert not wide, f"arrays wider than float32: {wide}"
    for name, p in params.items():
        assert p.grad is not None and p.grad.dtype == np.float32, name
        assert p.data.dtype == np.float32, name
        assert optimizer.m[name].dtype == optimizer.v[name].dtype == np.float32, name
    assert scores.dtype == np.float64  # the mix for the threshold is float64


# -- thresholds ------------------------------------------------------------------


def test_threshold_compares_in_float64(desk, monkeypatch):
    score = np.float32(0.65)  # 0.6499999762
    assert float(score) < 0.65
    # numpy would round tau to float32 in a float32 comparison
    assert (np.full(1, score) >= 0.65).all()
    assert training._label_set(np.full(1, score), 0.65, ["s"]) == set()

    model = _model(desk)
    n_sec = len(model.section_ids)
    monkeypatch.setattr(model, "score_one",
                        lambda state, grid, mask: (np.full(n_sec, score), np.full(n_sec, score)))
    preds, scores = predict_corpus(model, desk.val[:2], tau=0.65)
    assert scores.dtype == np.float64
    # lambda_a * s + lambda_l * s is exact in float64, and so is s itself
    assert (scores == np.float64(score)).all()
    assert preds == [set(), set()]


# -- saturation --------------------------------------------------------------------


def test_weighted_bce_is_finite_at_saturated_float32_scores():
    scores = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]], np.float32), requires_grad=True)
    targets = np.array([[1.0, 0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = weighted_bce(scores, targets, np.full(4, 3.0))
        loss.backward()
    assert loss.data.dtype == np.float32
    assert np.isfinite(loss.item())
    assert scores.grad.dtype == np.float32 and np.isfinite(scores.grad).all()


EXTREMES = np.array([-1e4, -100.0, -90.0, 0.0, 90.0, 100.0, 1e4], np.float32)


@pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh], ids=["sigmoid", "tanh"])
def test_saturated_float32_activations_are_finite_and_quiet(op):
    x = Tensor(EXTREMES, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an exp overflow warning fails the test
        y = op(x)
        ad.tsum(y).backward()
    assert y.data.dtype == np.float32
    assert np.isfinite(y.data).all() and np.isfinite(x.grad).all()
    assert y.data[0] == (0.0 if op is ad.sigmoid else -1.0) and y.data[-1] == 1.0


def _saturated_pre(rng, shape):
    return Tensor(rng.choice(EXTREMES, size=shape).astype(np.float32), requires_grad=True)


def test_saturated_float32_recurrences_are_finite_and_quiet():
    rng = np.random.default_rng(0)
    h = 4
    pres = [_saturated_pre(rng, (2, 5, 4 * h)) for _ in range(2)]
    us = [Tensor(rng.uniform(-1, 1, (h, 4 * h)).astype(np.float32), requires_grad=True)
          for _ in range(2)]
    gru_pre = _saturated_pre(rng, (6, 3 * h))
    gru_u = [Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
             for shape in ((h, 2 * h), (h, h))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lstm = ad.bilstm_scan(*pres, *us)
        ad.tsum(lstm).backward()
        gru = ad.gru_scan(gru_pre, np.array([2, 2, 2]), *gru_u)
        ad.tsum(gru).backward()
    for out in (lstm, gru):
        assert out.data.dtype == np.float32 and np.isfinite(out.data).all()
    for leaf in pres + us + [gru_pre] + gru_u:
        assert leaf.grad.dtype == np.float32 and np.isfinite(leaf.grad).all()


# -- checkpoints -------------------------------------------------------------------


def _round_trip(model: Model, desk, path):
    _, before = predict_corpus(model, desk.test)
    save_checkpoint(path, model)
    restored, _ = load_checkpoint(path, desk.graph, desk.hierarchy)
    _, after = predict_corpus(restored, desk.test)
    return restored, before, after


def test_float32_checkpoint_round_trips_bitwise(desk, tmp_path):
    restored, before, after = _round_trip(_model(desk), desk, tmp_path / "f32.npz")
    assert {p.data.dtype for p in restored.parameters().values()} == {np.dtype(np.float32)}
    assert np.array_equal(before, after)


def test_float64_checkpoint_loads_and_predicts_as_float64(desk, tmp_path):
    # a checkpoint written before the model was float32 keeps its outputs
    wide = widen_to_float64(_model(desk))
    restored, before, after = _round_trip(wide, desk, tmp_path / "f64.npz")
    assert {p.data.dtype for p in restored.parameters().values()} == {np.dtype(np.float64)}
    assert np.array_equal(before, after)
    _, narrow = predict_corpus(_model(desk), desk.test)
    assert not np.array_equal(before, narrow)  # the float64 model is not the float32 one


@pytest.mark.parametrize("bad", [np.int64, np.float64], ids=["integer", "mixed"])
def test_load_state_arrays_refuses_non_floating_or_mixed_dtypes(desk, bad):
    model = _model(desk)
    state = model.state_arrays()
    name = "scorer.classifier_b"
    state[name] = state[name].astype(bad)
    before = model.state_arrays()
    with pytest.raises(ValueError, match="one floating-point dtype"):
        model.load_state_arrays(state)
    for k, arr in model.state_arrays().items():  # nothing was loaded
        assert np.array_equal(arr, before[k]) and arr.dtype == np.float32, k
