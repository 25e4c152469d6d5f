"""The fused recurrence ops against the unfused per-step tape, and the shape
of the tape they leave. The GRU scan runs on packed batches; its oracle is
the masked per-step layer, whose prefix masks hold the same lengths."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import Parameter, no_grad
from lexcite.nn import BiGRU, BiLSTM, pack

from oracles import bigru_direction_unfused, bilstm_direction_unfused

N, D_IN, HIDDEN = 5, 4, 3


def _lengths(rng, t_len):
    """Every length pattern the packed GRU must handle, by name: all equal,
    random, ragged with one of each extreme, all length 1, and a mix."""
    random = rng.integers(1, t_len + 1, size=N)
    trailing = np.clip([t_len, 1, t_len - 2, 3, t_len // 2], 1, t_len)
    mixed = trailing.copy()
    mixed[2] = random[2]
    mixed[4] = 1
    return {"full": np.full(N, t_len), "random": random, "trailing": trailing,
            "first-step-only": np.ones(N, dtype=int), "mixed": mixed}


def _grads(out, upstream, leaves):
    for p in leaves.values():
        p.grad = None
    ad.tsum(ad.mul(out, upstream)).backward()
    return {name: p.grad.copy() for name, p in leaves.items()}


def _check_against_oracle(fused, oracle, leaves, rng, atol=0.0):
    fused_out, oracle_out = fused(), oracle()
    npt.assert_allclose(fused_out.data, oracle_out.data, rtol=0, atol=atol)
    upstream = rng.normal(size=fused_out.shape)
    got = _grads(fused_out, upstream, leaves)
    want = _grads(oracle_out, upstream, leaves)
    for name in leaves:
        npt.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def test_pack_ranks_longest_first_and_keeps_ties_in_order():
    sizes, rows, steps = pack([2, 3, 1, 3])
    npt.assert_array_equal(sizes, [4, 3, 2])
    npt.assert_array_equal(rows, [1, 3, 0, 2, 1, 3, 0, 1, 3])
    npt.assert_array_equal(steps, [0, 0, 0, 0, 1, 1, 1, 2, 2])


@pytest.mark.parametrize("t_len", [1, 2, 9])
@pytest.mark.parametrize("d", ["fw", "bw"])
@pytest.mark.parametrize("lengths_kind", ["full", "random", "trailing", "first-step-only",
                                          "mixed"])
def test_gru_scan_matches_unfused_direction(t_len, d, lengths_kind):
    # the packed scan's real steps against the masked per-step oracle's
    rng = np.random.default_rng(t_len * 10 + len(lengths_kind))
    layer = BiGRU(rng, D_IN, HIDDEN, "g")
    x = Parameter(rng.normal(size=(N, t_len, D_IN)))
    lengths = _lengths(rng, t_len)[lengths_kind]
    sizes, rows, steps = pack(lengths)
    mask = np.arange(t_len) < lengths[:, None]
    leaves = {"x": x, **{k: v for k, v in layer.params.items() if f".{d}." in k}}
    _check_against_oracle(
        lambda: layer._direction(ad.getitem(x, (rows, steps)), sizes, d),
        lambda: ad.getitem(bigru_direction_unfused(layer, x, mask, d), (rows, steps)),
        leaves, rng, atol=1e-12)


@pytest.mark.parametrize("t_len", [1, 2, 9])
@pytest.mark.parametrize("d", ["fw", "bw"])
def test_lstm_scan_matches_unfused_direction(t_len, d):
    rng = np.random.default_rng(t_len)
    layer = BiLSTM(rng, D_IN, HIDDEN, "l")
    x = Parameter(rng.normal(size=(N, t_len, D_IN)))
    leaves = {"x": x, **{k: v for k, v in layer.params.items() if f".{d}." in k}}
    _check_against_oracle(lambda: layer._direction(x, d),
                          lambda: bilstm_direction_unfused(layer, x, d), leaves, rng)


def test_bidirectional_output_is_both_unfused_directions(rng):
    gru, lstm = BiGRU(rng, D_IN, HIDDEN, "g"), BiLSTM(rng, D_IN, HIDDEN, "l")
    x = Parameter(rng.normal(size=(N, 7, D_IN)))
    lengths = _lengths(rng, 7)["mixed"]
    sizes, rows, steps = pack(lengths)
    mask = np.arange(7) < lengths[:, None]
    want = np.concatenate([bigru_direction_unfused(gru, x, mask, d).data[rows, steps]
                           for d in ("fw", "bw")], axis=1)
    npt.assert_allclose(gru(ad.getitem(x, (rows, steps)), sizes).data, want, rtol=0,
                        atol=1e-12)
    want = np.concatenate([bilstm_direction_unfused(lstm, x, d).data
                           for d in ("fw", "bw")], axis=2)
    assert np.array_equal(lstm(x).data, want)
    with no_grad():
        assert np.array_equal(lstm(x).data, want)


def _count_tracked(monkeypatch):
    calls = []
    tracked = ad._tracked
    monkeypatch.setattr(ad, "_tracked",
                        lambda *args, **kw: calls.append(1) or tracked(*args, **kw))
    return calls


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_tape_size_does_not_grow_with_sequence_length(kind, rng, monkeypatch):
    layer = BiGRU(rng, D_IN, HIDDEN, "g") if kind == "gru" else BiLSTM(rng, D_IN, HIDDEN, "l")
    calls = _count_tracked(monkeypatch)
    counts = []
    for t_len in (1, 9):
        if kind == "gru":
            args = (Parameter(rng.normal(size=(N * t_len, D_IN))), np.full(t_len, N))
        else:
            args = (Parameter(rng.normal(size=(N, t_len, D_IN))),)
        calls.clear()
        layer(*args)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_scans_record_and_store_nothing_without_gradients(rng, monkeypatch):
    t_len, hidden = 64, 16
    pre3 = Parameter(rng.normal(size=(N * t_len, 3 * hidden)))
    pre4 = Parameter(rng.normal(size=(N, t_len, 4 * hidden)))
    u_zr = Parameter(rng.normal(size=(hidden, 2 * hidden)))
    u_n = Parameter(rng.normal(size=(hidden, hidden)))
    u = Parameter(rng.normal(size=(hidden, 4 * hidden)))
    runs = {"gru": lambda: ad.gru_scan(pre3, np.full(t_len, N), u_zr, u_n),
            "lstm": lambda: ad.lstm_scan(pre4, u, reverse=True)}
    calls = _count_tracked(monkeypatch)
    for name, run in runs.items():
        out_bytes = N * t_len * hidden * 8
        tracemalloc.start()
        with no_grad():
            out = run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert not out.requires_grad and out._parents == ()
        # the (N, T, h) states alone: no per-step gate arrays
        assert peak < 1.5 * out_bytes, name
        tracemalloc.start()
        recorded = run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert recorded.requires_grad
        assert peak > 4 * out_bytes, name
    assert len(calls) == 2
