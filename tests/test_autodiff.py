import gc

import numpy as np
import numpy.testing as npt
import pytest

from lexcite import autodiff as ad
from lexcite.autodiff import Parameter, Tensor, no_grad

from oracles import fd_gradients, max_rel_error, softmax_scalar


def fd_check(build_loss, params, tol=1e-4, h=1e-6):
    for p in params.values():
        p.grad = None
    loss = build_loss()
    loss.backward()
    numeric = fd_gradients(lambda: _eval(build_loss), params, h=h)
    for name, p in params.items():
        analytic = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        err = max_rel_error(analytic, numeric[name])
        assert err <= tol, f"{name}: rel error {err}"


def _eval(build_loss):
    with no_grad():
        return build_loss().item()


class TestElementwise:
    def test_add_mul_broadcast_gradients(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)))
        c = Parameter(rng.normal(size=(3, 1)))
        fd_check(lambda: ad.tsum(ad.mul(ad.add(a, b), c)), {"a": a, "b": b, "c": c})

    def test_matmul_gradients(self, rng):
        a = Parameter(rng.normal(size=(3, 5)))
        b = Parameter(rng.normal(size=(5, 2)))
        fd_check(lambda: ad.tsum(ad.matmul(a, b)), {"a": a, "b": b})

    def test_affine_equals_add_of_matmul_bitwise(self, rng):
        # the fused op must reproduce the two-node chain exactly, forward and
        # every gradient, so swapping it in moves no model output
        x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=(3,))
        g = rng.normal(size=(7, 3))
        results = []
        for op in (lambda x, w, b: ad.add(ad.matmul(x, w), b), ad.affine):
            params = [Parameter(a.copy()) for a in (x, w, b)]
            out = op(*params)
            out.backward(g)
            results.append([out.data] + [p.grad for p in params])
        for chain, fused in zip(*results):
            npt.assert_array_equal(fused, chain)
        with no_grad():
            npt.assert_array_equal(ad.affine(x, w, b).data, results[0][0])
        with pytest.raises(ValueError):
            ad.affine(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("fn", [ad.log, ad.tanh, ad.sigmoid])
    def test_unary_gradients(self, fn, rng):
        x = Parameter(rng.uniform(0.2, 1.5, size=(4, 3)))
        fd_check(lambda: ad.tsum(fn(x)), {"x": x})

    def test_relu_and_leaky(self, rng):
        x = Parameter(rng.normal(size=(20,)) + 0.05)
        fd_check(lambda: ad.tsum(ad.relu(x)), {"x": x})
        fd_check(lambda: ad.tsum(ad.leaky_relu(x, 0.01)), {"x": x})
        npt.assert_allclose(ad.leaky_relu(Tensor([-2.0, 3.0]), 0.01).data, [-0.02, 3.0])

    def test_clip_blocks_gradient_outside(self):
        x = Parameter(np.array([0.5, 2.0, -1.0]))
        out = ad.tsum(ad.clip(x, 0.0, 1.0))
        out.backward()
        npt.assert_allclose(x.grad, [1.0, 0.0, 0.0])


class TestShapes:
    def test_reshape_transpose_concat_stack(self, rng):
        a = Parameter(rng.normal(size=(2, 6)))
        b = Parameter(rng.normal(size=(3, 4)))

        def loss():
            x = ad.reshape(a, (3, 4))
            y = ad.transpose(ad.concat([x, b], axis=0), (1, 0))
            z = ad.stack([y[:, 0], y[:, 5]], axis=1)
            return ad.tsum(ad.tanh(z))

        fd_check(loss, {"a": a, "b": b})

    def test_getitem_scatter(self, rng):
        a = Parameter(rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2])

        def loss():
            rows = ad.embedding(a, idx)
            spread = ad.scatter_rows(rows, np.array([1, 3, 4]), 6)
            return ad.tsum(ad.sigmoid(spread))

        fd_check(loss, {"a": a})

    def test_sum_mean_axes(self, rng):
        a = Parameter(rng.normal(size=(2, 3, 4)))
        fd_check(lambda: ad.tsum(ad.tmean(a, axis=1)), {"a": a})
        fd_check(lambda: ad.tsum(ad.tsum(a, axis=(0, 2))), {"a": a})


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        p = ad.softmax(x, axis=1)
        npt.assert_allclose(p.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_large_scores_stay_finite(self, rng):
        # the max shift keeps exp from overflowing, and leaves the weights as
        # the scalar softmax gives them
        scores = rng.normal(size=(2, 4)) + np.array([[1000.0], [-1000.0]])
        p = ad.softmax(Tensor(scores), axis=1)
        for row, want in zip(p.data, scores):
            npt.assert_allclose(row, softmax_scalar(want.tolist()), rtol=0, atol=1e-15)
        npt.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-12)

    def test_nan_score_gives_a_nan_row(self):
        p = ad.softmax(Tensor(np.array([[1.0, np.nan, 2.0], [1.0, 0.0, 2.0]])), axis=1)
        assert np.isnan(p.data[0]).all()
        assert np.isfinite(p.data[1]).all()

    def test_gradient(self, rng):
        x = Parameter(rng.normal(size=(3, 5)))
        w = rng.normal(size=(3, 5))
        fd_check(lambda: ad.tsum(ad.mul(ad.softmax(x, axis=1), w)), {"x": x})
        fd_check(lambda: ad.tsum(ad.mul(ad.softmax(x, axis=0), w)), {"x": x})

    def test_packed_ops_match_the_masked_time_major_grid(self, rng):
        # three sequences of lengths 3, 2 and 2, packed time-major
        sizes = np.array([3, 3, 1])
        live = np.arange(3)[:, None] < np.array([3, 2, 2])[None, :]
        x = Parameter(rng.normal(size=7))
        a = Parameter(rng.normal(size=(7, 2)))
        grid = np.zeros((3, 3))
        grid[live] = x.data
        want = np.array([softmax_scalar(col, keep) for col, keep in zip(grid.T, live.T)]).T[live]
        npt.assert_allclose(ad.packed_softmax(x, sizes).data, want, rtol=0, atol=1e-15)
        cells = np.zeros((3, 3, 2))
        cells[live] = a.data
        npt.assert_array_equal(ad.packed_sum(a, sizes).data, cells.sum(axis=0))
        w, v = rng.normal(size=7), rng.normal(size=(3, 2))
        fd_check(lambda: ad.tsum(ad.mul(ad.packed_softmax(x, sizes), w)), {"x": x})
        fd_check(lambda: ad.tsum(ad.mul(ad.packed_sum(a, sizes), v)), {"a": a})


class TestEngine:
    def test_no_grad_builds_no_graph(self):
        a = Parameter(np.ones(3))
        with no_grad():
            out = ad.mul(a, 2.0)
        assert not out.requires_grad
        assert out._parents == ()

    def test_backward_requires_scalar(self):
        a = Parameter(np.ones(3))
        with pytest.raises(ValueError):
            ad.mul(a, 2.0).backward()

    def test_gradient_accumulates_over_reuse(self):
        a = Parameter(np.array([2.0]))
        out = ad.add(ad.mul(a, 3.0), ad.mul(a, 4.0))
        ad.tsum(out).backward()
        npt.assert_allclose(a.grad, [7.0])

    def test_deep_chain_iterative_toposort(self):
        # deep graphs must not hit the recursion limit
        x = Parameter(np.array([0.1]))
        y = x
        for _ in range(5000):
            y = ad.add(y, 1e-4)
        ad.tsum(y).backward()
        npt.assert_allclose(x.grad, [1.0])

    def test_input_used_twice_gets_both_shares(self):
        x = Parameter(np.array([3.0, -2.0]))
        ad.tsum(ad.mul(x, x)).backward()
        npt.assert_allclose(x.grad, [6.0, -4.0])

    def test_first_share_through_a_view_is_copied(self):
        # reshape's VJP returns a view of its output's gradient; the input's
        # later shares must add to a private buffer, not write through the view
        x = Parameter(np.arange(6.0).reshape(2, 3))
        y = ad.mul(x, 2.0)
        flat = ad.reshape(y, (6,))
        w = np.arange(1.0, 7.0)
        v = np.full((2, 3), 10.0)
        ad.add(ad.tsum(ad.mul(flat, w)), ad.tsum(ad.mul(y, v))).backward()
        npt.assert_array_equal(flat.grad, w)
        npt.assert_array_equal(y.grad, w.reshape(2, 3) + v)
        npt.assert_array_equal(x.grad, 2.0 * (w.reshape(2, 3) + v))

    def test_repeated_fancy_index_accumulates_every_share(self):
        x = Parameter(np.arange(4.0))
        ad.tsum(ad.mul(x[[0, 0, 2]], np.array([1.0, 10.0, 100.0]))).backward()
        npt.assert_allclose(x.grad, [11.0, 0.0, 100.0, 0.0])

    def test_constant_input_gets_no_grad_buffer(self):
        x = Parameter(np.ones(3))
        c = Tensor(np.full(3, 2.0))
        ad.tsum(ad.concat([ad.mul(x, c), c], axis=0)).backward()
        assert c.grad is None
        npt.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_nodes_recorded_only_when_an_input_needs_a_gradient(self, monkeypatch):
        calls = []
        tracked = ad._tracked
        monkeypatch.setattr(ad, "_tracked",
                            lambda *args, **kw: calls.append(1) or tracked(*args, **kw))
        x = Parameter(np.ones((2, 3)))
        c = Tensor(np.ones((2, 3)))

        def ops(a):
            return ad.tsum(ad.concat([ad.tanh(ad.matmul(a, np.ones((3, 2)))), a[:, :2]], axis=1))

        with no_grad():
            ops(x)
        ops(c)
        assert calls == []
        ops(x)
        assert len(calls) == 5


def _live_tensors():
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def _check_held_nodes(build, params, expected):
    """Run backward once on build()'s loss, holding the nodes build() names.
    Each parameter's gradient must match finite differences and each held
    node's its expected gradient, and no held node's forward value may
    move."""
    for p in params.values():
        p.grad = None
    loss, held = build()
    before = {name: node.data.copy() for name, node in held.items()}
    loss.backward()
    numeric = fd_gradients(lambda: _eval(lambda: build()[0]), params)
    for name, p in params.items():
        assert max_rel_error(p.grad.reshape(-1), numeric[name]) <= 1e-4, name
    for name, node in held.items():
        npt.assert_array_equal(node.data, before[name], err_msg=name)
        npt.assert_allclose(node.grad, expected[name], rtol=1e-6, atol=1e-9, err_msg=name)


def _scan_inputs(rng):
    """A packed batch of three sequences of lengths 3, 2 and 1 (hidden 2)."""
    sizes = np.array([3, 2, 1])
    return (sizes, Tensor(rng.normal(size=(6, 3))),
            {"w": Parameter(rng.normal(size=(3, 6)) * 0.5), "b": Parameter(rng.normal(size=6)),
             "u_zr": Parameter(rng.normal(size=(2, 4)) * 0.5),
             "u_n": Parameter(rng.normal(size=(2, 2)) * 0.5)})


class TestConsumedGraph:
    def test_backward_frees_the_tape(self, rng):
        sizes, inputs, params = _scan_inputs(rng)
        v = rng.normal(size=(6, 2))

        def forward():  # holds nothing but the root and the scan's output
            pre = ad.affine(inputs, params["w"], params["b"])
            states = ad.gru_scan(pre, sizes, params["u_zr"], params["u_n"])
            return ad.tsum(ad.mul(ad.tanh(states), v)), states

        gc.collect()
        baseline = _live_tensors()
        loss, states = forward()
        assert _live_tensors() > baseline + 2
        loss.backward()
        assert _live_tensors() == baseline + 2
        # the held interior node keeps its value and its gradient
        with no_grad():
            _, again = forward()
        npt.assert_array_equal(states.data, again.data)
        npt.assert_allclose(states.grad, v * (1.0 - np.tanh(states.data) ** 2), rtol=1e-12)
        assert states._parents is None and params["w"]._parents == ()

    def test_a_second_backward_through_a_consumed_node_raises(self):
        x = Parameter(np.array([1.0, 2.0]))
        y = ad.mul(x, 3.0)
        loss = ad.tsum(y)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            ad.tsum(ad.mul(y, 2.0)).backward()
        npt.assert_array_equal(x.grad, first)  # nothing was propagated
        # a consumed node's value is still usable, and a leaf starts new graphs
        with no_grad():
            npt.assert_array_equal(ad.mul(y, 2.0).data, [6.0, 12.0])
        ad.tsum(ad.mul(x, 2.0)).backward()
        npt.assert_array_equal(x.grad, first + 2.0)


class TestShareAdoption:
    """A first share becomes the input's gradient buffer only when the VJP
    made it fresh; later shares are added into that buffer in place, so it
    must not be the node's own gradient, a view or a forward array. The
    reshape view is TestEngine.test_first_share_through_a_view_is_copied."""

    def test_sum_over_all_axes_passes_its_own_gradient(self):
        # tsum's VJP returns g itself; y's later share must not land in s.grad
        x = Parameter(np.array(1.5))

        def build():
            y = ad.mul(x, x)
            s = ad.tsum(y)
            return ad.add(s, ad.mul(y, 5.0)), {"s": s, "y": y}

        _check_held_nodes(build, {"x": x}, {"s": 1.0, "y": 6.0})

    def test_unbroadcast_identity_passes_its_own_gradient(self, rng):
        x = Parameter(rng.normal(size=3))
        w, v, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)

        def build():
            y = ad.mul(x, 2.0)
            z = ad.add(y, c)
            loss = ad.add(ad.tsum(ad.mul(z, w)), ad.tsum(ad.mul(y, v)))
            return loss, {"z": z, "y": y}

        _check_held_nodes(build, {"x": x}, {"z": w, "y": w + v})

    def test_scan_input_that_feeds_a_second_op(self, rng):
        # the scan's fresh dpre is adopted as pre's buffer, and the second
        # op's share is then added into it
        sizes, inputs, params = _scan_inputs(rng)
        w1, w2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 6))

        def from_pre(pre):
            states = ad.gru_scan(pre, sizes, params["u_zr"], params["u_n"])
            return ad.add(ad.tsum(ad.mul(states, w1)), ad.tsum(ad.mul(pre, w2))), states

        def build():
            pre = ad.affine(inputs, params["w"], params["b"])
            loss, states = from_pre(pre)
            return loss, {"pre": pre, "states": states}

        with no_grad():
            leaf = Parameter(build()[1]["pre"].data)
        dpre = fd_gradients(lambda: _eval(lambda: from_pre(leaf)[0]), {"pre": leaf})["pre"]
        _check_held_nodes(build, params, {"pre": np.reshape(dpre, leaf.shape), "states": w1})

    def test_only_a_fresh_whole_share_becomes_the_buffer(self):
        base = np.arange(6.0)
        frozen = np.arange(3.0)
        frozen.flags.writeable = False
        shares = {"fresh": (np.arange(3.0), True), "view": (base[:3], False),
                  "read-only": (frozen, False), "float32": (np.arange(3.0, dtype=np.float32), False),
                  "broadcast": (np.array(2.0), False)}
        for name, (share, adopted) in shares.items():
            x = Parameter(np.ones(3))
            ad._tracked(np.zeros(3), x, lambda g, share=share: share).backward(np.ones(3))
            assert (x.grad is share) == adopted, name
            npt.assert_array_equal(x.grad, np.broadcast_to(share, (3,)), err_msg=name)
