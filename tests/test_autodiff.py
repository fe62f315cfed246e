"""Engine-level tests: op contracts, frozen oracles, gradient integrity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import autodiff as ad


def finite_arrays(shape):
    return st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ).map(lambda xs: np.array(xs).reshape(shape))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = ad.const([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.const(np.eye(2))
    assert np.allclose(ad.matmul(a, eye).data, a.data)


def test_matmul_zero():
    z = ad.const(np.zeros((2, 3)))
    b = ad.const(np.arange(6.0).reshape(3, 2))
    assert np.array_equal(ad.matmul(z, b).data, np.zeros((2, 2)))


def test_matmul_hand_product():
    # frozen oracle: hand/independent product computed before the build
    a = ad.const([[1.0, 2.0], [3.0, 4.0]])
    b = ad.const([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = ad.const(np.zeros((2, 3)))
    b = ad.const(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)


def test_matmul_backward_rules():
    a = ad.param([[1.0, 2.0], [3.0, 4.0]])
    b = ad.param([[5.0, 6.0], [7.0, 8.0]])
    with ad.graph_scope() as g:
        c = ad.matmul(a, b)
        ad.backward(ad.sum_(c), g)
    ones = np.ones((2, 2))
    assert np.allclose(a.grad_matrix(), ones @ b.data.T)
    assert np.allclose(b.grad_matrix(), a.data.T @ ones)


# ---------------------------------------------------------------------------
# elementwise


def test_elementwise_trivial_identities():
    x = ad.const([[0.3, -1.2, 0.0]])
    assert ad.tanh(ad.const([[0.0]])).data[0, 0] == 0.0
    assert ad.sigmoid(ad.const([[0.0]])).data[0, 0] == 0.5
    assert np.array_equal(ad.add(x, ad.const(np.zeros((1, 3)))).data, x.data)


def test_elementwise_shape_mismatch():
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\) and \(2, 4\) do not broadcast"):
            op(ad.const(np.ones((2, 3))), ad.const(np.ones((2, 4))))


def test_single_axis_broadcast_and_backward():
    a = ad.param(np.ones((3, 4)))
    b = ad.param(np.full((1, 4), 2.0))
    with ad.graph_scope() as g:
        out = ad.mul(a, b)
        ad.backward(ad.sum_(out), g)
    assert out.shape == (3, 4)
    assert np.allclose(b.grad_matrix(), np.full((1, 4), 3.0))  # summed over rows


def test_log_domain_error():
    with pytest.raises(ad.DomainError):
        ad.log(ad.const([[0.0, 1.0]]))
    with pytest.raises(ad.DomainError):
        ad.log(ad.const([[-1.0]]))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_logits():
    out = ad.softmax(ad.const([[3.7, 3.7, 3.7]]))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_frozen_oracle():
    # softmax([0, ln 3]) = [0.25, 0.75], frozen from direct exp/normalize
    out = ad.softmax(ad.const([[0.0, np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ad.NumericError):
        ad.softmax(ad.const([[np.nan, 0.0]]))
    with pytest.raises(ad.NumericError):
        ad.softmax(ad.const([[np.inf, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(finite_arrays((2, 5)))
def test_softmax_normalization_and_shift_invariance(arr):
    out = ad.softmax(ad.const(arr))
    assert np.all(out.data >= 0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
    shifted = ad.softmax(ad.const(arr + 5.0))
    assert np.allclose(out.data, shifted.data, atol=1e-9)


# ---------------------------------------------------------------------------
# gumbel softmax


def test_gumbel_zero_noise_uniform():
    out = ad.gumbel_softmax_sample(ad.const([[1.0, 1.0, 1.0]]), 1.0, np.zeros((1, 3)))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_gumbel_low_temperature_near_one_hot():
    out = ad.gumbel_softmax_sample(ad.const([[0.0, 1.0]]), 0.01, np.zeros((1, 2)))
    assert out.data[0, 1] >= 0.99


def test_gumbel_frozen_oracle():
    # softmax([6.0, -2.0]) frozen from direct formula evaluation
    out = ad.gumbel_softmax_sample(ad.const([[0.5, -0.5]]), 0.1,
                                   np.array([[0.1, 0.3]]))
    expect = np.exp([6.0, -2.0]) / np.exp([6.0, -2.0]).sum()
    assert np.allclose(out.data[0], expect, atol=1e-12)
    assert np.allclose(out.data[0], [9.9966465e-01, 3.3535013e-04], atol=1e-9)


def test_gumbel_temperature_must_be_positive():
    with pytest.raises(ad.ParameterError):
        ad.gumbel_softmax_sample(ad.const([[0.0, 1.0]]), 0.0, np.zeros((1, 2)))


def test_gumbel_gradient_reaches_logits_only():
    logits = ad.param([[0.2, -0.4, 0.1]])
    noise = ad.param([[0.3, 0.0, -0.2]])  # even if it asks for grad, none flows
    with ad.graph_scope() as g:
        out = ad.gumbel_softmax_sample(logits, 0.5, noise)
        ad.backward(ad.sum_(ad.mul(out, ad.const([[1.0, -2.0, 3.0]]))), g)
    assert np.any(logits.grad != 0)
    assert np.all(noise.grad == 0)


@settings(max_examples=40, deadline=None)
@given(finite_arrays((1, 4)), st.floats(min_value=0.05, max_value=2.0))
def test_gumbel_sums_to_one_and_low_temp_matches_argmax(arr, temp):
    noise = ad.sample_gumbel(np.random.default_rng(0), (1, 4))
    out = ad.gumbel_softmax_sample(ad.const(arr), temp, noise)
    assert np.allclose(out.data.sum(), 1.0, atol=1e-9)
    cold = ad.gumbel_softmax_sample(ad.const(arr), 1e-4, noise)
    assert int(np.argmax(cold.data)) == int(np.argmax(arr + noise))


# ---------------------------------------------------------------------------
# backward


def test_backward_quadratic():
    x = ad.param([1.0, -2.0, 3.0], shape=(1, 3))
    with ad.graph_scope() as g:
        ad.backward(ad.sum_(ad.mul(x, x)), g)
    assert np.allclose(x.grad_matrix(), 2 * x.data)


def test_backward_disconnected_leaf_keeps_zero_grad():
    x = ad.param(np.ones((1, 2)))
    other = ad.param(np.ones((1, 2)))
    with ad.graph_scope() as g:
        loss = ad.sum_(ad.mul(x, x))
        _ = ad.tanh(other)  # reachable from nothing
        ad.backward(loss, g)
    assert np.all(other.grad == 0)


def test_backward_rejects_non_scalar_root():
    x = ad.param(np.ones((2, 2)))
    with ad.graph_scope() as g:
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            ad.backward(y, g)


def test_backward_matches_finite_difference_tanh_chain():
    # frozen derived oracle: d/dW sum(tanh(W x)), FD step 1e-5
    rng = np.random.default_rng(4)
    w = ad.param(rng.uniform(-1, 1, size=(3, 3)))
    x = ad.const(rng.uniform(-1, 1, size=(3, 2)))
    err = ad.grad_check(lambda: ad.sum_(ad.tanh(ad.matmul(w, x))), [w], step=1e-5)
    assert err < 1e-4


def test_repeated_backward_after_zero_grad_is_deterministic():
    x = ad.param([0.3, -0.7], shape=(1, 2))
    with ad.graph_scope() as g:
        loss = ad.sum_(ad.exp(ad.mul(x, x)))
        ad.backward(loss, g)
        first = x.grad.copy()
        g.zero_grads()
        x.zero_grad()
        ad.backward(loss, g)
    assert np.array_equal(first, x.grad)


def test_graph_topological_order_invariant():
    x = ad.param(np.ones((1, 2)))
    with ad.graph_scope() as g:
        y = ad.tanh(x)
        z = ad.mul(y, y)
        ad.sum_(z)
    for rec in g.nodes:
        for i in rec.input_ids:
            assert i < rec.output_id


# ---------------------------------------------------------------------------
# fused lstm cell (one node, two outputs)


def _lstm_inputs(seed):
    rng = np.random.default_rng(seed)
    shapes = ((3, 3), (3, 2), (3, 2), (3, 8), (2, 8), (1, 8))
    return [ad.param(rng.uniform(-2.0, 2.0, size=s)) for s in shapes]


@pytest.mark.parametrize("output", [0, 1], ids=["only_h", "only_c"])
def test_lstm_cell_grad_check_with_one_output_consumed(output):
    # only c' consumed: backward must still run a node whose h' has no gradient
    cell = _lstm_inputs(5)
    mix = ad.const(np.random.default_rng(6).uniform(-1.0, 1.0, (3, 2)))
    err = ad.grad_check(lambda: ad.sum_(ad.mul(ad.lstm_cell(*cell)[output], mix)), cell)
    assert err < 1e-6


def test_lstm_cell_is_one_node_and_zero_grads_clears_both_outputs():
    cell = _lstm_inputs(7)
    with ad.graph_scope() as g:
        h2, c2 = ad.lstm_cell(*cell)
        assert [rec.kind for rec in g.nodes] == ["lstm_cell"]
        ad.backward(ad.sum_(ad.mul(h2, c2)), g)
        assert h2._grad is not None and c2._grad is not None
        g.zero_grads()
    assert h2._grad is None and c2._grad is None


def test_lstm_cell_shape_error_names_shapes():
    x, h, c, wx, wh, b = _lstm_inputs(8)
    with pytest.raises(ad.ShapeError, match=r"\(3, 3\)"):
        ad.lstm_cell(x, h, c, wh, wh, b)


# ---------------------------------------------------------------------------
# whole-recurrence lstm (one node)

RAGGED_MASK = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=float)


def _lstm_seq_inputs(seed):
    # x (B=3, T=4, E=3), h0, c0, wx, wh, b for H = 2
    rng = np.random.default_rng(seed)
    shapes = ((3, 4, 3), (3, 2), (3, 2), (3, 8), (2, 8), (1, 8))
    return [ad.param(rng.uniform(-2.0, 2.0, size=s)) for s in shapes]


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_seq_grad_check(reverse, masked):
    inputs = _lstm_seq_inputs(5)
    mix = ad.const(np.random.default_rng(6).uniform(-1.0, 1.0, (3, 4, 2)))
    mask = RAGGED_MASK if masked else None
    err = ad.grad_check(lambda: ad.sum_(ad.mul(
        ad.lstm_seq(*inputs, mask=mask, reverse=reverse), mix)), inputs)
    assert err < 1e-6


def test_lstm_seq_is_one_node_and_no_grad_gives_the_same_states():
    inputs = _lstm_seq_inputs(7)
    with ad.graph_scope() as g:
        out = ad.lstm_seq(*inputs, mask=RAGGED_MASK, reverse=True)
        assert [rec.kind for rec in g.nodes] == ["lstm_seq"]
    with ad.no_grad(), ad.graph_scope() as g:
        plain = ad.lstm_seq(*inputs, mask=RAGGED_MASK, reverse=True)
        assert g.nodes == [] and not plain.requires_grad
    assert np.array_equal(out.data, plain.data)
    assert np.all(out.data[1, 2:] == 0.0) and np.all(out.data[2, 3] == 0.0)


def test_lstm_seq_shape_errors():
    x, h0, c0, wx, wh, b = _lstm_seq_inputs(8)
    bad = {
        "2-d x": (ad.param(np.ones((3, 3))), h0, c0, wx, wh, b),
        "zero steps": (ad.param(np.ones((3, 0, 3))), h0, c0, wx, wh, b),
        "wx rows": (x, h0, c0, wh, wh, b),
        "h0 rows": (x, ad.param(np.ones((1, 2))), c0, wx, wh, b),
        "c0 width": (x, h0, ad.param(np.ones((3, 3))), wx, wh, b),
    }
    for name, args in bad.items():
        with pytest.raises(ad.ShapeError, match="lstm_seq"):
            ad.lstm_seq(*args)
            pytest.fail(name)
    with pytest.raises(ad.ShapeError, match="mask"):
        ad.lstm_seq(x, h0, c0, wx, wh, b, mask=np.ones((3, 3)))


# ---------------------------------------------------------------------------
# scatter_cols


SCATTER_IDS = {
    "distinct": np.array([4, 1, 0]),
    "repeated": np.array([2, 5, 2]),  # a plan that repeats a token id
}


@pytest.mark.parametrize("case", sorted(SCATTER_IDS))
@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["rows", "groups"])
def test_scatter_cols_matches_one_hot_matmul_and_grad_checks(case, shape):
    ids = SCATTER_IDS[case]
    rng = np.random.default_rng(12)
    w = ad.param(rng.uniform(-1.0, 1.0, shape))
    one_hot = np.zeros((len(ids), 6))
    one_hot[np.arange(len(ids)), ids] = 1.0
    assert np.allclose(ad.scatter_cols(w, ids, 6).data, w.data @ one_hot, rtol=0, atol=1e-15)
    mix = ad.const(rng.uniform(-1.0, 1.0, shape[:-1] + (6,)))
    err = ad.grad_check(lambda: ad.sum_(ad.mul(ad.scatter_cols(ad.tanh(w), ids, 6), mix)),
                        [w])
    assert err < 1e-8


def test_scatter_cols_rejects_ids_that_do_not_fit():
    w = ad.param(np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match="past the end"):
        ad.scatter_cols(w, [0, 1, 6], 6)
    with pytest.raises(ad.ShapeError, match="do not fit"):
        ad.scatter_cols(w, [0, 1], 6)


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_linear_is_exact():
    x = ad.param([0.5, -1.5], shape=(1, 2))
    w = ad.const([[2.0], [3.0]])
    err = ad.grad_check(lambda: ad.reshape(ad.matmul(x, w), (1, 1)), [x])
    assert err < 1e-9


def test_grad_check_detects_corrupted_backward_rule():
    x = ad.param([0.4, -0.8, 1.1], shape=(1, 3))

    def bad_tanh(t):
        data = np.tanh(t.data)
        out = ad.Tensor(data)

        def bw(g):
            t._accumulate(g * (1.0 - data * data) * 1.5)  # deliberately wrong

        return ad.record("bad_tanh", (t,), out, bw)

    err = ad.grad_check(lambda: ad.sum_(bad_tanh(x)), [x])
    assert err > 1e-2


# ---------------------------------------------------------------------------
# tensor bookkeeping


def test_tensor_invariants():
    t = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert len(t.values) == len(t.grad) == int(np.prod(t.shape))
    assert np.all(t.grad == 0)
    t2 = ad.tensor([1.0], shape=(1, 1))
    assert t2.node_id > t.node_id


def test_no_grad_blocks_recording():
    x = ad.param(np.ones((1, 2)))
    with ad.graph_scope() as g:
        with ad.no_grad():
            y = ad.tanh(x)
        assert not y.requires_grad
        assert g.nodes == []


def test_clip_global_norm():
    a = ad.param(np.ones((2, 2)))
    b = ad.param(np.ones((1, 3)))
    a._accumulate(np.full((2, 2), 3.0))
    b._accumulate(np.full((1, 3), 4.0))
    norm = ad.clip_global_norm([a, b], 5.0)
    assert norm == pytest.approx(np.sqrt(4 * 9 + 3 * 16))
    joint = np.sqrt((a.grad_matrix() ** 2).sum() + (b.grad_matrix() ** 2).sum())
    assert joint == pytest.approx(5.0)
