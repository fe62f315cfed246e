"""Engine-level tests: op contracts, frozen oracles, gradient integrity."""

from __future__ import annotations

import tracemalloc

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
    with ad.graph_scope():
        c = ad.matmul(a, b)
        ad.backward(ad.sum_(c))
    ones = np.ones((2, 2))
    assert np.allclose(a.grad, ones @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ ones)


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
    with ad.graph_scope():
        out = ad.mul(a, b)
        ad.backward(ad.sum_(out))
    assert out.shape == (3, 4)
    assert np.allclose(b.grad, np.full((1, 4), 3.0))  # summed over rows


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
    with ad.graph_scope():
        out = ad.gumbel_softmax_sample(logits, 0.5, noise)
        ad.backward(ad.sum_(ad.mul(out, ad.const([[1.0, -2.0, 3.0]]))))
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
    x = ad.param([[1.0, -2.0, 3.0]])
    with ad.graph_scope():
        ad.backward(ad.sum_(ad.mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_disconnected_leaf_keeps_zero_grad():
    x = ad.param(np.ones((1, 2)))
    other = ad.param(np.ones((1, 2)))
    with ad.graph_scope():
        loss = ad.sum_(ad.mul(x, x))
        _ = ad.tanh(other)  # reachable from nothing
        ad.backward(loss)
    assert np.all(other.grad == 0)


def test_backward_rejects_non_scalar_root():
    x = ad.param(np.ones((2, 2)))
    with ad.graph_scope():
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            ad.backward(y)


def test_backward_matches_finite_difference_tanh_chain():
    # frozen derived oracle: d/dW sum(tanh(W x)), FD step 1e-5
    rng = np.random.default_rng(4)
    w = ad.param(rng.uniform(-1, 1, size=(3, 3)))
    x = ad.const(rng.uniform(-1, 1, size=(3, 2)))
    err = ad.grad_check(lambda: ad.sum_(ad.tanh(ad.matmul(w, x))), [w], step=1e-5)
    assert err < 1e-4


def _exp_square_grad(x):
    with ad.graph_scope() as g:
        loss = ad.sum_(ad.exp(ad.mul(x, x)))
        ad.backward(loss)
    return g, loss


def test_second_backward_over_a_spent_graph_raises_and_a_rebuilt_one_repeats():
    x = ad.param([[0.3, -0.7]])
    g, loss = _exp_square_grad(x)
    assert g.nodes == []  # backward consumed the tape
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="spent"), ad.graph_scope(g):
        ad.backward(loss)
    assert x.grad.tobytes() == first.tobytes()  # the failed call added nothing
    x.zero_grad()
    _exp_square_grad(x)
    assert x.grad.tobytes() == first.tobytes()


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


def test_lstm_cell_is_one_node_and_backward_frees_both_output_grads():
    cell = _lstm_inputs(7)
    with ad.graph_scope() as g:
        h2, c2 = ad.lstm_cell(*cell)
        assert [rec.kind for rec in g.nodes] == ["lstm_cell"]
        ad.backward(ad.sum_(ad.mul(h2, c2)))
    assert h2._grad is None and c2._grad is None
    assert all(np.any(t.grad != 0) for t in cell)


def test_lstm_cell_shape_error_names_shapes():
    x, h, c, wx, wh, b = _lstm_inputs(8)
    with pytest.raises(ad.ShapeError, match=r"\(3, 3\)"):
        ad.lstm_cell(x, h, c, wh, wh, b)


# ---------------------------------------------------------------------------
# whole-recurrence lstm (one node)

RAGGED = [4, 2, 3]


def _lstm_seq_inputs(seed):
    # x (B=3, T=4, E=3), h0, c0, wx, wh, b for H = 2
    rng = np.random.default_rng(seed)
    shapes = ((3, 4, 3), (3, 2), (3, 2), (3, 8), (2, 8), (1, 8))
    return [ad.param(rng.uniform(-2.0, 2.0, size=s)) for s in shapes]


def _one_direction(x, h0, c0, wx, wh, b, lengths=None, reverse=False):
    return ad.lstm_lockstep(x, h0, c0, [ad.LSTMDirection(wx, wh, b, reverse)], lengths)


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_seq_grad_check(reverse, masked):
    # "mask": ragged row lengths, which a forward direction runs past
    inputs = _lstm_seq_inputs(5)
    mix = ad.const(np.random.default_rng(6).uniform(-1.0, 1.0, (3, 4, 2)))
    lengths = RAGGED if masked else None
    err = ad.grad_check(lambda: ad.sum_(ad.mul(
        _one_direction(*inputs, lengths, reverse), mix)), inputs)
    assert err < 1e-6


def test_lstm_seq_is_one_node_and_no_grad_gives_the_same_states():
    inputs = _lstm_seq_inputs(7)
    with ad.graph_scope() as g:
        out = _one_direction(*inputs, RAGGED, reverse=True)
        assert [rec.kind for rec in g.nodes] == ["lstm_seq"]
    with ad.no_grad(), ad.graph_scope() as g:
        plain = _one_direction(*inputs, RAGGED, reverse=True)
        assert g.nodes == [] and not plain.requires_grad
    assert np.array_equal(out.data, plain.data)
    # the padding runs after the row's own tokens, so its states are not zero
    assert np.all(out.data[1, 2:] != 0.0) and np.all(out.data[2, 3] != 0.0)


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
        with pytest.raises(ad.ShapeError, match="lstm_lockstep"):
            _one_direction(*args)
            pytest.fail(name)
    for lengths in ([4, 2], [4, 2, 3, 1], [4, 0, 3], [4, 5, 3], [4, 2.5, 3]):
        with pytest.raises(ad.ShapeError, match="lengths"):
            _one_direction(x, h0, c0, wx, wh, b, lengths, reverse=True)
            pytest.fail(str(lengths))


def test_lstm_lockstep_is_one_node_and_checks_each_direction():
    x, h0, c0, wx, wh, b = _lstm_seq_inputs(9)
    directions = [ad.LSTMDirection(wx, wh, b), ad.LSTMDirection(wx, wh, b, reverse=True)]
    with ad.graph_scope() as g:
        out = ad.lstm_lockstep(x, h0, c0, directions, RAGGED)
        assert [rec.kind for rec in g.nodes] == ["lstm_seq"]
    assert out.shape == (3, 4, 4)
    with ad.no_grad():
        assert np.array_equal(out.data[..., 2:],
                              _one_direction(x, h0, c0, wx, wh, b, RAGGED, True).data)
    with pytest.raises(ad.ShapeError, match=r"wh \(3, 8\)"):
        ad.lstm_lockstep(x, h0, c0, [directions[0], ad.LSTMDirection(wx, wx, b)])


def test_lstm_lockstep_node_keeps_gate_activations_c_and_the_time_index():
    # per (step, direction, row) the node may keep 4H gate activations, H of
    # c and an 8-byte time index, plus the stacked recurrent weights and
    # biases; keeping the per-step h as well would add 8H bytes and fail
    rng = np.random.default_rng(13)
    bsz, steps, hid, emb, n_dir = 16, 10, 8, 6, 2
    lengths = rng.integers(1, steps + 1, bsz).tolist()
    x = ad.param(rng.uniform(-1.0, 1.0, (bsz, steps, emb)))
    h0 = c0 = ad.zeros((bsz, hid))
    directions = [ad.LSTMDirection(*(ad.param(rng.uniform(-1.0, 1.0, shape)) for shape in
                                     ((emb, 4 * hid), (hid, 4 * hid), (1, 4 * hid))), reverse)
                  for reverse in (False, True)]
    with ad.graph_scope():
        tracemalloc.start()
        try:
            out = ad.lstm_lockstep(x, h0, c0, directions, lengths)
            kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
    per_slot = 8 * (5 * hid + 1) * steps * n_dir * bsz
    weights = 8 * n_dir * (hid + 1) * 4 * hid
    assert kept <= per_slot + weights + 4096, (kept, per_slot, weights)


def test_sigmoid_is_bitwise_the_two_branch_form():
    # exp(min(x, 0)) / (exp(-|x|) + 1) against where(x >= 0, 1, e) / (1 + e)
    rng = np.random.default_rng(17)
    x = np.concatenate([
        rng.normal(0.0, 3.0, 100_000), rng.normal(0.0, 300.0, 100_000),
        rng.uniform(-1e-300, 1e-300, 1_000), rng.uniform(-1e-320, 1e-320, 1_000),
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -745.2, 1e308, -1e308]])
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    assert ad.sigmoid(ad.const(x)).data.tobytes() == want.tobytes()
    assert np.isnan(ad.sigmoid(ad.const([np.nan])).data).all()


def test_take_rows_backward_is_bitwise_add_at():
    # repeated ids, a negative id, -0.0 gradient entries and a 3-d table
    rng = np.random.default_rng(23)
    table = ad.param(rng.uniform(-1.0, 1.0, (5, 2, 3)))
    ids = np.array([3, 0, 3, -1, 1, 3, 0, 1])
    g = rng.uniform(-1.0, 1.0, (8, 2, 3))
    g[[4, 7]] = -0.0  # row 1 gets only negative zeros
    g[0, 1] = -0.0
    with ad.graph_scope() as graph:
        out = ad.take_rows(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    graph.nodes[-1].backward_fn(g)
    want = np.zeros_like(table.data)
    np.add.at(want, ids, g)
    assert table.grad.tobytes() == want.tobytes()
    assert not np.signbit(table.grad[1]).any()


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_linear_is_exact():
    x = ad.param([[0.5, -1.5]])
    w = ad.const([[2.0], [3.0]])
    err = ad.grad_check(lambda: ad.reshape(ad.matmul(x, w), (1, 1)), [x])
    assert err < 1e-9


def test_grad_check_detects_corrupted_backward_rule():
    x = ad.param([[0.4, -0.8, 1.1]])

    def bad_tanh(t):
        data = np.tanh(t.data)

        def bw(g):
            t._accumulate(g * (1.0 - data * data) * 1.5)  # deliberately wrong

        return ad._make("bad_tanh", (t,), data, bw)

    err = ad.grad_check(lambda: ad.sum_(bad_tanh(x)), [x])
    assert err > 1e-2


# ---------------------------------------------------------------------------
# tensor bookkeeping


def test_tensor_invariants():
    t = ad.const([[1.0, 2.0], [3.0, 4.0]])
    assert t.grad.shape == t.shape == (2, 2)
    assert np.all(t.grad == 0)


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
    joint = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert joint == pytest.approx(5.0)
