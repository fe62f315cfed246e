"""Encoder tests: shape contracts, attention normalization, state stepping."""

from __future__ import annotations

import numpy as np
import pytest

from plangen import autodiff as ad
from plangen.corpus import DataError
from plangen.encoders import (
    EncoderParams,
    LSTMParams,
    PoolEncoding,
    SequenceBatch,
    _attn_pool,
    encode_paragraphs,
    encode_plan,
    encode_pool,
    initial_state,
    lstm_cell,
    step_plan_state,
    step_text_state,
)


@pytest.fixture(scope="module")
def enc() -> EncoderParams:
    return EncoderParams.create(np.random.default_rng(12), vocab_size=40,
                                hidden=32, embed_dim=32)


def test_paragraph_vector_dimension(enc):
    out = encode_paragraphs(enc, [[4, 9, 2, 7, 7, 1, 3]]).pooled
    assert out.shape == (1, 64)


def test_encoder_determinism(enc):
    a = encode_paragraphs(enc, [[5, 6, 7]]).pooled.data
    b = encode_paragraphs(enc, [[5, 6, 7]]).pooled.data
    assert np.array_equal(a, b)


def test_single_token_paragraph_equals_its_bilstm_state(enc):
    pe = encode_paragraphs(enc, [[9]])
    assert np.allclose(pe.attn_weights.data, [[1.0]])
    assert np.allclose(pe.pooled.data, pe.token_states.data[:, 0, :])


def test_empty_sequence_is_input_error(enc):
    with pytest.raises(DataError):
        encode_paragraphs(enc, [[]])


def test_plan_token_states_lengths(enc):
    r_z, states = encode_plan(enc, [3, 1, 4, 1, 5])
    assert states.shape == (5, 64)
    assert r_z.shape == (1, 64)


def test_plan_pooled_in_convex_hull_of_token_states(enc):
    pe = encode_pool(enc, [[3, 1, 4], [2, 2, 2, 2]])
    w = pe.attn_weights.data
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)
    mix = np.einsum("bl,bld->bd", w, pe.token_states.data)
    assert np.allclose(mix, pe.pooled.data, atol=1e-12)


def test_plans_differing_in_one_token_have_different_encodings(enc):
    a, _ = encode_plan(enc, [3, 1, 4, 1])
    b, _ = encode_plan(enc, [3, 1, 4, 2])
    assert not np.allclose(a.data, b.data)


def test_batched_encoding_matches_single(enc):
    # padding and masking must not leak into shorter sequences
    seqs = [[5, 6, 7, 8, 9, 10], [3, 1], [2, 2, 2]]
    batch = encode_pool(enc, seqs)
    for i, s in enumerate(seqs):
        single = encode_pool(enc, [s])
        assert np.allclose(batch.pooled.data[i], single.pooled.data[0], atol=1e-12)
        assert np.allclose(batch.plan_token_states(i).data,
                           single.plan_token_states(0).data, atol=1e-12)


def test_state_stepping_is_pure_and_compositional(enc):
    state = initial_state(enc)
    r1 = encode_paragraphs(enc, [[4, 5]]).pooled
    r2 = encode_paragraphs(enc, [[6, 7, 8]]).pooled
    r3 = encode_paragraphs(enc, [[9]]).pooled

    once = step_text_state(enc, r1, state)
    again = step_text_state(enc, r1, state)
    assert np.array_equal(once.h_y.data, again.h_y.data)
    assert once.h_z is state.h_z and once.c_z is state.c_z  # text steps leave the plan state

    rolled = state
    for r in (r1, r2, r3):
        rolled = step_text_state(enc, r, rolled)
    composed = step_text_state(enc, r3, step_text_state(enc, r2, once))
    assert np.allclose(rolled.h_y.data, composed.h_y.data, atol=1e-12)


def test_zero_state_zero_input_closed_form(enc):
    # with x = h = c = 0 the cell is computable from the gate biases alone
    two_h = 64
    x = ad.zeros((1, two_h))
    h = ad.zeros((1, two_h))
    c = ad.zeros((1, two_h))
    h2, c2 = lstm_cell(enc.lstm_text, x, h, c)
    b = enc.lstm_text.b.data[0]
    i, _, g, o = (1 / (1 + np.exp(-b[:two_h])), None,
                  np.tanh(b[2 * two_h:3 * two_h]), 1 / (1 + np.exp(-b[3 * two_h:])))
    expect_c = i * g
    assert np.allclose(c2.data[0], expect_c, atol=1e-12)
    assert np.allclose(h2.data[0], o * np.tanh(expect_c), atol=1e-12)


def test_plan_state_mirrors_text_state(enc):
    state = initial_state(enc)
    r = encode_plan(enc, [3, 1, 4])[0]
    s1 = step_plan_state(enc, r, state)
    s2 = step_plan_state(enc, r, state)
    assert np.array_equal(s1.h_z.data, s2.h_z.data)
    assert s1.h_y is state.h_y and s1.c_y is state.c_y  # plan steps leave the text state
    rolled = step_plan_state(enc, r, s1)
    composed = step_plan_state(enc, r, step_plan_state(enc, r, state))
    assert np.allclose(rolled.h_z.data, composed.h_z.data, atol=1e-12)


def test_forget_gate_bias_initialized_to_one():
    enc2 = EncoderParams.create(np.random.default_rng(0), 10, 4, 4)
    for cell in (enc2.text_fw, enc2.text_bw, enc2.plan_fw, enc2.plan_bw,
                 enc2.lstm_text, enc2.lstm_plan):
        h = cell.hidden
        assert np.all(cell.b.data[0, h:2 * h] == 1.0)
        assert np.all(np.abs(cell.wx.data) <= 0.1)


def test_gradients_reach_embeddings_of_every_input_token(enc):
    tokens = [7, 11, 13]
    with ad.graph_scope():
        enc.emb.zero_grad()
        r = encode_paragraphs(enc, [tokens]).pooled
        ad.backward(ad.sum_(r))
    emb_grad = enc.emb.grad
    for tok in tokens:
        assert np.any(emb_grad[tok] != 0)
    assert np.all(emb_grad[20] == 0)  # token not in input


def _masked_bilstm_reference(fw: LSTMParams, bw: LSTMParams, x: ad.Tensor,
                             batch: SequenceBatch) -> ad.Tensor:
    """The earlier BiLSTM, kept as the reference: over an input of shape
    (B, L, E), every padded step keeps the previous state in both directions."""
    b, length = batch.ids.shape
    hid = fw.hidden
    masks = [(ad.const(batch.mask[:, i:i + 1]), ad.const(1.0 - batch.mask[:, i:i + 1]))
             for i in range(length)]
    steps = [ad.reshape(ad.narrow(x, 1, i, 1), (b, fw.wx.shape[0])) for i in range(length)]

    def run(p: LSTMParams, order):
        h = ad.zeros((b, hid))
        c = ad.zeros((b, hid))
        states = {}
        for i in order:
            m, m_inv = masks[i]
            h2, c2 = lstm_cell(p, steps[i], h, c)
            h = ad.add(ad.mul(h2, m), ad.mul(h, m_inv))
            c = ad.add(ad.mul(c2, m), ad.mul(c, m_inv))
            states[i] = h
        return [states[i] for i in range(length)]

    fw_states = run(fw, range(length))
    bw_states = run(bw, range(length - 1, -1, -1))
    fw_stack = ad.concat([ad.reshape(s, (b, 1, hid)) for s in fw_states], axis=1)
    bw_stack = ad.concat([ad.reshape(s, (b, 1, hid)) for s in bw_states], axis=1)
    return ad.concat([fw_stack, bw_stack], axis=2)


def _encode_pool_reference(enc: EncoderParams, seqs: list[list[int]]) -> PoolEncoding:
    batch = SequenceBatch.from_sequences(seqs)
    b, length = batch.ids.shape
    x = ad.reshape(ad.take_rows(enc.emb, batch.ids.reshape(-1)), (b, length, enc.embed_dim))
    states = _masked_bilstm_reference(enc.plan_fw, enc.plan_bw, x, batch)
    pooled, weights = _attn_pool(states, batch, enc.q_plan, enc.attn_plan_w)
    return PoolEncoding(pooled=pooled, token_states=states, lengths=batch.lengths,
                        attn_weights=weights)


def test_padded_batch_matches_masked_reference():
    # the unmasked forward direction and the zeroed backward state read what
    # the blend-masked BiLSTM gave: the same states, and gradients up to the
    # summation order of the whole-recurrence weight GEMMs
    enc3 = EncoderParams.create(np.random.default_rng(4), vocab_size=20, hidden=5,
                                embed_dim=6)
    seqs = [[5, 6, 7, 8, 9, 10], [3, 1], [2, 2, 2]]
    mix_rng = np.random.default_rng(9)
    pooled_mix = ad.const(mix_rng.uniform(-1, 1, (3, 10)))
    row_mix = [ad.const(mix_rng.uniform(-1, 1, (len(s), 10))) for s in seqs]
    named = enc3.named()

    def run(encode):
        with ad.graph_scope():
            for t in named.values():
                t.zero_grad()
            pe = encode(enc3, seqs)
            rows = [pe.plan_token_states(j) for j in range(len(seqs))]
            loss = ad.sum_(ad.tanh(ad.mul(pe.pooled, pooled_mix)))
            for row, mix in zip(rows, row_mix):
                loss = ad.add(loss, ad.sum_(ad.tanh(ad.mul(row, mix))))
            ad.backward(loss)
        return (pe.pooled.data, [r.data for r in rows],
                {k: t.grad.copy() for k, t in named.items()})

    pooled, rows, grads = run(encode_pool)
    ref_pooled, ref_rows, ref_grads = run(_encode_pool_reference)
    assert np.allclose(pooled, ref_pooled, rtol=1e-12, atol=0.0)
    for row, ref in zip(rows, ref_rows):
        assert np.allclose(row, ref, rtol=1e-12, atol=0.0)
    for k in ("enc.emb", "enc.q_plan", "enc.attn_plan_w", "enc.plan_fw.wx",
              "enc.plan_fw.wh", "enc.plan_fw.b", "enc.plan_bw.wx", "enc.plan_bw.wh",
              "enc.plan_bw.b"):
        assert np.any(grads[k] != 0), k
    for k in named:
        gap = np.linalg.norm(grads[k] - ref_grads[k])
        assert gap <= 1e-12 * np.linalg.norm(ref_grads[k]), k


def _lstm_cell_reference(p: LSTMParams, x: ad.Tensor, h: ad.Tensor,
                         c: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """The earlier 15-op cell, kept as the reference for the fused primitive."""
    gates = ad.add(ad.add(ad.matmul(x, p.wx), ad.matmul(h, p.wh)), p.b)
    hid = p.hidden
    sig = ad.sigmoid(gates)
    i = ad.narrow(sig, -1, 0, hid)
    f = ad.narrow(sig, -1, hid, hid)
    g = ad.tanh(ad.narrow(gates, -1, 2 * hid, hid))
    o = ad.narrow(sig, -1, 3 * hid, hid)
    c2 = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c2)), c2


@pytest.mark.parametrize("consume", ["h", "c", "both"])
def test_fused_cell_bitwise_matches_composition(consume):
    rng = np.random.default_rng(21)
    p = LSTMParams.create(rng, input_dim=5, hidden=3)
    x, h, c = (ad.param(rng.uniform(-1.5, 1.5, (4, n))) for n in (5, 3, 3))
    h_mix, c_mix = (ad.const(rng.uniform(-1, 1, (4, 3))) for _ in range(2))
    inputs = [x, h, c, p.wx, p.wh, p.b]

    def run(cell):
        with ad.graph_scope():
            for t in inputs:
                t.zero_grad()
            h2, c2 = cell(p, x, h, c)
            h_loss, c_loss = ad.sum_(ad.mul(h2, h_mix)), ad.sum_(ad.mul(c2, c_mix))
            loss = {"h": h_loss, "c": c_loss, "both": ad.add(h_loss, c_loss)}[consume]
            ad.backward(loss)
        return [h2.data, c2.data] + [t.grad.copy() for t in inputs]

    for got, want in zip(run(lstm_cell), run(_lstm_cell_reference)):
        assert np.array_equal(got, want)


def _lstm_seq_reference(x, h0, c0, wx, wh, b, lengths=None, reverse=False):
    """The recurrence as a per-step chain of fused cells, kept as the
    reference for one ``lstm_lockstep`` direction: per step, one gather of
    each row's input at that step's time and one cell."""
    bsz, steps, emb = x.shape
    lengths = [steps] * bsz if lengths is None else lengths
    # step s reads row b at flat slot b*T + time
    slots = np.array([[b * steps + (n - 1 - s if reverse and s < n else s)
                       for b, n in enumerate(lengths)] for s in range(steps)])
    x2 = ad.reshape(x, (bsz * steps, emb))
    h, c, states = h0, c0, []
    for s in range(steps):
        h, c = ad.lstm_cell(ad.take_rows(x2, slots[s]), h, c, wx, wh, b)
        states.append(h)
    by_slot = ad.take_rows(ad.concat(states, axis=0), np.argsort(slots.reshape(-1)))
    return ad.reshape(by_slot, (bsz, steps, wh.shape[0]))


def _one_direction(x, h0, c0, wx, wh, b, lengths=None, reverse=False):
    return ad.lstm_lockstep(x, h0, c0, [ad.LSTMDirection(wx, wh, b, reverse)], lengths)


def test_lstm_seq_matches_per_step_cell_chain():
    # states and all six input gradients, h0 and c0 included, in both
    # directions with and without ragged lengths, and for a single row
    rng = np.random.default_rng(21)
    for lengths in ([5, 2, 3], [5], [3]):
        bsz = len(lengths)
        inputs = [ad.param(rng.uniform(-1.5, 1.5, shape)) for shape in
                  ((bsz, 5, 4), (bsz, 3), (bsz, 3), (4, 12), (3, 12), (1, 12))]
        mix = ad.const(rng.uniform(-1, 1, (bsz, 5, 3)))
        for reverse in (False, True):
            for rows in (None, lengths):
                def run(seq):
                    with ad.graph_scope():
                        for t in inputs:
                            t.zero_grad()
                        out = seq(*inputs, rows, reverse)
                        ad.backward(ad.sum_(ad.tanh(ad.mul(out, mix))))
                    return [out.data] + [t.grad.copy() for t in inputs]

                case = (lengths, reverse, rows is None)
                for i, (a, w) in enumerate(zip(run(_one_direction), run(_lstm_seq_reference))):
                    assert np.any(w != 0), case + (i,)
                    gap = np.linalg.norm(a - w)
                    assert gap <= 1e-12 * np.linalg.norm(w), case + (i,)


def _bilstm_two_calls(x, h0, c0, fw, bw, lengths):
    """The BiLSTM as two one-direction nodes (a forward one, a reversed one)
    and a concat, kept as the reference for the lockstep node."""
    return ad.concat([_one_direction(x, h0, c0, *fw),
                      _one_direction(x, h0, c0, *bw, lengths, reverse=True)], axis=2)


@pytest.mark.parametrize("lengths, steps", [
    ([5, 1, 3], 5), ([4], 4), ([2], 4), ([1, 1], 1),
], ids=["ragged_with_length_1", "B1", "B1_padded", "T1"])
@pytest.mark.parametrize("start", ["param", "zero"])
def test_lockstep_bilstm_bitwise_matches_two_calls(lengths, steps, start):
    # the states and every input gradient, h0 and c0 included when they are
    # parameters, are byte-equal to the two-call composition's
    rng = np.random.default_rng(31)
    bsz = len(lengths)
    x = ad.param(rng.uniform(-1.5, 1.5, (bsz, steps, 4)))
    if start == "param":
        h0, c0 = (ad.param(rng.uniform(-1.5, 1.5, (bsz, 3))) for _ in range(2))
    else:
        h0 = c0 = ad.zeros((bsz, 3))
    fw, bw = ([ad.param(rng.uniform(-1.0, 1.0, s)) for s in ((4, 12), (3, 12), (1, 12))]
              for _ in range(2))
    mix = ad.const(rng.uniform(-1, 1, (bsz, steps, 6)))
    x_mix = ad.const(rng.uniform(-1, 1, (bsz, steps, 4)))
    inputs = [t for t in [x, h0, c0] + fw + bw if t.requires_grad]

    def lockstep(x, h0, c0, fw, bw, lengths):
        return ad.lstm_lockstep(x, h0, c0, [ad.LSTMDirection(*fw),
                                            ad.LSTMDirection(*bw, reverse=True)], lengths)

    def run(bilstm):
        with ad.graph_scope():
            for t in inputs:
                t.zero_grad()
            out = bilstm(x, h0, c0, fw, bw, lengths)
            # x's gradient starts from this later term, so the order in which
            # the directions add theirs shows in the last bit
            loss = ad.add(ad.sum_(ad.tanh(ad.mul(out, mix))), ad.sum_(ad.mul(x, x_mix)))
            ad.backward(loss)
        return [out.data] + [t.grad.copy() for t in inputs]

    got, want = run(lockstep), run(_bilstm_two_calls)
    assert len(got) == (10 if start == "param" else 8)
    # one step from a zero state gives wh no gradient
    zero_wh = {id(fw[1]), id(bw[1])} if steps == 1 and start == "zero" else set()
    for i, (a, w, t) in enumerate(zip(got, want, [None] + inputs)):
        assert np.any(w != 0) or id(t) in zero_wh, i
        assert a.tobytes() == w.tobytes(), i


def test_padded_reversed_rows_match_each_row_alone():
    # from a parameter start state, each padded row's states and gradients
    # are those of the row run alone; not bitwise, as a one-row product goes
    # to gemv, so to 1e-12 relative (the weights' gradients sum the rows)
    rng = np.random.default_rng(41)
    lengths, steps = [6, 2, 4, 1], 6
    bsz = len(lengths)
    x = rng.uniform(-1.5, 1.5, (bsz, steps, 4))
    h0, c0 = (rng.uniform(-1.5, 1.5, (bsz, 3)) for _ in range(2))
    cells = [[ad.param(rng.uniform(-1.0, 1.0, s)) for s in ((4, 12), (3, 12), (1, 12))]
             for _ in range(2)]
    weights = cells[0] + cells[1]
    mix = rng.uniform(-1, 1, (bsz, steps, 6))

    def run(rows):  # the loss reads each row's own tokens only
        leaves = [ad.param(a[rows].copy()) for a in (x, h0, c0)]
        n = max(lengths[r] for r in rows)
        xr = ad.narrow(leaves[0], 1, 0, n)
        with ad.graph_scope():
            out = ad.lstm_lockstep(xr, *leaves[1:], [ad.LSTMDirection(*cells[0]),
                                   ad.LSTMDirection(*cells[1], reverse=True)],
                                   [lengths[r] for r in rows])
            valid = (np.arange(n) < np.array([lengths[r] for r in rows])[:, None])
            m = mix[rows][:, :n] * valid[..., None]
            ad.backward(ad.sum_(ad.tanh(ad.mul(out, ad.const(m)))))
        return out.data * valid[..., None], [t.grad.copy() for t in leaves]

    for t in weights:
        t.zero_grad()
    states, grads = run(list(range(bsz)))
    batch_weights = [t.grad.copy() for t in weights]
    for t in weights:
        t.zero_grad()
    for r, n in enumerate(lengths):
        alone, alone_grads = run([r])
        assert np.any(alone[0] != 0)
        gap = np.linalg.norm(states[r, :n] - alone[0])
        assert gap <= 1e-12 * np.linalg.norm(alone[0]), r
        for got, want in zip(grads, alone_grads):
            assert np.linalg.norm(got[r] - want[0]) <= 1e-12 * np.linalg.norm(want[0]), r
    for got, t in zip(batch_weights, weights):
        want = t.grad
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_encoder_bilstm_is_one_node(enc):
    with ad.graph_scope() as g:
        encode_pool(enc, [[1, 2, 3], [4]])
    kinds = [rec.kind for rec in g.nodes]
    assert kinds.count("lstm_seq") == 1 and "concat" not in kinds
