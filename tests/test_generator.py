"""Decoder tests: copy mixture arithmetic, bin conditioning, beam search."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from plangen import autodiff as ad
from plangen import generator
from plangen.corpus import DataError, Vocab
from plangen.encoders import EncoderParams, encode_plan
from plangen.generator import (
    DecoderParams,
    decode_step,
    generate_paragraph,
    init_decoder,
)

HID = 4
TWO_H = 8


@pytest.fixture(scope="module")
def vocab() -> Vocab:
    return Vocab([str(i) for i in range(10)] + ["w", "x", "y", "z"])


@pytest.fixture(scope="module")
def model(vocab):
    rng = np.random.default_rng(31)
    enc = EncoderParams.create(rng, len(vocab), HID, HID)
    dec = DecoderParams.create(rng, len(vocab), HID, HID, bins=3)
    return enc, dec


def _plan(enc, tokens):
    r_z, states = encode_plan(enc, tokens)
    return r_z, states


def test_bin_conditioning_changes_attention_inputs(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    s0 = init_decoder(dec, r_z, 0, states, [7, 8, 9], len(vocab))
    s1 = init_decoder(dec, r_z, 1, states, [7, 8, 9], len(vocab))
    assert not np.allclose(s0.attn_states.data[0, 0], s1.attn_states.data[0, 0])
    assert np.allclose(s0.attn_states.data[0, 1:], s1.attn_states.data[0, 1:])


def test_single_bin_reduces_to_unbinned_model(model, vocab):
    enc, _ = model
    rng = np.random.default_rng(5)
    dec1 = DecoderParams.create(rng, len(vocab), HID, HID, bins=1)
    r_z, states = _plan(enc, [7, 8])
    s = init_decoder(dec1, r_z, 0, states, [7, 8], len(vocab))
    assert s.attn_states.shape == (1, 3, TWO_H)
    with pytest.raises(ad.ParameterError):
        init_decoder(dec1, r_z, 1, states, [7, 8], len(vocab))


def test_init_decoder_rejects_empty_plan(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7])
    with pytest.raises(DataError):
        init_decoder(dec, r_z, 0, states, [], len(vocab))
    for bad in (-1, len(vocab)):  # checked once per paragraph, not per step
        with pytest.raises(DataError, match="outside the vocabulary"):
            init_decoder(dec, r_z, 0, states, [bad], len(vocab))


def test_init_decoder_matches_primitive_recomposition(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    s = init_decoder(dec, r_z, 2, states, [7, 8, 9], len(vocab))
    expect = np.vstack([dec.bin_emb.data[2:3], states.data])
    assert np.allclose(s.attn_states.data[0], expect, atol=1e-12)
    assert np.allclose(s.h.data, r_z.data)
    assert np.all(s.c.data == 0)


def test_decode_step_distribution_sums_to_one(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    h_y = ad.const(np.random.default_rng(3).uniform(-1, 1, (1, TWO_H)))
    state = init_decoder(dec, r_z, 0, states, [7, 8, 9], len(vocab))
    probs, state2 = decode_step(dec, enc, vocab.bos_id, state, h_y)
    assert probs.shape == (1, len(vocab))
    assert np.all(probs.data >= 0)
    assert abs(probs.data.sum() - 1.0) < 1e-8
    assert not np.array_equal(state2.h.data, state.h.data)


def test_gate_off_gives_pure_generation_softmax(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8])
    h_y = ad.zeros((1, TWO_H))
    state = init_decoder(dec, r_z, 0, states, [7, 8], len(vocab))
    keep = dec.copy_b.data.copy()
    dec.copy_b.data[...] = -1e9  # force gate to 0
    try:
        probs, _ = decode_step(dec, enc, vocab.bos_id, state, h_y)
        # recompute the generation softmax by hand from the step internals
        gate_off_probs = probs.data.copy()
    finally:
        dec.copy_b.data[...] = keep
    assert abs(gate_off_probs.sum() - 1.0) < 1e-9
    # no copy mass concentration: ids absent from the plan keep weight
    absent = [i for i in range(len(vocab)) if i not in (7, 8)]
    assert np.all(gate_off_probs[0, absent] > 0)


def test_gate_on_singleton_plan_puts_all_mass_on_its_token(model, vocab):
    enc, dec = model
    seven = vocab.id("7")
    r_z, states = _plan(enc, [seven])
    h_y = ad.zeros((1, TWO_H))
    state = init_decoder(dec, r_z, 0, states, [seven], len(vocab))
    keep = dec.copy_b.data.copy()
    dec.copy_b.data[...] = 1e9  # force gate to 1
    try:
        probs, _ = decode_step(dec, enc, vocab.bos_id, state, h_y)
    finally:
        dec.copy_b.data[...] = keep
    assert probs.data[0, seven] == pytest.approx(1.0, abs=1e-9)


def test_copy_mass_only_on_plan_token_ids(model, vocab):
    enc, dec = model
    plan_ids = [vocab.id("7"), vocab.id("w")]
    r_z, states = _plan(enc, plan_ids)
    h_y = ad.zeros((1, TWO_H))
    state = init_decoder(dec, r_z, 0, states, plan_ids, len(vocab))
    keep = dec.copy_b.data.copy()
    dec.copy_b.data[...] = 1e9
    try:
        probs, _ = decode_step(dec, enc, vocab.bos_id, state, h_y)
    finally:
        dec.copy_b.data[...] = keep
    off_plan = [i for i in range(len(vocab)) if i not in plan_ids]
    assert probs.data[0, off_plan].sum() < 1e-12
    assert probs.data[0, plan_ids].sum() == pytest.approx(1.0, abs=1e-9)


def test_mixture_arithmetic_oracle():
    # hand-mixed (1-g)*gen + g*copy over a tiny vocabulary
    gen = np.array([[0.2, 0.3, 0.1, 0.25, 0.15]])
    copy = np.array([[0.0, 0.5, 0.0, 0.5, 0.0]])
    g = 0.4
    mixed = (1 - g) * gen + g * copy
    t = ad.add(ad.mul(ad.const(gen), ad.const([[1 - g]])),
               ad.mul(ad.const(copy), ad.const([[g]])))
    assert np.allclose(t.data, mixed, atol=1e-12)
    assert mixed.sum() == pytest.approx(1.0)


def test_gradient_flows_from_likelihood_to_plan_token_embeddings(model, vocab):
    enc, dec = model
    plan_ids = [vocab.id("7"), vocab.id("8")]
    with ad.graph_scope():
        enc.emb.zero_grad()
        r_z, states = _plan(enc, plan_ids)
        h_y = ad.zeros((1, TWO_H))
        state = init_decoder(dec, r_z, 0, states, plan_ids, len(vocab))
        probs, _ = decode_step(dec, enc, vocab.bos_id, state, h_y)
        loss = ad.neg(ad.log(ad.gather_last(probs, [vocab.id("7")])))
        ad.backward(loss)
    for tok in plan_ids:
        assert np.any(enc.emb.grad[tok] != 0)


def test_beam_one_equals_greedy_rollout(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    h_y = ad.zeros((1, TWO_H))
    out, truncated = generate_paragraph(dec, enc, r_z, states, [7, 8, 9], 0, h_y,
                                        vocab, beam_size=1, max_len=8)
    # manual greedy chain
    state = init_decoder(dec, r_z, 0, states, [7, 8, 9], len(vocab))
    prev, chain = vocab.bos_id, []
    for step in range(8):
        with ad.no_grad():
            probs, state = decode_step(dec, enc, prev, state, h_y)
        row = probs.data[0].copy()
        if step == 0:
            row[vocab.eos_id] = 0.0
        tok = int(np.argmax(row))
        if tok == vocab.eos_id:
            break
        chain.append(tok)
        prev = tok
    assert out == chain


def test_generation_deterministic(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    h_y = ad.zeros((1, TWO_H))
    a = generate_paragraph(dec, enc, r_z, states, [7, 8, 9], 0, h_y, vocab,
                           beam_size=4, max_len=10)
    b = generate_paragraph(dec, enc, r_z, states, [7, 8, 9], 0, h_y, vocab,
                           beam_size=4, max_len=10)
    assert a == b


def test_beam_five_never_scores_below_beam_one(model, vocab):
    # dominance on the model's own objective over seeded random inputs
    enc, _ = model
    dec = DecoderParams.create(np.random.default_rng(99), len(vocab), HID, HID, bins=3)
    dec.ff_b.data[0, vocab.eos_id] += 2.5  # make rollouts finish within max_len
    rng = np.random.default_rng(1234)

    def norm_score(tokens, r_z, states, ids, h_y):
        state = init_decoder(dec, r_z, 0, states, ids, len(vocab))
        prev, logp = vocab.bos_id, 0.0
        for tok in list(tokens) + [vocab.eos_id]:
            with ad.no_grad():
                probs, state = decode_step(dec, enc, prev, state, h_y)
            logp += float(np.log(max(probs.data[0, tok], 1e-300)))
            prev = tok
        return logp / (len(tokens) + 1)

    wins = ties = 0
    for trial in range(30):
        ids = list(rng.integers(6, len(vocab), size=3))
        ids = [int(i) for i in ids]
        r_z, states = _plan(enc, ids)
        h_y = ad.const(rng.uniform(-1, 1, (1, TWO_H)))
        g1, t1 = generate_paragraph(dec, enc, r_z, states, ids, 0, h_y, vocab,
                                    beam_size=1, max_len=6)
        g5, t5 = generate_paragraph(dec, enc, r_z, states, ids, 0, h_y, vocab,
                                    beam_size=5, max_len=6)
        if t1 or t5:
            continue
        s1 = norm_score(g1, r_z, states, ids, h_y)
        s5 = norm_score(g5, r_z, states, ids, h_y)
        assert s5 >= s1 - 1e-9
        wins += int(s5 > s1 + 1e-9)
        ties += int(abs(s5 - s1) <= 1e-9)
    assert wins + ties > 0


def test_truncation_is_flagged(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8])
    keep = dec.ff_b.data.copy()
    dec.ff_b.data[0, vocab.eos_id] = -1e9  # make EOS unreachable
    try:
        out, truncated = generate_paragraph(dec, enc, r_z, states, [7, 8], 0,
                                            ad.zeros((1, TWO_H)), vocab,
                                            beam_size=2, max_len=5)
    finally:
        dec.ff_b.data[...] = keep
    assert truncated
    assert len(out) == 5


def test_early_stop_leaves_search_result_unchanged(model, vocab, monkeypatch):
    enc, _ = model
    dec = DecoderParams.create(np.random.default_rng(77), len(vocab), HID, HID, bins=3)
    # confident continuations and likely EOS: hypotheses finish early, and a
    # longer one can still overtake them on the length-normalized score
    dec.ff_b.data[0, vocab.eos_id] += 4.0
    dec.ff_b.data[0, vocab.id("w")] += 2.0
    rng = np.random.default_rng(4321)
    steps = {"early": 0, "full": 0}
    mode = ["early"]

    def counted_step(*args):
        steps[mode[0]] += 1
        return decode_step(*args)

    monkeypatch.setattr(generator, "decode_step", counted_step)
    for trial in range(20):
        ids = [int(i) for i in rng.integers(6, len(vocab), size=3)]
        r_z, states = _plan(enc, ids)
        h_y = ad.const(rng.uniform(-1, 1, (1, TWO_H)))
        for beam in (1, 3, 5):
            args = (dec, enc, r_z, states, ids, 0, h_y, vocab, beam, 12)
            mode[0] = "early"
            early = generate_paragraph(*args)
            mode[0] = "full"
            with monkeypatch.context() as m:
                m.setattr(generator, "_cannot_overtake", lambda *a: False)
                full = generate_paragraph(*args)
            assert early == full
    assert steps["early"] < steps["full"]


def _per_hypothesis_beam(dec, enc, r_z, states, ids, bin_id, h_y, vocab, beam_size,
                         max_len):
    """The earlier beam search, kept as the reference: one decode_step per
    live hypothesis, each holding its own state, and no early stop."""
    with ad.no_grad():
        live = [((), 0.0, init_decoder(dec, r_z, bin_id, states, ids, len(vocab)))]
        finished = []
        for step in range(max_len):
            candidates = []
            for tokens, log_prob, state in live:
                prev = tokens[-1] if tokens else vocab.bos_id
                probs, new_state = decode_step(dec, enc, prev, state, h_y)
                row = np.log(np.maximum(probs.data[0], 1e-300))
                for tok in np.argsort(-row, kind="stable")[: beam_size + 1]:
                    tok = int(tok)
                    if tok != vocab.eos_id:
                        candidates.append((tokens + (tok,), log_prob + row[tok], new_state))
                    elif step > 0:
                        candidates.append((tokens, log_prob + row[tok], None))
            candidates.sort(key=lambda cand: (-cand[1], cand[0]))
            live = []
            for cand in candidates:
                if cand[2] is None:
                    finished.append(cand)
                elif len(live) < beam_size:
                    live.append(cand)
            if not live:
                break
    done = 1 if finished else 0
    best = max(finished or live,
               key=lambda cand: (cand[1] / max(len(cand[0]) + done, 1), cand[0]))
    return list(best[0]), not finished


def test_batched_beam_matches_per_hypothesis_search(model, vocab):
    enc, _ = model
    dec = DecoderParams.create(np.random.default_rng(55), len(vocab), HID, HID, bins=3)
    dec.ff_b.data[0, vocab.eos_id] += 3.0  # a mix of finished and truncated searches
    rng = np.random.default_rng(2468)
    outcomes = set()
    for trial in range(20):
        ids = [int(i) for i in rng.integers(6, len(vocab), size=1 + trial % 4)]
        r_z, states = _plan(enc, ids)
        h_y = ad.const(rng.uniform(-1, 1, (1, TWO_H)))
        for beam in (1, 3, 5):
            args = (dec, enc, r_z, states, ids, trial % 3, h_y, vocab, beam, 10)
            got = generate_paragraph(*args)
            assert got == _per_hypothesis_beam(*args)
            outcomes.add(got[1])
    assert outcomes == {True, False}


def test_decode_step_rows_match_single_token_steps(model, vocab):
    enc, dec = model
    r_z, states = _plan(enc, [7, 8, 9])
    h_y = ad.const(np.random.default_rng(8).uniform(-1, 1, (1, TWO_H)))
    state = init_decoder(dec, r_z, 0, states, [7, 8, 9], len(vocab))
    prev = [vocab.bos_id, 7, 11]
    rng = np.random.default_rng(9)
    rows = replace(state, h=ad.const(rng.uniform(-1, 1, (3, TWO_H))),
                   c=ad.const(rng.uniform(-1, 1, (3, TWO_H))))
    probs, advanced = decode_step(dec, enc, prev, rows, h_y)
    assert probs.shape == (3, len(vocab))
    for r, tok in enumerate(prev):
        one = replace(state, h=ad.narrow(rows.h, 0, r, 1), c=ad.narrow(rows.c, 0, r, 1))
        p1, s1 = decode_step(dec, enc, tok, one, h_y)
        assert np.allclose(probs.data[r], p1.data[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(advanced.h.data[r], s1.h.data[0], rtol=1e-12, atol=1e-15)
