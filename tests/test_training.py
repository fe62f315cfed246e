"""Training tests: loss identities, the straight-line recomposition oracle,
AdaGrad arithmetic, smoke training, checkpoint determinism."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from plangen import autodiff as ad
from plangen import synth
from plangen.corpus import DataError, Document, MacroPlan, assign_length_bins, build_vocab
from plangen.generator import decode_step, init_decoder
from plangen.harness import TINY_SCHEMA, build_loss_fixture, tiny_game
from plangen.planner import scheduled_sampling_rate
from plangen.training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    adagrad_update,
    compute_loss,
    load_checkpoint,
    plan_selection_accuracy,
    plan_walk,
    prepare_game,
    save_checkpoint,
    train,
    write_loss_log,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _relaxed_eps_config(**kw) -> TrainConfig:
    defaults = dict(hidden=4, embed=4, bins=2, epochs=1, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# loss identities


def test_loss_sign_identity_and_finiteness():
    fx = build_loss_fixture()
    loss = compute_loss(fx.model, [fx.prepared], fx.cfg, 0, np.random.default_rng(0),
                        fx.vocab)
    total = loss.total.item()
    assert np.isfinite(total)
    assert total == pytest.approx(-(loss.reconstruction[0] - loss.kl[0]
                                    + fx.cfg.lam * loss.supervision[0]), abs=1e-9)
    assert loss.kl[0] >= -1e-9
    assert loss.supervision[0] <= 0.0


def test_lambda_zero_reduces_to_elbo_only():
    fx = build_loss_fixture()
    cfg0 = _relaxed_eps_config(lam=0.0)
    loss = compute_loss(fx.model, [fx.prepared], cfg0, 0, np.random.default_rng(0),
                        fx.vocab)
    assert loss.total.item() == pytest.approx(-(loss.reconstruction[0] - loss.kl[0]),
                                              abs=1e-9)


def test_pure_oracle_path_never_samples():
    fx = build_loss_fixture()
    loss = compute_loss(fx.model, [fx.prepared], fx.cfg, 0, np.random.default_rng(3),
                        fx.vocab)  # k=0 -> epsilon=1
    assert loss.epsilon == 1.0
    assert loss.sampled_steps == [0]
    assert loss.oracle_steps_used == [len(fx.prepared.paragraph_ids)]


def test_pure_sampling_path_never_uses_oracle():
    fx = build_loss_fixture()
    loss = compute_loss(fx.model, [fx.prepared], fx.cfg, 10**9, np.random.default_rng(3),
                        fx.vocab)
    assert loss.epsilon == 0.0
    assert loss.oracle_steps_used == [0]
    assert loss.sampled_steps == [len(fx.prepared.paragraph_ids)]


def test_loss_deterministic_given_noise_stream():
    fx = build_loss_fixture()
    a = compute_loss(fx.model, [fx.prepared], fx.cfg, 10**9, np.random.default_rng(5),
                     fx.vocab)
    b = compute_loss(fx.model, [fx.prepared], fx.cfg, 10**9, np.random.default_rng(5),
                     fx.vocab)
    assert a.total.item() == b.total.item()


def test_plan_paragraph_length_mismatch_is_data_error():
    fx = build_loss_fixture()
    game = tiny_game()
    game.oracle = MacroPlan(steps=game.oracle.steps[:1], terminated=True)
    from plangen.corpus import assign_length_bins

    bins = assign_length_bins([4, 7], 2)
    with pytest.raises(DataError):
        prepare_game(game, TINY_SCHEMA, fx.vocab, bins)


# ---------------------------------------------------------------------------
# straight-line recomposition oracle


def _lstm(cell, x, h, c):
    hid = cell.hidden
    gates = x @ cell.wx.data + h @ cell.wh.data + cell.b.data
    i = _sigmoid(gates[:, :hid])
    f = _sigmoid(gates[:, hid:2 * hid])
    g = np.tanh(gates[:, 2 * hid:3 * hid])
    o = _sigmoid(gates[:, 3 * hid:])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def _encode_seq(enc, fw, bw, q, w, tokens):
    emb = enc.emb.data[np.asarray(tokens, dtype=int)]
    hid = fw.hidden
    h = np.zeros((1, hid)); c = np.zeros((1, hid))
    fwd = []
    for row in emb:
        h, c = _lstm(fw, row[None, :], h, c)
        fwd.append(h[0])
    h = np.zeros((1, hid)); c = np.zeros((1, hid))
    bwd = [None] * len(tokens)
    for idx in range(len(tokens) - 1, -1, -1):
        h, c = _lstm(bw, emb[idx][None, :], h, c)
        bwd[idx] = h[0]
    states = np.hstack([np.array(fwd), np.array(bwd)])
    scores = states @ (q.data @ w.data).T
    e = np.exp(scores - scores.max())
    weights = (e / e.sum()).reshape(-1)
    return weights @ states, states


def _softmax_row(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _attn_dist(pp, w_ff, b_ff, h_z, h_y, pool):
    query = np.tanh(np.hstack([h_z, h_y]) @ w_ff + b_ff)
    scores = ((query @ pp.attn_w.data) @ pool.T).reshape(-1)
    return _softmax_row(scores)


def straight_line_loss(model, pg, cfg, k, rng, vocab):
    """Independent numpy reimplementation of the documented loss recipe;
    also counts posterior argmax == oracle over all steps, EOP included."""
    enc, pp, dec = model.encoder, model.planner, model.decoder
    eps = max(0.0, 1.0 - cfg.decay_slope * k)

    pooled, tok_states = [], []
    for tokens in pg.ext_plan_tokens:
        vec, states = _encode_seq(enc, enc.plan_fw, enc.plan_bw, enc.q_plan,
                                  enc.attn_plan_w, tokens)
        pooled.append(vec)
        tok_states.append(states)
    pool = np.array(pooled)

    r_ys = [_encode_seq(enc, enc.text_fw, enc.text_bw, enc.q_text,
                        enc.attn_text_w, p)[0] for p in pg.paragraph_ids]

    two_h = 2 * enc.hidden
    h_y = np.zeros((1, two_h)); c_y = np.zeros((1, two_h))
    h_z = np.zeros((1, two_h)); c_z = np.zeros((1, two_h))
    recon = kl = sup = 0.0
    hits = 0

    for t, para in enumerate(pg.paragraph_ids):
        prior = _attn_dist(pp, pp.ff_plan_w.data, pp.ff_plan_b.data, h_z, h_y, pool)
        h_y2, c_y2 = _lstm(enc.lstm_text, r_ys[t][None, :], h_y, c_y)
        post = _attn_dist(pp, pp.ff_post_w.data, pp.ff_post_b.data, h_z, h_y2, pool)
        kl += float((post * (np.log(post) - np.log(prior))).sum())
        sup += float(np.log(post[pg.oracle_steps[t]]))
        hits += int(np.argmax(post) == pg.oracle_steps[t])

        if rng.random() < eps:
            chosen = pg.oracle_steps[t]
            r_z = pool[chosen][None, :]
        else:
            u = np.clip(rng.random((1, len(pool))), 1e-300, 1.0 - 1e-16)
            noise = -np.log(-np.log(u))
            relaxed = _softmax_row(((np.log(post)[None, :] + noise)
                                    / cfg.temperature).reshape(-1))
            chosen = int(np.argmax(relaxed))
            r_z = (relaxed[None, :] @ pool)

        # teacher-forced paragraph under the chosen plan
        attn_states = np.vstack([dec.bin_emb.data[pg.bin_ids[t]][None, :],
                                 tok_states[chosen]])
        plan_ids = pg.ext_plan_tokens[chosen]
        scatter = np.zeros((len(plan_ids), model.config.vocab_size))
        scatter[np.arange(len(plan_ids)), plan_ids] = 1.0
        s_h = pool[chosen][None, :]; s_c = np.zeros((1, two_h))
        prev = vocab.bos_id
        for target in para + [vocab.eos_id]:
            x = np.hstack([enc.emb.data[prev][None, :], h_y])
            s_h, s_c = _lstm(dec.lstm_gen, x, s_h, s_c)
            w = _softmax_row(((s_h @ dec.attn_w.data) @ attn_states.T).reshape(-1))
            ctx = (w[None, :] @ attn_states)
            gen = _softmax_row((np.hstack([s_h, ctx]) @ dec.ff_w.data
                                + dec.ff_b.data).reshape(-1))
            gate = float(_sigmoid(s_h @ dec.copy_w.data + dec.copy_b.data)[0, 0])
            copy_w = w[1:] / w[1:].sum()
            copy = copy_w @ scatter
            mix = (1 - gate) * gen + gate * copy
            recon += float(np.log(mix[target]))
            prev = target
        h_z, c_z = _lstm(enc.lstm_plan, r_z, h_z, c_z)
        h_y, c_y = h_y2, c_y2

    prior = _attn_dist(pp, pp.ff_plan_w.data, pp.ff_plan_b.data, h_z, h_y, pool)
    post = _attn_dist(pp, pp.ff_post_w.data, pp.ff_post_b.data, h_z, h_y, pool)
    kl += float((post * (np.log(post) - np.log(prior))).sum())
    sup += float(np.log(post[pg.eop_index]))
    hits += int(np.argmax(post) == pg.eop_index)

    total = -(recon - kl + cfg.lam * sup)
    return recon, kl, sup, total, hits


@pytest.mark.parametrize("k", [0, 10**9])  # oracle path and sampled path
def test_loss_matches_straight_line_recomposition(k):
    fx = build_loss_fixture()
    loss = compute_loss(fx.model, [fx.prepared], fx.cfg, k,
                        np.random.default_rng(42), fx.vocab)
    recon, kl, sup, total, _ = straight_line_loss(
        fx.model, fx.prepared, fx.cfg, k, np.random.default_rng(42), fx.vocab)
    assert loss.reconstruction[0] == pytest.approx(recon, abs=1e-9)
    assert loss.kl[0] == pytest.approx(kl, abs=1e-9)
    assert loss.supervision[0] == pytest.approx(sup, abs=1e-9)
    assert loss.total.item() == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("seed", [7, 8, 18, 21])
def test_plan_selection_accuracy_matches_straight_line_hits(seed):
    fx = build_loss_fixture(seed=seed)
    # k = 0 gives eps = 1: the reference follows the oracle, as validation does
    *_, hits = straight_line_loss(fx.model, fx.prepared, fx.cfg, 0,
                                  np.random.default_rng(0), fx.vocab)
    steps = len(fx.prepared.paragraph_ids) + 1
    assert plan_selection_accuracy(fx.model, [fx.prepared]) == hits / steps


def per_token_loss(model, pg, cfg, k, rng, vocab):
    """The earlier reconstruction, kept as the reference: one decode_step
    per gold token, summed in token order; returns (parts, total tensor)."""
    walk = plan_walk(model, [pg], scheduled_sampling_rate(k, cfg.decay_slope),
                     cfg.temperature, rng)
    recon = ad.const([[0.0]])
    for t, tokens in enumerate(pg.paragraph_ids):
        # one game: row t of walk.h_y is the text state before paragraph t
        plan, h_y_prev = walk.chosen[0][t], ad.narrow(walk.h_y, 0, t, 1)
        state = init_decoder(model.decoder, walk.pool_enc.plan_vector(plan), pg.bin_ids[t],
                             walk.pool_enc.plan_token_states(plan),
                             pg.ext_plan_tokens[plan], model.config.vocab_size)
        prev = vocab.bos_id
        for target in tokens + [vocab.eos_id]:
            probs, state = decode_step(model.decoder, model.encoder, prev, state, h_y_prev)
            recon = ad.add(recon, ad.log(ad.gather_last(probs, [target])))
            prev = target
    total = ad.neg(ad.add(ad.sub(recon, walk.kl),
                          ad.mul(ad.const([[cfg.lam]]), walk.supervision)))
    return [recon.item(), walk.kl.item(), walk.supervision.item(), total.item()], total


def _loss_and_grads(model, loss_fn):
    named = model.named()
    with ad.graph_scope():
        model.zero_grad()
        parts, total = loss_fn()
        ad.backward(total)
    return parts, {k: t.grad.copy() for k, t in named.items()}


@pytest.mark.parametrize("hidden", [4, 8])
@pytest.mark.parametrize("k", [0, 250, 10**9])
def test_batched_reconstruction_matches_per_token_decoding(hidden, k):
    fx = build_loss_fixture(hidden=hidden)

    def batched():
        loss = compute_loss(fx.model, [fx.prepared], fx.cfg, k, np.random.default_rng(42),
                            fx.vocab)
        return [loss.reconstruction[0], loss.kl[0], loss.supervision[0],
                loss.total.item()], loss.total

    parts, grads = _loss_and_grads(fx.model, batched)
    ref_parts, ref_grads = _loss_and_grads(fx.model, lambda: per_token_loss(
        fx.model, fx.prepared, fx.cfg, k, np.random.default_rng(42), fx.vocab))
    for got, want in zip(parts, ref_parts):
        assert abs(got - want) <= 1e-12 * abs(want)
    for name, want in ref_grads.items():
        gap = np.linalg.norm(grads[name] - want)
        assert gap <= 1e-12 * np.linalg.norm(want), name


def test_toy_update_tape_node_budget():
    # a 4-game update is one tape: one encoder pass per encoder, a lockstep
    # planning walk and one decoder pass, with each BiLSTM one node.  Recorded
    # one game at a time, the same update was about 1,310 nodes (326 per game).
    games, schema = synth.generate_toy_corpus(seed=0, n_games=20)
    vocab = build_vocab(games, schema, 1)
    bins = assign_length_bins([len(p) for g in games for p in g.document.paragraphs], 4)
    model = ModelParams.create(np.random.default_rng(0), ModelConfig(len(vocab), 32, 32, 4))
    prepared = [prepare_game(game, schema, vocab, bins) for game in games]
    kinds = []
    for i in range(0, len(prepared), 4):
        with ad.graph_scope() as g:
            compute_loss(model, prepared[i:i + 4], TrainConfig(), 250,
                         np.random.default_rng(i), vocab)
        kinds.append(Counter(rec.kind for rec in g.nodes))
    worst = max(kinds, key=lambda c: c.total())
    assert worst.total() < 200, dict(worst.most_common())


def test_toy_update_backward_frees_the_tape_as_it_walks_it():
    # a backward that kept every record's saved arrays and every
    # intermediate gradient until the graph was dropped peaked at 1.8x
    games, schema = synth.generate_toy_corpus(seed=0, n_games=4)
    vocab = build_vocab(games, schema, 1)
    bins = assign_length_bins([len(p) for g in games for p in g.document.paragraphs], 4)
    model = ModelParams.create(np.random.default_rng(0), ModelConfig(len(vocab), 32, 32, 4))
    prepared = [prepare_game(game, schema, vocab, bins) for game in games]
    model.zero_grad()
    tracemalloc.start()
    try:
        with ad.graph_scope() as g:
            loss = compute_loss(model, prepared, TrainConfig(), 250,
                                np.random.default_rng(0), vocab)
            total = ad.sum_(loss.total)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * after_forward, (peak, after_forward)
    assert g.nodes == []


def _ragged_update():
    """Three toy games with different pool sizes, one cut to 2 paragraphs."""
    games, schema = synth.generate_toy_corpus(seed=0, n_games=3)
    vocab = build_vocab(games, schema, 1)
    bins = assign_length_bins([len(p) for g in games for p in g.document.paragraphs], 4)
    prepared = [prepare_game(game, schema, vocab, bins) for game in games]
    short = prepared[1]
    prepared[1] = replace(short, paragraph_ids=short.paragraph_ids[:2],
                          oracle_steps=short.oracle_steps[:2], bin_ids=short.bin_ids[:2])
    assert len({len(pg.ext_plan_tokens) for pg in prepared}) > 1
    model = ModelParams.create(np.random.default_rng(3), ModelConfig(len(vocab), 4, 4, 4))
    return model, prepared, vocab


@pytest.mark.parametrize("k", [0, 250, 10**9])
def test_ragged_update_matches_one_game_at_a_time(k):
    model, prepared, vocab = _ragged_update()
    cfg = TrainConfig(hidden=4, embed=4)

    def run(batched):
        rng = np.random.default_rng(11)
        named = model.named()
        with ad.graph_scope():
            model.zero_grad()
            if batched:
                losses = [compute_loss(model, prepared, cfg, k, rng, vocab)]
            else:
                losses = [compute_loss(model, [pg], cfg, k, rng, vocab) for pg in prepared]
            totals = ad.concat([loss.total for loss in losses], axis=0)
            ad.backward(ad.mul(ad.sum_(totals), ad.const(1.0 / 3.0)))
        # per game: reconstruction, kl, supervision, total, oracle and sampled steps
        rows = [row for loss in losses for row in zip(
            loss.reconstruction, loss.kl, loss.supervision, loss.total.data[:, 0],
            loss.oracle_steps_used, loss.sampled_steps)]
        grads = {name: t.grad.copy() for name, t in named.items()}
        return rows, grads, rng.bit_generator.state

    with ad.no_grad():
        chosen = [plan_walk(model, prepared, scheduled_sampling_rate(k, cfg.decay_slope),
                            cfg.temperature, np.random.default_rng(11)).chosen]
        rng = np.random.default_rng(11)
        chosen.append([plan_walk(model, [pg], scheduled_sampling_rate(k, cfg.decay_slope),
                                 cfg.temperature, rng).chosen[0] for pg in prepared])
    assert chosen[0] == chosen[1]
    assert [len(c) for c in chosen[0]] == [4, 2, 4]

    rows, grads, state = run(batched=True)
    ref_rows, ref_grads, ref_state = run(batched=False)
    assert state == ref_state
    assert len(rows) == len(ref_rows) == 3
    for got, want in zip(rows, ref_rows):
        for part, ref in zip(got[:4], want[:4]):
            assert abs(part - ref) <= 1e-12 * abs(ref)
        assert got[4:] == want[4:]
    for name, want in ref_grads.items():
        assert np.linalg.norm(grads[name] - want) <= 1e-12 * np.linalg.norm(want), name


def test_plan_selection_accuracy_is_the_same_in_any_chunking():
    model, prepared, _ = _ragged_update()
    accs = {size: plan_selection_accuracy(model, prepared, size) for size in (1, 2, 3)}
    hits = sum(plan_walk(model, [pg], 1.0, TrainConfig.temperature,
                         np.random.default_rng(0)).hits[0] for pg in prepared)
    assert set(accs.values()) == {hits / sum(len(pg.paragraph_ids) + 1 for pg in prepared)}


# ---------------------------------------------------------------------------
# AdaGrad


def test_adagrad_zero_grad_is_fixed_point():
    t = ad.param([[1.0, -2.0]])
    acc = {"t": np.zeros((1, 2))}
    adagrad_update({"t": t}, acc, lr=0.5)
    assert np.array_equal(t.data, [[1.0, -2.0]])


def test_adagrad_first_step_closed_form():
    t = ad.param([[1.0]])
    t._accumulate(np.array([[0.25]]))
    acc = {"t": np.zeros((1, 1))}
    adagrad_update({"t": t}, acc, lr=0.1)
    expect = 1.0 - 0.1 * 0.25 / np.sqrt(0.25**2 + 1e-8)
    assert t.data[0, 0] == pytest.approx(expect, abs=1e-12)


def test_adagrad_three_step_scalar_oracle():
    t = ad.param([[0.5]])
    acc = {"t": np.zeros((1, 1))}
    grads = [0.3, -0.2, 0.05]
    value, a = 0.5, 0.0
    for g in grads:
        t.zero_grad()
        t._accumulate(np.array([[g]]))
        adagrad_update({"t": t}, acc, lr=0.2)
        a += g * g
        value -= 0.2 * g / np.sqrt(a + 1e-8)
        assert t.data[0, 0] == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# train loop


def _toy_split(n_train=10, n_valid=3, seed=33):
    games, schema = synth.generate_toy_corpus(seed=seed, n_games=n_train + n_valid)
    return schema, games[:n_train], games[n_train:]


def test_training_smoke_loss_decreases_across_reseeded_runs():
    schema, train_games, valid_games = _toy_split()
    wins = 0
    for seed in range(10):
        cfg = TrainConfig(hidden=8, embed=8, epochs=1, seed=seed, batch_size=4,
                          decay_slope=1e-6)
        result = train(schema, train_games, valid_games, cfg)
        losses = [row["loss"] for row in result.history if "loss" in row]
        if losses[-1] < losses[0]:
            wins += 1
    assert wins >= 8


def test_lr_zero_leaves_parameters_unchanged():
    schema, train_games, valid_games = _toy_split(6, 2)
    cfg = TrainConfig(hidden=6, embed=6, epochs=1, seed=0, learning_rate=0.0)
    rng = np.random.default_rng(cfg.seed)
    from plangen.corpus import assign_length_bins, build_vocab

    vocab = build_vocab(train_games, schema, 1)
    lengths = [len(p) for g in train_games for p in g.document.paragraphs]
    reference = ModelParams.create(
        rng, ModelConfig(len(vocab), cfg.hidden, cfg.embed, cfg.bins))
    result = train(schema, train_games, valid_games, cfg)
    for name, t in result.model.named().items():
        assert np.array_equal(t.data, reference.named()[name].data), name


def test_history_rows_keep_what_the_optimizer_saw(tmp_path):
    # one update per epoch over every game, so each update's walk covers
    # every paragraph of the training split once
    schema, train_games, valid_games = _toy_split(6, 2)
    cfg = TrainConfig(hidden=6, embed=6, epochs=2, seed=3, batch_size=len(train_games))
    result = train(schema, train_games, valid_games, cfg)
    updates = [row for row in result.history if "loss" in row]
    assert len(updates) == 2
    paragraphs = sum(len(g.document.paragraphs) for g in train_games)
    for row in updates:
        assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0.0
        assert row["oracle_steps"] + row["sampled_steps"] == paragraphs
    write_loss_log(tmp_path / "loss.tsv", result.history)
    header, first = (tmp_path / "loss.tsv").read_text().splitlines()[:2]
    assert header.split("\t")[-4:] == ["valid_plan_accuracy", "grad_norm",
                                       "oracle_steps", "sampled_steps"]
    assert float(first.split("\t")[-3]) == pytest.approx(updates[0]["grad_norm"], rel=1e-5)


def test_same_seed_bit_identical_checkpoints(tmp_path):
    schema, train_games, valid_games = _toy_split(8, 2)
    paths = []
    for run in range(2):
        cfg = TrainConfig(hidden=6, embed=6, epochs=2, seed=7)
        result = train(schema, train_games, valid_games, cfg)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, result.model, result.vocab, result.bins,
                        result.tuned_bins, {"profile": "toy"})
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_checkpoint_roundtrip(tmp_path):
    schema, train_games, valid_games = _toy_split(6, 2)
    cfg = TrainConfig(hidden=6, embed=6, epochs=1, seed=2)
    result = train(schema, train_games, valid_games, cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.model, result.vocab, result.bins,
                    result.tuned_bins, {"profile": "toy"})
    ckpt = load_checkpoint(path)
    for name, t in result.model.named().items():
        assert np.array_equal(t.data, ckpt.model.named()[name].data)
    assert ckpt.vocab.tokens() == result.vocab.tokens()
    assert ckpt.bins.boundaries == result.bins.boundaries
    assert ckpt.tuned_bins == result.tuned_bins
    assert ckpt.config["profile"] == "toy"


def test_divergence_aborts_with_numeric_error():
    fx = build_loss_fixture()
    fx.model.decoder.ff_b.data[...] = np.nan
    with pytest.raises((ad.NumericError, ad.DomainError)):
        compute_loss(fx.model, [fx.prepared], fx.cfg, 0, np.random.default_rng(0),
                     fx.vocab)


def test_plan_selection_accuracy_bounds():
    schema, train_games, valid_games = _toy_split(6, 3)
    cfg = TrainConfig(hidden=6, embed=6, epochs=1, seed=4)
    result = train(schema, train_games, valid_games, cfg)
    from plangen.corpus import assign_length_bins

    prepared = [prepare_game(g, schema, result.vocab, result.bins)
                for g in valid_games]
    acc = plan_selection_accuracy(result.model, prepared)
    assert 0.0 <= acc <= 1.0
