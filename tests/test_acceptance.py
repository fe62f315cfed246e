"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The toy end-to-end criterion trains the full
desk-scale model once (module-scoped) and shares it with the inference-
constraint criterion.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from plangen import autodiff as ad
from plangen import cli, synth
from plangen.corpus import (
    assign_length_bins,
    build_plan_pool,
    extract_oracle_plan,
    read_corpus,
)
from plangen.encoders import EncoderParams, encode_paragraphs, encode_plan
from plangen.generator import DecoderParams, decode_step, init_decoder
from plangen.harness import full_loss_grad_check
from plangen.inference import DecodeConfig, generate_document, read_generations
from plangen.metrics import bleu, co, dld, evaluate_corpus, plan_quality
from plangen.planner import (
    PlannerParams,
    kl_divergence,
    posterior_plan_distribution,
    prior_plan_distribution,
    sample_plan,
    scheduled_sampling_rate,
    use_oracle_step,
)
from plangen.training import (
    TrainConfig,
    plan_selection_accuracy,
    prepare_game,
    train,
)

from test_metrics import brute_force_osa, oracle_corpus_bleu


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS -- {text}")


# ---------------------------------------------------------------------------
# criterion 5 fixture (shared with criterion 6)


@pytest.fixture(scope="module")
def toy_run():
    games, schema = synth.generate_toy_corpus(seed=0, n_games=390)
    cfg = TrainConfig(seed=0, epochs=10)  # within the <= 20 epoch budget
    start = time.perf_counter()
    result = train(schema, games[:300], games[300:340], cfg)
    elapsed = time.perf_counter() - start
    return {"schema": schema, "games": games, "result": result,
            "train_seconds": elapsed, "cfg": cfg}


def test_criterion_1_gradient_integrity():
    err, n_params, elapsed = full_loss_grad_check(hidden=4)
    assert err < 1e-4, f"max relative error {err}"
    assert elapsed < 60.0, f"grad check took {elapsed:.1f}s"
    _report(1, f"full-loss grad check err {err:.2e} over {n_params} params "
               f"in {elapsed:.1f}s (< 60s)")


def test_criterion_2_elbo_validity():
    min_kl = np.inf
    worst_norm_gap = 0.0
    for draw in range(1000):
        rng = np.random.default_rng(draw)
        hidden = int(rng.integers(2, 5))
        pp = PlannerParams.create(rng, hidden)
        two_h = 2 * hidden
        n = int(rng.integers(2, 7))
        h_z = ad.const(rng.uniform(-3, 3, (1, two_h)))
        h_y_prev = ad.const(rng.uniform(-3, 3, (1, two_h)))
        h_y_curr = ad.const(rng.uniform(-3, 3, (1, two_h)))
        pool = ad.const(rng.uniform(-3, 3, (n, two_h)))
        prior = prior_plan_distribution(pp, h_z, h_y_prev, pool)
        post = posterior_plan_distribution(pp, h_z, h_y_curr, pool)
        min_kl = min(min_kl, kl_divergence(post, prior).item())
        for dist in (prior, post):
            worst_norm_gap = max(worst_norm_gap,
                                 abs(float(dist.probs.data.sum()) - 1.0))
            assert np.all(dist.probs.data >= 0)
    assert min_kl >= -1e-9, f"negative KL {min_kl}"
    assert worst_norm_gap <= 1e-8

    # attention weights inside the encoders and the decoder mixture
    rng = np.random.default_rng(4242)
    enc = EncoderParams.create(rng, 20, 4, 4)
    dec = DecoderParams.create(rng, 20, 4, 4, bins=2)
    for trial in range(50):
        toks = list(np.random.default_rng(trial).integers(6, 20, size=1 + trial % 6))
        pe = encode_paragraphs(enc, [toks])
        worst_norm_gap = max(worst_norm_gap,
                             abs(float(pe.attn_weights.data.sum()) - 1.0))
        r_z, states = encode_plan(enc, toks)
        para = init_decoder(dec, enc, 0, states, toks, ad.zeros((1, 8)), 20)
        probs, _, _ = decode_step(dec, enc, para, [1], r_z.data, np.zeros((1, 8)))
        worst_norm_gap = max(worst_norm_gap, abs(float(probs.sum()) - 1.0))
    assert worst_norm_gap <= 1e-8
    _report(2, f"min KL {min_kl:.2e} over 1000 draws; max normalization gap "
               f"{worst_norm_gap:.2e} (<= 1e-8)")


def test_criterion_3_gumbel_fidelity():
    probs = np.array([0.45, 0.05, 0.3, 0.2])
    n_draws = 100_000
    noise = ad.sample_gumbel(np.random.default_rng(2024), (n_draws, 4))
    relaxed = ad.gumbel_softmax_sample(
        ad.const(np.tile(np.log(probs), (n_draws, 1))), 0.1, noise)
    freqs = np.bincount(np.argmax(relaxed.data, axis=1), minlength=4) / n_draws
    gap = np.abs(freqs - probs).max()
    assert gap <= 0.02, f"argmax frequency gap {gap}"

    from plangen.planner import PlanDistribution

    exact = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        p = rng.dirichlet(np.ones(5))[None, :]
        dist = PlanDistribution(probs=ad.const(p), log_probs=ad.const(np.log(p)))
        idx_g, _ = sample_plan(dist, temperature=0.1, noise=np.zeros((1, 5)),
                               mode="gumbel")
        idx_greedy, _ = sample_plan(dist, mode="greedy")
        exact += int(idx_g == idx_greedy)
    assert exact == 200
    _report(3, f"max |empirical - prob| {gap:.4f} over 1e5 draws at tau=0.1; "
               f"zero-noise argmax == greedy argmax on 200/200 draws")


def test_criterion_4_scheduled_sampling():
    for denom in (50000, 100000):  # the two published decay slopes
        c = 1.0 / denom
        ks = [0, denom // 2, denom, 2 * denom]  # {0, 1/(2c), 1/c, 2/c}
        eps = [scheduled_sampling_rate(k, c) for k in ks]
        assert eps == [1.0, 0.5, 0.0, 0.0]
    c = 1.0 / 50000.0
    rng = np.random.default_rng(555)
    worst = 0.0
    for k in (10000, 25000, 40000):
        target = scheduled_sampling_rate(k, c)
        freq = sum(use_oracle_step(target, rng) for _ in range(10_000)) / 10_000
        worst = max(worst, abs(freq - target))
    assert worst <= 0.02
    _report(4, f"epsilon endpoints {eps} exact; substitution frequency within "
               f"{worst:.4f} of epsilon over 1e4 draws")


def test_criterion_5_toy_end_to_end(toy_run):
    result = toy_run["result"]
    schema = toy_run["schema"]
    test_games = toy_run["games"][340:]
    assert len(test_games) == 50
    assert toy_run["cfg"].epochs <= 20
    assert toy_run["train_seconds"] < 900, \
        f"training took {toy_run['train_seconds']:.0f}s (budget 900s)"

    prepared = [prepare_game(g, schema, result.vocab, result.bins)
                for g in test_games]
    acc = plan_selection_accuracy(result.model, prepared)
    assert acc >= 0.90, f"plan-selection accuracy {acc}"

    dc = DecodeConfig(beam_size=5, bin_policy=result.tuned_bins)
    outs = [generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                              result.vocab, dc) for pg in prepared]
    report = evaluate_corpus([o.paragraphs for o in outs],
                             [g.document for g in test_games],
                             [g.table for g in test_games], synth.TOY_FRAMES)
    assert report.rg_precision >= 95.0, f"RG precision {report.rg_precision}"

    f_sum = co_sum = 0.0
    for pg, out in zip(prepared, outs):
        oracle = extract_oracle_plan(pg.game.table, pg.game.document, pg.pool)
        _, _, f, co_val = plan_quality(out.plan, oracle, pg.pool)
        f_sum += f
        co_sum += co_val
    f_mean, co_mean = f_sum / len(outs), co_sum / len(outs)
    assert f_mean >= 85.0, f"plan CS F {f_mean}"
    assert co_mean >= 70.0, f"plan CO {co_mean}"
    _report(5, f"train {toy_run['train_seconds']:.0f}s; plan accuracy {acc:.3f}; "
               f"RG P {report.rg_precision:.1f}; plan CS F {f_mean:.1f}; "
               f"CO {co_mean:.1f}")


def test_criterion_6_inference_constraints(toy_run):
    result = toy_run["result"]
    schema = toy_run["schema"]
    extra_games, _ = synth.generate_toy_corpus(seed=777, n_games=100)
    dc = DecodeConfig(beam_size=1, bin_policy=result.tuned_bins)
    assert dc.block_plan_bigrams and dc.block_consecutive_unigram
    assert dc.max_unigram_repeats == 2
    violations = 0
    capped = eop_stopped = 0
    for game in extra_games:
        pg = prepare_game(game, schema, result.vocab, result.bins)
        out = generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                                result.vocab, dc)
        steps = out.plan.steps
        assert len(out.paragraphs) == len(steps)
        assert len(steps) <= dc.max_paragraphs
        if out.plan.terminated:
            eop_stopped += 1
        else:
            capped += 1
            assert len(steps) == dc.max_paragraphs
        for i, cand in enumerate(steps):
            history = steps[:i]
            if not history:
                continue
            if cand == history[-1]:
                violations += 1
            if (history[-1], cand) in set(zip(history, history[1:])):
                violations += 1
            if history.count(cand) >= 2:
                violations += 1
    assert violations == 0
    _report(6, f"100 generations: 0 constraint violations; {eop_stopped} stopped "
               f"at EOP, {capped} at the cap; |plans| == |paragraphs| always")


def test_criterion_7_metric_oracles():
    # exhaustive: all 4096 ordered pairs of length-6 binary sequences,
    # plus 4096 seeded pairs with lengths <= 6 over a 4-symbol alphabet
    seqs6 = list(itertools.product("ab", repeat=6))
    checked = 0
    for a in seqs6:
        for b in seqs6:
            assert dld(a, b) == brute_force_osa(a, b)
            checked += 1
    assert checked == 4096
    rng = np.random.default_rng(31337)
    for _ in range(4096):
        a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 7))]
        b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 7))]
        assert dld(a, b) == brute_force_osa(a, b)

    assert co(list("abc"), list("acb")) == pytest.approx(66.7, abs=0.1)

    got = bleu(["the cat sat".split()], ["the cat sat down".split()])
    assert got == pytest.approx(0.4029351667284423, abs=0.1)
    cands = ["the cat sat on the mat .".split(), "dogs run fast in the park .".split()]
    refs = ["the cat sat on the mat .".split(), "dogs run quickly in the park .".split()]
    assert bleu(cands, refs) == pytest.approx(76.27865593709942, abs=0.1)
    assert bleu(cands, refs) == pytest.approx(oracle_corpus_bleu(cands, refs), abs=0.1)

    games, _ = synth.generate_toy_corpus(seed=8, n_games=10)
    report = evaluate_corpus([g.document for g in games],
                             [g.document for g in games],
                             [g.table for g in games], synth.TOY_FRAMES)
    assert (report.rg_precision, report.cs_f, report.co) == (100.0, 100.0, 100.0)
    assert report.bleu == pytest.approx(100.0)
    _report(7, "dld == brute force on 4096 exhaustive + 4096 sampled pairs; "
               "co fixture 66.7; BLEU fixtures within 0.1; gold-vs-gold all 100")


def test_criterion_8_preprocessing_fidelity():
    from test_corpus import MLB_LIKE_SCHEMA, keller_table
    from plangen.corpus import verbalize_entity

    plan = verbalize_entity(MLB_LIKE_SCHEMA, keller_table(), "B.Keller")
    prefix = ["<PLAYER>", "B.Keller", "<H/V>", "V", "<W>", "7", "<L>", "5",
              "<IP>", "8", "<PH>", "4"]
    assert plan.tokens[:len(prefix)] == prefix

    games, schema = synth.generate_toy_corpus(seed=21, n_games=200)
    recovered = 0
    for game in games:
        pool = build_plan_pool(schema, game.table)
        if extract_oracle_plan(game.table, game.document, pool).steps == \
                game.oracle.steps:
            recovered += 1
    assert recovered == 200

    lengths = [len(p) for g in games for p in g.document.paragraphs]
    bins = assign_length_bins(lengths, 4)
    pops = [0, 0, 0, 0]
    for x in lengths:
        pops[bins.assign(x)] += 1
    ties = max(lengths.count(b) for b in bins.boundaries)
    assert max(pops) - min(p for p in pops if p > 0) <= ties
    _report(8, f"B.Keller prefix exact; oracle recovery 200/200; "
               f"bin populations {pops} within tie tolerance {ties}")


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["make-toy", "--seed", "12", "--n-train", "20", "--n-valid",
                     "4", "--n-test", "6", "--out", str(data)]) == 0
    artifacts = {}
    for run in ("one", "two"):
        ckpt = tmp_path / f"{run}.ckpt"
        gen = tmp_path / f"{run}.gen.jsonl"
        rep = tmp_path / f"{run}.report.txt"
        assert cli.main(["train", "--profile", "toy",
                         "--schema", str(data / "schema.json"),
                         "--train", str(data / "train.jsonl"),
                         "--valid", str(data / "valid.jsonl"),
                         "--checkpoint", str(ckpt),
                         "--hidden", "8", "--embed", "8", "--epochs", "2",
                         "--seed", "9"]) == 0
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--schema", str(data / "schema.json"),
                         "--corpus", str(data / "test.jsonl"),
                         "--out", str(gen), "--beam-size", "5"]) == 0
        assert cli.main(["evaluate", "--generated", str(gen),
                         "--gold", str(data / "test.jsonl"),
                         "--schema", str(data / "schema.json"),
                         "--out", str(rep)]) == 0
        artifacts[run] = (ckpt.read_bytes(), gen.read_bytes(), rep.read_bytes())
    assert artifacts["one"][0] == artifacts["two"][0], "checkpoints differ"
    assert artifacts["one"][1] == artifacts["two"][1], "generations differ"
    assert artifacts["one"][2] == artifacts["two"][2], "metric reports differ"
    _report(9, "bit-identical checkpoint, generations, and metric report "
               "across two same-seed runs")
