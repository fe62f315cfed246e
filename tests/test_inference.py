"""Inference tests: blocking rules vs a brute-force checker, generation
loop contracts, output-file round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import autodiff as ad
from plangen import inference as inf
from plangen import synth
from plangen.autodiff import ParameterError
from plangen.corpus import DataError
from plangen.inference import (
    DecodeConfig,
    apply_blocking,
    generate_document,
    read_generations,
    write_generations,
)
from plangen.planner import PlanDistribution
from plangen.training import TrainConfig, prepare_game, train


def brute_force_allowed(history: list[int], candidate: int, cfg: DecodeConfig) -> bool:
    """Constraint checker written independently of apply_blocking."""
    if not history:
        return True
    if cfg.block_consecutive_unigram and candidate == history[-1]:
        return False
    if cfg.block_plan_bigrams:
        seen = list(zip(history, history[1:]))
        if (history[-1], candidate) in seen:
            return False
    if cfg.max_unigram_repeats is not None:
        if history.count(candidate) >= cfg.max_unigram_repeats:
            return False
    return True


def test_blocking_empty_history_is_identity():
    probs = np.array([0.2, 0.3, 0.5])
    out = apply_blocking([], probs, DecodeConfig(), eop_index=None)
    assert np.allclose(out, probs)


def test_blocking_immediate_repeat_selects_next_highest():
    probs = np.array([0.1, 0.2, 0.1, 0.6])
    out = apply_blocking([3], probs, DecodeConfig(), eop_index=None)
    assert out[3] == 0.0
    assert int(np.argmax(out)) == 1
    assert out.sum() == pytest.approx(1.0)


def test_blocking_bigram_rule():
    probs = np.full(4, 0.25)
    out = apply_blocking([1, 2, 1], probs, DecodeConfig(), eop_index=None)
    assert out[2] == 0.0  # (1, 2) already used
    assert out[1] == 0.0  # immediate repeat
    assert out.sum() == pytest.approx(1.0)


def test_blocking_unigram_budget():
    probs = np.full(4, 0.25)
    out = apply_blocking([0, 2, 0], probs, DecodeConfig(), eop_index=None)
    assert out[0] == 0.0  # used twice already


def test_blocking_flags_disable_rules():
    cfg = DecodeConfig(block_plan_bigrams=False, block_consecutive_unigram=False,
                       max_unigram_repeats=None)
    probs = np.full(4, 0.25)
    out = apply_blocking([0, 1, 0, 1], probs, cfg, eop_index=None)
    assert np.allclose(out, probs)


def test_blocking_forces_eop_when_all_masked():
    probs = np.array([0.5, 0.4, 0.1])
    cfg = DecodeConfig()
    out = apply_blocking([0, 1, 0, 1], probs, cfg, eop_index=2)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(1.0)


def test_blocking_all_masked_without_eop_is_error():
    probs = np.array([0.6, 0.4])
    with pytest.raises(DataError):
        apply_blocking([0, 1, 0, 1], probs, DecodeConfig(), eop_index=None)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6), st.integers(0, 10**6))
def test_blocking_matches_brute_force_checker(history, seed):
    cfg = DecodeConfig()
    probs = np.random.default_rng(seed).dirichlet(np.ones(6))
    out = apply_blocking(history, probs, cfg, eop_index=5)
    for cand in range(5):
        allowed = brute_force_allowed(history, cand, cfg)
        if not allowed:
            assert out[cand] == 0.0
        elif probs[cand] > 0:
            assert out[cand] > 0.0
    assert out.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# generation loop (small trained model)


@pytest.fixture(scope="module")
def trained():
    games, schema = synth.generate_toy_corpus(seed=50, n_games=26)
    cfg = TrainConfig(hidden=16, embed=16, epochs=4, seed=1, batch_size=4)
    result = train(schema, games[:22], games[22:], cfg)
    return schema, games, result


def _eop_least_likely(real_prior):
    """The trained prior, with EOP made the least likely choice: this
    fixture's model ends every held-out document after one paragraph."""

    def prior(pp, h_z, h_y, pool_encodings):
        probs = real_prior(pp, h_z, h_y, pool_encodings).probs.data.copy()
        probs[0, -1] = 1e-9
        probs /= probs.sum()
        return PlanDistribution(probs=ad.const(probs), log_probs=ad.const(np.log(probs)))

    return prior


def test_generation_contracts(trained, monkeypatch):
    schema, games, result = trained
    cfg = DecodeConfig(beam_size=2, bin_policy=result.tuned_bins)
    longest = 0
    for prior in (inf.prior_plan_distribution, _eop_least_likely(inf.prior_plan_distribution)):
        monkeypatch.setattr(inf, "prior_plan_distribution", prior)
        for game in games[22:]:
            pg = prepare_game(game, schema, result.vocab, result.bins)
            out = generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                                    result.vocab, cfg)
            assert len(out.paragraphs) == len(out.plan.steps)
            assert len(out.plan.steps) <= cfg.max_paragraphs
            assert out.plan.terminated or len(out.plan.steps) == cfg.max_paragraphs
            for i, cand in enumerate(out.plan.steps):
                assert brute_force_allowed(out.plan.steps[:i], cand, cfg)
            again = generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                                      result.vocab, cfg)
            assert again.paragraphs == out.paragraphs
            assert again.plan.steps == out.plan.steps
            longest = max(longest, len(out.plan.steps))
    assert longest >= 3  # the blocking rules were checked on multi-paragraph plans


def test_immediate_eop_gives_empty_document(trained, monkeypatch):
    schema, games, result = trained
    pg = prepare_game(games[0], schema, result.vocab, result.bins)
    def eop_first_prior(pp, h_z, h_y, pool_encodings):
        n = pool_encodings.shape[0]
        probs = np.full((1, n), 1e-6)
        probs[0, n - 1] = 1.0 - 1e-6 * (n - 1)
        return PlanDistribution(probs=ad.const(probs),
                                log_probs=ad.const(np.log(probs)))

    monkeypatch.setattr(inf, "prior_plan_distribution", eop_first_prior)
    out = generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                            result.vocab, DecodeConfig(beam_size=1))
    assert out.paragraphs == []
    assert out.plan.steps == []
    assert out.plan.terminated


def test_capped_document_encodes_no_paragraph_after_the_last(trained, monkeypatch):
    # at the paragraph cap the loop ends before encoding the last paragraph
    # and stepping the state LSTMs, which nothing would read
    schema, games, result = trained
    real_encode, calls = inf.encode_paragraphs, []

    def counting(enc, paragraphs):
        calls.append(len(paragraphs))
        return real_encode(enc, paragraphs)

    monkeypatch.setattr(inf, "encode_paragraphs", counting)
    monkeypatch.setattr(inf, "prior_plan_distribution",
                        _eop_least_likely(inf.prior_plan_distribution))
    capped_docs = 0
    for game in games[22:]:
        pg = prepare_game(game, schema, result.vocab, result.bins)
        args = (result.model, pg.pool, pg.ext_plan_tokens, result.vocab)
        full = generate_document(*args, DecodeConfig(beam_size=1,
                                                     bin_policy=result.tuned_bins))
        if len(full.plan.steps) < 2:
            continue
        calls.clear()
        capped = generate_document(*args, DecodeConfig(max_paragraphs=2, beam_size=1,
                                                       bin_policy=result.tuned_bins))
        assert calls == [1]
        assert capped.plan.steps == full.plan.steps[:2]
        assert capped.paragraphs == full.paragraphs[:2]
        assert capped.truncated_paragraphs == full.truncated_paragraphs[:2]
        assert not capped.plan.terminated
        capped_docs += 1
    assert capped_docs > 0


def test_tune_bins_decodes_each_policy_once_and_picks_as_rescoring_all(trained, monkeypatch):
    schema, games, result = trained
    prepared = [prepare_game(g, schema, result.vocab, result.bins) for g in games[22:]]
    real, scored = inf.greedy_bleu, []

    def counting(model, prepared, vocab, bin_policy, decode=None):
        scored.append(tuple(sorted(bin_policy.items())))
        return real(model, prepared, vocab, bin_policy, decode)

    monkeypatch.setattr(inf, "greedy_bleu", counting)
    tuned = inf.tune_bins(result.model, prepared, result.vocab)
    kinds, bins = len(tuned), result.model.config.bins
    assert kinds > 1
    assert len(scored) == len(set(scored)) == kinds * bins - (kinds - 1)
    # reference: every candidate decoded, ties to the lower bin
    policy = inf.observed_bin_modes(prepared)
    for kind in sorted(policy):
        scores = [real(result.model, prepared, result.vocab, {**policy, kind: b})
                  for b in range(bins)]
        policy[kind] = scores.index(max(scores))
    assert tuned == policy


def test_generation_file_roundtrip(tmp_path, trained):
    schema, games, result = trained
    cfg = DecodeConfig(beam_size=1, bin_policy=result.tuned_bins)
    outs, pools = [], []
    for game in games[22:25]:
        pg = prepare_game(game, schema, result.vocab, result.bins)
        outs.append(generate_document(result.model, pg.pool, pg.ext_plan_tokens,
                                      result.vocab, cfg))
        pools.append(pg.pool)
    path = tmp_path / "gen.jsonl"
    write_generations(path, outs, pools)
    rows = read_generations(path)
    assert len(rows) == 3
    for row, out in zip(rows, outs):
        assert row.plan_indices == out.plan.steps
        assert row.paragraphs == out.paragraphs
        assert row.terminated == out.plan.terminated
    # determinism of the file bytes
    path2 = tmp_path / "gen2.jsonl"
    write_generations(path2, outs, pools)
    assert path.read_bytes() == path2.read_bytes()


def test_decode_config_validation():
    with pytest.raises(ParameterError, match="max_unigram_repeats must be >= 1 or None"):
        DecodeConfig(max_unigram_repeats=0)
    for name in ("max_paragraphs", "beam_size", "max_paragraph_len"):
        with pytest.raises(ParameterError, match=f"{name} must be >= 1, got 0"):
            DecodeConfig(**{name: 0})
