"""Planner tests: distribution validity, KL, sampling, schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import autodiff as ad
from plangen.corpus import DataError
from plangen.planner import (
    PlannerParams,
    kl_divergence,
    posterior_plan_distribution,
    prior_plan_distribution,
    sample_plan,
    scheduled_sampling_rate,
    use_oracle_step,
)


@pytest.fixture(scope="module")
def pp() -> PlannerParams:
    return PlannerParams.create(np.random.default_rng(8), hidden=4)


def _states(seed, two_h=8):
    rng = np.random.default_rng(seed)
    return (ad.const(rng.uniform(-1, 1, size=(1, two_h))),
            ad.const(rng.uniform(-1, 1, size=(1, two_h))))


def test_pool_of_size_one_is_forced_choice(pp):
    h_z, h_y = _states(0)
    pool = ad.const(np.random.default_rng(1).uniform(-1, 1, size=(1, 8)))
    prior = prior_plan_distribution(pp, h_z, h_y, pool)
    post = posterior_plan_distribution(pp, h_z, h_y, pool)
    assert np.allclose(prior.probs.data, [[1.0]])
    assert np.allclose(post.probs.data, [[1.0]])
    assert abs(kl_divergence(post, prior).item()) < 1e-12


def test_duplicate_pool_entries_get_equal_probability(pp):
    h_z, h_y = _states(2)
    row = np.random.default_rng(3).uniform(-1, 1, size=(1, 8))
    pool = ad.const(np.vstack([row, row, row]))
    prior = prior_plan_distribution(pp, h_z, h_y, pool)
    assert np.allclose(prior.probs.data, 1 / 3, atol=1e-12)
    post = posterior_plan_distribution(pp, h_z, h_y, pool)
    assert np.allclose(post.probs.data, 1 / 3, atol=1e-12)


def test_empty_pool_is_input_error(pp):
    h_z, h_y = _states(4)
    with pytest.raises(DataError):
        prior_plan_distribution(pp, h_z, h_y, ad.const(np.zeros((0, 8))))


def test_prior_matches_manual_recomposition(pp):
    # step-by-step forward computed with raw numpy outside the module
    rng = np.random.default_rng(5)
    h_z = rng.uniform(-1, 1, size=(1, 8))
    h_y = rng.uniform(-1, 1, size=(1, 8))
    pool = rng.uniform(-1, 1, size=(4, 8))

    query = np.tanh(np.concatenate([h_z, h_y], axis=1) @ pp.ff_plan_w.data
                    + pp.ff_plan_b.data)
    scores = (query @ pp.attn_w.data) @ pool.T
    e = np.exp(scores - scores.max())
    expect = e / e.sum()

    prior = prior_plan_distribution(pp, ad.const(h_z), ad.const(h_y), ad.const(pool))
    assert np.allclose(prior.probs.data, expect, atol=1e-12)


def test_posterior_matches_manual_recomposition(pp):
    rng = np.random.default_rng(6)
    h_z = rng.uniform(-1, 1, size=(1, 8))
    h_y = rng.uniform(-1, 1, size=(1, 8))
    pool = rng.uniform(-1, 1, size=(4, 8))

    query = np.tanh(np.concatenate([h_z, h_y], axis=1) @ pp.ff_post_w.data
                    + pp.ff_post_b.data)
    scores = (query @ pp.attn_w.data) @ pool.T
    e = np.exp(scores - scores.max())
    expect = e / e.sum()

    post = posterior_plan_distribution(pp, ad.const(h_z), ad.const(h_y), ad.const(pool))
    assert np.allclose(post.probs.data, expect, atol=1e-12)


def test_prior_equals_posterior_with_tied_weights_and_states():
    pp2 = PlannerParams.create(np.random.default_rng(9), hidden=4)
    pp2.ff_post_w.data[...] = pp2.ff_plan_w.data
    pp2.ff_post_b.data[...] = pp2.ff_plan_b.data
    h_z, h_y = _states(7)
    pool = ad.const(np.random.default_rng(10).uniform(-1, 1, size=(5, 8)))
    prior = prior_plan_distribution(pp2, h_z, h_y, pool)
    post = posterior_plan_distribution(pp2, h_z, h_y, pool)
    assert np.allclose(prior.probs.data, post.probs.data, atol=1e-12)
    assert abs(kl_divergence(post, prior).item()) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 7))
def test_kl_nonnegative_and_distributions_valid(seed, n):
    pp2 = PlannerParams.create(np.random.default_rng(seed % 1000), hidden=3)
    rng = np.random.default_rng(seed)
    h_z = ad.const(rng.uniform(-3, 3, size=(1, 6)))
    h_y = ad.const(rng.uniform(-3, 3, size=(1, 6)))
    h_y2 = ad.const(rng.uniform(-3, 3, size=(1, 6)))
    pool = ad.const(rng.uniform(-3, 3, size=(n, 6)))
    prior = prior_plan_distribution(pp2, h_z, h_y, pool)
    post = posterior_plan_distribution(pp2, h_z, h_y2, pool)
    for dist in (prior, post):
        assert np.all(dist.probs.data >= 0)
        assert abs(dist.probs.data.sum() - 1.0) < 1e-8
    assert kl_divergence(post, prior).item() >= -1e-9


def test_greedy_sampling(pp):
    from plangen.planner import PlanDistribution

    probs = np.array([[0.1, 0.7, 0.2]])
    dist = PlanDistribution(probs=ad.const(probs), log_probs=ad.const(np.log(probs)))
    idx, relaxed = sample_plan(dist, mode="greedy")
    assert idx == 1
    assert np.array_equal(relaxed.data, [[0.0, 1.0, 0.0]])
    # argmax invariance under strictly monotone rescaling
    dist2 = PlanDistribution(probs=ad.const(probs ** 3 / (probs ** 3).sum()),
                             log_probs=ad.const(np.log(probs)))
    assert sample_plan(dist2, mode="greedy")[0] == 1


def test_gumbel_zero_noise_matches_greedy(pp):
    from plangen.planner import PlanDistribution

    probs = np.array([[0.15, 0.6, 0.25]])
    dist = PlanDistribution(probs=ad.const(probs), log_probs=ad.const(np.log(probs)))
    idx, relaxed = sample_plan(dist, temperature=0.1, noise=np.zeros((1, 3)),
                               mode="gumbel")
    assert idx == sample_plan(dist, mode="greedy")[0]
    assert abs(relaxed.data.sum() - 1.0) < 1e-9


def test_gumbel_histogram_matches_probabilities():
    # Monte-Carlo oracle via the Gumbel-max property, 1e5 seeded draws
    from plangen.planner import PlanDistribution

    probs = np.array([[0.45, 0.05, 0.3, 0.2]])
    log_probs = np.log(probs)
    n_draws = 100_000
    noise = ad.sample_gumbel(np.random.default_rng(123), (n_draws, 4))
    relaxed = ad.gumbel_softmax_sample(ad.const(np.tile(log_probs, (n_draws, 1))),
                                       0.1, noise)
    counts = np.bincount(np.argmax(relaxed.data, axis=1), minlength=4)
    freqs = counts / n_draws
    assert np.all(np.abs(freqs - probs[0]) <= 0.02)


def test_scheduled_sampling_rate_endpoints():
    assert scheduled_sampling_rate(0, 1 / 50000) == 1.0
    assert scheduled_sampling_rate(50000, 1 / 50000) == 0.0
    assert scheduled_sampling_rate(100000, 1 / 50000) == 0.0
    assert scheduled_sampling_rate(25000, 1 / 50000) == pytest.approx(0.5)


def test_oracle_substitution_frequency():
    rng = np.random.default_rng(77)
    eps = scheduled_sampling_rate(30000, 1 / 100000)  # 0.7
    hits = sum(use_oracle_step(eps, rng) for _ in range(10_000))
    assert abs(hits / 10_000 - eps) <= 0.02
