"""Prior and posterior plan distributions, differentiable sampling, and
the scheduled-sampling schedule.

Both distributions are bilinear attention over the pool encodings with a
shared scorer; they differ only in which feed-forward layer builds the
query and which text state it reads (the prior sees the state before the
current paragraph, the posterior the state after it).  The per-step
KL(q || p) is computed exactly by summing over the categorical support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterError, Tensor
from .corpus import DataError
from .encoders import _uniform


@dataclass
class PlannerParams:
    """Query builders for prior (ff_plan) and posterior (ff_post) plus the
    shared attention scorer over pool encodings."""

    ff_plan_w: Tensor
    ff_plan_b: Tensor
    ff_post_w: Tensor
    ff_post_b: Tensor
    attn_w: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, hidden: int) -> "PlannerParams":
        two_h = 2 * hidden
        return cls(
            ff_plan_w=_uniform(rng, (2 * two_h, two_h)),
            ff_plan_b=_uniform(rng, (1, two_h)),
            ff_post_w=_uniform(rng, (2 * two_h, two_h)),
            ff_post_b=_uniform(rng, (1, two_h)),
            attn_w=_uniform(rng, (two_h, two_h)),
        )

    def named(self) -> dict[str, Tensor]:
        return {"planner.ff_plan_w": self.ff_plan_w, "planner.ff_plan_b": self.ff_plan_b,
                "planner.ff_post_w": self.ff_post_w, "planner.ff_post_b": self.ff_post_b,
                "planner.attn_w": self.attn_w}


@dataclass
class PlanDistribution:
    """Probabilities (and log-probabilities) over pool entries, one row per
    query."""

    probs: Tensor       # (rows, N)
    log_probs: Tensor   # (rows, N)
    source: str         # "prior" | "posterior"

    def argmax(self) -> int:
        return int(np.argmax(self.probs.data[0]))


def _distribution(w: Tensor, b: Tensor, attn_w: Tensor, h_z: Tensor, h_y: Tensor,
                  pools: Tensor, source: str, mask=None) -> PlanDistribution:
    """Padded pools (G, N, 2H) score query row r against pool r % G, and
    ``mask`` (G, N) adds -1e9 past each pool's end; one pool (N, 2H) is
    the case G = 1."""
    if pools.shape[-2] == 0:
        raise DataError("plan distribution over an empty pool")
    if pools.data.ndim == 2:
        pools = ad.reshape(pools, (1,) + pools.shape)
    games, n, two_h = pools.shape
    query = ad.tanh(ad.add(ad.matmul(ad.concat([h_z, h_y], axis=1), w), b))
    qw = ad.matmul(query, attn_w)
    rows = qw.shape[0]
    qw = ad.reshape(qw, (rows // games, games, two_h, 1))
    scores = ad.reshape(ad.matmul(pools, qw), (rows, n))
    if mask is not None:
        scores = ad.add(scores, ad.const(np.tile(mask, (rows // games, 1))))
    return PlanDistribution(probs=ad.softmax(scores, axis=-1),
                            log_probs=ad.log_softmax(scores, axis=-1),
                            source=source)


def prior_plan_distribution(pp: PlannerParams, h_z_prev: Tensor, h_y_prev: Tensor,
                            pools: Tensor, mask=None) -> PlanDistribution:
    """Selection distribution conditioned on what was said and planned so far."""
    return _distribution(pp.ff_plan_w, pp.ff_plan_b, pp.attn_w,
                         h_z_prev, h_y_prev, pools, "prior", mask)


def posterior_plan_distribution(pp: PlannerParams, h_z_prev: Tensor, h_y_curr: Tensor,
                                pools: Tensor, mask=None) -> PlanDistribution:
    """Inference distribution; reads the text state updated with the observed
    paragraph, and its own feed-forward layer, but shares everything else."""
    return _distribution(pp.ff_post_w, pp.ff_post_b, pp.attn_w,
                         h_z_prev, h_y_curr, pools, "posterior", mask)


def kl_divergence(q: PlanDistribution, p: PlanDistribution) -> Tensor:
    """Exact KL(q || p) per row, (rows, 1), by summation over the
    categorical support."""
    diff = ad.sub(q.log_probs, p.log_probs)
    return ad.sum_(ad.mul(ad.exp(q.log_probs), diff), axis=-1, keepdims=True)


def sample_plan(dist: PlanDistribution, temperature: float | None = None,
                noise=None, mode: str = "gumbel") -> tuple[int, Tensor]:
    """Pick a pool entry; returns (index, relaxed one-hot).

    gumbel: relaxed vector from Gumbel-Softmax over the log-probabilities,
    index = its argmax (gradient flows through the relaxation).
    greedy: argmax of the probabilities with an exact constant one-hot.
    """
    if mode == "greedy":
        idx = dist.argmax()
        one_hot = np.zeros((1, dist.probs.shape[1]))
        one_hot[0, idx] = 1.0
        return idx, ad.const(one_hot)
    if mode != "gumbel":
        raise ParameterError(f"unknown sampling mode {mode!r}")
    if temperature is None or noise is None:
        raise ParameterError("gumbel sampling needs a temperature and a noise vector")
    relaxed = ad.gumbel_softmax_sample(dist.log_probs, temperature, noise)
    return int(np.argmax(relaxed.data[0])), relaxed


def scheduled_sampling_rate(k: int, c: float) -> float:
    """Linearly decaying oracle rate: max(0, 1 - c*k) for step k >= 0, c > 0."""
    return max(0.0, 1.0 - c * k)


def use_oracle_step(eps: float, rng: np.random.Generator) -> bool:
    """Per-step curriculum coin: True substitutes the oracle plan.

    The draw is consumed unconditionally so replay stays aligned for any
    epsilon, including 0 and 1.
    """
    return bool(rng.random() < eps)
