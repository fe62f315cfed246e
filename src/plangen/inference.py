"""Incremental document generation with plan blocking and EOP stopping.

Each step takes the prior over the EOP-extended pool, masks candidates
that would repeat the previous index, recreate a used plan-index bigram,
or push an index past its repeat budget (EOP itself is never masked),
renormalizes, picks greedily, decodes the paragraph, and advances both
recurrences with the generated text.  Generation stops when EOP wins or
the profile's paragraph cap is reached.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import DataError, MacroPlan, PlanPool, Vocab, parse_summary
from .encoders import (
    encode_paragraphs,
    encode_pool,
    initial_state,
    step_plan_state,
    step_text_state,
)
from .generator import generate_paragraph
from .metrics import bleu
from .planner import prior_plan_distribution


@dataclass
class DecodeConfig:
    """Per-profile decoding knobs (toy=8 / rotowire-like=15 / mlb-like=20
    paragraph caps; repeat-blocking flags are per profile)."""

    max_paragraphs: int = 8
    beam_size: int = 5
    max_paragraph_len: int = 30
    block_plan_bigrams: bool = True
    block_consecutive_unigram: bool = True
    max_unigram_repeats: int | None = 2
    bin_policy: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("max_paragraphs", "beam_size", "max_paragraph_len"):
            value = getattr(self, name)
            if not value >= 1:
                raise ad.ParameterError(f"{name} must be >= 1, got {value}")
        if self.max_unigram_repeats is not None and self.max_unigram_repeats < 1:
            raise ad.ParameterError("max_unigram_repeats must be >= 1 or None")


def apply_blocking(history: list[int], probs: np.ndarray, cfg: DecodeConfig,
                   eop_index: int | None) -> np.ndarray:
    """Zero masked candidates and renormalize; EOP is forced when nothing
    else survives.  ``history`` holds previously selected pool indices."""
    out = np.array(probs, dtype=np.float64, copy=True)
    if history:
        if cfg.block_consecutive_unigram:
            out[history[-1]] = 0.0
        if cfg.block_plan_bigrams:
            last = history[-1]
            for u, v in zip(history, history[1:]):
                if u == last:
                    out[v] = 0.0
        if cfg.max_unigram_repeats is not None:
            for idx, count in Counter(history).items():
                if count >= cfg.max_unigram_repeats:
                    out[idx] = 0.0
    if eop_index is not None:
        out[eop_index] = probs[eop_index]  # EOP is never blocked
        if out.sum() <= 0.0:
            out[eop_index] = 1.0
    total = out.sum()
    if total <= 0.0:
        raise DataError("blocking masked every candidate and no EOP entry exists")
    return out / total


@dataclass
class GenerationResult:
    """Aligned plan/paragraph sequences; may be empty when EOP fires first."""

    paragraphs: list[list[str]]
    plan: MacroPlan
    truncated_paragraphs: list[bool]


def generate_document(model, pool: PlanPool, ext_plan_tokens: list[list[int]],
                      vocab: Vocab, cfg: DecodeConfig) -> GenerationResult:
    """Greedy prior plan selection + beam-searched paragraphs, interleaved."""
    eop_index = len(pool)
    with ad.no_grad():
        pool_enc = encode_pool(model.encoder, ext_plan_tokens)
        state = initial_state(model.encoder)
        steps: list[int] = []
        paragraphs: list[list[str]] = []
        truncated: list[bool] = []
        terminated = False
        while len(steps) < cfg.max_paragraphs:
            prior = prior_plan_distribution(model.planner, state.h_z, state.h_y,
                                            pool_enc.pooled)
            masked = apply_blocking(steps, prior.probs.data[0], cfg, eop_index)
            choice = int(np.argmax(masked))
            if choice == eop_index:
                terminated = True
                break
            bin_id = cfg.bin_policy.get(pool[choice].kind, 0)
            token_ids, was_truncated = generate_paragraph(
                model.decoder, model.encoder, pool_enc.plan_vector(choice),
                pool_enc.plan_token_states(choice), ext_plan_tokens[choice],
                bin_id, state.h_y, vocab, cfg.beam_size, cfg.max_paragraph_len)
            steps.append(choice)
            paragraphs.append(vocab.decode(token_ids))
            truncated.append(was_truncated)
            r_y = encode_paragraphs(model.encoder, [token_ids]).pooled
            state = step_text_state(model.encoder, r_y, state)
            state = step_plan_state(model.encoder, pool_enc.plan_vector(choice), state)
    return GenerationResult(paragraphs=paragraphs,
                            plan=MacroPlan(steps=steps, terminated=terminated),
                            truncated_paragraphs=truncated)


def observed_bin_modes(prepared) -> dict[str, int]:
    """Most frequent observed bin per plan kind (starting point for tuning)."""
    tallies: dict[str, Counter] = {}
    for pg in prepared:
        for step, b in zip(pg.oracle_steps, pg.bin_ids):
            tallies.setdefault(pg.pool[step].kind, Counter())[b] += 1
    return {kind: max(sorted(counts), key=lambda b: counts[b])
            for kind, counts in tallies.items()}


def greedy_bleu(model, prepared, vocab: Vocab, bin_policy: dict[str, int]) -> float:
    """Corpus BLEU of greedy (beam 1) generations against the gold summaries."""
    cfg = DecodeConfig(beam_size=1, bin_policy=dict(bin_policy))
    cands = []
    for pg in prepared:
        result = generate_document(model, pg.pool, pg.ext_plan_tokens, vocab, cfg)
        cands.append([tok for para in result.paragraphs for tok in para])
    return bleu(cands, [pg.game.document.all_tokens() for pg in prepared])


def tune_bins(model, prepared_valid, vocab: Vocab) -> dict[str, int]:
    """Pick the bin maximizing validation BLEU per plan kind (greedy decode,
    one coordinate-ascent pass in fixed kind order, ties to the lower bin).
    A kind's current bin keeps the policy the previous kind chose, so its
    score is carried over rather than decoded again."""
    policy = observed_bin_modes(prepared_valid)
    if not prepared_valid:
        return policy
    score = None  # the BLEU of ``policy`` once a pass has decoded it
    for kind in sorted(policy):
        scores = [score if score is not None and b == policy[kind]
                  else greedy_bleu(model, prepared_valid, vocab, {**policy, kind: b})
                  for b in range(model.config.bins)]
        policy[kind] = scores.index(max(scores))  # ties go to the lower bin
        score = scores[policy[kind]]
    return policy


# ---------------------------------------------------------------------------
# generation output files: one game per line, plan descriptors + summary


def write_generations(path, results: list[GenerationResult],
                      pools: list[PlanPool]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for result, pool in zip(results, pools):
            row = {
                "plan": [pool[s].label for s in result.plan.steps],
                "plan_indices": list(result.plan.steps),
                "terminated": result.plan.terminated,
                "summary": " <P> ".join(" ".join(p) for p in result.paragraphs),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


@dataclass
class GenerationRow:
    plan_indices: list[int]
    terminated: bool
    paragraphs: list[list[str]]


def read_generations(path) -> list[GenerationRow]:
    rows: list[GenerationRow] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                steps, terminated = obj["plan_indices"], obj["terminated"]
                if not (isinstance(steps, list) and all(type(s) is int and s >= 0 for s in steps)):
                    raise ValueError(f"plan_indices must be a list of non-negative integers, "
                                     f"got {steps!r}")
                if type(terminated) is not bool:
                    raise ValueError(f"terminated must be true or false, got {terminated!r}")
                summary = obj.get("summary", "")
                paragraphs = parse_summary(summary).paragraphs if summary.strip() else []
                rows.append(GenerationRow(plan_indices=steps, terminated=terminated,
                                          paragraphs=paragraphs))
            except KeyError as exc:
                raise DataError(f"{path}: line {line_no}: missing key {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:  # JSON errors too
                raise DataError(f"{path}: line {line_no}: {exc}") from exc
    return rows
