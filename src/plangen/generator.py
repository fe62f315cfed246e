"""Plan-conditioned paragraph decoder with copy attention and beam search.

Each step feeds the previous token embedding together with the running
text-context state into LSTM_gen, cross-attends over the chosen plan's
token states (with the length-bin embedding prepended as a pseudo-token
so every step sees it), and mixes a vocabulary softmax with a copy
distribution gated by sigmoid(copy(s_i)).  Copy mass lands only on
vocabulary ids of the plan's real tokens; the pseudo-token's attention
weight is excluded and the remainder renormalized.

Everything after LSTM_gen is row-wise, so :func:`output_distribution`
scores many decoder states at once: the teacher-forced states of a whole
paragraph in training, and every live hypothesis of a beam-search step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterError, Tensor
from .corpus import DataError, Vocab
from .encoders import EncoderParams, LSTMParams, _uniform, lstm_cell


@dataclass
class DecoderParams:
    """LSTM_gen, cross-attention scorer, output projection, copy gate, bins."""

    lstm_gen: LSTMParams
    attn_w: Tensor
    ff_w: Tensor
    ff_b: Tensor
    copy_w: Tensor
    copy_b: Tensor
    bin_emb: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, vocab_size: int, hidden: int,
               embed_dim: int, bins: int) -> "DecoderParams":
        two_h = 2 * hidden
        return cls(
            lstm_gen=LSTMParams.create(rng, embed_dim + two_h, two_h),
            attn_w=_uniform(rng, (two_h, two_h)),
            ff_w=_uniform(rng, (2 * two_h, vocab_size)),
            ff_b=_uniform(rng, (1, vocab_size)),
            copy_w=_uniform(rng, (two_h, 1)),
            copy_b=_uniform(rng, (1, 1)),
            bin_emb=_uniform(rng, (bins, two_h)),
        )

    def named(self) -> dict[str, Tensor]:
        out = {"dec.attn_w": self.attn_w, "dec.ff_w": self.ff_w, "dec.ff_b": self.ff_b,
               "dec.copy_w": self.copy_w, "dec.copy_b": self.copy_b,
               "dec.bin_emb": self.bin_emb}
        out.update(self.lstm_gen.named("dec.lstm_gen"))
        return out


@dataclass
class DecoderState:
    """Recurrent state (one row per decoded sequence) plus the fixed
    per-paragraph attention inputs."""

    h: Tensor              # (rows, 2H)
    c: Tensor              # (rows, 2H)
    attn_states: Tensor    # (plan_len + 1, 2H), row 0 is the bin pseudo-token
    attn_keys: Tensor      # transposed attn_states, cached
    copy_matrix: Tensor    # (plan_len, vocab) one-hot scatter, constant
    plan_len: int


def init_decoder(dec: DecoderParams, r_z: Tensor, bin_id: int, h_y_prev: Tensor,
                 plan_token_states: Tensor, plan_token_ids: list[int],
                 vocab_size: int) -> DecoderState:
    """Start a paragraph: state from the plan encoding, bin pseudo-token
    prepended to the plan representation stream."""
    bins = dec.bin_emb.shape[0]
    if not 0 <= bin_id < bins:
        raise ParameterError(f"bin id {bin_id} outside [0, {bins})")
    plan_len = plan_token_states.shape[0]
    if plan_len == 0 or not plan_token_ids:
        raise DataError("decoder needs non-empty plan token states")
    if plan_len != len(plan_token_ids):
        raise DataError("plan token states and ids disagree in length")
    bin_row = ad.narrow(dec.bin_emb, 0, bin_id, 1)
    attn_states = ad.concat([bin_row, plan_token_states], axis=0)
    scatter = np.zeros((plan_len, vocab_size))
    scatter[np.arange(plan_len), np.asarray(plan_token_ids, dtype=np.intp)] = 1.0
    return DecoderState(
        h=r_z,
        c=ad.zeros((1, r_z.shape[1])),
        attn_states=attn_states,
        attn_keys=ad.swap_last2(attn_states),
        copy_matrix=ad.const(scatter),
        plan_len=plan_len,
    )


def decoder_inputs(enc: EncoderParams, prev_tokens: list[int], h_y_prev: Tensor) -> Tensor:
    """LSTM_gen inputs [emb(prev), h_y_prev], one row per previous token."""
    n = len(prev_tokens)
    context = h_y_prev if n == 1 else ad.take_rows(h_y_prev, [0] * n)
    return ad.concat([ad.take_rows(enc.emb, prev_tokens), context], axis=1)


def output_distribution(dec: DecoderParams, h: Tensor, state: DecoderState) -> Tensor:
    """Next-token distributions over the vocabulary for the R decoder
    states in the rows of ``h`` (R, 2H), all under ``state``'s plan."""
    scores = ad.matmul(ad.matmul(h, dec.attn_w), state.attn_keys)
    weights = ad.softmax(scores, axis=-1)
    context = ad.matmul(weights, state.attn_states)

    gen_logits = ad.add(ad.matmul(ad.concat([h, context], axis=1), dec.ff_w), dec.ff_b)
    gen_probs = ad.softmax(gen_logits, axis=-1)
    gate = ad.sigmoid(ad.add(ad.matmul(h, dec.copy_w), dec.copy_b))

    token_w = ad.narrow(weights, 1, 1, state.plan_len)
    token_sum = ad.sum_(token_w, axis=-1, keepdims=True)
    copy_probs = ad.matmul(ad.div(token_w, token_sum), state.copy_matrix)

    keep = ad.sub(ad.const([[1.0]]), gate)
    return ad.add(ad.mul(gen_probs, keep), ad.mul(copy_probs, gate))


def decode_step(dec: DecoderParams, enc: EncoderParams, prev_tokens: int | list[int],
                state: DecoderState, h_y_prev: Tensor) -> tuple[Tensor, DecoderState]:
    """One teacher-forced or free-running step for one token, or for a list
    of tokens with one per row of ``state``; returns the next-token
    distributions (one row per token) and the advanced state."""
    rows = [prev_tokens] if isinstance(prev_tokens, (int, np.integer)) else prev_tokens
    h, c = lstm_cell(dec.lstm_gen, decoder_inputs(enc, rows, h_y_prev), state.h, state.c)
    return output_distribution(dec, h, state), DecoderState(
        h=h, c=c, attn_states=state.attn_states, attn_keys=state.attn_keys,
        copy_matrix=state.copy_matrix, plan_len=state.plan_len)


# Per-step allowance for log-probabilities above 0: a copy entry can sum
# to 1 plus a few ulps.
_STEP_SLACK = 1e-14


def _cannot_overtake(finished: list[tuple[float, tuple[int, ...]]],
                     live: list[tuple[float, tuple[int, ...], int]], max_len: int) -> bool:
    """True once no live hypothesis can finish above the best finished one:
    later steps only add log-probabilities and a finished score divides by
    at most ``max_len``, so c = log-probability + slack bounds a live
    hypothesis's final score by max(c, c / max_len)."""
    best = max(lp / (len(tokens) + 1) for lp, tokens in finished)
    ceilings = (-neg_lp + max_len * _STEP_SLACK for neg_lp, _, _ in live)
    return all(best > max(c, c / max_len) for c in ceilings)


def generate_paragraph(dec: DecoderParams, enc: EncoderParams, r_z: Tensor,
                       plan_token_states: Tensor, plan_token_ids: list[int],
                       bin_id: int, h_y_prev: Tensor, vocab: Vocab,
                       beam_size: int = 5, max_len: int = 30) -> tuple[list[int], bool]:
    """Beam-search a paragraph; returns (token ids, truncated flag).

    Hypotheses are ranked by log-probability divided by step count (the
    EOS step counts for finished ones).  EOS is disallowed as the first
    token so paragraphs are never empty.  Finished hypotheses win over
    truncated ones; ties break on the token sequence for determinism.
    The search ends early once no live hypothesis can still finish above
    the best finished one, which leaves the result unchanged.

    A live hypothesis is (-log-probability, tokens, its row in the step's
    batched decoder state); a finished one is (log-probability, tokens).
    """
    if beam_size < 1:
        raise ParameterError(f"beam size must be >= 1, got {beam_size}")
    with ad.no_grad():
        state = init_decoder(dec, r_z, bin_id, h_y_prev, plan_token_states,
                             plan_token_ids, len(vocab))
        eos = vocab.eos_id
        live = [(0.0, (), 0)]
        finished: list[tuple[float, tuple[int, ...]]] = []
        for step in range(max_len):
            rows = [row for _, _, row in live]
            if rows != list(range(state.h.shape[0])):
                state.h, state.c = ad.take_rows(state.h, rows), ad.take_rows(state.c, rows)
            prev = [tokens[-1] if tokens else vocab.bos_id for _, tokens, _ in live]
            probs, state = decode_step(dec, enc, prev, state, h_y_prev)
            log_probs = np.log(np.maximum(probs.data, 1e-300))
            orders = np.argsort(-log_probs, axis=1, kind="stable")[:, : beam_size + 1]
            tops = log_probs[np.arange(len(live))[:, None], orders].tolist()
            # (-log-probability, tokens, row, finished); no two candidates of a
            # step share the first two, so the sort never compares the rest
            candidates = []
            for r, ((neg_lp, tokens, _), toks, lps) in enumerate(
                    zip(live, orders.tolist(), tops)):
                for tok, lp in zip(toks, lps):
                    lp = -neg_lp + lp
                    if tok != eos:
                        candidates.append((-lp, tokens + (tok,), r, False))
                    elif step > 0:
                        candidates.append((-lp, tokens, r, True))
            candidates.sort()
            live = []
            for neg_lp, tokens, r, done in candidates:
                if done:
                    finished.append((-neg_lp, tokens))
                elif len(live) < beam_size:
                    live.append((neg_lp, tokens, r))
            if not live or (finished and _cannot_overtake(finished, live, max_len)):
                break
        if finished:
            _, tokens = max((lp / (len(t) + 1), t) for lp, t in finished)
        else:
            _, tokens = max((-neg_lp / max(len(t), 1), t) for neg_lp, t, _ in live)
        return list(tokens), not finished
