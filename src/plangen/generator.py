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
    attention inputs of S plans: the rows form S equal consecutive groups,
    group s attending to plan s.  Position 0 of a plan is the bin
    pseudo-token."""

    h: Tensor                      # (rows, 2H)
    c: Tensor                      # (rows, 2H)
    attn_states: Tensor            # (S, P + 1, 2H)
    attn_keys: Tensor              # attn_states with the last two axes swapped, cached
    attn_mask: np.ndarray | None   # (S, 1, P + 1): -1e9 past a padded plan's end
    plan_ids: np.ndarray           # (S, 1, P): vocabulary ids of the plan tokens
    vocab_size: int


def init_decoder(dec: DecoderParams, r_z: Tensor, bin_id: int, h_y_prev: Tensor,
                 plan_token_states: Tensor, plan_token_ids: list[int],
                 vocab_size: int) -> DecoderState:
    """Start one paragraph: state from the plan encoding (1, 2H), bin
    pseudo-token prepended to the plan's (P, 2H) token states."""
    if plan_token_states.shape[0] != len(plan_token_ids):
        raise DataError("plan token states and ids disagree in length")
    states = ad.reshape(plan_token_states, (1,) + plan_token_states.shape)
    return init_paragraph_decoders(dec, r_z, [bin_id], states, [plan_token_ids], vocab_size)


def init_paragraph_decoders(dec: DecoderParams, r_z: Tensor, bin_ids: list[int],
                            plan_token_states: Tensor, plan_token_ids: list[list[int]],
                            vocab_size: int) -> DecoderState:
    """Start S paragraphs at once: row s of ``r_z`` (S, 2H) and of the
    padded ``plan_token_states`` (S, L, 2H) belong to the plan with ids
    ``plan_token_ids[s]``; positions past a plan's end are masked out."""
    bins = dec.bin_emb.shape[0]
    for bin_id in bin_ids:
        if not 0 <= bin_id < bins:
            raise ParameterError(f"bin id {bin_id} outside [0, {bins})")
    paras, width, two_h = plan_token_states.shape
    lengths = [len(ids) for ids in plan_token_ids]
    if any(n == 0 or n > width for n in lengths):
        raise DataError("decoder needs non-empty plan token ids that fit the token states")
    ids = np.zeros((paras, 1, width), dtype=np.intp)  # padding: weight 0 on id 0
    for s, plan in enumerate(plan_token_ids):
        ids[s, 0, :len(plan)] = plan
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise DataError(f"plan token id outside the vocabulary [0, {vocab_size})")
    mask = None  # -1e9 past each plan's end; position 0 is the bin pseudo-token
    if any(n < width for n in lengths):
        mask = np.where(np.arange(width + 1) <= np.array(lengths)[:, None, None], 0.0, -1e9)
    bin_rows = ad.reshape(ad.take_rows(dec.bin_emb, bin_ids), (paras, 1, two_h))
    attn_states = ad.concat([bin_rows, plan_token_states], axis=1)
    return DecoderState(
        h=r_z,
        c=ad.zeros(r_z.shape),
        attn_states=attn_states,
        attn_keys=ad.swap_last2(attn_states),
        attn_mask=mask,
        plan_ids=ids,
        vocab_size=vocab_size,
    )


def decoder_inputs(enc: EncoderParams, prev_tokens, h_y: Tensor, rows=None) -> Tensor:
    """LSTM_gen inputs [emb(prev), h_y row], one per previous token: a list
    of tokens gives rows, a (B, T) id array a (B, T, E + 2H) batch.  Token
    i reads row ``rows[i]`` of ``h_y``; by default, row i of an ``h_y``
    with one row per token, else row 0."""
    n = len(prev_tokens)
    if rows is None and h_y.shape[0] == n:
        context = h_y
    else:
        context = ad.take_rows(h_y, [0] * n if rows is None else rows)
    return ad.concat([ad.take_rows(enc.emb, prev_tokens), context], axis=-1)


_ONE = ad.const([[1.0]])


def output_distribution(dec: DecoderParams, h: Tensor, state: DecoderState,
                        targets=None) -> Tensor:
    """Next-token distributions over the vocabulary for the R decoder
    states in the rows of ``h`` (R, 2H), R / S consecutive rows under each
    of ``state``'s S plans.  Given one target id per row, only the target
    probabilities, as an (R, 1) column, and the (R, V) copy distribution
    and mixture are never formed; without targets, every row must share
    one plan (S = 1)."""
    query = ad.matmul(h, dec.attn_w)
    query = ad.reshape(query, (state.attn_states.shape[0], -1, query.shape[1]))
    scores = ad.matmul(query, state.attn_keys)
    if state.attn_mask is not None:
        scores = ad.add(scores, ad.const(state.attn_mask))
    weights = ad.softmax(scores, axis=-1)
    context = ad.reshape(ad.matmul(weights, state.attn_states), h.shape)
    token_w = ad.narrow(weights, -1, 1, state.plan_ids.shape[-1])
    token_w = ad.div(token_w, ad.sum_(token_w, axis=-1, keepdims=True))
    if targets is None:
        copy_probs = ad.scatter_cols(token_w, state.plan_ids.reshape(-1), state.vocab_size)
    else:  # a target's copy mass is the weight of the plan positions holding it
        targets = np.asarray(targets, dtype=np.intp)
        hit = state.plan_ids == targets.reshape(token_w.shape[:-1] + (1,))
        copy_probs = ad.sum_(ad.mul(token_w, ad.const(hit)), axis=-1, keepdims=True)
    copy_probs = ad.reshape(copy_probs, (h.shape[0], -1))

    gen_logits = ad.add(ad.matmul(ad.concat([h, context], axis=1), dec.ff_w), dec.ff_b)
    gen_probs = ad.softmax(gen_logits, axis=-1)
    if targets is not None:
        gen_probs = ad.gather_last(gen_probs, targets)
    gate = ad.sigmoid(ad.add(ad.matmul(h, dec.copy_w), dec.copy_b))
    keep = ad.sub(_ONE, gate)
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
        attn_mask=state.attn_mask, plan_ids=state.plan_ids, vocab_size=state.vocab_size)


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
        contexts = {1: h_y_prev}  # h_y_prev once per live hypothesis, by count
        for step in range(max_len):
            rows = [row for _, _, row in live]
            if rows != list(range(state.h.shape[0])):
                state.h, state.c = ad.take_rows(state.h, rows), ad.take_rows(state.c, rows)
            if len(live) not in contexts:
                contexts[len(live)] = ad.take_rows(h_y_prev, [0] * len(live))
            prev = [tokens[-1] if tokens else vocab.bos_id for _, tokens, _ in live]
            probs, state = decode_step(dec, enc, prev, state, contexts[len(live)])
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
