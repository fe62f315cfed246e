"""Plan-conditioned paragraph decoder with copy attention and beam search.

Each step feeds the previous token embedding together with the running
text-context state into LSTM_gen, cross-attends over the chosen plan's
token states (with the length-bin embedding prepended as a pseudo-token
so every step sees it), and mixes a vocabulary softmax with a copy
distribution gated by sigmoid(copy(s_i)).  Copy mass lands only on
vocabulary ids of the plan's real tokens; the pseudo-token's attention
weight is excluded and the remainder renormalized.

Training scores teacher-forced paragraphs on the tape: one LSTM_gen
recurrence, then :func:`output_distribution` at the target ids, attending
through a :class:`PlanAttention`.  Free-running decoding records nothing and
runs on plain arrays: :func:`init_decoder` computes once per paragraph what
stays fixed through it -- the text-context part of LSTM_gen's input
projection and the attention terms that do not depend on the step (the
precomputed input projection of Appleyard et al. 2016, and the
step-independent attention terms of Bahdanau et al. 2015) -- and
:func:`decode_step` advances every live hypothesis of a beam-search step as
one row of (h, c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterError, Tensor
from .corpus import DataError, Vocab
from .encoders import EncoderParams, LSTMParams, _uniform


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
class PlanAttention:
    """The fixed attention inputs of S plans, for decoder rows that form S
    equal consecutive groups, group s attending to plan s.  Position 0 of a
    plan is the bin pseudo-token."""

    attn_states: Tensor            # (S, P + 1, 2H)
    attn_keys: Tensor              # attn_states with the last two axes swapped, cached
    attn_mask: np.ndarray | None   # (S, 1, P + 1): -1e9 past a padded plan's end
    plan_ids: np.ndarray           # (S, 1, P): vocabulary ids of the plan tokens


def plan_attention(dec: DecoderParams, bin_ids: list[int], plan_token_states: Tensor,
                   plan_token_ids: list[list[int]], vocab_size: int) -> PlanAttention:
    """Attention inputs of S paragraphs: row s of the padded
    ``plan_token_states`` (S, L, 2H) belongs to the plan with ids
    ``plan_token_ids[s]``, decoded in bin ``bin_ids[s]``; positions past a
    plan's end are masked out."""
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
    return PlanAttention(attn_states=attn_states, attn_keys=ad.swap_last2(attn_states),
                         attn_mask=mask, plan_ids=ids)


def decoder_inputs(enc: EncoderParams, prev_tokens, h_y: Tensor, rows=None) -> Tensor:
    """LSTM_gen inputs [emb(prev), h_y row], one per previous token: a list
    of tokens gives rows, a (B, T) id array a (B, T, E + 2H) batch.  Token
    i reads row ``rows[i]`` of ``h_y`` (row 0 by default)."""
    context = ad.take_rows(h_y, [0] * len(prev_tokens) if rows is None else rows)
    return ad.concat([ad.take_rows(enc.emb, prev_tokens), context], axis=-1)


_ONE = ad.const([[1.0]])


def output_distribution(dec: DecoderParams, h: Tensor, att: PlanAttention,
                        targets) -> Tensor:
    """The probabilities of one target id per row, as an (R, 1) column, for
    the R decoder states in the rows of ``h`` (R, 2H), R / S consecutive
    rows under each of ``att``'s S plans.  The (R, V) copy distribution
    and mixture are never formed."""
    query = ad.matmul(h, dec.attn_w)
    query = ad.reshape(query, (att.attn_states.shape[0], -1, query.shape[1]))
    scores = ad.matmul(query, att.attn_keys)
    if att.attn_mask is not None:
        scores = ad.add(scores, ad.const(att.attn_mask))
    weights = ad.softmax(scores, axis=-1)
    context = ad.reshape(ad.matmul(weights, att.attn_states), h.shape)
    token_w = ad.narrow(weights, -1, 1, att.plan_ids.shape[-1])
    token_w = ad.div(token_w, ad.sum_(token_w, axis=-1, keepdims=True))
    # a target's copy mass is the weight of the plan positions holding it
    targets = np.asarray(targets, dtype=np.intp)
    hit = att.plan_ids == targets.reshape(token_w.shape[:-1] + (1,))
    copy_probs = ad.sum_(ad.mul(token_w, ad.const(hit)), axis=-1, keepdims=True)
    copy_probs = ad.reshape(copy_probs, (h.shape[0], -1))

    gen_logits = ad.add(ad.matmul(ad.concat([h, context], axis=1), dec.ff_w), dec.ff_b)
    gen_probs = ad.gather_last(ad.softmax(gen_logits, axis=-1), targets)
    gate = ad.sigmoid(ad.add(ad.matmul(h, dec.copy_w), dec.copy_b))
    keep = ad.sub(_ONE, gate)
    return ad.add(ad.mul(gen_probs, keep), ad.mul(copy_probs, gate))


@dataclass
class ParagraphConstants:
    """What a free-running step reads that stays fixed through one
    paragraph: one plan, one length bin and one text state.  V is the
    vocabulary size and E the embedding width."""

    ctx_row: np.ndarray            # (1, 4 * 2H): h_y @ wx[E:] + b of LSTM_gen
    h_cols: np.ndarray             # (2H, P + 1 + V + 1): [attn_w @ keys | ff_w[:2H] | copy_w]
    value_logits: np.ndarray       # (P + 1, V): attn_states @ ff_w[2H:]
    ids: np.ndarray                # (P,): vocabulary ids of the plan tokens
    distinct: bool                 # whether no id repeats


def init_decoder(dec: DecoderParams, enc: EncoderParams, bin_id: int,
                 plan_token_states: Tensor, plan_token_ids: list[int], h_y_prev: Tensor,
                 vocab_size: int) -> ParagraphConstants:
    """Start one paragraph under the plan with (P, 2H) token states and ids
    ``plan_token_ids``, length bin ``bin_id`` and the (1, 2H) text state
    ``h_y_prev`` of what was written before it."""
    if plan_token_states.shape[0] != len(plan_token_ids):
        raise DataError("plan token states and ids disagree in length")
    with ad.no_grad():
        att = plan_attention(dec, [bin_id], ad.const(plan_token_states.data[None]),
                             [plan_token_ids], vocab_size)
    two_h, lstm, ff_w = plan_token_states.shape[1], dec.lstm_gen, dec.ff_w.data
    ids = att.plan_ids.reshape(-1)
    return ParagraphConstants(
        ctx_row=h_y_prev.data @ lstm.wx.data[enc.embed_dim:] + lstm.b.data,
        h_cols=np.concatenate([dec.attn_w.data @ att.attn_keys.data[0], ff_w[:two_h],
                               dec.copy_w.data], axis=1),
        value_logits=att.attn_states.data[0] @ ff_w[two_h:],
        ids=ids, distinct=len(set(ids.tolist())) == ids.size)


def decode_step(dec: DecoderParams, enc: EncoderParams, para: ParagraphConstants,
                prev_tokens: list[int], h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """One free-running step of paragraph ``para`` for a list of tokens,
    one per row of the LSTM_gen state (h, c); returns the next-token
    distributions (one row per token) and the advanced state.  Plain numpy:
    nothing goes on the tape.

    The arithmetic is :func:`output_distribution`'s, reassociated so that
    the terms fixed through a paragraph come from :func:`init_decoder`."""
    lstm = dec.lstm_gen
    gates = enc.emb.data[prev_tokens] @ lstm.wx.data[:enc.embed_dim] + h @ lstm.wh.data
    gates += para.ctx_row
    _, _, _, o, c, tc = ad._lstm_gate_step(gates, c)
    h = o * tc
    positions = para.value_logits.shape[0]
    h_out = h @ para.h_cols
    weights = ad._softmax(h_out[:, :positions])
    gen = ad._softmax((h_out[:, positions:-1] + weights @ para.value_logits) + dec.ff_b.data)
    gate = ad._sigmoid(h_out[:, -1:] + dec.copy_b.data)
    token_w = weights[:, 1:]
    token_w = token_w / token_w.sum(axis=1, keepdims=True)
    copy = np.zeros_like(gen)
    if para.distinct:
        copy[:, para.ids] = token_w
    else:  # repeated ids add up, in id order
        np.add.at(copy, (slice(None), para.ids), token_w)
    return gen * (1.0 - gate) + copy * gate, h, c


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
                       beam_size: int, max_len: int) -> tuple[list[int], bool]:
    """Beam-search a paragraph; returns (token ids, truncated flag).

    Hypotheses are ranked by log-probability divided by step count (the
    EOS step counts for finished ones).  EOS is disallowed as the first
    token so paragraphs are never empty.  Finished hypotheses win over
    truncated ones; ties break on the token sequence for determinism.
    The search ends early once no live hypothesis can still finish above
    the best finished one, which leaves the result unchanged.

    A live hypothesis is (-log-probability, tokens, its row in the step's
    LSTM_gen state); a finished one is (log-probability, tokens).
    """
    if beam_size < 1:
        raise ParameterError(f"beam size must be >= 1, got {beam_size}")
    para = init_decoder(dec, enc, bin_id, plan_token_states, plan_token_ids, h_y_prev,
                        len(vocab))
    h, c = r_z.data, np.zeros(r_z.shape)
    eos = vocab.eos_id
    live = [(0.0, (), 0)]
    finished: list[tuple[float, tuple[int, ...]]] = []
    for step in range(max_len):
        rows = [row for _, _, row in live]
        if rows != list(range(len(h))):
            h, c = h[rows], c[rows]
        prev = [tokens[-1] if tokens else vocab.bos_id for _, tokens, _ in live]
        probs, h, c = decode_step(dec, enc, para, prev, h, c)
        log_probs = np.log(np.maximum(probs, 1e-300))
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
