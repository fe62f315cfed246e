"""Paragraph and plan encoders plus the two running-state recurrences.

A paragraph (or candidate plan) is embedded, run through a BiLSTM, and
pooled with self-attention against a trainable query; the pooled vector
feeds LSTM_text (over generated/observed paragraphs) or LSTM_plan (over
selected plans).  A padded batch encodes each row as it would
alone (see ``_bilstm``).  Attention scores are bilinear (q^T W k),
keeping query and key spaces decoupled.  All weights start uniform in
[-0.1, 0.1] with forget-gate biases at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import DataError

INIT_SCALE = 0.1


def _uniform(rng: np.random.Generator, shape) -> Tensor:
    return ad.param(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))


@dataclass
class LSTMParams:
    """One LSTM cell: gate order (input, forget, cell, output)."""

    wx: Tensor
    wh: Tensor
    b: Tensor
    hidden: int

    @classmethod
    def create(cls, rng: np.random.Generator, input_dim: int, hidden: int) -> "LSTMParams":
        wx = _uniform(rng, (input_dim, 4 * hidden))
        wh = _uniform(rng, (hidden, 4 * hidden))
        b_arr = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(1, 4 * hidden))
        b_arr[0, hidden:2 * hidden] = 1.0  # forget-gate bias
        return cls(wx=wx, wh=wh, b=ad.param(b_arr), hidden=hidden)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wx": self.wx, f"{prefix}.wh": self.wh, f"{prefix}.b": self.b}


def lstm_cell(p: LSTMParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step for a (batch, input_dim) input; returns (h', c')."""
    return ad.lstm_cell(x, h, c, p.wx, p.wh, p.b)


@dataclass
class EncoderParams:
    """Shared embedding, the two BiLSTMs, query vectors, and both state LSTMs."""

    emb: Tensor
    text_fw: LSTMParams
    text_bw: LSTMParams
    plan_fw: LSTMParams
    plan_bw: LSTMParams
    q_text: Tensor
    attn_text_w: Tensor
    q_plan: Tensor
    attn_plan_w: Tensor
    lstm_text: LSTMParams
    lstm_plan: LSTMParams
    hidden: int
    embed_dim: int

    @classmethod
    def create(cls, rng: np.random.Generator, vocab_size: int, hidden: int,
               embed_dim: int) -> "EncoderParams":
        two_h = 2 * hidden
        return cls(
            emb=_uniform(rng, (vocab_size, embed_dim)),
            text_fw=LSTMParams.create(rng, embed_dim, hidden),
            text_bw=LSTMParams.create(rng, embed_dim, hidden),
            plan_fw=LSTMParams.create(rng, embed_dim, hidden),
            plan_bw=LSTMParams.create(rng, embed_dim, hidden),
            q_text=_uniform(rng, (1, two_h)),
            attn_text_w=_uniform(rng, (two_h, two_h)),
            q_plan=_uniform(rng, (1, two_h)),
            attn_plan_w=_uniform(rng, (two_h, two_h)),
            lstm_text=LSTMParams.create(rng, two_h, two_h),
            lstm_plan=LSTMParams.create(rng, two_h, two_h),
            hidden=hidden,
            embed_dim=embed_dim,
        )

    def named(self) -> dict[str, Tensor]:
        out = {"enc.emb": self.emb, "enc.q_text": self.q_text,
               "enc.attn_text_w": self.attn_text_w, "enc.q_plan": self.q_plan,
               "enc.attn_plan_w": self.attn_plan_w}
        out.update(self.text_fw.named("enc.text_fw"))
        out.update(self.text_bw.named("enc.text_bw"))
        out.update(self.plan_fw.named("enc.plan_fw"))
        out.update(self.plan_bw.named("enc.plan_bw"))
        out.update(self.lstm_text.named("enc.lstm_text"))
        out.update(self.lstm_plan.named("enc.lstm_plan"))
        return out


@dataclass
class SequenceBatch:
    """Padded id matrix plus masks for a batch of token sequences."""

    ids: np.ndarray          # (B, L) int
    mask: np.ndarray         # (B, L) float, 1 where valid
    lengths: list[int]

    @classmethod
    def from_sequences(cls, seqs: list[list[int]], pad_id: int = 0) -> "SequenceBatch":
        if not seqs:
            raise DataError("cannot batch zero sequences")
        if any(len(s) == 0 for s in seqs):
            raise DataError("cannot encode an empty token sequence")
        lengths = [len(s) for s in seqs]
        max_len = max(lengths)
        ids = np.full((len(seqs), max_len), pad_id, dtype=np.intp)
        mask = np.zeros((len(seqs), max_len), dtype=np.float64)
        for i, s in enumerate(seqs):
            ids[i, :len(s)] = s
            mask[i, :len(s)] = 1.0
        return cls(ids=ids, mask=mask, lengths=lengths)


@dataclass
class PoolEncoding:
    """Pooled vectors and per-token states for a batch of sequences."""

    pooled: Tensor           # (B, 2H)
    token_states: Tensor     # (B, L, 2H)
    lengths: list[int]
    attn_weights: Tensor     # (B, L)

    def plan_vector(self, j: int) -> Tensor:
        return ad.narrow(self.pooled, 0, j, 1)

    def plan_token_states(self, j: int) -> Tensor:
        two_h = self.token_states.shape[2]
        row = ad.narrow(self.token_states, 0, j, 1)
        full = ad.reshape(row, (self.token_states.shape[1], two_h))
        return ad.narrow(full, 0, 0, self.lengths[j])


def _bilstm(fw: LSTMParams, bw: LSTMParams, x: Tensor, batch: SequenceBatch) -> Tensor:
    """(B, L, E) inputs -> (B, L, 2H) states.  Relies on this: a state past
    its row's length is never read (``_attn_pool`` gives it weight exactly
    0.0, as the -1e9 mask underflows ``exp``; ``plan_token_states`` cuts it
    off).  So the forward direction runs over padding unmasked; the backward
    one meets padding first and keeps the zero state there."""
    zero = ad.zeros((batch.ids.shape[0], fw.hidden))
    fw_states = ad.lstm_seq(x, zero, zero, fw.wx, fw.wh, fw.b)
    bw_states = ad.lstm_seq(x, zero, zero, bw.wx, bw.wh, bw.b, mask=batch.mask,
                            reverse=True)
    return ad.concat([fw_states, bw_states], axis=2)


def _attn_pool(states: Tensor, batch: SequenceBatch, q: Tensor, w: Tensor) -> tuple[Tensor, Tensor]:
    """Self-attention pooling; weights are non-negative and sum to one."""
    b, length, two_h = states.shape
    qw = ad.reshape(ad.matmul(q, w), (two_h, 1))
    scores = ad.reshape(ad.matmul(states, qw), (b, length))
    scores = ad.add(scores, ad.const((batch.mask - 1.0) * 1e9))
    weights = ad.softmax(scores, axis=-1)
    pooled = ad.reshape(ad.matmul(ad.reshape(weights, (b, 1, length)), states), (b, two_h))
    return pooled, weights


def _encode_batch(enc: EncoderParams, fw: LSTMParams, bw: LSTMParams,
                  q: Tensor, w: Tensor, seqs: list[list[int]]) -> PoolEncoding:
    batch = SequenceBatch.from_sequences(seqs)
    b, length = batch.ids.shape
    x = ad.reshape(ad.take_rows(enc.emb, batch.ids.reshape(-1)), (b, length, enc.embed_dim))
    token_states = _bilstm(fw, bw, x, batch)
    pooled, weights = _attn_pool(token_states, batch, q, w)
    return PoolEncoding(pooled=pooled, token_states=token_states,
                        lengths=batch.lengths, attn_weights=weights)


def encode_paragraphs(enc: EncoderParams, paragraphs: list[list[int]]) -> PoolEncoding:
    """Batched text encoding; row t of ``pooled`` is r_y for paragraph t."""
    return _encode_batch(enc, enc.text_fw, enc.text_bw, enc.q_text, enc.attn_text_w,
                         paragraphs)


def encode_pool(enc: EncoderParams, plans: list[list[int]]) -> PoolEncoding:
    """Encode every candidate plan; keeps per-token states for cross-attention."""
    return _encode_batch(enc, enc.plan_fw, enc.plan_bw, enc.q_plan, enc.attn_plan_w,
                         plans)


def encode_plan(enc: EncoderParams, tokens: list[int]) -> tuple[Tensor, Tensor]:
    """One plan's pooled vector and its (length, 2H) token states."""
    pe = encode_pool(enc, [tokens])
    return pe.pooled, pe.plan_token_states(0)


@dataclass
class ContextState:
    """Running LSTM_text / LSTM_plan states, one row per document."""

    h_y: Tensor
    c_y: Tensor
    h_z: Tensor
    c_z: Tensor


def initial_state(enc: EncoderParams, rows: int = 1) -> ContextState:
    zero = ad.zeros((rows, 2 * enc.hidden))
    return ContextState(h_y=zero, c_y=zero, h_z=zero, c_z=zero)


def step_text_state(enc: EncoderParams, r_y: Tensor, state: ContextState) -> ContextState:
    h, c = lstm_cell(enc.lstm_text, r_y, state.h_y, state.c_y)
    return ContextState(h_y=h, c_y=c, h_z=state.h_z, c_z=state.c_z)


def step_plan_state(enc: EncoderParams, r_z: Tensor, state: ContextState) -> ContextState:
    h, c = lstm_cell(enc.lstm_plan, r_z, state.h_z, state.c_z)
    return ContextState(h_y=state.h_y, c_y=state.c_y, h_z=h, c_z=c)
