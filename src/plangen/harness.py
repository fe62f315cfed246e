"""Gradient verification harness.

Builds a deliberately tiny two-paragraph game (hidden size 4, vocabulary
under 30, pool of 3 plans plus EOP) and runs central finite differences
over every parameter of the full training loss, exercising the sampled
(Gumbel) path.  Also bundles quick per-primitive checks for the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import (
    SIDE_HOME,
    SIDE_VISITING,
    Document,
    Game,
    Record,
    Schema,
    Table,
    Vocab,
    assign_length_bins,
    build_plan_pool,
    build_vocab,
    extract_oracle_plan,
)
from .training import (
    ModelConfig,
    ModelParams,
    PreparedGame,
    TrainConfig,
    compute_loss,
    prepare_game,
)

TINY_SCHEMA = Schema(
    name="grad-fixture-v1",
    version=1,
    entity_type_order=["TEAM", "SIDE", "TPTS"],
    event_types=[],
    team_marker="TEAM",
)


def tiny_game() -> Game:
    """Two teams, two paragraphs (one singleton plan, one pair plan)."""
    records = [
        Record("Ax", "TEAM", "Ax", SIDE_VISITING),
        Record("Ax", "SIDE", "V", SIDE_VISITING),
        Record("Ax", "TPTS", "8", SIDE_VISITING),
        Record("Bo", "TEAM", "Bo", SIDE_HOME),
        Record("Bo", "SIDE", "H", SIDE_HOME),
        Record("Bo", "TPTS", "9", SIDE_HOME),
    ]
    table = Table(records=records, entities=["Ax", "Bo"], events=[])
    doc = Document([
        "Ax got 8 .".split(),
        "Ax 8 , Bo 9 .".split(),
    ])
    pool = build_plan_pool(TINY_SCHEMA, table)
    oracle = extract_oracle_plan(table, doc, pool)
    return Game(table=table, document=doc, oracle=oracle)


@dataclass
class LossFixture:
    model: ModelParams
    prepared: PreparedGame
    cfg: TrainConfig
    vocab: Vocab
    noise_seed: int = 123
    step: int = 10**9  # epsilon is 0 here, so the Gumbel path is exercised

    def loss(self) -> ad.Tensor:
        rng = np.random.default_rng(self.noise_seed)
        return compute_loss(self.model, [self.prepared], self.cfg, self.step, rng,
                            self.vocab).total


# The fixture is checked at a generic parameter point (uniform in
# [-POINT_SCALE, POINT_SCALE]) rather than the small training init: with
# 0.1-scale weights, deep-chain tensors carry whole-gradient norms near
# 1e-7, below what float64 central differences can certify.
POINT_SCALE = 0.5


def build_loss_fixture(hidden: int = 4, seed: int = 7) -> LossFixture:
    """The tiny game, its vocabulary and a model at a generic point."""
    game = tiny_game()
    vocab = build_vocab([game], TINY_SCHEMA, min_count=1)
    if len(vocab) > 30:
        raise AssertionError(f"fixture vocabulary too large: {len(vocab)}")
    bins = assign_length_bins([len(p) for p in game.document.paragraphs], 2)
    cfg = TrainConfig(hidden=hidden, embed=hidden, bins=2, epochs=1, seed=seed)
    model = ModelParams.create(
        np.random.default_rng(seed),
        ModelConfig(vocab_size=len(vocab), hidden=hidden, embed=hidden, bins=2))
    point_rng = np.random.default_rng(seed + 1)
    for t in model.named().values():
        t.data[...] = point_rng.uniform(-POINT_SCALE, POINT_SCALE, size=t.data.shape)
    prepared = prepare_game(game, TINY_SCHEMA, vocab, bins)
    return LossFixture(model=model, prepared=prepared, cfg=cfg, vocab=vocab)


def full_loss_grad_check(hidden: int = 4, seed: int = 7,
                         step: float = 1e-5) -> tuple[float, int, float]:
    """Returns (max relative error, parameter count, elapsed seconds)."""
    fixture = build_loss_fixture(hidden=hidden, seed=seed)
    params = list(fixture.model.named().values())
    n_params = sum(p.size for p in params)
    start = time.perf_counter()
    err = ad.grad_check(fixture.loss, params, step=step)
    return err, n_params, time.perf_counter() - start


def primitive_grad_checks(seed: int = 3) -> dict[str, float]:
    """Central-difference errors for each core primitive on random inputs."""
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.uniform(-2.0, 2.0, size=shape)

    results: dict[str, float] = {}
    a = ad.param(rand((3, 4)))
    b = ad.param(rand((4, 2)))
    results["matmul"] = ad.grad_check(
        lambda: ad.sum_(ad.tanh(ad.matmul(a, b))), [a, b])

    x = ad.param(rand((2, 5)))
    y = ad.param(rand((2, 5)))
    results["add_mul_sub"] = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.add(x, y), ad.sub(x, y))), [x, y])

    z = ad.param(rand((2, 5)))
    results["tanh_sigmoid_exp"] = ad.grad_check(
        lambda: ad.sum_(ad.exp(ad.mul(ad.tanh(z), ad.sigmoid(z)))), [z])

    w = ad.param(np.abs(rand((2, 4))) + 0.5)
    results["log_div"] = ad.grad_check(
        lambda: ad.sum_(ad.div(ad.log(w), ad.add(w, ad.const(np.ones((2, 4)))))), [w])

    s = ad.param(rand((2, 6)))
    s_mix = ad.const(rand((2, 6)))
    results["softmax"] = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.softmax(s), s_mix)), [s])

    g = ad.param(rand((1, 5)))
    g_mix = ad.const(rand((1, 5)))
    noise = ad.sample_gumbel(np.random.default_rng(11), (1, 5))
    results["gumbel_softmax"] = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.gumbel_softmax_sample(ad.log_softmax(g), 0.7, noise),
                               g_mix)), [g])

    # batch 3 against a (1, 4H) bias row; both outputs feed the loss
    shapes = ((3, 3), (3, 2), (3, 2), (3, 8), (2, 8), (1, 8))  # x, h, c, wx, wh, b
    cell = [ad.param(rand(shape)) for shape in shapes]
    h_mix, c_mix = ad.const(rand((3, 2))), ad.const(rand((3, 2)))

    def lstm_loss():
        h2, c2 = ad.lstm_cell(*cell)
        return ad.add(ad.sum_(ad.mul(h2, h_mix)), ad.sum_(ad.mul(c2, c_mix)))

    results["lstm_cell"] = ad.grad_check(lstm_loss, cell)

    # one reversed direction, batch 3 over 4 steps, ragged rows; h0 and c0 get gradients too
    shapes = ((3, 4, 3), (3, 2), (3, 2), (3, 8), (2, 8), (1, 8))  # x, h0, c0, wx, wh, b
    seq = [ad.param(rand(shape)) for shape in shapes]
    ragged = [4, 2, 3]
    seq_mix = ad.const(rand((3, 4, 2)))
    reversed_seq = [ad.LSTMDirection(*seq[3:], reverse=True)]
    results["lstm_seq"] = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.lstm_lockstep(*seq[:3], reversed_seq, ragged), seq_mix)),
        seq)

    # both directions in lockstep over the same ragged rows, as the BiLSTM
    # runs them; the shared h0 and c0 get gradients from both
    bi = [ad.param(rand(shape)) for shape in ((3, 4, 3), (3, 2), (3, 2))]
    cells = [[ad.param(rand(shape)) for shape in shapes[3:]] for _ in range(2)]
    bi_mix = ad.const(rand((3, 4, 4)))
    directions = [ad.LSTMDirection(*cells[0]), ad.LSTMDirection(*cells[1], reverse=True)]
    results["lstm_lockstep"] = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.lstm_lockstep(*bi, directions, ragged), bi_mix)),
        bi + cells[0] + cells[1])
    return results
