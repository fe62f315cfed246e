"""Interleaved per-paragraph training: ELBO with distant supervision,
scheduled sampling, AdaGrad updates, and checkpointing.

The loss of one update is recorded as one tape over all its games, in
two phases.  The planning walk visits paragraphs t = 1..T of every game
in lockstep: encode the observed paragraph, form the posterior (from the
updated text state) and the prior (from the previous one), accumulate
the exact categorical KL and the log posterior probability of the
oracle step, pick the next plan (oracle with probability eps_k,
otherwise a Gumbel-Softmax sample from the posterior), and advance both
recurrences.  A terminal step after a game's last paragraph supervises
selection of the reserved EOP pool entry, which is how inference learns
to stop.  The decoder sees the walk only through the discrete chosen
plan and the text state before each paragraph, so the second phase
teacher-forces every paragraph of every game under its chosen plan
afterwards, as the rows of one decoder pass.  Reconstruction is summed
over tokens, the whole document is backpropagated (no truncation), and
each game's minimized total is -(reconstruction - KL + lambda *
supervision).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import inference
from .autodiff import NumericError, Tensor
from .corpus import (
    RESERVED,
    BinAssignment,
    DataError,
    Game,
    PlanPool,
    Schema,
    Vocab,
    assign_length_bins,
    build_plan_pool,
    build_vocab,
    extract_oracle_plan,
)
from .encoders import (
    EncoderParams,
    PoolEncoding,
    SequenceBatch,
    encode_paragraphs,
    encode_pool,
    initial_state,
    step_plan_state,
    step_text_state,
)
from .generator import (
    DecoderParams,
    decoder_inputs,
    init_paragraph_decoders,
    output_distribution,
)
from .planner import (
    PlannerParams,
    kl_divergence,
    posterior_plan_distribution,
    prior_plan_distribution,
    scheduled_sampling_rate,
    use_oracle_step,
)

ADAGRAD_EPS = 1e-8
KL_FLOOR = -1e-9
CHECKPOINT_MAGIC = "plangen-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int
    embed: int
    bins: int


@dataclass
class ModelParams:
    """All trainable tensors, grouped by sub-model."""

    encoder: EncoderParams
    planner: PlannerParams
    decoder: DecoderParams
    config: ModelConfig

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: ModelConfig) -> "ModelParams":
        return cls(
            encoder=EncoderParams.create(rng, cfg.vocab_size, cfg.hidden, cfg.embed),
            planner=PlannerParams.create(rng, cfg.hidden),
            decoder=DecoderParams.create(rng, cfg.vocab_size, cfg.hidden,
                                         cfg.embed, cfg.bins),
            config=cfg,
        )

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.encoder.named())
        out.update(self.planner.named())
        out.update(self.decoder.named())
        return out

    def zero_grad(self) -> None:
        for t in self.named().values():
            t.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.named().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, t in self.named().items():
            t.data[...] = snap[k]


@dataclass
class TrainConfig:
    """Optimization settings; lr / lambda / temperature defaults follow the
    published training configuration."""

    learning_rate: float = 0.15
    lam: float = 2.0
    decay_slope: float = 1.0 / 500.0
    temperature: float = 0.1
    batch_size: int = 4
    epochs: int = 10
    seed: int = 0
    bins: int = 4
    clip_norm: float = 5.0
    hidden: int = 32
    embed: int = 32
    min_count: int = 1

    def __post_init__(self):
        positives = {
            "decay_slope": self.decay_slope, "temperature": self.temperature,
            "batch_size": self.batch_size, "epochs": self.epochs,
            "bins": self.bins, "clip_norm": self.clip_norm,
            "hidden": self.hidden, "embed": self.embed,
        }
        # written as `not value > 0` so that NaN fails the check as well
        for name, value in positives.items():
            if not value > 0:
                raise ad.ParameterError(f"{name} must be positive, got {value}")
        # lr = 0 is legal (null optimizer); negative rates are not
        for name, value in {"learning_rate": self.learning_rate, "lam": self.lam}.items():
            if not value >= 0:
                raise ad.ParameterError(f"{name} must be non-negative, got {value}")


@dataclass
class PreparedGame:
    """Token-id view of one game against a fixed vocabulary.

    The candidate pool is extended with the reserved EOP entry at index
    ``eop_index`` so plan selection can terminate naturally.
    """

    pool: PlanPool
    ext_plan_tokens: list[list[int]]
    paragraph_ids: list[list[int]]
    oracle_steps: list[int]
    bin_ids: list[int]
    eop_index: int
    game: Game


def prepare_game(game: Game, schema: Schema, vocab: Vocab,
                 bins: BinAssignment) -> PreparedGame:
    pool = build_plan_pool(schema, game.table)
    oracle = game.oracle
    if oracle is None:
        oracle = extract_oracle_plan(game.table, game.document, pool)
    oracle.validate(pool)
    if len(oracle.steps) != len(game.document.paragraphs):
        raise DataError(
            f"oracle plan length {len(oracle.steps)} != paragraph count "
            f"{len(game.document.paragraphs)}")
    ext = [vocab.encode(p.tokens) for p in pool.plans] + [[vocab.eop_id]]
    return PreparedGame(
        pool=pool,
        ext_plan_tokens=ext,
        paragraph_ids=[vocab.encode(p) for p in game.document.paragraphs],
        oracle_steps=list(oracle.steps),
        bin_ids=[bins.assign(len(p)) for p in game.document.paragraphs],
        eop_index=len(pool),
        game=game,
    )


@dataclass
class UpdateLoss:
    """The losses of one update's G games, game g's in row g of ``total``
    and in entry g of each per-game field.

    Sign convention: total = -(reconstruction - kl + lambda*supervision);
    ``total`` is the recorded (G, 1) tensor, the rest are numpy arrays of
    its terms and per-game counts."""

    total: Tensor
    reconstruction: np.ndarray
    kl: np.ndarray
    supervision: np.ndarray
    oracle_steps_used: list[int]
    sampled_steps: list[int]
    epsilon: float


def _offsets(sizes: list[int]) -> list[int]:
    return list(itertools.accumulate(sizes, initial=0))[:-1]


def _pick_rows(a: Tensor, b: Tensor, use_b: list[bool]) -> Tensor:
    """Row g of ``b`` where ``use_b[g]``, else row g of ``a``."""
    idx = [a.shape[0] + g if u else g for g, u in enumerate(use_b)]
    return ad.take_rows(ad.concat([a, b], axis=0), idx)


def _padded_pools(pooled: Tensor, sizes: list[int]) -> tuple[Tensor, np.ndarray | None]:
    """(G, N_max, 2H) pools from the games' consecutive rows of ``pooled``,
    and the additive (G, N_max) mask, -1e9 past a pool's end (None when no
    pool is padded)."""
    n_max = max(sizes)
    if all(n == n_max for n in sizes):
        return ad.reshape(pooled, (len(sizes), n_max, -1)), None
    rows = [off + min(j, n - 1) for off, n in zip(_offsets(sizes), sizes)
            for j in range(n_max)]
    mask = np.array([[0.0] * n + [-1e9] * (n_max - n) for n in sizes])
    return ad.reshape(ad.take_rows(pooled, rows), (len(sizes), n_max, -1)), mask


@dataclass
class PlanWalk:
    """Planning phase of G games, walked in lockstep.

    ``pool_enc`` holds every game's pool, game g's entries from row
    ``pool_offsets[g]`` on.  ``chosen[g][t]`` is the plan paragraph t of
    game g is decoded under.  Row t * G + g of ``h_y`` is game g's text
    state before step t.  ``kl`` and ``supervision`` are (G, 1);
    ``hits[g]`` counts posterior argmax == oracle over the game's T + 1
    steps, terminal EOP included.
    """

    pool_enc: PoolEncoding
    pool_offsets: list[int]
    chosen: list[list[int]]
    h_y: Tensor
    kl: Tensor
    supervision: Tensor
    hits: list[int]
    oracle_steps_used: list[int]
    sampled_steps: list[int]


def plan_walk(model: ModelParams, games: list[PreparedGame], eps: float,
              temperature: float, rng: np.random.Generator) -> PlanWalk:
    """Prior, posterior, exact KL and supervision per step, the
    scheduled-sampling choice and both state updates, for all games at
    once: step t advances every game that has a paragraph t.

    Every draw is made first, game by game in paragraph order (one coin
    per paragraph, then Gumbel noise over the pool when the coin says
    sample), so the stream and the choices are those of walking the games
    one after another.  Only the posterior of a step where some game
    samples is needed inside the walk; the prior and posterior of every
    step are then scored in one batch each."""
    enc, planner = model.encoder, model.planner
    n_games = len(games)
    steps = [len(pg.paragraph_ids) for pg in games]
    sizes = [len(pg.ext_plan_tokens) for pg in games]
    draws = [[None if use_oracle_step(eps, rng) else ad.sample_gumbel(rng, (1, n))
              for _ in range(t)] for n, t in zip(sizes, steps)]
    pool_enc = encode_pool(enc, [toks for pg in games for toks in pg.ext_plan_tokens])
    para = encode_paragraphs(enc, [p for pg in games for p in pg.paragraph_ids]).pooled
    pool_offsets, para_offsets = _offsets(sizes), _offsets(steps)
    pools, mask = _padded_pools(pool_enc.pooled, sizes)

    state = initial_state(enc, n_games)
    h_z, h_y, h_y_next = [], [], []
    chosen: list[list[int]] = [[] for _ in games]
    for t in range(max(steps) + 1):
        h_z.append(state.h_z)
        h_y.append(state.h_y)
        walking = [t < n for n in steps]
        if not any(walking):  # every game is at its terminal step or past it
            h_y_next.append(state.h_y)
            break
        r_y = ad.take_rows(para, [off + min(t, n - 1) for off, n in zip(para_offsets, steps)])
        text = step_text_state(enc, r_y, state)
        if not all(walking):  # a game at its terminal step keeps its text state
            text.h_y = _pick_rows(text.h_y, state.h_y, [not w for w in walking])
        h_y_next.append(text.h_y)

        # a game past its last paragraph takes entry 0; nothing reads it
        picks = [pg.oracle_steps[t] if w else 0 for pg, w in zip(games, walking)]
        sampling = [w and draws[g][t] is not None for g, w in enumerate(walking)]
        r_z = None
        if not all(sampling):
            r_z = ad.take_rows(pool_enc.pooled, [off + j for off, j in zip(pool_offsets, picks)])
        if any(sampling):
            post = posterior_plan_distribution(planner, state.h_z, text.h_y, pools, mask)
            gumbel = np.zeros(post.log_probs.shape)
            for g in np.flatnonzero(sampling):
                gumbel[g, :sizes[g]] = draws[g][t][0]
            relaxed = ad.gumbel_softmax_sample(post.log_probs, temperature, gumbel)
            for g in np.flatnonzero(sampling):
                picks[g] = int(np.argmax(relaxed.data[g]))
            mixed = ad.matmul(ad.reshape(relaxed, (n_games, 1, -1)), pools)
            mixed = ad.reshape(mixed, (n_games, -1))
            r_z = mixed if r_z is None else _pick_rows(r_z, mixed, sampling)
        for g, w in enumerate(walking):
            if w:
                chosen[g].append(picks[g])
        state = step_plan_state(enc, r_z, text)

    # rows t * G + g, for steps t = 0 .. T_max
    h_z_all, h_y_all = ad.concat(h_z, axis=0), ad.concat(h_y, axis=0)
    prior = prior_plan_distribution(planner, h_z_all, h_y_all, pools, mask)
    post = posterior_plan_distribution(planner, h_z_all, ad.concat(h_y_next, axis=0),
                                       pools, mask)
    n_steps = len(h_z)
    targets = [pg.oracle_steps[t] if t < n else pg.eop_index if t == n else 0
               for t in range(n_steps) for pg, n in zip(games, steps)]
    active = np.array([[t <= n for n in steps] for t in range(n_steps)])
    kl = kl_divergence(post, prior)
    kl_grid = kl.data.reshape(n_steps, n_games)
    negative = np.argwhere((kl_grid < KL_FLOOR) & active)
    if len(negative):
        t, g = negative[0]
        raise NumericError(f"negative KL {kl_grid[t, g]} in game {g} at "
                           + ("terminal step" if t == steps[g] else f"paragraph {t}"))
    hit_grid = np.argmax(post.log_probs.data, axis=1) == np.array(targets)
    hits = (hit_grid.reshape(n_steps, n_games) & active).sum(axis=0)
    # per_game @ column sums each game's active steps
    per_game = ad.const(np.concatenate([np.diag(row) for row in active], axis=1))
    oracle_used = [sum(d is None for d in game_draws) for game_draws in draws]
    return PlanWalk(pool_enc=pool_enc, pool_offsets=pool_offsets, chosen=chosen,
                    h_y=h_y_all, kl=ad.matmul(per_game, kl),
                    supervision=ad.matmul(per_game, ad.gather_last(post.log_probs, targets)),
                    hits=hits.tolist(), oracle_steps_used=oracle_used,
                    sampled_steps=[t - o for t, o in zip(steps, oracle_used)])


def _reconstruction(model: ModelParams, games: list[PreparedGame], walk: PlanWalk,
                    vocab: Vocab) -> Tensor:
    """(G, 1) teacher-forced log-probabilities of every game's paragraphs
    under their chosen plans: one LSTM_gen recurrence whose rows are all
    the paragraphs, padded to the longest, then one output distribution
    with per-paragraph plan attention, scored at the valid positions."""
    enc, dec = model.encoder, model.decoder
    n_games = len(games)
    paras = [(g, t) for g, pg in enumerate(games) for t in range(len(pg.paragraph_ids))]
    plans = [walk.pool_offsets[g] + walk.chosen[g][t] for g, t in paras]
    prev = SequenceBatch.from_sequences(
        [[vocab.bos_id] + games[g].paragraph_ids[t] for g, t in paras])
    n_paras, width = prev.ids.shape
    context_rows = np.repeat([[t * n_games + g] for g, t in paras], width, axis=1)
    x = decoder_inputs(enc, prev.ids, walk.h_y, context_rows)
    r_z = ad.take_rows(walk.pool_enc.pooled, plans)
    lstm = dec.lstm_gen
    h = ad.lstm_lockstep(x, r_z, ad.zeros(r_z.shape),
                         [ad.LSTMDirection(lstm.wx, lstm.wh, lstm.b)])
    state = init_paragraph_decoders(
        dec, r_z, [games[g].bin_ids[t] for g, t in paras],
        ad.take_rows(walk.pool_enc.token_states, plans),
        [games[g].ext_plan_tokens[walk.chosen[g][t]] for g, t in paras],
        model.config.vocab_size)
    # row s * width + i scores token i of paragraph s (EOS after the last);
    # rows past a paragraph's end target id 0 and are left out
    targets = np.zeros((n_paras, width), dtype=np.intp)
    per_game = np.zeros((n_games, n_paras, width))
    for s, (g, t) in enumerate(paras):
        tokens = games[g].paragraph_ids[t] + [vocab.eos_id]
        targets[s, :len(tokens)] = tokens
        per_game[g, s, :len(tokens)] = 1.0
    valid = np.flatnonzero(prev.mask)
    probs = output_distribution(dec, ad.reshape(h, (n_paras * width, -1)), state,
                                targets.reshape(-1))
    picked = ad.take_rows(probs, valid)
    return ad.matmul(ad.const(per_game.reshape(n_games, -1)[:, valid]), ad.log(picked))


def compute_loss(model: ModelParams, games: list[PreparedGame], cfg: TrainConfig,
                 k: int, rng: np.random.Generator, vocab: Vocab) -> UpdateLoss:
    """The losses of one update at training step k, recorded as one tape:
    the planning walk (the only consumer of ``rng``), then reconstruction."""
    eps = scheduled_sampling_rate(k, cfg.decay_slope)
    walk = plan_walk(model, games, eps, cfg.temperature, rng)
    recon = _reconstruction(model, games, walk, vocab)
    kl, sup = walk.kl, walk.supervision
    total = ad.neg(ad.add(ad.sub(recon, kl), ad.mul(ad.const([[cfg.lam]]), sup)))
    return UpdateLoss(total=total, reconstruction=recon.data.reshape(-1),
                      kl=kl.data.reshape(-1), supervision=sup.data.reshape(-1),
                      oracle_steps_used=walk.oracle_steps_used,
                      sampled_steps=walk.sampled_steps, epsilon=eps)


def adagrad_update(named: dict[str, Tensor], accumulators: dict[str, np.ndarray],
                   lr: float) -> None:
    """accumulator += grad^2; param -= lr * grad / sqrt(accumulator + 1e-8)."""
    for name, t in named.items():
        g = t.grad
        acc = accumulators[name]
        acc += g * g
        t.data -= lr * g / np.sqrt(acc + ADAGRAD_EPS)


def plan_selection_accuracy(model: ModelParams, prepared: list[PreparedGame],
                            batch_size: int = TrainConfig.batch_size) -> float:
    """Posterior-argmax accuracy against oracle plans, terminal EOP step
    included: the planning walk at eps = 1, so oracle choices drive both
    recurrences.  Games are walked ``batch_size`` at a time, which bounds
    memory by one batch."""
    # eps = 1 still draws one coin per paragraph; a private generator keeps
    # the training stream untouched, and the chunks draw from it in order.
    if not prepared:
        return 0.0
    coins = np.random.default_rng(0)
    hits = 0
    with ad.no_grad():
        for start in range(0, len(prepared), batch_size):
            chunk = prepared[start:start + batch_size]
            hits += sum(plan_walk(model, chunk, 1.0, TrainConfig.temperature, coins).hits)
    return hits / sum(len(pg.paragraph_ids) + 1 for pg in prepared)


@dataclass
class TrainResult:
    model: ModelParams
    vocab: Vocab
    bins: BinAssignment
    tuned_bins: dict[str, int]
    history: list[dict]
    best_epoch: int
    best_accuracy: float


def train(schema: Schema, train_games: list[Game], valid_games: list[Game],
          cfg: TrainConfig, progress=None) -> TrainResult:
    """Full optimization with summary-level batches, gradient clipping, and
    best-validation-accuracy checkpoint retention (BLEU tiebreak, greedy
    decoding).  Deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(train_games, schema, cfg.min_count)
    lengths = [len(p) for g in train_games for p in g.document.paragraphs]
    bins = assign_length_bins(lengths, cfg.bins)
    model = ModelParams.create(
        rng, ModelConfig(vocab_size=len(vocab), hidden=cfg.hidden,
                         embed=cfg.embed, bins=cfg.bins))
    prepared = [prepare_game(g, schema, vocab, bins) for g in train_games]
    prepared_valid = [prepare_game(g, schema, vocab, bins) for g in valid_games]

    named = model.named()
    accumulators = {k: np.zeros_like(t.data) for k, t in named.items()}
    history: list[dict] = []
    best: dict | None = None
    k = 0

    def valid_bleu_for(params_snapshot: dict[str, np.ndarray]) -> float:
        keep = model.snapshot()
        model.restore(params_snapshot)
        score = inference.greedy_bleu(model, prepared_valid, vocab,
                                      inference.observed_bin_modes(prepared_valid))
        model.restore(keep)
        return score

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            with ad.graph_scope():
                model.zero_grad()
                loss = compute_loss(model, [prepared[int(i)] for i in batch], cfg, k, rng,
                                    vocab)
                totals = loss.total.data[:, 0].tolist()
                # summed in game order: numpy's pairwise sum of the column can
                # round differently from 8 games on
                mean_total = sum(totals) * (1.0 / len(totals))
                if not np.isfinite(mean_total):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} step {k}: {totals}")
                ad.backward(ad.mul(ad.sum_(loss.total), ad.const(1.0 / len(totals))))
            grad_norm = ad.clip_global_norm(list(named.values()), cfg.clip_norm)
            adagrad_update(named, accumulators, cfg.learning_rate)
            history.append({
                "epoch": epoch, "step": k,
                "loss": mean_total,
                "recon": float(np.mean(loss.reconstruction)),
                "kl": float(np.mean(loss.kl)),
                "supervision": float(np.mean(loss.supervision)),
                "epsilon": loss.epsilon,
                "grad_norm": grad_norm,
                "oracle_steps": sum(loss.oracle_steps_used),
                "sampled_steps": sum(loss.sampled_steps),
            })
            k += 1
        acc = plan_selection_accuracy(model, prepared_valid, cfg.batch_size)
        history.append({"epoch": epoch, "step": k, "valid_plan_accuracy": acc})
        if progress is not None:
            progress(epoch, acc, history[-2]["loss"] if len(history) > 1 else None)
        if best is None or acc > best["accuracy"]:
            best = {"accuracy": acc, "epoch": epoch, "params": model.snapshot(),
                    "bleu": None}
        elif acc == best["accuracy"]:
            if best["bleu"] is None:
                best["bleu"] = valid_bleu_for(best["params"])
            cand_params = model.snapshot()
            cand_bleu = valid_bleu_for(cand_params)
            if cand_bleu > best["bleu"]:
                best = {"accuracy": acc, "epoch": epoch, "params": cand_params,
                        "bleu": cand_bleu}

    assert best is not None
    model.restore(best["params"])
    tuned = inference.tune_bins(model, prepared_valid, vocab)
    return TrainResult(model=model, vocab=vocab, bins=bins, tuned_bins=tuned,
                       history=history, best_epoch=best["epoch"],
                       best_accuracy=best["accuracy"])


# ---------------------------------------------------------------------------
# checkpoint format: one JSON manifest line, then named float64 blobs in
# sorted-name order (fully deterministic bytes, unlike zip containers)


def save_checkpoint(path, model: ModelParams, vocab: Vocab, bins: BinAssignment,
                    tuned_bins: dict[str, int], extra_config: dict | None = None) -> None:
    named = model.named()
    order = sorted(named)
    manifest = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "model": {"vocab_size": model.config.vocab_size, "hidden": model.config.hidden,
                  "embed": model.config.embed, "bins": model.config.bins},
        "vocab": vocab.tokens(),
        "vocab_hash": vocab.content_hash(),
        "bin_boundaries": list(bins.boundaries),
        "bin_count": bins.bin_count,
        "tuned_bins": dict(sorted(tuned_bins.items())),
        "config": extra_config or {},
        "tensors": {k: list(named[k].shape) for k in order},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for k in order:
            fh.write(np.ascontiguousarray(named[k].data, dtype="<f8").tobytes())


@dataclass
class Checkpoint:
    model: ModelParams
    vocab: Vocab
    bins: BinAssignment
    tuned_bins: dict[str, int]
    config: dict


def _is_count(value, least: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a manifest field of the wrong type or range, or a
    blob that does not fit it, raises DataError naming the path and field."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not a checkpoint file: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: missing checkpoint magic")
        blob = fh.read()

    def expect(ok: bool, field: str, what: str) -> None:
        if not ok:
            raise DataError(f"{path}: checkpoint field {field!r} must be {what}")

    try:
        mc = manifest["model"]
        expect(isinstance(mc, dict), "model", "an object")
        sizes = {k: mc[k] for k in ("vocab_size", "hidden", "embed", "bins")}
        for k, v in sizes.items():
            expect(_is_count(v), f"model.{k}", "a positive integer")
        # the embedding, one recurrent weight and the bin table alone need this
        # many floats, so sizes the blob cannot hold allocate nothing
        expect(sizes["vocab_size"] * sizes["embed"] + 4 * sizes["hidden"] ** 2
               + sizes["bins"] <= len(blob) // 8, "model", "sizes that fit the blob")
        model = ModelParams.create(np.random.default_rng(0), ModelConfig(**sizes))
        named, tensors = model.named(), manifest["tensors"]
        expect(isinstance(tensors, dict), "tensors", "an object")
        offset = 0
        for k in sorted(named):
            shape = named[k].shape
            expect(tensors[k] == list(shape), f"tensors.{k}", f"the model's shape {list(shape)}")
            n = named[k].size
            if offset + n * 8 > len(blob):
                raise DataError(f"{path}: checkpoint blob ends inside tensor {k!r}")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
            named[k].data[...] = arr
            offset += n * 8
        if offset != len(blob):
            raise DataError(f"{path}: checkpoint blob size mismatch")
        tokens = manifest["vocab"]
        expect(isinstance(tokens, list) and all(isinstance(t, str) for t in tokens),
               "vocab", "a list of strings")
        vocab = Vocab(tokens[len(RESERVED):])
        if vocab.tokens() != tokens:
            raise DataError(f"{path}: reserved vocabulary prefix is malformed")
        expect(len(vocab) == sizes["vocab_size"], "vocab", "model.vocab_size tokens long")
        if vocab.content_hash() != manifest["vocab_hash"]:
            raise DataError(f"{path}: vocabulary hash mismatch")
        boundaries, bin_count = manifest["bin_boundaries"], manifest["bin_count"]
        expect(isinstance(boundaries, list) and all(_is_count(b, 0) for b in boundaries),
               "bin_boundaries", "a list of non-negative integers")
        expect(_is_count(bin_count), "bin_count", "a positive integer")
        tuned = manifest["tuned_bins"]
        expect(isinstance(tuned, dict) and all(_is_count(b, 0) and b < sizes["bins"]
                                               for b in tuned.values()),
               "tuned_bins", "an object of bin ids below model.bins")
        config = manifest.get("config", {})
        expect(isinstance(config, dict), "config", "an object")
        return Checkpoint(model=model, vocab=vocab,
                          bins=BinAssignment(boundaries=boundaries, bin_count=bin_count),
                          tuned_bins=tuned, config=config)
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint manifest lacks {exc}") from exc


def write_loss_log(path, history: list[dict]) -> None:
    """Loss curves as TSV plot data, with the pre-clip gradient norm and the
    oracle / sampled plan choices of each update."""
    cols = ["epoch", "step", "loss", "recon", "kl", "supervision", "epsilon",
            "valid_plan_accuracy", "grad_norm", "oracle_steps", "sampled_steps"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in history:
            fh.write("\t".join(
                f"{row[c]:.6f}" if isinstance(row.get(c), float) else str(row.get(c, ""))
                for c in cols) + "\n")
