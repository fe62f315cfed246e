"""Interleaved per-paragraph training: ELBO with distant supervision,
scheduled sampling, AdaGrad updates, and checkpointing.

The per-game loss has two phases.  The planning walk visits paragraphs
t = 1..T: encode the observed paragraph, form the posterior (from the
updated text state) and the prior (from the previous one), accumulate
the exact categorical KL and the log posterior probability of the
oracle step, pick the next plan (oracle with probability eps_k,
otherwise a Gumbel-Softmax sample from the posterior), and advance both
recurrences.  A terminal step after the last paragraph supervises
selection of the reserved EOP pool entry, which is how inference learns
to stop.  The decoder sees the walk only through the discrete chosen
plan and the text state before each paragraph, so the second phase
teacher-forces every paragraph under its chosen plan afterwards.
Reconstruction is summed over tokens, the whole document is
backpropagated (no truncation), and the minimized total is
-(reconstruction - KL + lambda * supervision).
"""

from __future__ import annotations

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
    encode_paragraphs,
    encode_pool,
    initial_state,
    step_plan_state,
    step_text_state,
)
from .generator import DecoderParams, decoder_inputs, init_decoder, output_distribution
from .planner import (
    PlannerParams,
    kl_divergence,
    posterior_plan_distribution,
    prior_plan_distribution,
    sample_plan,
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
    hidden: int = 32
    embed: int = 32
    bins: int = 4


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
class LossBreakdown:
    """Sign convention: total = -(reconstruction - kl + lambda*supervision)."""

    reconstruction: float
    kl: float
    supervision: float
    total: float
    total_tensor: Tensor | None = None
    oracle_steps_used: int = 0
    sampled_steps: int = 0
    epsilon: float = 0.0


def _scalar(x: float) -> Tensor:
    return ad.const([[x]])


@dataclass
class PlanWalk:
    """Planning phase of one game.

    ``chosen[t]`` is the plan paragraph t is decoded under and
    ``h_y_prev[t]`` the text state before it; ``hits`` counts posterior
    argmax == oracle over all T + 1 steps, terminal EOP included.
    """

    pool_enc: PoolEncoding
    chosen: list[int]
    h_y_prev: list[Tensor]
    kl: Tensor
    supervision: Tensor
    hits: int
    oracle_steps_used: int
    sampled_steps: int


def plan_walk(model: ModelParams, pg: PreparedGame, eps: float, temperature: float,
              rng: np.random.Generator) -> PlanWalk:
    """Prior, posterior, exact KL and supervision per step, then the
    scheduled-sampling choice (one coin per paragraph, Gumbel noise only
    on the sampled path) and both state updates."""
    pool_enc = encode_pool(model.encoder, pg.ext_plan_tokens)
    para_enc = encode_paragraphs(model.encoder, pg.paragraph_ids)
    state = initial_state(model.encoder)
    n = len(pg.paragraph_ids)
    kl = _scalar(0.0)
    sup = _scalar(0.0)
    chosen: list[int] = []
    h_y_prev: list[Tensor] = []
    hits = oracle_used = sampled = 0

    for t in range(n + 1):
        prior = prior_plan_distribution(model.planner, state.h_z, state.h_y,
                                        pool_enc.pooled)
        if t == n:  # terminal step: the document ended, so the oracle picks EOP
            next_text, target = state, pg.eop_index
        else:
            r_y = ad.narrow(para_enc.pooled, 0, t, 1)
            next_text = step_text_state(model.encoder, r_y, state)
            target = pg.oracle_steps[t]
        post = posterior_plan_distribution(model.planner, state.h_z, next_text.h_y,
                                           pool_enc.pooled)
        step_kl = kl_divergence(post, prior)
        if step_kl.item() < KL_FLOOR:
            raise NumericError(f"negative KL {step_kl.item()} at "
                               + ("terminal step" if t == n else f"paragraph {t}"))
        kl = ad.add(kl, ad.reshape(step_kl, (1, 1)))
        sup = ad.add(sup, ad.gather_last(post.log_probs, [target]))
        hits += int(post.argmax() == target)
        if t == n:
            break

        if use_oracle_step(eps, rng):
            choice = target
            r_z = pool_enc.plan_vector(choice)
            oracle_used += 1
        else:
            noise = ad.sample_gumbel(rng, (1, len(pg.ext_plan_tokens)))
            choice, relaxed = sample_plan(post, temperature, noise, mode="gumbel")
            r_z = ad.matmul(relaxed, pool_enc.pooled)
            sampled += 1
        chosen.append(choice)
        h_y_prev.append(state.h_y)
        state = step_plan_state(model.encoder, r_z, next_text)

    return PlanWalk(pool_enc=pool_enc, chosen=chosen, h_y_prev=h_y_prev, kl=kl,
                    supervision=sup, hits=hits, oracle_steps_used=oracle_used,
                    sampled_steps=sampled)


def _paragraph_log_prob(model: ModelParams, pg: PreparedGame, walk: PlanWalk, t: int,
                        vocab: Vocab) -> Tensor:
    """Teacher-forced log-probability of paragraph t under its chosen plan:
    the LSTM_gen recurrence over the gold prefix, then every next-token
    distribution of the paragraph in one batch of rows."""
    plan_idx, h_y_prev, pool_enc = walk.chosen[t], walk.h_y_prev[t], walk.pool_enc
    dec = model.decoder
    state = init_decoder(
        dec, pool_enc.plan_vector(plan_idx), pg.bin_ids[t], h_y_prev,
        pool_enc.plan_token_states(plan_idx), pg.ext_plan_tokens[plan_idx],
        model.config.vocab_size)
    prev = [vocab.bos_id] + pg.paragraph_ids[t]
    x = ad.reshape(decoder_inputs(model.encoder, prev, h_y_prev), (1, len(prev), -1))
    lstm = dec.lstm_gen
    h = ad.lstm_seq(x, state.h, state.c, lstm.wx, lstm.wh, lstm.b)
    probs = output_distribution(dec, ad.reshape(h, (len(prev), lstm.hidden)), state)
    picked = ad.gather_last(probs, pg.paragraph_ids[t] + [vocab.eos_id])
    return ad.sum_(ad.log(picked), axis=0, keepdims=True)


def compute_loss(model: ModelParams, pg: PreparedGame, cfg: TrainConfig,
                 k: int, rng: np.random.Generator, vocab: Vocab) -> LossBreakdown:
    """Single-game loss at training step k: the planning walk (the only
    consumer of ``rng``), then reconstruction in paragraph order."""
    eps = scheduled_sampling_rate(k, cfg.decay_slope)
    walk = plan_walk(model, pg, eps, cfg.temperature, rng)
    recon = _scalar(0.0)
    for t in range(len(pg.paragraph_ids)):
        recon = ad.add(recon, _paragraph_log_prob(model, pg, walk, t, vocab))
    kl, sup = walk.kl, walk.supervision
    total = ad.neg(ad.add(ad.sub(recon, kl), ad.mul(_scalar(cfg.lam), sup)))
    return LossBreakdown(
        reconstruction=recon.item(), kl=kl.item(), supervision=sup.item(),
        total=total.item(), total_tensor=total,
        oracle_steps_used=walk.oracle_steps_used, sampled_steps=walk.sampled_steps,
        epsilon=eps)


def adagrad_update(named: dict[str, Tensor], accumulators: dict[str, np.ndarray],
                   lr: float) -> None:
    """accumulator += grad^2; param -= lr * grad / sqrt(accumulator + 1e-8)."""
    for name, t in named.items():
        g = t.grad_matrix()
        acc = accumulators[name]
        acc += g * g
        t.data -= lr * g / np.sqrt(acc + ADAGRAD_EPS)


def plan_selection_accuracy(model: ModelParams, prepared: list[PreparedGame]) -> float:
    """Posterior-argmax accuracy against oracle plans, terminal EOP step
    included: the planning walk at eps = 1, so oracle choices drive both
    recurrences."""
    # eps = 1 still draws one coin per paragraph; a private generator keeps
    # the training stream untouched.
    coins = np.random.default_rng(0)
    hits = total = 0
    with ad.no_grad():
        for pg in prepared:
            hits += plan_walk(model, pg, 1.0, TrainConfig.temperature, coins).hits
            total += len(pg.paragraph_ids) + 1
    return hits / total if total else 0.0


@dataclass
class TrainResult:
    model: ModelParams
    vocab: Vocab
    bins: BinAssignment
    tuned_bins: dict[str, int]
    history: list[dict]
    best_epoch: int
    best_accuracy: float


def _mean_loss(losses: list[LossBreakdown]) -> Tensor:
    total = losses[0].total_tensor
    for lb in losses[1:]:
        total = ad.add(total, lb.total_tensor)
    return ad.mul(total, _scalar(1.0 / len(losses)))


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
                losses = [compute_loss(model, prepared[int(i)], cfg, k, rng, vocab)
                          for i in batch]
                mean_total = _mean_loss(losses)
                if not np.isfinite(mean_total.item()):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} step {k}: "
                        f"{[lb.total for lb in losses]}")
                ad.backward(mean_total)
            grad_norm = ad.clip_global_norm(list(named.values()), cfg.clip_norm)
            adagrad_update(named, accumulators, cfg.learning_rate)
            history.append({
                "epoch": epoch, "step": k,
                "loss": mean_total.item(),
                "recon": float(np.mean([lb.reconstruction for lb in losses])),
                "kl": float(np.mean([lb.kl for lb in losses])),
                "supervision": float(np.mean([lb.supervision for lb in losses])),
                "epsilon": losses[0].epsilon,
                "grad_norm": grad_norm,
                "oracle_steps": sum(lb.oracle_steps_used for lb in losses),
                "sampled_steps": sum(lb.sampled_steps for lb in losses),
            })
            k += 1
        acc = plan_selection_accuracy(model, prepared_valid)
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


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not a checkpoint file: {exc}") from exc
        if manifest.get("magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: missing checkpoint magic")
        blob = fh.read()
    try:
        mc = manifest["model"]
        cfg = ModelConfig(vocab_size=mc["vocab_size"], hidden=mc["hidden"],
                          embed=mc["embed"], bins=mc["bins"])
        model = ModelParams.create(np.random.default_rng(0), cfg)
        named = model.named()
        offset = 0
        for k in sorted(named):
            shape = tuple(manifest["tensors"][k])
            n = int(np.prod(shape)) if shape else 1
            if offset + n * 8 > len(blob):
                raise DataError(f"{path}: checkpoint blob ends inside tensor {k!r}")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
            named[k].data[...] = arr
            offset += n * 8
        if offset != len(blob):
            raise DataError(f"{path}: checkpoint blob size mismatch")
        tokens = manifest["vocab"]
        vocab = Vocab(tokens[len(RESERVED):])
        if vocab.tokens() != tokens:
            raise DataError(f"{path}: reserved vocabulary prefix is malformed")
        if vocab.content_hash() != manifest["vocab_hash"]:
            raise DataError(f"{path}: vocabulary hash mismatch")
        bins = BinAssignment(boundaries=list(manifest["bin_boundaries"]),
                             bin_count=manifest["bin_count"])
        return Checkpoint(model=model, vocab=vocab, bins=bins,
                          tuned_bins=dict(manifest["tuned_bins"]),
                          config=dict(manifest.get("config", {})))
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
