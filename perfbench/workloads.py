"""The three benchmark workloads: train, generate and gradcheck.

Each workload calls the same library functions that ``plangen train``,
``plangen generate`` and ``plangen grad-check`` call, in a closed loop
with one client: the next item starts when the previous one is done.
All library calls go through module attributes (``training.train``, not
a name imported from it) so that the tracer's wrappers see them.

A workload has four parts:

* ``prepare()`` runs once, untimed: the generate workload trains the
  model it decodes with here.
* ``setup()`` builds the inputs from the seed; the runner repeats it for
  a few seconds and reports the median as ``setup_s``.
* ``step()`` does one closed-loop unit of work and returns a :class:`Step`.
* ``end_phase()`` scores what the phase produced (timed), and
  ``finish()`` runs the checks that need the whole run (untimed).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from plangen import autodiff, cli, corpus, harness, inference, metrics, synth, training

from tracing import replace_everywhere, restore

TOY = cli.PROFILES["toy"]
GRAD_TOL = 1e-4
# The generate workload decodes with one model trained on this synth seed,
# so that every workload seed is decoded by the same model; the seed only
# picks the held-out documents.
FIXTURE_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is the benchmark; ``tiny`` is for the self-test."""

    train_games: int          # per train() call, a multiple of the toy batch size
    valid_games: int
    fixture_train_games: int
    fixture_valid_games: int
    fixture_epochs: int
    test_docs: int
    min_docs: int             # p90 needs >= 100 docs so that >= 10 lie beyond it
    grad_max_size: int        # grad-check every parameter tensor up to this size
    setup_seconds: float      # set-up is repeated for at least this long
    warmup_s: float           # measuring starts once the process was busy this long


SCALES = {
    # 48 games x 1 epoch keeps validation (1 game: accuracy, tune_bins) near a
    # fifth of the train() call.  80 games x 2 epochs is the smallest probe
    # fixture that reached valid plan accuracy 1.0 (BLEU ~67, ~4 paragraphs).
    "full": Scale(train_games=48, valid_games=1, fixture_train_games=80,
                  fixture_valid_games=2, fixture_epochs=2, test_docs=200,
                  min_docs=100, grad_max_size=32, setup_seconds=2.0, warmup_s=5.0),
    "tiny": Scale(train_games=8, valid_games=1, fixture_train_games=4,
                  fixture_valid_games=1, fixture_epochs=1, test_docs=3,
                  min_docs=2, grad_max_size=1, setup_seconds=0.0, warmup_s=0.0),
}


def derive_seed(seed: int, stream: int) -> int:
    """Synth seed for one workload's inputs, drawn from the workload seed."""
    return int(np.random.SeedSequence((seed, stream, 7919)).generate_state(1)[0])


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


@dataclass
class Step:
    """One closed-loop unit: items done, seconds spent in library calls,
    per-item latencies, and (check name, passed) pairs."""

    items: int
    seconds: float
    latencies_ms: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)


def _write_corpus_files(out: Path, games, schema,
                        splits: dict[str, tuple[slice, bool]]) -> bytes:
    """Write the schema and each (games slice, with oracle plans) split as
    ``plangen make-toy`` does; returns the bytes written."""
    corpus.write_schema(out / "schema.json", schema)
    blob = (out / "schema.json").read_bytes()
    for name, (split, plans) in splits.items():
        corpus.write_corpus(out / name, games[split], include_plans=plans)
        blob += (out / name).read_bytes()
    return blob


class Workload:
    """Defaults for the optional parts of a workload."""

    min_items = 1

    def prepare(self) -> None:
        pass

    def end_phase(self) -> Step:
        return Step(items=0, seconds=0.0)

    def finish(self) -> list[tuple[str, bool]]:
        return []


class Train(Workload):
    """``training.train`` as ``plangen train --profile toy`` calls it, at
    hidden 32 with one epoch over a synth corpus from the seed."""

    name = "train"
    item_span = "training.compute_loss"

    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed, self.scale, self.work = seed, scale, work
        self.cfg = training.TrainConfig(
            decay_slope=TOY["decay_slope"], batch_size=TOY["batch_size"],
            epochs=1, seed=derive_seed(seed, 1))
        self.last: training.TrainResult | None = None
        self.call_seconds: list[float] = []
        self.digest = ""

    def setup(self) -> None:
        n, nv = self.scale.train_games, self.scale.valid_games
        games, schema = synth.generate_toy_corpus(derive_seed(self.seed, 1), n)
        # Every seed validates on the same games, so the validation work
        # (tune_bins over their plan kinds) changes only with the model.
        games += synth.generate_toy_corpus(FIXTURE_SEED, nv)[0]
        blob = _write_corpus_files(self.work, games, schema, {
            "train.jsonl": (slice(0, n), True), "valid.jsonl": (slice(n, n + nv), False)})
        self.schema = corpus.read_schema(self.work / "schema.json")
        self.train_games = corpus.read_corpus(self.work / "train.jsonl")
        self.valid_games = corpus.read_corpus(self.work / "valid.jsonl")
        self.digest = digest(blob)

    def step(self) -> Step:
        # One clock read per update (clip_global_norm runs once per update)
        # gives per-update latency without tracing; it costs about a
        # microsecond against an update of hundreds of milliseconds.
        stamps: list[float] = []
        clip = autodiff.clip_global_norm

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return clip(*args, **kwargs)

        patched = replace_everywhere(clip, stamped)
        try:
            t0 = perf_counter()
            result = training.train(self.schema, self.train_games, self.valid_games, self.cfg)
            seconds = perf_counter() - t0
        finally:
            restore(patched)
        self.last = result
        self.call_seconds.append(seconds)
        losses = [row["loss"] for row in result.history if "loss" in row]
        # Between two clip calls lies one whole update: the optimizer step of
        # one batch and the forward and backward passes of the next.  Items
        # and time count these intervals only, so validation (tune_bins on
        # the validation game) stays out of the rate: its cost depends on
        # when the 1-epoch model first emits EOP, 0 to 2.3 s per call across
        # seeds, and it made the whole-call rate spread 29% over 5 seeds.
        per_update = self.cfg.batch_size
        latencies = [1e3 * (b - a) / per_update for a, b in zip(stamps, stamps[1:])]
        return Step(items=per_update * len(latencies),
                    seconds=stamps[-1] - stamps[0] if stamps else 0.0,
                    latencies_ms=latencies,
                    checks=[("train.update_loss_finite", math.isfinite(x)) for x in losses])

    def finish(self) -> list[tuple[str, bool]]:
        """A checkpoint save -> load round trip must give identical tensors."""
        r = self.last
        if r is None:
            return [("train.checkpoint_roundtrip_identical", False)]
        path = self.work / "roundtrip.ckpt"
        training.save_checkpoint(path, r.model, r.vocab, r.bins, r.tuned_bins)
        ck = training.load_checkpoint(path)
        want, got = r.model.named(), ck.model.named()
        same = (want.keys() == got.keys()
                and all(np.array_equal(want[k].data, got[k].data) for k in want)
                and ck.vocab.tokens() == r.vocab.tokens()
                and ck.bins == r.bins and ck.tuned_bins == r.tuned_bins)
        return [("train.checkpoint_roundtrip_identical", same)]

    def named_metrics(self) -> dict[str, tuple[float, str]]:
        losses = [row["loss"] for row in self.last.history if "loss" in row] if self.last else []
        games = len(self.train_games) * self.cfg.epochs
        calls = self.call_seconds
        return {"train_loss_final": (losses[-1] if losses else float("nan"), "nats"),
                "train_call_games_per_s": (games * len(calls) / sum(calls) if calls else 0.0,
                                           "1/s")}


class Generate(Workload):
    """``inference.generate_document`` with beam 5 and the tuned bins over
    held-out synth documents, scored with ``metrics.evaluate_corpus``, as
    ``plangen generate`` + ``plangen evaluate`` do."""

    name = "generate"
    item_span = "inference.generate_document"

    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed, self.scale, self.work = seed, scale, work
        self.min_items = scale.min_docs
        self.next_doc = 0
        self.phase_docs: list[tuple] = []
        self.bleu: list[float] = []
        self.fixture_train_s = 0.0
        self.digest = ""

    def prepare(self) -> None:
        s = self.scale
        n, nv = s.fixture_train_games, s.fixture_valid_games
        games, schema = synth.generate_toy_corpus(FIXTURE_SEED, n + nv)
        cfg = training.TrainConfig(decay_slope=TOY["decay_slope"],
                                   batch_size=TOY["batch_size"],
                                   epochs=s.fixture_epochs, seed=FIXTURE_SEED)
        t0 = perf_counter()
        self.fixture = training.train(schema, games[:n], games[n:n + nv], cfg)
        self.fixture_train_s = perf_counter() - t0

    def setup(self) -> None:
        games, schema = synth.generate_toy_corpus(derive_seed(self.seed, 2),
                                                  self.scale.test_docs)
        blob = _write_corpus_files(self.work, games, schema,
                                   {"test.jsonl": (slice(None), False)})
        self.schema = corpus.read_schema(self.work / "schema.json")
        self.games = corpus.read_corpus(self.work / "test.jsonl")
        f = self.fixture
        path = self.work / "model.ckpt"
        training.save_checkpoint(path, f.model, f.vocab, f.bins, f.tuned_bins,
                                 {"profile": "toy"})
        self.ckpt = training.load_checkpoint(path)
        self.decode = inference.DecodeConfig(
            max_paragraphs=TOY["max_paragraphs"], beam_size=5,
            max_paragraph_len=TOY["max_paragraph_len"],
            block_plan_bigrams=TOY["block_plan_bigrams"],
            block_consecutive_unigram=TOY["block_consecutive_unigram"],
            max_unigram_repeats=TOY["max_unigram_repeats"],
            bin_policy=self.ckpt.tuned_bins)
        self.digest = digest(blob, path.read_bytes())

    def step(self) -> Step:
        game = self.games[self.next_doc % len(self.games)]
        self.next_doc += 1
        ck = self.ckpt
        t0 = perf_counter()
        pool = corpus.build_plan_pool(self.schema, game.table)
        ext = [ck.vocab.encode(p.tokens) for p in pool.plans] + [[ck.vocab.eop_id]]
        result = inference.generate_document(ck.model, pool, ext, ck.vocab, self.decode)
        seconds = perf_counter() - t0
        self.phase_docs.append((result, game))
        steps = result.plan.steps
        return Step(items=1, seconds=seconds, latencies_ms=[1e3 * seconds], checks=[
            ("generate.plan_index_in_pool", all(0 <= s < len(pool) for s in steps)),
            ("generate.plan_respects_blocking", not blocking_violations(steps, self.decode)),
            ("generate.paragraphs_non_empty", all(p for p in result.paragraphs)),
            ("generate.plan_matches_paragraphs", len(steps) == len(result.paragraphs)),
        ])

    def end_phase(self) -> Step:
        # Paragraph lists, as cmd_evaluate passes them: to_document() raises
        # DataError on a document with zero paragraphs.
        docs, self.phase_docs = self.phase_docs, []
        self.next_doc = 0  # every phase decodes the same documents first
        t0 = perf_counter()
        report = metrics.evaluate_corpus([r.paragraphs for r, _ in docs],
                                         [g.document for _, g in docs],
                                         [g.table for _, g in docs], synth.TOY_FRAMES)
        seconds = perf_counter() - t0
        self.bleu.append(report.bleu)
        finite = all(math.isfinite(v) for v in report.row())
        return Step(items=0, seconds=seconds, checks=[("generate.report_finite", finite)])

    def named_metrics(self) -> dict[str, tuple[float, str]]:
        return {"gen_bleu": (self.bleu[-1], "BLEU"),
                "fixture_train_s": (self.fixture_train_s, "s")}


def blocking_violations(steps: list[int], cfg: inference.DecodeConfig) -> list[int]:
    """Positions whose plan index the profile's blocking rules forbid."""
    bad = []
    for t, idx in enumerate(steps):
        hist = steps[:t]
        if not hist:
            continue
        bigrams = set(zip(hist, hist[1:]))
        if ((cfg.block_consecutive_unigram and idx == hist[-1])
                or (cfg.block_plan_bigrams and (hist[-1], idx) in bigrams)
                or (cfg.max_unigram_repeats is not None
                    and hist.count(idx) >= cfg.max_unigram_repeats)):
            bad.append(t)
    return bad


class GradCheck(Workload):
    """``autodiff.grad_check`` over the full-loss fixture at hidden 4, one
    parameter tensor per call, cycling over every tensor of at most
    ``grad_max_size`` entries (biases, queries and the small projections:
    15 tensors touching every sub-model at full scale)."""

    name = "gradcheck"
    item_span = "training.compute_loss"

    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed, self.scale, self.work = seed, scale, work
        self.next_tensor = 0
        self.max_rel_err = 0.0
        self.digest = ""

    def setup(self) -> None:
        self.fixture = harness.build_loss_fixture(hidden=4, seed=derive_seed(self.seed, 3))
        named = self.fixture.model.named()
        self.tensors = [(k, named[k]) for k in sorted(named)
                        if named[k].size <= self.scale.grad_max_size]
        pg = self.fixture.prepared
        ids = json.dumps([pg.ext_plan_tokens, pg.paragraph_ids, pg.oracle_steps,
                          pg.bin_ids]).encode()
        self.digest = digest(ids, *(named[k].data.tobytes() for k in sorted(named)))

    def step(self) -> Step:
        name, tensor = self.tensors[self.next_tensor % len(self.tensors)]
        self.next_tensor += 1
        latencies: list[float] = []
        loss = self.fixture.loss

        def timed_loss():
            t = perf_counter()
            out = loss()
            latencies.append(1e3 * (perf_counter() - t))
            return out

        t0 = perf_counter()
        err = autodiff.grad_check(timed_loss, [tensor])
        seconds = perf_counter() - t0
        self.max_rel_err = max(self.max_rel_err, err)
        return Step(items=len(latencies), seconds=seconds, latencies_ms=latencies,
                    checks=[(f"gradcheck.rel_err_below_1e-4[{name}]", err < GRAD_TOL)])

    def end_phase(self) -> Step:
        self.next_tensor = 0
        return Step(items=0, seconds=0.0)

    def named_metrics(self) -> dict[str, tuple[float, str]]:
        return {"grad_check_max_rel_err": (self.max_rel_err, "ratio")}


WORKLOADS = {w.name: w for w in (Train, Generate, GradCheck)}
