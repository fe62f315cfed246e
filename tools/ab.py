"""Paired A/B timing of two plangen trees in one process.

    python3 tools/ab.py OLD_TREE NEW_TREE [--unit generate|train|gradcheck] [--seed N]

Each tree's ``src/plangen`` is loaded as its own renamed package
(``plangen_old``, ``plangen_new``), so both sides run in one process under
the same host state, with one BLAS thread.  Units alternate between the
sides one at a time, and the side that goes first alternates from pair to
pair.  A pair's two outputs must be equal, else the script stops.

* ``generate``: one beam-5 document under the toy profile, as the
  ``generate`` benchmark workload decodes it: 100 held-out synth documents
  (drawn from the workload seed N) in 3 rounds.  Both sides load one
  checkpoint, which the old side trains as the workload's fixture is
  trained (80 games, 2 epochs, seed 0).  Outputs: the paragraphs, the plan
  and the truncation flags, compared exactly.
* ``train``: one toy 4-game update at hidden 32, as the ``train`` workload
  runs it, minus the optimizer step: ``compute_loss`` at k = 250 (half the
  plan steps sampled) with its rng seeded by the unit index, ``backward``
  and ``clip_global_norm``, 300 times over 48 synth games (drawn from the
  workload seed N).  Both sides keep one fixed model, built from seed 0, so
  they stay on the same parameters.  Outputs: the mean loss and the
  gradient norm, each equal to 1e-9 relative.
* ``gradcheck``: one no-grad evaluation of the hidden-4 loss fixture
  (``harness.build_loss_fixture``), as finite differences evaluate it, 1,000
  times.  Output: the loss, equal to 1e-9 relative.

Prints the p50 and p90 of each side in ms, the median over pairs of the
ratio new/old, and the share of pairs in which the new side was faster.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

MODULES = ("autodiff", "cli", "corpus", "harness", "inference", "synth", "training")
WARMUP_PAIRS = 10


def load_tree(tree: str, name: str) -> SimpleNamespace:
    """``tree``/src/plangen imported as the package ``name``."""
    init = Path(tree) / "src" / "plangen" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    if spec is None or not init.is_file():
        raise SystemExit(f"{tree}: no src/plangen package")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def _workload_seed(seed: int, stream: int) -> int:
    """The synth seed that the benchmark workloads draw for ``stream``."""
    return int(np.random.SeedSequence((seed, stream, 7919)).generate_state(1)[0])


def generate_units(sides: list[SimpleNamespace], seed: int):
    old = sides[0]
    toy = old.cli.PROFILES["toy"]
    games, schema = old.synth.generate_toy_corpus(0, 82)
    cfg = old.training.TrainConfig(decay_slope=toy["decay_slope"],
                                   batch_size=toy["batch_size"], epochs=2, seed=0)
    fixture = old.training.train(schema, games[:80], games[80:], cfg)
    test_seed = _workload_seed(seed, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        old.training.save_checkpoint(path, fixture.model, fixture.vocab, fixture.bins,
                                     fixture.tuned_bins, {"profile": "toy"})
        units = [_generate_unit(side, path, test_seed) for side in sides]
    return units, 3 * 100, lambda a, b: a == b


def _generate_unit(side: SimpleNamespace, checkpoint: Path, test_seed: int):
    ckpt = side.training.load_checkpoint(checkpoint)
    games, schema = side.synth.generate_toy_corpus(test_seed, 100)
    toy = side.cli.PROFILES["toy"]
    decode = side.inference.DecodeConfig(
        beam_size=5, bin_policy=ckpt.tuned_bins,
        **{k: v for k, v in toy.items() if k in side.inference.DecodeConfig.__dataclass_fields__})

    def unit(i: int):
        game = games[i % len(games)]
        pool = side.corpus.build_plan_pool(schema, game.table)
        ext = [ckpt.vocab.encode(p.tokens) for p in pool.plans] + [[ckpt.vocab.eop_id]]
        r = side.inference.generate_document(ckpt.model, pool, ext, ckpt.vocab, decode)
        return r.paragraphs, r.plan.steps, r.plan.terminated, r.truncated_paragraphs

    return unit


TRAIN_K = 250


def train_units(sides: list[SimpleNamespace], seed: int):
    def make(side):
        toy = side.cli.PROFILES["toy"]
        cfg = side.training.TrainConfig(decay_slope=toy["decay_slope"],
                                        batch_size=toy["batch_size"])
        games, schema = side.synth.generate_toy_corpus(_workload_seed(seed, 1), 48)
        vocab = side.corpus.build_vocab(games, schema, cfg.min_count)
        bins = side.corpus.assign_length_bins(
            [len(p) for g in games for p in g.document.paragraphs], cfg.bins)
        sizes = side.training.ModelConfig(vocab_size=len(vocab), hidden=cfg.hidden,
                                          embed=cfg.embed, bins=cfg.bins)
        model = side.training.ModelParams.create(np.random.default_rng(0), sizes)
        prepared = [side.training.prepare_game(g, schema, vocab, bins) for g in games]
        params, ad = list(model.named().values()), side.autodiff

        def unit(i: int) -> tuple[float, float]:
            start = i * cfg.batch_size % len(prepared)
            batch = prepared[start:start + cfg.batch_size]
            with ad.graph_scope():
                model.zero_grad()
                loss = side.training.compute_loss(model, batch, cfg, TRAIN_K,
                                                  np.random.default_rng(i), vocab)
                ad.backward(ad.mul(ad.sum_(loss.total), ad.const(1.0 / len(batch))))
            return float(loss.total.data.mean()), ad.clip_global_norm(params, cfg.clip_norm)

        return unit

    def equal(a, b):
        return all(abs(x - y) <= 1e-9 * abs(y) for x, y in zip(a, b))

    return [make(side) for side in sides], 300, equal


def gradcheck_units(sides: list[SimpleNamespace], seed: int):
    def make(side):
        fixture = side.harness.build_loss_fixture(hidden=4)

        def unit(i: int) -> float:
            with side.autodiff.no_grad():
                return fixture.loss().item()

        return unit

    return [make(side) for side in sides], 1000, lambda a, b: abs(a - b) <= 1e-9 * abs(b)


UNITS = {"generate": generate_units, "train": train_units, "gradcheck": gradcheck_units}


def run_pairs(units, n_pairs: int, equal) -> np.ndarray:
    """(n_pairs, 2) seconds, old then new, after the warm-up pairs."""
    times = np.zeros((WARMUP_PAIRS + n_pairs, 2))
    for i in range(len(times)):
        outputs = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = perf_counter()
            outputs[side] = units[side](i)
            times[i, side] = perf_counter() - start
        if not equal(*outputs):
            raise SystemExit(f"unit {i}: the two trees' outputs differ")
    return times[WARMUP_PAIRS:]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--unit", choices=sorted(UNITS), default="generate")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sides = [load_tree(args.old_tree, "plangen_old"), load_tree(args.new_tree, "plangen_new")]
    units, n_pairs, equal = UNITS[args.unit](sides, args.seed)
    times = run_pairs(units, n_pairs, equal) * 1e3
    print(f"unit {args.unit}, seed {args.seed}: {n_pairs} pairs, outputs equal")
    for label, col in (("old", times[:, 0]), ("new", times[:, 1])):
        p50, p90 = np.percentile(col, [50, 90])
        print(f"{label}  p50 {p50:8.3f} ms  p90 {p90:8.3f} ms")
    ratio = float(np.median(times[:, 1] / times[:, 0]))
    won = float(np.mean(times[:, 1] < times[:, 0]))
    print(f"paired median ratio new/old {ratio:.3f}; new faster in {100 * won:.1f}% of pairs")


if __name__ == "__main__":
    main()
