"""Print one SHA-256 prefix per artefact whose bits a float-order change
would move, so that two trees can be compared for bitwise parity.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/parity_digest.py

Run it on both trees and diff the output: a perf change that claims to
change no float must print the same lines.  Toy training is chaotic under
float reordering, so a last-bit change in one gradient reshapes the model
that the ``generate`` benchmark workload trains and decodes with.

Artefacts (settings mirror ``perfbench/workloads.py`` at seed 0):

* ``fixture.*``: the 80-game, 2-epoch, seed-0 toy training run of the
  ``generate`` workload (parameters in sorted-name order, the history, the
  tuned bins);
* ``generate.beam5`` / ``generate.beam1``: that model's generations of
  100 held-out synth documents;
* ``train``: one ``training.train`` call at the ``train`` workload's
  settings (48 games, 1 epoch, one validation game read back from disk);
* ``grads.h4`` / ``grads.h8``: the loss and every parameter gradient of
  ``harness.build_loss_fixture`` at hidden 4 and 8.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from plangen import autodiff as ad
from plangen import cli, corpus, harness, inference, synth, training

TOY = cli.PROFILES["toy"]
FIXTURE_SEED = 0


def workload_seed(stream: int) -> int:
    """The synth seed the benchmark derives for workload seed 0."""
    return int(np.random.SeedSequence((0, stream, 7919)).generate_state(1)[0])


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


def params_digest(model) -> str:
    named = model.named()
    return sha(*(k.encode() + named[k].data.tobytes() for k in sorted(named)))


def json_digest(value) -> str:
    return sha(json.dumps(value, sort_keys=True).encode())


def toy_cfg(epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(decay_slope=TOY["decay_slope"], batch_size=TOY["batch_size"],
                                epochs=epochs, seed=seed)


def fixture_run() -> tuple[training.TrainResult, dict[str, str]]:
    games, schema = synth.generate_toy_corpus(FIXTURE_SEED, 82)
    result = training.train(schema, games[:80], games[80:82], toy_cfg(2, FIXTURE_SEED))
    return result, {"fixture.params": params_digest(result.model),
                    "fixture.history": json_digest(result.history),
                    "fixture.tuned_bins": json_digest(result.tuned_bins)}


def generations(result: training.TrainResult) -> dict[str, str]:
    games, schema = synth.generate_toy_corpus(workload_seed(2), 100)
    out = {}
    for beam in (5, 1):
        cfg = inference.DecodeConfig(
            max_paragraphs=TOY["max_paragraphs"], beam_size=beam,
            max_paragraph_len=TOY["max_paragraph_len"],
            block_plan_bigrams=TOY["block_plan_bigrams"],
            block_consecutive_unigram=TOY["block_consecutive_unigram"],
            max_unigram_repeats=TOY["max_unigram_repeats"], bin_policy=result.tuned_bins)
        docs = []
        for game in games:
            pool = corpus.build_plan_pool(schema, game.table)
            ext = [result.vocab.encode(p.tokens) for p in pool.plans] + [[result.vocab.eop_id]]
            r = inference.generate_document(result.model, pool, ext, result.vocab, cfg)
            docs.append([r.paragraphs, r.plan.steps, r.plan.terminated,
                         r.truncated_paragraphs])
        out[f"generate.beam{beam}"] = json_digest(docs)
    return out


def train_workload() -> dict[str, str]:
    seed = workload_seed(1)
    games, schema = synth.generate_toy_corpus(seed, 48)
    valid = synth.generate_toy_corpus(FIXTURE_SEED, 1)[0]
    with tempfile.TemporaryDirectory() as tmp:
        corpus.write_corpus(Path(tmp) / "valid.jsonl", valid, include_plans=False)
        valid = corpus.read_corpus(Path(tmp) / "valid.jsonl")
    result = training.train(schema, games, valid, toy_cfg(1, seed))
    return {"train": sha(params_digest(result.model).encode(),
                         json_digest(result.history).encode(),
                         json_digest(result.tuned_bins).encode())}


def loss_gradients() -> dict[str, str]:
    out = {}
    for hidden in (4, 8):
        fx = harness.build_loss_fixture(hidden=hidden)
        named = fx.model.named()
        with ad.graph_scope():
            loss = fx.loss()
            ad.backward(loss)
        out[f"grads.h{hidden}"] = sha(loss.data.tobytes(), *(
            k.encode() + named[k].grad.tobytes() for k in sorted(named)))
    return out


def main() -> None:
    result, digests = fixture_run()
    digests.update(generations(result))
    digests.update(train_workload())
    digests.update(loss_gradients())
    for name, value in digests.items():
        print(f"{name:20s} {value}")


if __name__ == "__main__":
    main()
