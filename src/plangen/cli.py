"""Operator CLI: make-toy, train, generate, evaluate, grad-check.

Configuration comes from (highest precedence first) command-line flags,
an optional `key = value` config file, the selected profile, then
built-in defaults.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import autodiff as ad
from . import inference, metrics, synth
from .corpus import (
    DataError,
    MacroPlan,
    build_plan_pool,
    extract_oracle_plan,
    read_corpus,
    read_schema,
    write_corpus,
    write_schema,
)
from .harness import full_loss_grad_check, primitive_grad_checks
from .training import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_log,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PROFILES: dict[str, dict] = {
    "toy": {
        "max_paragraphs": 8, "decay_slope": 1.0 / 500.0, "batch_size": 4,
        "epochs": 10, "block_plan_bigrams": True, "block_consecutive_unigram": True,
        "max_unigram_repeats": 2, "max_paragraph_len": 30,
    },
    "rotowire-like": {
        "max_paragraphs": 15, "decay_slope": 1.0 / 50000.0, "batch_size": 5,
        "epochs": 20, "block_plan_bigrams": False, "block_consecutive_unigram": False,
        "max_unigram_repeats": None, "max_paragraph_len": 120,
    },
    "mlb-like": {
        "max_paragraphs": 20, "decay_slope": 1.0 / 100000.0, "batch_size": 8,
        "epochs": 20, "block_plan_bigrams": True, "block_consecutive_unigram": True,
        "max_unigram_repeats": 2, "max_paragraph_len": 150,
    },
}


# Keys a config file may set, with their field types: every TrainConfig /
# DecodeConfig field except the tuned bin policy, which only a checkpoint carries.
CONFIG_TYPES = {name: hint for cls in (TrainConfig, inference.DecodeConfig)
                for name, hint in get_type_hints(cls).items() if name != "bin_policy"}


def _parse_value(text: str, hint):
    """``text`` as a value of field type ``hint``: int, float, bool, or one
    of them | None.  KeyError or ValueError when it is not one."""
    base, *none = get_args(hint) or (hint,)
    if none and text.lower() in ("none", "null"):
        return None
    if base is bool:
        return {"true": True, "false": False}[text.lower()]
    return base(text)  # int("3.5") and float("true") raise


def read_config_file(path) -> dict:
    """`key = value` lines of UTF-8 text; '#' starts a comment."""
    out: dict = {}
    with open(path, "rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: line {line_no}: not UTF-8 text") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {line_no}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in CONFIG_TYPES:
                raise DataError(f"{path}: line {line_no}: unknown key {key!r}")
            hint, text = CONFIG_TYPES[key], raw.strip()
            try:
                out[key] = _parse_value(text, hint)
            except (KeyError, ValueError):
                raise DataError(f"{path}: line {line_no}: {key} expects "
                                f"{getattr(hint, '__name__', hint)}, got {text!r}") from None
    return out


def _build_config(cls, args: argparse.Namespace):
    """``cls`` from profile < config file < flags; fields set nowhere keep
    the dataclass default.  A flag left at None was not given, but a None
    from a profile or file is a setting (``max_unigram_repeats``)."""
    names = {f.name for f in fields(cls)}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    merged = {}
    for layer in (PROFILES.get(args.profile or "", {}), args._file_config, flags):
        merged.update((k, v) for k, v in layer.items() if k in names)
    return cls(**merged)


def _read_games(path):
    """A corpus that must hold at least one game."""
    games = read_corpus(path)
    if not games:
        raise DataError(f"{path}: corpus holds no games")
    return games


def cmd_make_toy(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    total = args.n_train + args.n_valid + args.n_test
    games, schema = synth.generate_toy_corpus(args.seed, total)
    write_schema(out / "schema.json", schema)
    splits = {
        "train.jsonl": (games[:args.n_train], True),
        "valid.jsonl": (games[args.n_train:args.n_train + args.n_valid], False),
        "test.jsonl": (games[args.n_train + args.n_valid:], False),
    }
    for name, (split, with_plans) in splits.items():
        write_corpus(out / name, split, include_plans=with_plans)
    print(f"wrote {args.n_train}/{args.n_valid}/{args.n_test} games to {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    schema = read_schema(args.schema)
    train_games = _read_games(args.train)
    valid_games = _read_games(args.valid)
    cfg = _build_config(TrainConfig, args)

    def progress(epoch, acc, loss):
        loss_txt = f"{loss:.3f}" if loss is not None else "-"
        print(f"epoch {epoch}: batch loss {loss_txt}, valid plan accuracy {acc:.3f}")

    result = train(schema, train_games, valid_games, cfg, progress=progress,
                   decode=_build_config(inference.DecodeConfig, args))
    extra = {"profile": args.profile or "toy", "schema": schema.name,
             "seed": cfg.seed, "epochs": cfg.epochs}
    save_checkpoint(args.checkpoint, result.model, result.vocab, result.bins,
                    result.tuned_bins, extra)
    if args.loss_log:
        write_loss_log(args.loss_log, result.history)
    print(f"best epoch {result.best_epoch} "
          f"(valid plan accuracy {result.best_accuracy:.3f}); "
          f"checkpoint -> {args.checkpoint}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    schema = read_schema(args.schema)
    games = read_corpus(args.corpus)
    if getattr(args, "profile", None) is None and "profile" in ckpt.config:
        args.profile = ckpt.config["profile"]
        if not isinstance(args.profile, str) or args.profile not in PROFILES:
            raise DataError(f"{args.checkpoint}: checkpoint field 'config.profile' "
                            f"must be one of {sorted(PROFILES)}")
    cfg = _build_config(inference.DecodeConfig, args)
    cfg.bin_policy = ckpt.tuned_bins
    results, pools = [], []
    for game in games:
        pool = build_plan_pool(schema, game.table)
        ext = [ckpt.vocab.encode(p.tokens) for p in pool.plans] + [[ckpt.vocab.eop_id]]
        results.append(inference.generate_document(ckpt.model, pool, ext,
                                                   ckpt.vocab, cfg))
        pools.append(pool)
    inference.write_generations(args.out, results, pools)
    print(f"generated {len(results)} documents -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    schema = read_schema(args.schema)
    gold = _read_games(args.gold)
    rows = inference.read_generations(args.generated)
    if len(rows) != len(gold):
        raise DataError(f"{args.generated}: {len(rows)} rows, but {args.gold} "
                        f"holds {len(gold)} games")
    report = metrics.evaluate_corpus(
        [row.paragraphs for row in rows],
        [g.document for g in gold],
        [g.table for g in gold],
        synth.TOY_FRAMES,
    )
    plan_cs_f = plan_co = 0.0
    for row_no, (row, game) in enumerate(zip(rows, gold), start=1):
        pool = build_plan_pool(schema, game.table)
        plan = MacroPlan(steps=row.plan_indices, terminated=row.terminated)
        try:
            plan.validate(pool)
        except DataError as exc:
            raise DataError(f"{args.generated}: row {row_no}: {exc}") from exc
        oracle = game.oracle or extract_oracle_plan(game.table, game.document, pool)
        _, _, f, co_val = metrics.plan_quality(plan, oracle, pool)
        plan_cs_f += f
        plan_co += co_val
    n = len(rows)
    lines = metrics.report_lines(report)
    lines.append(f"plan CS F%\t{plan_cs_f / n:.2f}")
    lines.append(f"plan CO DLD%\t{plan_co / n:.2f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_grad_check(args: argparse.Namespace) -> int:
    failed = False
    for name, err in primitive_grad_checks().items():
        status = "ok" if err < 1e-4 else "FAIL"
        if err >= 1e-4:
            failed = True
        print(f"primitive {name:<18} max rel err {err:.3e}  {status}")
    err, n_params, elapsed = full_loss_grad_check(hidden=args.hidden)
    status = "ok" if err < 1e-4 else "FAIL"
    if err >= 1e-4:
        failed = True
    print(f"full loss ({n_params} params) max rel err {err:.3e} "
          f"in {elapsed:.1f}s  {status}")
    return EXIT_NUMERIC if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plangen",
        description="Latent macro-planning + paragraph generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file (flags override)")
        p.add_argument("--profile", choices=sorted(PROFILES),
                       help="defaults bundle (toy, rotowire-like, mlb-like)")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("make-toy", help="emit a synthetic corpus with oracle plans")
    common(p)
    p.add_argument("--n-train", type=int, default=300)
    p.add_argument("--n-valid", type=int, default=40)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_toy, seed=0)

    p = sub.add_parser("train", help="train and write a checkpoint + loss log")
    common(p)
    p.add_argument("--schema", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--loss-log")
    for f in fields(TrainConfig):
        if f.name != "seed":  # --seed is common to every command
            p.add_argument("--" + f.name.replace("_", "-"), type=CONFIG_TYPES[f.name],
                           default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode plans + summaries for a corpus")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam-size", type=int, default=None)
    p.add_argument("--max-paragraphs", type=int, default=None)
    p.add_argument("--max-paragraph-len", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated output against gold")
    common(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--hidden", type=int, default=4)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_config = read_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ad.NumericError, ad.DomainError, ad.ShapeError, ad.ParameterError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
