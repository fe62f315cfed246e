"""End-to-end CLI tests over a miniature corpus."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import cli
from plangen.cli import main, read_config_file
from plangen.corpus import read_corpus, read_schema
from plangen.inference import read_generations


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    rc = main(["make-toy", "--seed", "3", "--n-train", "14", "--n-valid", "3",
               "--n-test", "4", "--out", str(root / "data")])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained_dir(workdir) -> Path:
    rc = main([
        "train", "--profile", "toy",
        "--schema", str(workdir / "data" / "schema.json"),
        "--train", str(workdir / "data" / "train.jsonl"),
        "--valid", str(workdir / "data" / "valid.jsonl"),
        "--checkpoint", str(workdir / "model.ckpt"),
        "--loss-log", str(workdir / "loss.tsv"),
        "--hidden", "8", "--embed", "8", "--epochs", "2", "--seed", "5",
    ])
    assert rc == 0
    return workdir


def test_make_toy_outputs(workdir):
    data = workdir / "data"
    schema = read_schema(data / "schema.json")
    assert schema.name == "toy-v1"
    train_games = read_corpus(data / "train.jsonl")
    assert len(train_games) == 14
    assert all(g.oracle is not None for g in train_games)
    test_games = read_corpus(data / "test.jsonl")
    assert len(test_games) == 4
    assert all(g.oracle is None for g in test_games)


def test_make_toy_seed_determinism(tmp_path):
    for sub in ("a", "b"):
        rc = main(["make-toy", "--seed", "9", "--n-train", "5", "--n-valid", "2",
                   "--n-test", "2", "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("schema.json", "train.jsonl", "valid.jsonl", "test.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_make_toy_empty(tmp_path):
    rc = main(["make-toy", "--n-train", "0", "--n-valid", "0", "--n-test", "0",
               "--out", str(tmp_path / "empty")])
    assert rc == 0
    assert (tmp_path / "empty" / "train.jsonl").read_text() == ""


def test_train_writes_checkpoint_and_loss_log(trained_dir):
    assert (trained_dir / "model.ckpt").exists()
    log = (trained_dir / "loss.tsv").read_text().splitlines()
    assert log[0].split("\t")[:3] == ["epoch", "step", "loss"]
    assert len(log) > 2


def test_generate_and_evaluate(trained_dir):
    data = trained_dir / "data"
    gen_path = trained_dir / "gen.jsonl"
    rc = main(["generate", "--checkpoint", str(trained_dir / "model.ckpt"),
               "--schema", str(data / "schema.json"),
               "--corpus", str(data / "test.jsonl"),
               "--out", str(gen_path), "--beam-size", "1"])
    assert rc == 0
    rows = read_generations(gen_path)
    assert len(rows) == 4
    for row in rows:
        assert len(row.paragraphs) == len(row.plan_indices)

    report_path = trained_dir / "report.txt"
    rc = main(["evaluate", "--generated", str(gen_path),
               "--gold", str(data / "test.jsonl"),
               "--schema", str(data / "schema.json"),
               "--out", str(report_path)])
    assert rc == 0
    text = report_path.read_text()
    assert "RG #" in text and "BLEU" in text and "plan CS F%" in text


def test_generate_deterministic(trained_dir):
    data = trained_dir / "data"
    outs = []
    for name in ("g1.jsonl", "g2.jsonl"):
        rc = main(["generate", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--schema", str(data / "schema.json"),
                   "--corpus", str(data / "test.jsonl"),
                   "--out", str(trained_dir / name), "--beam-size", "2"])
        assert rc == 0
        outs.append((trained_dir / name).read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_gold_vs_gold_is_perfect(trained_dir):
    data = trained_dir / "data"
    gold = read_corpus(data / "test.jsonl")
    from plangen.corpus import build_plan_pool, extract_oracle_plan, serialize_summary
    from plangen.cli import read_schema as _rs

    schema = read_schema(data / "schema.json")
    self_gen = trained_dir / "self.jsonl"
    with open(self_gen, "w", encoding="utf-8") as fh:
        for g in gold:
            pool = build_plan_pool(schema, g.table)
            oracle = extract_oracle_plan(g.table, g.document, pool)
            fh.write(json.dumps({
                "plan": [pool[s].label for s in oracle.steps],
                "plan_indices": oracle.steps,
                "terminated": True,
                "summary": serialize_summary(g.document),
            }) + "\n")
    report_path = trained_dir / "self_report.txt"
    rc = main(["evaluate", "--generated", str(self_gen),
               "--gold", str(data / "test.jsonl"),
               "--schema", str(data / "schema.json"),
               "--out", str(report_path)])
    assert rc == 0
    tsv = [l for l in report_path.read_text().splitlines() if "\t" in l]
    values = dict(zip(tsv[0].split("\t"), tsv[1].split("\t")))
    assert float(values["RG P%"]) == 100.0
    assert float(values["CS F%"]) == 100.0
    assert float(values["CO DLD%"]) == 100.0
    assert float(values["BLEU"]) == 100.0


def test_exit_codes():
    rc = main(["evaluate", "--generated", "/nonexistent/gen.jsonl",
               "--gold", "/nonexistent/gold.jsonl",
               "--schema", "/nonexistent/schema.json"])
    assert rc == cli.EXIT_DATA
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == cli.EXIT_USAGE


def test_config_file_and_flag_precedence(tmp_path, workdir):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs = 1\nhidden = 6\nembed = 6\nseed = 4\n# comment\n")
    parsed = read_config_file(cfg_file)
    assert parsed == {"epochs": 1, "hidden": 6, "embed": 6, "seed": 4}
    data = workdir / "data"
    rc = main(["train", "--config", str(cfg_file),
               "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"),
               "--valid", str(data / "valid.jsonl"),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--epochs", "1"])  # flag wins over file, file wins over profile
    assert rc == 0
    from plangen.training import load_checkpoint

    ckpt = load_checkpoint(tmp_path / "m.ckpt")
    assert ckpt.model.config.hidden == 6
    assert ckpt.config["epochs"] == 1


def test_config_file_unknown_key_is_data_error(tmp_path, workdir, capsys):
    cfg_file = tmp_path / "typo.cfg"
    cfg_file.write_text("epochs = 1\nlerning_rate = 9\n")
    data = workdir / "data"
    rc = main(["train", "--config", str(cfg_file),
               "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"),
               "--valid", str(data / "valid.jsonl"),
               "--checkpoint", str(tmp_path / "m.ckpt")])
    assert rc == cli.EXIT_DATA
    assert f"{cfg_file}: line 2: unknown key 'lerning_rate'" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("line, message", [
    ("epochs = abc", "epochs expects int, got 'abc'"),
    ("hidden = 3.5", "hidden expects int, got '3.5'"),
    ("learning_rate = true", "learning_rate expects float, got 'true'"),
    ("max_unigram_repeats = some", "max_unigram_repeats expects int | None, got 'some'"),
], ids=["epochs", "hidden", "learning_rate", "max_unigram_repeats"])
def test_config_file_value_of_wrong_type_is_data_error(tmp_path, workdir, capsys,
                                                       line, message):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"seed = 1\n{line}\n")
    data = workdir / "data"
    rc = main(["train", "--config", str(cfg_file),
               "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"),
               "--valid", str(data / "valid.jsonl"),
               "--checkpoint", str(tmp_path / "m.ckpt")])
    assert rc == cli.EXIT_DATA
    assert f"{cfg_file}: line 2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag", ["--beam-size", "--max-paragraph-len"])
def test_generate_rejects_zero_decode_sizes(trained_dir, capsys, flag):
    # both used to exit 0 with empty documents, or 3 from an empty paragraph
    data = trained_dir / "data"
    out = trained_dir / "zero.jsonl"
    rc = main(["generate", "--checkpoint", str(trained_dir / "model.ckpt"),
               "--schema", str(data / "schema.json"),
               "--corpus", str(data / "test.jsonl"), "--out", str(out), flag, "0"])
    assert rc == cli.EXIT_NUMERIC
    field = flag[2:].replace("-", "_")
    assert f"{field} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("clip_norm = -1", "clip_norm must be positive, got -1.0"),
    ("clip_norm = nan", "clip_norm must be positive, got nan"),
    ("learning_rate = nan", "learning_rate must be non-negative, got nan"),
], ids=["clip_norm_negative", "clip_norm_nan", "learning_rate_nan"])
def test_config_file_value_out_of_range_is_numeric_error(tmp_path, workdir, capsys,
                                                         line, message):
    cfg_file = tmp_path / "range.cfg"
    cfg_file.write_text(f"seed = 1\n{line}\n")
    data = workdir / "data"
    rc = main(["train", "--config", str(cfg_file),
               "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"),
               "--valid", str(data / "valid.jsonl"),
               "--checkpoint", str(tmp_path / "m.ckpt")])
    assert rc == cli.EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def _corpus_without_table(src: Path, dst: Path) -> None:
    first = src.read_text().splitlines()[0]
    dst.write_text(first + "\n" + json.dumps({"summary": "a b ."}) + "\n")


def _truncated_checkpoint(src: Path, dst: Path) -> None:
    dst.write_bytes(src.read_bytes()[:-12])


def _checkpoint_missing_tensor(src: Path, dst: Path) -> None:
    header, _, blob = src.read_bytes().partition(b"\n")
    manifest = json.loads(header)
    del manifest["tensors"]["enc.emb"]
    dst.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)


def _nonfinite_checkpoint(src: Path, dst: Path) -> None:
    header, _, blob = src.read_bytes().partition(b"\n")
    floats = np.frombuffer(blob, dtype="<f8").copy()
    floats[::97] = np.inf
    dst.write_bytes(header + b"\n" + floats.tobytes())


def _schema_missing_key(src: Path, dst: Path) -> None:
    obj = json.loads(src.read_text())
    del obj["team_marker"]
    dst.write_text(json.dumps(obj))


def _schema_is_directory(src: Path, dst: Path) -> None:
    dst.mkdir()


# fault -> (the generate input it breaks, how, what the message must say)
INPUT_FAULTS = {
    "corpus_without_table": ("--corpus", _corpus_without_table,
                             "line 2: missing key 'table'"),
    "truncated_checkpoint": ("--checkpoint", _truncated_checkpoint,
                             "checkpoint blob ends inside tensor"),
    "checkpoint_missing_tensor": ("--checkpoint", _checkpoint_missing_tensor,
                                  "checkpoint manifest lacks 'enc.emb'"),
    "nonfinite_checkpoint": ("--checkpoint", _nonfinite_checkpoint,
                             "checkpoint tensor 'dec.attn_w' holds NaN or infinity"),
    "schema_missing_key": ("--schema", _schema_missing_key, "missing key 'team_marker'"),
    "schema_is_directory": ("--schema", _schema_is_directory, "Is a directory"),
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_malformed_input_file_is_data_error(tmp_path, trained_dir, capsys, fault):
    arg, breaker, message = INPUT_FAULTS[fault]
    data = trained_dir / "data"
    inputs = {"--checkpoint": trained_dir / "model.ckpt",
              "--schema": data / "schema.json", "--corpus": data / "test.jsonl"}
    bad = tmp_path / inputs[arg].name
    breaker(inputs[arg], bad)
    inputs[arg] = bad
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", "--out", str(out)]
              + [str(s) for pair in inputs.items() for s in pair])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert not out.exists()


def test_train_with_empty_valid_file_is_data_error(tmp_path, workdir, capsys):
    empty = tmp_path / "valid.jsonl"
    empty.write_text("")
    data = workdir / "data"
    rc = main(["train", "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"), "--valid", str(empty),
               "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == cli.EXIT_DATA
    assert str(empty) in capsys.readouterr().err


def test_evaluate_empty_files_is_data_error(tmp_path, workdir, capsys):
    gen, gold = tmp_path / "gen.jsonl", tmp_path / "gold.jsonl"
    gen.write_text("")
    gold.write_text("")
    rc = main(["evaluate", "--generated", str(gen), "--gold", str(gold),
               "--schema", str(workdir / "data" / "schema.json")])
    assert rc == cli.EXIT_DATA
    assert str(gold) in capsys.readouterr().err


def test_evaluate_generation_row_without_plan_indices_is_data_error(tmp_path, workdir,
                                                                     capsys):
    data = workdir / "data"
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"summary": "The Reds won .", "terminated": True}) + "\n")
    rc = main(["evaluate", "--generated", str(gen), "--gold", str(data / "test.jsonl"),
               "--schema", str(data / "schema.json")])
    assert rc == cli.EXIT_DATA
    assert f"{gen}: line 1: missing key 'plan_indices'" in capsys.readouterr().err


# generation row fields -> what the message must say after "<path>: line 1: "
GENERATION_FAULTS = {
    "indices_string": ({"plan_indices": "12"}, "plan_indices must be a list"),
    "indices_float": ({"plan_indices": [0, 1.5]}, "plan_indices must be a list"),
    "indices_negative": ({"plan_indices": [0, -1]}, "plan_indices must be a list"),
    "indices_bool": ({"plan_indices": [True]}, "plan_indices must be a list"),
    "terminated_string": ({"terminated": "false"}, "terminated must be true or false"),
    "terminated_int": ({"terminated": 0}, "terminated must be true or false"),
}


def _evaluate(gen: Path, data: Path) -> int:
    return main(["evaluate", "--generated", str(gen), "--gold", str(data / "test.jsonl"),
                 "--schema", str(data / "schema.json")])


@pytest.mark.parametrize("fault", sorted(GENERATION_FAULTS))
def test_malformed_generation_row_is_data_error(tmp_path, workdir, capsys, fault):
    fields, message = GENERATION_FAULTS[fault]
    gen = tmp_path / "gen.jsonl"
    row = {"plan_indices": [0], "terminated": True, "summary": "The Reds won ."}
    gen.write_text(json.dumps({**row, **fields}) + "\n")
    assert _evaluate(gen, workdir / "data") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{gen}: line 1: {message}" in err and "Traceback" not in err


def test_generation_plan_outside_its_pool_names_the_file_and_row(tmp_path, workdir, capsys):
    gen = tmp_path / "gen.jsonl"
    rows = [{"plan_indices": [99] if i == 1 else [0], "terminated": True,
             "summary": "The Reds won ."} for i in range(4)]  # test.jsonl holds 4 games
    gen.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert _evaluate(gen, workdir / "data") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{gen}: row 2: plan step 99 outside pool of size" in err and "Traceback" not in err


def test_profiles_fix_documented_defaults():
    assert cli.PROFILES["toy"]["max_paragraphs"] == 8
    assert cli.PROFILES["rotowire-like"]["max_paragraphs"] == 15
    assert cli.PROFILES["mlb-like"]["max_paragraphs"] == 20
    assert cli.PROFILES["rotowire-like"]["decay_slope"] == pytest.approx(1 / 50000)
    assert cli.PROFILES["mlb-like"]["decay_slope"] == pytest.approx(1 / 100000)
    assert cli.PROFILES["mlb-like"]["batch_size"] == 8
    assert cli.PROFILES["rotowire-like"]["batch_size"] == 5
    assert cli.PROFILES["mlb-like"]["block_plan_bigrams"]
    assert not cli.PROFILES["rotowire-like"]["block_plan_bigrams"]


def test_train_validates_under_the_profiles_decode_settings(tmp_path, workdir, monkeypatch):
    # bin tuning and the BLEU tie-break decode with beam 1 under the
    # profile's caps and blocking, not under DecodeConfig()'s
    from plangen import inference

    real, seen = inference.generate_document, []

    def recording(model, pool, ext_plan_tokens, vocab, cfg):
        seen.append(cfg)
        return real(model, pool, ext_plan_tokens, vocab, cfg)

    monkeypatch.setattr(inference, "generate_document", recording)
    data = workdir / "data"
    rc = main(["train", "--profile", "rotowire-like",
               "--schema", str(data / "schema.json"),
               "--train", str(data / "train.jsonl"),
               "--valid", str(data / "valid.jsonl"),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--hidden", "4", "--embed", "4", "--epochs", "1", "--seed", "2"])
    assert rc == 0
    assert seen
    for cfg in seen:
        assert (cfg.beam_size, cfg.max_paragraphs, cfg.max_paragraph_len) == (1, 15, 120)
        assert not cfg.block_plan_bigrams and not cfg.block_consecutive_unigram
        assert cfg.max_unigram_repeats is None


def test_toy_profile_decodes_with_the_decode_config_defaults():
    defaults = cli.inference.DecodeConfig()
    for name, value in cli.PROFILES["toy"].items():
        if hasattr(defaults, name):
            assert getattr(defaults, name) == value, name


def test_grad_check_command_exits_zero():
    assert main(["grad-check", "--hidden", "3"]) == 0


# ---------------------------------------------------------------------------
# fuzzed readers: any checkpoint manifest or config file exits with a code


DROP = object()  # remove the field instead of replacing it
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 40) | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)
MANIFEST_FIELDS = [(), ("magic",), ("model",), ("model", "vocab_size"), ("model", "hidden"),
                   ("model", "embed"), ("model", "bins"), ("tensors",),
                   ("tensors", "enc.emb"), ("vocab",), ("vocab_hash",), ("bin_boundaries",),
                   ("bin_count",), ("tuned_bins",), ("config",), ("config", "profile")]
CONFIG_TEXT = (b"seed = 1\nbeam_size = 2\nblock_plan_bigrams = false\n"
               b"max_unigram_repeats = none  # or an int\nlearning_rate = 0.1\n")


def _generate_exit(trained_dir, checkpoint, config=None):
    """(exit code, stderr) of a small ``generate`` run; an exception that
    escapes ``main`` fails the calling test."""
    data = trained_dir / "data"
    argv = ["generate", "--checkpoint", str(checkpoint), "--schema", str(data / "schema.json"),
            "--corpus", str(data / "test.jsonl"), "--out", str(checkpoint) + ".jsonl",
            "--beam-size", "1", "--max-paragraphs", "1", "--max-paragraph-len", "3"]
    if config is not None:
        argv += ["--config", str(config)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(MANIFEST_FIELDS), value=st.just(DROP) | JSON_VALUES)
def test_mutated_checkpoint_manifest_exits_with_a_code(trained_dir, field, value):
    header, _, blob = (trained_dir / "model.ckpt").read_bytes().partition(b"\n")
    manifest = json.loads(header)
    if not field:
        manifest = {} if value is DROP else value
    else:
        parent = manifest
        for key in field[:-1]:
            parent = parent[key]
        if value is DROP:
            parent.pop(field[-1], None)
        else:
            parent[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "m.ckpt"
        ckpt.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        rc, err = _generate_exit(trained_dir, ckpt)
    assert rc in (0, 2, 3, 4) and "Traceback" not in err
    if rc == cli.EXIT_DATA:
        assert str(ckpt) in err


@settings(max_examples=40, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["flip", "cut", "insert"]),
                                st.integers(0, len(CONFIG_TEXT)), st.binary(min_size=1,
                                                                             max_size=3)),
                      max_size=3))
def test_mutated_config_bytes_exit_with_a_code(trained_dir, edits):
    text = CONFIG_TEXT
    for op, at, chunk in edits:
        if op == "flip":
            text = text[:at] + chunk[:1] + text[at + 1:]
        elif op == "cut":
            text = text[:at]
        else:
            text = text[:at] + chunk + text[at:]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(text)
        rc, err = _generate_exit(trained_dir, trained_dir / "model.ckpt", cfg)
    assert rc in (0, 2, 3, 4) and "Traceback" not in err
    if rc == cli.EXIT_DATA:
        assert str(cfg) in err


def test_non_utf8_config_line_is_data_error(tmp_path, trained_dir):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
    rc, err = _generate_exit(trained_dir, trained_dir / "model.ckpt", cfg)
    assert rc == cli.EXIT_DATA and f"{cfg}: line 2: not UTF-8 text" in err
