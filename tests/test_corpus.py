"""Corpus-layer tests: verbalization, pools, oracle extraction, bins, vocab."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import corpus, synth
from plangen.corpus import (
    SIDE_HOME,
    SIDE_NONE,
    SIDE_VISITING,
    DataError,
    Document,
    Record,
    Schema,
    Table,
    Vocab,
    assign_length_bins,
    build_plan_pool,
    build_vocab,
    extract_oracle_plan,
    parse_summary,
    read_corpus,
    serialize_summary,
    verbalize_entity,
    verbalize_event,
    write_corpus,
)

MLB_LIKE_SCHEMA = Schema(
    name="mlb-like-v1",
    version=1,
    entity_type_order=["TEAM", "PLAYER", "H/V", "W", "L", "IP", "PH", "PR", "ER",
                       "BB", "K"],
    event_types=["BATTER", "PITCHER", "ACTION", "SCR"],
    team_marker="TEAM",
)


def keller_table() -> Table:
    records = [
        Record("Royals", "TEAM", "Royals", SIDE_VISITING),
        Record("Orioles", "TEAM", "Orioles", SIDE_HOME),
        Record("B.Keller", "PLAYER", "B.Keller", SIDE_VISITING),
        Record("B.Keller", "H/V", "V", SIDE_VISITING),
        Record("B.Keller", "W", "7", SIDE_VISITING),
        Record("B.Keller", "L", "5", SIDE_VISITING),
        Record("B.Keller", "IP", "8", SIDE_VISITING),
        Record("B.Keller", "PH", "4", SIDE_VISITING),
        Record("B.Keller", "PR", "2", SIDE_VISITING),
        Record("B.Keller", "ER", "2", SIDE_VISITING),
        Record("B.Keller", "BB", "2", SIDE_VISITING),
        Record("B.Keller", "K", "4", SIDE_VISITING),
        Record("C.Mullins", "PLAYER", "C.Mullins", SIDE_HOME),
        Record("C.Mullins", "H/V", "H", SIDE_HOME),
        Record("C.Mullins", "BATTER", "C.Mullins", SIDE_HOME, "1-T"),
        Record("B.Keller", "PITCHER", "B.Keller", SIDE_VISITING, "1-T"),
        Record("C.Mullins", "ACTION", "Home_run", SIDE_HOME, "1-T"),
        Record("C.Mullins", "SCR", "1", SIDE_HOME, "1-T"),
    ]
    return Table(records=records,
                 entities=["Royals", "Orioles", "B.Keller", "C.Mullins"],
                 events=["1-T"])


def test_keller_verbalization_matches_published_prefix():
    plan = verbalize_entity(MLB_LIKE_SCHEMA, keller_table(), "B.Keller")
    prefix = ["<PLAYER>", "B.Keller", "<H/V>", "V", "<W>", "7", "<L>", "5",
              "<IP>", "8", "<PH>", "4"]
    assert plan.tokens[:len(prefix)] == prefix
    assert plan.kind == "entity"


def test_singleton_record_preceded_by_identity_fields():
    records = [
        Record("X", "PLAYER", "X", SIDE_NONE),
        Record("X", "H/V", "H", SIDE_NONE),
        Record("X", "K", "4", SIDE_NONE),
    ]
    table = Table(records=records, entities=["X"], events=[])
    plan = verbalize_entity(MLB_LIKE_SCHEMA, table, "X")
    assert plan.tokens == ["<PLAYER>", "X", "<H/V>", "H", "<K>", "4"]


def test_toy_player_with_three_records_verbalizes_to_eight_tokens():
    games, schema = synth.generate_toy_corpus(seed=5, n_games=3)
    found = False
    for game in games:
        for entity in game.table.entities:
            recs = game.table.entity_records(entity)
            if len(recs) == 4 and any(r.type_key == "MVP" for r in recs):
                # identity NAME plus three stat records (MVP, PTS, REB)
                plan = verbalize_entity(schema, game.table, entity)
                assert len(plan.tokens) == 8
                found = True
    assert found


def test_verbalization_completeness_every_record_once_in_schema_order():
    games, schema = synth.generate_toy_corpus(seed=19, n_games=10)
    order = {t: i for i, t in enumerate(schema.entity_type_order)}
    for game in games:
        for entity in game.table.entities:
            plan = verbalize_entity(schema, game.table, entity)
            type_tokens = [t for t in plan.tokens if t.startswith("<")]
            records = game.table.entity_records(entity)
            assert len(type_tokens) == len(records)
            assert sorted(type_tokens) == sorted(f"<{r.type_key}>" for r in records)
            ranks = [order[t[1:-1]] for t in type_tokens]
            assert ranks == sorted(ranks)
            for rec in records:
                idx = plan.tokens.index(f"<{rec.type_key}>")
                assert plan.tokens[idx + 1] == rec.value


def test_verbalize_entity_errors():
    table = keller_table()
    with pytest.raises(DataError):
        verbalize_entity(MLB_LIKE_SCHEMA, table, "Nobody")
    bare = Table(records=[Record("Royals", "TEAM", "Royals")],
                 entities=["Royals", "Ghost"], events=[])
    with pytest.raises(DataError):
        verbalize_entity(MLB_LIKE_SCHEMA, bare, "Ghost")


def test_verbalize_event_covers_participants_in_order():
    plan = verbalize_event(MLB_LIKE_SCHEMA, keller_table(), "1-T")
    assert plan.covered_entities == frozenset({"C.Mullins", "B.Keller"})
    assert plan.covered_events == frozenset({"1-T"})
    # participants verbalized first (table order), then plays in table order
    assert plan.tokens[:2] == ["<PLAYER>", "C.Mullins"]
    assert "<BATTER>" in plan.tokens and "<SCR>" in plan.tokens
    assert plan.tokens.index("<BATTER>") < plan.tokens.index("<PITCHER>")


def test_event_single_play_is_batter_then_play():
    records = [
        Record("T", "TEAM", "T", SIDE_NONE),
        Record("P", "PLAYER", "P", SIDE_NONE),
        Record("P", "ACTION", "Single", SIDE_NONE, "2-B"),
    ]
    table = Table(records=records, entities=["T", "P"], events=["2-B"])
    plan = verbalize_event(MLB_LIKE_SCHEMA, table, "2-B")
    assert plan.tokens == ["<PLAYER>", "P", "<ACTION>", "Single"]
    with pytest.raises(DataError):
        verbalize_event(MLB_LIKE_SCHEMA, table, "9-T")


def _toy_table(n_teams=2, n_players=4, n_events=3) -> Table:
    records = []
    entities = []
    for i in range(n_teams):
        t = f"Team{i}"
        side = SIDE_VISITING if i == 0 else SIDE_HOME
        records += [Record(t, "TEAM", t, side), Record(t, "TPTS", str(80 + i), side)]
        entities.append(t)
    for i in range(n_players):
        p = f"P{i}"
        records += [Record(p, "NAME", p), Record(p, "PTS", str(10 + i))]
        entities.append(p)
    events = []
    for i in range(n_events):
        key = f"{i + 1}-T"
        records.append(Record(f"P{i % max(n_players, 1)}", "EPTS", "3", SIDE_NONE, key)
                       if n_players else Record("Team0", "EPTS", "3", SIDE_NONE, key))
        events.append(key)
    return Table(records=records, entities=entities, events=events)


def test_pool_size_formula():
    pool = build_plan_pool(synth.TOY_SCHEMA, _toy_table(2, 4, 3))
    assert len(pool) == 2 + 4 + 3 + 1 + 4


def test_pool_minimal_table():
    pool = build_plan_pool(synth.TOY_SCHEMA, _toy_table(2, 0, 0))
    assert len(pool) == 3
    assert [p.label for p in pool.plans] == ["V(Team0)", "V(Team1)",
                                             "V(Team0) V(Team1)"]


def test_pool_pair_is_visiting_then_home_like_published_example():
    pool = build_plan_pool(MLB_LIKE_SCHEMA, keller_table())
    labels = [p.label for p in pool.plans]
    assert "V(Orioles)" in labels
    assert "V(Royals) V(Orioles)" in labels  # visiting team first in the pair
    assert "V(B.Keller) V(Royals) V(Orioles)" in labels


def test_pool_rejects_record_type_outside_schema():
    table = _toy_table(2, 2, 1)
    table.records.append(Record("Team0", "BOGUS", "1", SIDE_VISITING))
    with pytest.raises(DataError, match=r"\(Team0, BOGUS\): type not in schema 'toy-v1'"):
        build_plan_pool(synth.TOY_SCHEMA, table)


def test_pool_determinism():
    t1, t2 = _toy_table(), _toy_table()
    p1 = build_plan_pool(synth.TOY_SCHEMA, t1)
    p2 = build_plan_pool(synth.TOY_SCHEMA, t2)
    assert [p.label for p in p1.plans] == [p.label for p in p2.plans]
    assert [p.tokens for p in p1.plans] == [p.tokens for p in p2.plans]


def test_oracle_extraction_singleton_and_error():
    table = _toy_table(2, 2, 1)
    pool = build_plan_pool(synth.TOY_SCHEMA, table)
    doc = Document([["Team0", "led", "all", "night", "."]])
    plan = extract_oracle_plan(table, doc, pool)
    assert [pool[s].label for s in plan.steps] == ["V(Team0)"]
    assert plan.terminated
    with pytest.raises(DataError, match="matching plans"):
        extract_oracle_plan(table, Document([["nothing", "matches", "here"]]), pool)


def test_oracle_roundtrip_on_toy_corpus():
    games, schema = synth.generate_toy_corpus(seed=11, n_games=40)
    for game in games:
        pool = build_plan_pool(schema, game.table)
        extracted = extract_oracle_plan(game.table, game.document, pool)
        assert extracted.steps == game.oracle.steps


def test_toy_corpus_determinism_and_empty():
    a, _ = synth.generate_toy_corpus(seed=3, n_games=5)
    b, _ = synth.generate_toy_corpus(seed=3, n_games=5)
    assert [serialize_summary(g.document) for g in a] == \
           [serialize_summary(g.document) for g in b]
    assert [g.oracle.steps for g in a] == [g.oracle.steps for g in b]
    empty, _ = synth.generate_toy_corpus(seed=3, n_games=0)
    assert empty == []


def test_toy_frames_recover_generator_relations():
    games, _ = synth.generate_toy_corpus(seed=9, n_games=25)
    from plangen.metrics import extract_relations

    for game in games:
        assert extract_relations(game.document, synth.TOY_FRAMES) == game.relations


# ---------------------------------------------------------------------------
# length bins


def test_bins_degenerate_single_bin():
    bins = assign_length_bins([5, 9, 12], 1)
    assert bins.boundaries == []
    assert bins.assign(1) == bins.assign(50) == 0


def test_bins_quartiles_frozen_oracle():
    bins = assign_length_bins(range(1, 101), 4)
    assert bins.boundaries == [25, 50, 75]
    pops = [0] * 4
    for x in range(1, 101):
        pops[bins.assign(x)] += 1
    assert pops == [25, 25, 25, 25]


def test_bins_all_equal_lengths():
    bins = assign_length_bins([7] * 10, 2)
    assert bins.bin_count == 2
    assert bins.assign(7) == 0  # single populated bin; ties collapse boundaries


def test_bins_parameter_error():
    with pytest.raises(corpus.ParameterError):
        assign_length_bins([1, 2, 3], 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=8, max_size=80),
       st.integers(min_value=1, max_value=6))
def test_bins_partition_property(lengths, b):
    bins = assign_length_bins(lengths, b)
    assert all(x < y for x, y in zip(bins.boundaries, bins.boundaries[1:]))
    for x in range(0, 70):
        assert 0 <= bins.assign(x) < b


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_min_count_threshold():
    games, schema = synth.generate_toy_corpus(seed=2, n_games=1)
    doc = Document([["a", "a", "b"]])
    game = corpus.Game(table=games[0].table, document=doc, oracle=None)
    vocab = build_vocab([game], schema, min_count=2)
    assert "a" in vocab
    assert vocab.id("b") == vocab.unk_id


def test_vocab_roundtrip_and_reserved():
    games, schema = synth.generate_toy_corpus(seed=2, n_games=4)
    vocab = build_vocab(games, schema, min_count=1)
    assert vocab.tokens()[:6] == list(corpus.RESERVED)
    for tok in games[0].document.all_tokens():
        assert vocab.token(vocab.id(tok)) == tok


def test_vocab_covers_counted_toy_token_classes():
    games, schema = synth.generate_toy_corpus(seed=2, n_games=60)
    vocab = build_vocab(games, schema, min_count=1)
    template_words = {"The", "(", ")", "finished", "with", "total", "points", ".",
                      "was", "MVP", "and", "rebounds", "as", "faced", "-", "In",
                      ",", "scored", "added", "extra", "Final", "score", ":",
                      "V", "H", "yes"}
    type_tokens = {"<TEAM>", "<NAME>", "<SIDE>", "<MVP>", "<TPTS>", "<PTS>",
                   "<REB>", "<EPTS>"}
    for tok in template_words | type_tokens:
        assert tok in vocab, tok
    # every vocab entry is reserved, a known name, a number, or a template word
    names = set(synth.TEAM_NAMES) | set(synth.PLAYER_NAMES)
    for tok in vocab.tokens():
        assert (tok in corpus.RESERVED or tok in names or tok.isdigit()
                or tok in template_words or tok in type_tokens
                or "-" in tok)  # event keys like 3-T


# ---------------------------------------------------------------------------
# corpus files


def test_corpus_file_roundtrip(tmp_path):
    games, schema = synth.generate_toy_corpus(seed=6, n_games=8)
    path = tmp_path / "train.jsonl"
    write_corpus(path, games, include_plans=True)
    back = read_corpus(path)
    assert len(back) == len(games)
    for orig, loaded in zip(games, back):
        assert loaded.document.paragraphs == orig.document.paragraphs
        assert loaded.oracle.steps == orig.oracle.steps
        assert [r for r in loaded.table.records] == [r for r in orig.table.records]


def test_corpus_file_determinism(tmp_path):
    games, _ = synth.generate_toy_corpus(seed=6, n_games=8)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(p1, games, include_plans=True)
    write_corpus(p2, games, include_plans=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_serialization_roundtrip():
    doc = Document([["a", "b"], ["c", ".", "d"]])
    assert parse_summary(serialize_summary(doc)).paragraphs == doc.paragraphs


def test_document_invariants():
    with pytest.raises(DataError):
        Document([])
    with pytest.raises(DataError):
        Document([["ok"], []])


def test_table_invariants():
    with pytest.raises(DataError):
        Table(records=[Record("X", "NAME", "X")], entities=[], events=[])
    with pytest.raises(DataError):
        Table(records=[Record("X", "EPTS", "1", SIDE_NONE, "9-T")],
              entities=["X"], events=[])
