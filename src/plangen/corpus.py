"""Structured-table data model and corpus plumbing.

Covers record tables, paragraph-plan verbalization, candidate pool
enumeration, oracle macro-plan extraction by mention matching, paragraph
length bins, the joint word-level vocabulary, and the line-delimited
corpus file format (one game per line: table, <P>-delimited summary,
and optionally the oracle plan as pool indices).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .autodiff import ParameterError

PAD, BOS, EOS, UNK, EOP, PARA = "<PAD>", "<BOS>", "<EOS>", "<UNK>", "<EOP>", "<P>"
RESERVED = (PAD, BOS, EOS, UNK, EOP, PARA)

SIDE_HOME, SIDE_VISITING, SIDE_NONE = "home", "visiting", "none"


class DataError(ValueError):
    """Malformed or inconsistent corpus data."""


@dataclass(frozen=True)
class Record:
    """One table cell: an entity's (or event's) typed value."""

    entity_id: str
    type_key: str
    value: str
    side: str = SIDE_NONE
    event_key: str | None = None


@dataclass
class Schema:
    """Record types and the fixed order in which entities verbalize them.

    ``team_marker`` names the identity record type that flags an entity as
    a team; every other entity is treated as a player.
    """

    name: str
    version: int
    entity_type_order: list[str]
    event_types: list[str]
    team_marker: str

    def validate_records(self, records: list[Record]) -> None:
        known = set(self.entity_type_order) | set(self.event_types)
        for rec in records:
            if rec.type_key not in known:
                raise DataError(f"record ({rec.entity_id}, {rec.type_key}): type not in "
                                f"schema {self.name!r}")
            if not rec.value:
                raise DataError(f"record ({rec.entity_id}, {rec.type_key}) has empty value")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "entity_type_order": list(self.entity_type_order),
            "event_types": list(self.event_types),
            "team_marker": self.team_marker,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Schema":
        return cls(
            name=obj["name"],
            version=int(obj["version"]),
            entity_type_order=list(obj["entity_type_order"]),
            event_types=list(obj["event_types"]),
            team_marker=obj["team_marker"],
        )


def write_schema(path, schema: Schema) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_schema(path) -> Schema:
    with open(path, encoding="utf-8") as fh:
        try:
            return Schema.from_json(json.load(fh))
        except KeyError as exc:
            raise DataError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"{path}: not a schema: {exc}") from exc


@dataclass
class Table:
    """All records of one game plus the declared entity/event orderings."""

    records: list[Record]
    entities: list[str]
    events: list[str]

    def __post_init__(self):
        ents = set(self.entities)
        evs = set(self.events)
        for rec in self.records:
            if rec.entity_id not in ents:
                raise DataError(f"record entity {rec.entity_id!r} not among table entities")
            if rec.event_key is not None and rec.event_key not in evs:
                raise DataError(f"record event {rec.event_key!r} not among table events")

    def entity_records(self, entity_id: str) -> list[Record]:
        return [r for r in self.records if r.entity_id == entity_id and r.event_key is None]

    def event_records(self, event_key: str) -> list[Record]:
        return [r for r in self.records if r.event_key == event_key]

    def teams(self, schema: Schema) -> list[str]:
        marked = {r.entity_id for r in self.records if r.type_key == schema.team_marker}
        return [e for e in self.entities if e in marked]

    def entity_side(self, entity_id: str) -> str:
        for rec in self.records:
            if rec.entity_id == entity_id and rec.side != SIDE_NONE:
                return rec.side
        return SIDE_NONE


@dataclass
class ParagraphPlan:
    """A verbalized record cluster seeding one output paragraph.

    ``items`` is the ordered entity/event identifier sequence the plan
    stands for (used by the plan-quality metrics); ``label`` is the
    human-readable V(...) form written to generation output files.
    """

    tokens: list[str]
    covered_entities: frozenset[str]
    covered_events: frozenset[str]
    kind: str  # entity | event | combination
    items: list[str]
    label: str

    def __post_init__(self):
        if not self.tokens:
            raise DataError(f"paragraph plan {self.label!r} has no tokens")
        if not (self.covered_entities or self.covered_events):
            raise DataError(f"paragraph plan {self.label!r} covers nothing")


@dataclass
class PlanPool:
    """Ordered candidate paragraph plans for one game."""

    plans: list[ParagraphPlan]

    def __post_init__(self):
        seen = set()
        for p in self.plans:
            key = (p.kind, p.covered_entities, p.covered_events)
            if key in seen:
                raise DataError(f"duplicate plan in pool: {p.label}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.plans)

    def __getitem__(self, i: int) -> ParagraphPlan:
        return self.plans[i]


@dataclass
class MacroPlan:
    """Pool-index sequence; ``terminated`` marks that EOP follows the steps."""

    steps: list[int]
    terminated: bool = False

    def validate(self, pool: PlanPool, max_len: int | None = None) -> None:
        for s in self.steps:
            if not 0 <= s < len(pool):
                raise DataError(f"plan step {s} outside pool of size {len(pool)}")
        if max_len is not None and len(self.steps) > max_len:
            raise DataError(f"plan length {len(self.steps)} exceeds maximum {max_len}")


@dataclass
class Document:
    """Paragraph token sequences; boundaries are first-class."""

    paragraphs: list[list[str]]

    def __post_init__(self):
        if not self.paragraphs:
            raise DataError("document has no paragraphs")
        for i, p in enumerate(self.paragraphs):
            if not p:
                raise DataError(f"paragraph {i} is empty")

    def all_tokens(self) -> list[str]:
        return [t for p in self.paragraphs for t in p]


def serialize_summary(doc: Document) -> str:
    return f" {PARA} ".join(" ".join(p) for p in doc.paragraphs)


def parse_summary(text: str) -> Document:
    paragraphs = []
    for chunk in text.split(PARA):
        toks = chunk.split()
        if toks:
            paragraphs.append(toks)
    if not paragraphs:
        raise DataError("summary string contains no paragraphs")
    return Document(paragraphs)


# ---------------------------------------------------------------------------
# verbalization and pool construction


def _type_token(type_key: str) -> str:
    return f"<{type_key}>"


def _verbalize_records(schema: Schema, records: list[Record]) -> list[str]:
    order = {t: i for i, t in enumerate(schema.entity_type_order)}
    ordered = sorted(
        [r for r in records if r.type_key in order],
        key=lambda r: order[r.type_key],
    )
    tokens: list[str] = []
    for rec in ordered:
        tokens.append(_type_token(rec.type_key))
        tokens.extend(rec.value.split())
    return tokens


def verbalize_entity(schema: Schema, table: Table, entity_id: str) -> ParagraphPlan:
    """Entity verbalization: <type> value pairs in the schema's fixed order."""
    if entity_id not in table.entities:
        raise DataError(f"unknown entity {entity_id!r}")
    records = table.entity_records(entity_id)
    if not records:
        raise DataError(f"entity {entity_id!r} has no records to verbalize")
    tokens = _verbalize_records(schema, records)
    return ParagraphPlan(
        tokens=tokens,
        covered_entities=frozenset([entity_id]),
        covered_events=frozenset(),
        kind="entity",
        items=[entity_id],
        label=f"V({entity_id})",
    )


def verbalize_event(schema: Schema, table: Table, event_key: str) -> ParagraphPlan:
    """Participant verbalizations followed by play records in table order."""
    if event_key not in table.events:
        raise DataError(f"unknown event {event_key!r}")
    plays = table.event_records(event_key)
    if not plays:
        raise DataError(f"event {event_key!r} has no play records")
    participants: list[str] = []
    for rec in plays:
        if rec.entity_id not in participants:
            participants.append(rec.entity_id)
    tokens: list[str] = []
    for p in participants:
        tokens.extend(verbalize_entity(schema, table, p).tokens)
    for rec in plays:
        tokens.append(_type_token(rec.type_key))
        tokens.extend(rec.value.split())
    return ParagraphPlan(
        tokens=tokens,
        covered_entities=frozenset(participants),
        covered_events=frozenset([event_key]),
        kind="event",
        items=participants + [event_key],
        label=f"V({event_key})",
    )


def _combination(plans: list[ParagraphPlan], ids: list[str]) -> ParagraphPlan:
    tokens = [t for p in plans for t in p.tokens]
    ents = frozenset().union(*(p.covered_entities for p in plans))
    evs = frozenset().union(*(p.covered_events for p in plans))
    return ParagraphPlan(
        tokens=tokens,
        covered_entities=ents,
        covered_events=evs,
        kind="combination",
        items=ids,
        label=" ".join(f"V({i})" for i in ids),
    )


def build_plan_pool(schema: Schema, table: Table) -> PlanPool:
    """Enumerate candidate plans in deterministic order.

    Order: each team, each player (table entity order), each event (table
    event order), the team pair (visiting first when sides are known),
    then one (player, team-pair) combination per player.  Pair and triples
    are emitted only for tables with exactly two teams.
    """
    if not table.entities:
        raise DataError("cannot build a plan pool from a table with no entities")
    schema.validate_records(table.records)
    teams = table.teams(schema)
    players = [e for e in table.entities if e not in teams]
    plans: list[ParagraphPlan] = []
    for t in teams:
        plans.append(verbalize_entity(schema, table, t))
    for p in players:
        plans.append(verbalize_entity(schema, table, p))
    for ev in table.events:
        plans.append(verbalize_event(schema, table, ev))
    if len(teams) == 2:
        ordered = sorted(teams, key=lambda t: (table.entity_side(t) != SIDE_VISITING,
                                               table.entities.index(t)))
        pair_plans = [verbalize_entity(schema, table, t) for t in ordered]
        plans.append(_combination(pair_plans, list(ordered)))
        for p in players:
            plans.append(_combination(
                [verbalize_entity(schema, table, p)] + pair_plans, [p] + list(ordered)))
    return PlanPool(plans)


def extract_oracle_plan(table: Table, doc: Document, pool: PlanPool) -> MacroPlan:
    """Match each paragraph's mentioned entities/events to exactly one plan.

    Mentions are exact token matches against entity ids and event keys;
    repeated mentions within a paragraph collapse to one (set semantics).
    """
    steps: list[int] = []
    for i, para in enumerate(doc.paragraphs):
        toks = set(para)
        ents = frozenset(e for e in table.entities if e in toks)
        evs = frozenset(k for k in table.events if k in toks)
        matches = [j for j, p in enumerate(pool.plans)
                   if p.covered_entities == ents and p.covered_events == evs]
        if len(matches) != 1:
            raise DataError(
                f"paragraph {i} has {len(matches)} matching plans "
                f"(entities={sorted(ents)}, events={sorted(evs)})")
        steps.append(matches[0])
    return MacroPlan(steps=steps, terminated=True)


# ---------------------------------------------------------------------------
# length bins


@dataclass
class BinAssignment:
    """Quantile cut points mapping any non-negative length to one bin."""

    boundaries: list[int]
    bin_count: int

    def __post_init__(self):
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise DataError("bin boundaries must be strictly ascending")

    def assign(self, length: int) -> int:
        return bisect_left(self.boundaries, length)


def assign_length_bins(lengths, bin_count: int) -> BinAssignment:
    """Quantile cut points; populations differ only by ties at a boundary.

    Lengths x <= boundaries[0] fall in bin 0, and so on.  Duplicate
    quantiles collapse, which can leave some of the nominal bins empty
    (the all-equal-lengths case keeps a single populated bin).
    """
    if bin_count < 1:
        raise ParameterError(f"bin count must be >= 1, got {bin_count}")
    data = sorted(lengths)
    if not data:
        raise DataError("cannot bin an empty length multiset")
    boundaries: list[int] = []
    n = len(data)
    for i in range(1, bin_count):
        cut = data[max(0, i * n // bin_count - 1)]
        if not boundaries or cut > boundaries[-1]:
            boundaries.append(cut)
    return BinAssignment(boundaries=boundaries, bin_count=bin_count)


# ---------------------------------------------------------------------------
# vocabulary


class Vocab:
    """Bijective token<->id map with reserved symbols first."""

    def __init__(self, tokens: list[str]):
        self._tokens = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise DataError("vocabulary tokens are not unique")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def pad_id(self) -> int:
        return self._ids[PAD]

    @property
    def bos_id(self) -> int:
        return self._ids[BOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    @property
    def unk_id(self) -> int:
        return self._ids[UNK]

    @property
    def eop_id(self) -> int:
        return self._ids[EOP]

    def id(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK])

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def content_hash(self) -> str:
        payload = "\n".join(self._tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocab(games, schema: Schema, min_count: int = 1) -> Vocab:
    """Joint word vocabulary over pool-plan tokens and summary tokens."""
    games = list(games)
    if not games:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for game in games:
        pool = build_plan_pool(schema, game.table)
        for plan in pool.plans:
            counts.update(plan.tokens)
        counts.update(game.document.all_tokens())
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


# ---------------------------------------------------------------------------
# corpus files (one JSON game per line)


@dataclass
class Game:
    """One table/summary pair, with the oracle plan when known."""

    table: Table
    document: Document
    oracle: MacroPlan | None = None
    relations: list = field(default_factory=list)  # gold IE stream (toy only)


def _table_to_json(table: Table) -> dict:
    return {
        "entities": list(table.entities),
        "events": list(table.events),
        "records": [[r.entity_id, r.type_key, r.value, r.side, r.event_key]
                    for r in table.records],
    }


def _table_from_json(obj: dict) -> Table:
    records = [Record(e, t, v, s, k) for e, t, v, s, k in obj["records"]]
    return Table(records=records, entities=list(obj["entities"]), events=list(obj["events"]))


def write_corpus(path, games: list[Game], include_plans: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for game in games:
            row = {
                "table": _table_to_json(game.table),
                "summary": serialize_summary(game.document),
            }
            if include_plans:
                if game.oracle is None:
                    raise DataError("asked to write oracle plans but a game has none")
                row["plan"] = list(game.oracle.steps)
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_corpus(path) -> list[Game]:
    games: list[Game] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                table = _table_from_json(obj["table"])
                doc = parse_summary(obj["summary"])
                oracle = MacroPlan(list(obj["plan"]), terminated=True) if "plan" in obj else None
            except KeyError as exc:
                raise DataError(f"{path}: line {line_no}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:  # JSON and data errors are ValueErrors
                raise DataError(f"{path}: line {line_no}: {exc}") from exc
            games.append(Game(table=table, document=doc, oracle=oracle))
    return games
