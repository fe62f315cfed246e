"""Synthetic toy corpus with exactly known oracle plans.

Each game gets two teams (one visiting, one home), 3-4 players of which
exactly one carries an MVP record, and a single play-by-play event whose
participant is a non-MVP player.  Every document follows the same macro
structure -- visiting team, MVP (player, team-pair) combination, the
event, final-score team pair, then EOP -- so plan selection is learnable
from table content alone while tables, values, and choices vary per game.

Paragraphs are realized from one template per plan kind, mentioning each
covered record exactly once.  The inverse regex frames reconstruct the
numeric relations (TPTS/PTS/REB/EPTS) in textual order; name and side
records anchor mentions but are not emitted as relations.
"""

from __future__ import annotations

import re

import numpy as np

from .corpus import (
    SIDE_HOME,
    SIDE_NONE,
    SIDE_VISITING,
    Document,
    Game,
    MacroPlan,
    Record,
    Schema,
    Table,
)
from .metrics import Frame, Relation

TOY_SCHEMA = Schema(
    name="toy-v1",
    version=1,
    entity_type_order=["TEAM", "NAME", "SIDE", "MVP", "TPTS", "PTS", "REB"],
    event_types=["EPTS"],
    team_marker="TEAM",
)

TEAM_NAMES = ["Reds", "Blues", "Hawks", "Wolves", "Kings", "Suns", "Bears", "Owls"]
PLAYER_NAMES = [
    "A.Adams", "B.Baker", "C.Clark", "D.Diaz", "E.Evans", "F.Ford",
    "G.Gray", "H.Hale", "I.Irwin", "J.James", "K.Kane", "L.Lowe",
    "M.Mason", "N.Nash", "O.Olsen", "P.Price", "Q.Quinn", "R.Reed",
    "S.Stone", "T.Tran", "U.Udo", "V.Vance", "W.Ward", "Y.Young",
]

PLAYERS_RANGE = (3, 5)  # 3-4 players; upper bounds are exclusive
TPTS_RANGE = (80, 99)
PTS_RANGE = (10, 29)
REB_RANGE = (2, 11)
EPTS_RANGE = (1, 8)


def _team_paragraph(team: str, side: str, tpts: int) -> list[str]:
    return f"The {team} ( {side} ) finished with {tpts} total points .".split()


def _triple_paragraph(x: str, pts: int, reb: int, tv: str, th: str,
                      tpts_v: int, tpts_h: int) -> list[str]:
    return (f"{x} was MVP with {pts} points and {reb} rebounds as "
            f"{tv} ( V ) faced {th} ( H ) {tpts_v} - {tpts_h} .").split()


def _event_paragraph(ek: str, p: str, pts: int, reb: int, epts: int) -> list[str]:
    return (f"In {ek} , {p} scored {pts} points with {reb} rebounds "
            f"and added {epts} extra points .").split()


def _pair_paragraph(tv: str, tpts_v: int, th: str, tpts_h: int) -> list[str]:
    return f"Final score : {tv} ( V ) {tpts_v} , {th} ( H ) {tpts_h} .".split()


def _frame(pattern: str, builder) -> Frame:
    return Frame(regex=re.compile(pattern), builder=builder)


TOY_FRAMES = [
    _frame(
        r"The (\S+) \( (?:V|H) \) finished with (\d+) total points \.",
        lambda m: [Relation(m.group(1), m.group(2), "TPTS")],
    ),
    _frame(
        r"In (\S+) , (\S+) scored (\d+) points with (\d+) rebounds "
        r"and added (\d+) extra points \.",
        lambda m: [
            Relation(m.group(2), m.group(3), "PTS"),
            Relation(m.group(2), m.group(4), "REB"),
            Relation(m.group(2), m.group(5), "EPTS"),
        ],
    ),
    _frame(
        r"Final score : (\S+) \( V \) (\d+) , (\S+) \( H \) (\d+) \.",
        lambda m: [
            Relation(m.group(1), m.group(2), "TPTS"),
            Relation(m.group(3), m.group(4), "TPTS"),
        ],
    ),
    _frame(
        r"(\S+) was MVP with (\d+) points and (\d+) rebounds as "
        r"(\S+) \( V \) faced (\S+) \( H \) (\d+) - (\d+) \.",
        lambda m: [
            Relation(m.group(1), m.group(2), "PTS"),
            Relation(m.group(1), m.group(3), "REB"),
            Relation(m.group(4), m.group(6), "TPTS"),
            Relation(m.group(5), m.group(7), "TPTS"),
        ],
    ),
]


def _pick(rng: np.random.Generator, pool: list[str], k: int) -> list[str]:
    order = rng.permutation(len(pool))
    return [pool[int(i)] for i in order[:k]]


def generate_toy_corpus(seed: int, n_games: int) -> tuple[list[Game], Schema]:
    """Deterministic synthetic games; oracle plan indices follow pool order."""
    rng = np.random.default_rng(seed)
    games: list[Game] = []
    for _ in range(n_games):
        games.append(_generate_game(rng))
    return games, TOY_SCHEMA


def _generate_game(rng: np.random.Generator) -> Game:
    team_v, team_h = _pick(rng, TEAM_NAMES, 2)
    teams = [team_v, team_h] if rng.integers(2) == 0 else [team_h, team_v]
    n_players = int(rng.integers(*PLAYERS_RANGE))
    players = _pick(rng, PLAYER_NAMES, n_players)
    mvp_i = int(rng.integers(n_players))
    others = [i for i in range(n_players) if i != mvp_i]
    part_i = others[int(rng.integers(len(others)))]
    event_key = f"{int(rng.integers(1, 10))}-{'T' if rng.integers(2) == 0 else 'B'}"

    tpts_v = int(rng.integers(*TPTS_RANGE))
    tpts_h = int(rng.integers(*TPTS_RANGE))
    pts = [int(rng.integers(*PTS_RANGE)) for _ in range(n_players)]
    reb = [int(rng.integers(*REB_RANGE)) for _ in range(n_players)]
    epts = int(rng.integers(*EPTS_RANGE))

    records: list[Record] = []
    for team, side, tpts in ((team_v, SIDE_VISITING, tpts_v), (team_h, SIDE_HOME, tpts_h)):
        marker = "V" if side == SIDE_VISITING else "H"
        records.append(Record(team, "TEAM", team, side))
        records.append(Record(team, "SIDE", marker, side))
        records.append(Record(team, "TPTS", str(tpts), side))
    for i, p in enumerate(players):
        records.append(Record(p, "NAME", p, SIDE_NONE))
        if i == mvp_i:
            records.append(Record(p, "MVP", "yes", SIDE_NONE))
        records.append(Record(p, "PTS", str(pts[i]), SIDE_NONE))
        records.append(Record(p, "REB", str(reb[i]), SIDE_NONE))
    records.append(Record(players[part_i], "EPTS", str(epts), SIDE_NONE, event_key))

    table = Table(records=records, entities=teams + players, events=[event_key])

    # pool order: teams, players, events, pair, triples (see build_plan_pool)
    n = n_players
    step_team_v = teams.index(team_v)
    step_event = 2 + n
    step_pair = 3 + n
    step_triple = 4 + n + mvp_i
    oracle = MacroPlan(steps=[step_team_v, step_triple, step_event, step_pair],
                       terminated=True)

    paragraphs = [
        _team_paragraph(team_v, "V", tpts_v),
        _triple_paragraph(players[mvp_i], pts[mvp_i], reb[mvp_i],
                          team_v, team_h, tpts_v, tpts_h),
        _event_paragraph(event_key, players[part_i], pts[part_i], reb[part_i], epts),
        _pair_paragraph(team_v, tpts_v, team_h, tpts_h),
    ]
    relations = [
        Relation(team_v, str(tpts_v), "TPTS"),
        Relation(players[mvp_i], str(pts[mvp_i]), "PTS"),
        Relation(players[mvp_i], str(reb[mvp_i]), "REB"),
        Relation(team_v, str(tpts_v), "TPTS"),
        Relation(team_h, str(tpts_h), "TPTS"),
        Relation(players[part_i], str(pts[part_i]), "PTS"),
        Relation(players[part_i], str(reb[part_i]), "REB"),
        Relation(players[part_i], str(epts), "EPTS"),
        Relation(team_v, str(tpts_v), "TPTS"),
        Relation(team_h, str(tpts_h), "TPTS"),
    ]
    return Game(table=table, document=Document(paragraphs), oracle=oracle,
                relations=relations)
