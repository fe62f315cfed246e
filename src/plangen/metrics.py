"""Automatic evaluation: rule-based relation extraction, RG/CS/CO, BLEU,
and macro-plan quality.

Extraction matches whole paragraphs against template frames, so it is
exact on the synthetic domain; duplicates are preserved in textual order.
CO uses the optimal-string-alignment variant of Damerau-Levenshtein
normalized by the longer sequence (both-empty defined as 100).  BLEU is
corpus-level BLEU-4 with brevity penalty and add-epsilon (1e-9)
substitution for zero n-gram counts.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import Document, MacroPlan, PlanPool, Table

BLEU_EPS = 1e-9


@dataclass(frozen=True)
class Relation:
    """(entity, value, type) triple extracted from a summary."""

    entity: str
    value: str
    type_key: str

    def __post_init__(self):
        if not (self.entity and self.value and self.type_key):
            raise ValueError(f"relation fields must be non-empty: {self}")


@dataclass
class Frame:
    """A sentence template: regex plus a relation builder for its groups."""

    regex: re.Pattern
    builder: Callable[[re.Match], list[Relation]]


@dataclass
class MetricReport:
    """Table-2 style columns plus a flag for empty generations."""

    rg_count: float
    rg_precision: float
    cs_precision: float
    cs_recall: float
    cs_f: float
    co: float
    bleu: float
    empty_generation: bool = False

    COLUMNS = ("RG #", "RG P%", "CS P%", "CS R%", "CS F%", "CO DLD%", "BLEU")

    def row(self) -> list[float]:
        return [self.rg_count, self.rg_precision, self.cs_precision,
                self.cs_recall, self.cs_f, self.co, self.bleu]


def _paragraphs(doc) -> Sequence[Sequence[str]]:
    """Accept a Document or a bare paragraph list (generations may be empty)."""
    return doc.paragraphs if isinstance(doc, Document) else doc


def extract_relations(doc, frames: Sequence[Frame]) -> list[Relation]:
    """Apply frames to each paragraph; unmatched paragraphs contribute nothing."""
    out: list[Relation] = []
    for para in _paragraphs(doc):
        text = " ".join(para)
        for frame in frames:
            m = frame.regex.fullmatch(text)
            if m:
                out.extend(frame.builder(m))
                break
    return out


def rg(relations: Sequence[Relation], table: Table) -> tuple[float, float]:
    """Relation count and the percentage found in the table.

    An empty relation list reports precision 0 (flagged by callers).
    """
    if not relations:
        return 0.0, 0.0
    hits = _supported_count(relations, table)
    return float(len(relations)), 100.0 * hits / len(relations)


def _supported_count(relations: Sequence[Relation], table: Table) -> int:
    """How many relations name an (entity, value, type) record of the table."""
    facts = {(r.entity_id, r.value, r.type_key) for r in table.records}
    return sum(1 for r in relations if (r.entity, r.value, r.type_key) in facts)


def cs(rel_gen: Sequence, rel_gold: Sequence) -> tuple[float, float, float]:
    """Multiset precision/recall/F of generated vs gold-summary relations."""
    if not rel_gen and not rel_gold:
        return 100.0, 100.0, 100.0
    matched = sum((Counter(rel_gen) & Counter(rel_gold)).values())
    p = 100.0 * matched / len(rel_gen) if rel_gen else 0.0
    r = 100.0 * matched / len(rel_gold) if rel_gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def dld(a: Sequence, b: Sequence) -> int:
    """Optimal-string-alignment edit distance (adjacent transpositions)."""
    la, lb = len(a), len(b)
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[lb]


def co(rel_gen: Sequence, rel_gold: Sequence) -> float:
    """100 * (1 - DLD / max length); defined as 100 when both are empty."""
    denom = max(len(rel_gen), len(rel_gold))
    if denom == 0:
        return 100.0
    return 100.0 * (1.0 - dld(rel_gen, rel_gold) / denom)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: Sequence[Sequence[str]],
         references: Sequence[Sequence[str]], max_n: int = 4) -> float:
    """Corpus BLEU-4 with brevity penalty and add-eps zero-count smoothing."""
    if len(candidates) != len(references):
        raise ValueError("candidate and reference corpora differ in size")
    if not candidates:
        raise ValueError("BLEU needs a non-empty corpus")
    num = [0] * max_n
    den = [0] * max_n
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cc = _ngrams(cand, n)
            rc = _ngrams(ref, n)
            num[n - 1] += sum(min(v, rc[g]) for g, v in cc.items())
            den[n - 1] += sum(cc.values())
    if c_len == 0:
        return 0.0
    log_p = sum(math.log((num[n] if num[n] > 0 else BLEU_EPS) / max(den[n], 1))
                for n in range(max_n))
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return 100.0 * bp * math.exp(log_p / max_n)


def flatten_plan(plan: MacroPlan, pool: PlanPool) -> list[str]:
    """Ordered entity/event identifiers named by the plan's steps."""
    return [item for s in plan.steps for item in pool[s].items]


def plan_quality(pred: MacroPlan, oracle: MacroPlan,
                 pool: PlanPool) -> tuple[float, float, float, float]:
    """CS P/R/F plus CO over the flattened entity/event sequences."""
    for plan in (pred, oracle):
        plan.validate(pool)
    seq_pred = flatten_plan(pred, pool)
    seq_gold = flatten_plan(oracle, pool)
    p, r, f = cs(seq_pred, seq_gold)
    return p, r, f, co(seq_pred, seq_gold)


# ---------------------------------------------------------------------------
# corpus-level aggregation


def evaluate_corpus(generated, gold, tables: Sequence[Table],
                    frames: Sequence[Frame]) -> MetricReport:
    """Aggregate report: RG corpus-precision, macro-averaged CS/CO, BLEU.

    ``generated`` and ``gold`` entries may be Documents or paragraph lists.
    """
    if not (len(generated) == len(gold) == len(tables)):
        raise ValueError("generated/gold/tables must align one game per entry")
    total_rel = 0
    total_hits = 0
    cs_p = cs_r = cs_f = co_sum = 0.0
    empty = False
    for gen_doc, gold_doc, table in zip(generated, gold, tables):
        rel_gen = extract_relations(gen_doc, frames)
        rel_gold = extract_relations(gold_doc, frames)
        if not rel_gen:
            empty = True
        total_rel += len(rel_gen)
        total_hits += _supported_count(rel_gen, table)
        p, r, f = cs(rel_gen, rel_gold)
        cs_p += p
        cs_r += r
        cs_f += f
        co_sum += co(rel_gen, rel_gold)
    n = len(generated)

    def flat(doc):
        return [t for p in _paragraphs(doc) for t in p]

    return MetricReport(
        rg_count=total_rel / n,
        rg_precision=100.0 * total_hits / total_rel if total_rel else 0.0,
        cs_precision=cs_p / n,
        cs_recall=cs_r / n,
        cs_f=cs_f / n,
        co=co_sum / n,
        bleu=bleu([flat(d) for d in generated], [flat(d) for d in gold]),
        empty_generation=empty,
    )


def report_lines(report: MetricReport) -> list[str]:
    """Human-readable table followed by one machine-readable TSV row."""
    header = " | ".join(f"{c:>8}" for c in MetricReport.COLUMNS)
    values = " | ".join(f"{v:8.2f}" for v in report.row())
    lines = [header, "-" * len(header), values]
    if report.empty_generation:
        lines.append("note: at least one generation produced no relations")
    lines.append("\t".join(MetricReport.COLUMNS))
    lines.append("\t".join(f"{v:.2f}" for v in report.row()))
    return lines
