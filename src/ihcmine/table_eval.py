"""Score predicted profile tables against gold tables.

The verdict is an automatic proxy for a three-level human judgment and is
labelled as such in reports: Correct means every gold cell matched with no
spurious cells; Wrong means cell-F1 below a threshold (default 0.25, kept
in one constant and surfaced as a flag); everything between is
PartiallyCorrect.

Counts that were derived from a percentage in the source abstract get a
+/-1 tolerance on the positives (same total), mirroring how a human reader
treats 83% of 155 being reported as either 128 or 129.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Sequence

from .domain import CellValue
from .errors import ValidationError
from .tables import ProfileTable, split_marker_column

WRONG_F1_THRESHOLD = Fraction(1, 4)
ROW_SIMILARITY_THRESHOLD = 0.8
GENERIC_QUALIFIERS = frozenset({None, "ihc"})

_PERCENT_RE = re.compile(r"(\d+(?:\.\d+)?)\s*%")


class Verdict(str, Enum):
    CORRECT = "Correct"
    PARTIALLY_CORRECT = "PartiallyCorrect"
    WRONG = "Wrong"


@dataclass(frozen=True)
class TableScore:
    matched_cells: int
    gold_cells: int
    pred_cells: int
    precision: Fraction
    recall: Fraction
    f1: Fraction
    exact: bool
    verdict: Verdict


@dataclass(frozen=True)
class CellContext:
    gold_percent_derived: bool = False
    pred_percent_derived: bool = False


def _norm(text: str) -> str:
    return " ".join(text.lower().split())


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def row_similarity(a: str, b: str) -> float:
    """Edit similarity over token-sorted normalized strings.

    Sorting tokens first makes word reorderings ("renal clear cell
    carcinoma" vs "clear cell renal cell carcinoma") score high, which is
    how aligned readers treat them.
    """
    sa = " ".join(sorted(_norm(a).split()))
    sb = " ".join(sorted(_norm(b).split()))
    if not sa and not sb:
        return 1.0
    longest = max(len(sa), len(sb))
    return 1.0 - _levenshtein(sa, sb) / longest


def _row_string(table: ProfileTable, idx: int) -> str:
    row = table.rows[idx]
    site = row.tumour_site or ""
    return f"{row.tumour_type} {site}".strip()


def align_rows(
    gold: ProfileTable,
    pred: ProfileTable,
    threshold: float = ROW_SIMILARITY_THRESHOLD,
) -> list[tuple[int, int]]:
    """One-to-one partial matching of gold rows to pred rows.

    Pass 1 pairs rows whose normalized (tumour_type, tumour_site) are
    equal; pass 2 pairs leftovers greedily by descending similarity, at or
    above the threshold. Unmatched rows stay unpaired.
    """
    pairs: list[tuple[int, int]] = []
    free_gold = list(range(len(gold.rows)))
    free_pred = list(range(len(pred.rows)))

    def key(table: ProfileTable, idx: int) -> tuple[str, str]:
        row = table.rows[idx]
        return _norm(row.tumour_type), _norm(row.tumour_site or "")

    for gi in list(free_gold):
        gkey = key(gold, gi)
        for pi in free_pred:
            if key(pred, pi) == gkey:
                pairs.append((gi, pi))
                free_gold.remove(gi)
                free_pred.remove(pi)
                break

    candidates = sorted(
        (
            (-row_similarity(_row_string(gold, gi), _row_string(pred, pi)), gi, pi)
            for gi in free_gold
            for pi in free_pred
        ),
    )
    for neg_sim, gi, pi in candidates:
        if -neg_sim < threshold:
            break
        if gi in free_gold and pi in free_pred:
            pairs.append((gi, pi))
            free_gold.remove(gi)
            free_pred.remove(pi)
    return sorted(pairs)


def percent_values(text: str) -> list[float]:
    return [float(m) for m in _PERCENT_RE.findall(text)]


def _percent_derived(cell: CellValue, percents: Sequence[float]) -> bool:
    if cell.is_missing:
        return False
    count = cell.count
    return any(abs(count.positives - p * count.total / 100.0) < 1.0 for p in percents)


def cell_match(gold_cell: CellValue, pred_cell: CellValue, context: CellContext) -> bool:
    """Missing matches Missing only; counts match exactly, or within one
    positive case when either side is percent-derived and totals agree."""
    if gold_cell.is_missing or pred_cell.is_missing:
        return gold_cell.is_missing and pred_cell.is_missing
    g, p = gold_cell.count, pred_cell.count
    if g == p:
        return True
    if (
        (context.gold_percent_derived or context.pred_percent_derived)
        and g.total == p.total
        and abs(g.positives - p.positives) <= 1
    ):
        return True
    return False


def _matched_cells(
    gold: ProfileTable,
    pred: ProfileTable,
    row_pairs: Sequence[tuple[int, int]],
    column_pairs: Sequence[tuple[str, str]],
    gold_flags: dict[tuple[int, str], bool],
    pred_flags: dict[tuple[int, str], bool],
) -> int:
    """How many cells of the paired rows and columns ``cell_match`` accepts."""
    matched = 0
    for gi, pi in row_pairs:
        for gname, pname in column_pairs:
            gcell = gold.rows[gi].cells.get(gname, CellValue())
            pcell = pred.rows[pi].cells.get(pname, CellValue())
            ctx = CellContext(
                gold_percent_derived=gold_flags.get((gi, gname), False),
                pred_percent_derived=pred_flags.get((pi, pname), False),
            )
            matched += cell_match(gcell, pcell, ctx)
    return matched


def _column_key(name: str) -> tuple[str, str | None]:
    col = split_marker_column(name)
    qualifier = col.qualifier.lower() if col.qualifier else None
    return _norm(col.base_marker), qualifier


def _pair_columns(
    gold: ProfileTable,
    pred: ProfileTable,
    row_pairs: Sequence[tuple[int, int]],
    gold_flags: dict[tuple[int, str], bool],
    pred_flags: dict[tuple[int, str], bool],
) -> list[tuple[str, str]]:
    """One-to-one column pairing on (base_marker, qualifier).

    Exact (base, qualifier) matches pair first. A pred column with a
    generic qualifier (none, or the placeholder "IHC") may then pair with
    any remaining gold column of the same base marker, choosing the gold
    column whose cells it matches best; two different specific qualifiers
    never pair.
    """
    gold_keys = {name: _column_key(name) for name in gold.marker_columns}
    pred_keys = {name: _column_key(name) for name in pred.marker_columns}
    free_gold = list(gold.marker_columns)
    column_pairs: list[tuple[str, str]] = []

    unpaired_pred = []
    for pname in pred.marker_columns:
        exact = next((g for g in free_gold if gold_keys[g] == pred_keys[pname]), None)
        if exact is not None:
            column_pairs.append((exact, pname))
            free_gold.remove(exact)
        else:
            unpaired_pred.append(pname)

    for pname in unpaired_pred:
        base, qualifier = pred_keys[pname]
        if qualifier not in GENERIC_QUALIFIERS:
            continue
        candidates = [g for g in free_gold if gold_keys[g][0] == base]
        if not candidates:
            continue
        matches = {g: _matched_cells(gold, pred, row_pairs, [(g, pname)], gold_flags, pred_flags) for g in candidates}
        best = max(candidates, key=lambda g: (matches[g], -gold.marker_columns.index(g)))
        column_pairs.append((best, pname))
        free_gold.remove(best)

    return column_pairs


def _percent_flags(table: ProfileTable, percents: Sequence[float]) -> dict[tuple[int, str], bool]:
    flags: dict[tuple[int, str], bool] = {}
    if not percents:
        return flags
    for idx, row in enumerate(table.rows):
        for name, cell in row.cells.items():
            if _percent_derived(cell, percents):
                flags[(idx, name)] = True
    return flags


def score(
    gold: ProfileTable,
    pred: ProfileTable,
    source_text: str | None = None,
    wrong_threshold: Fraction = WRONG_F1_THRESHOLD,
    row_threshold: float = ROW_SIMILARITY_THRESHOLD,
) -> TableScore:
    """Cell-level score of one predicted table against its gold table.

    When the source abstract is supplied, counts that a percentage in it
    could have produced are flagged percent-derived; without it, strict
    count equality applies.
    """
    percents = percent_values(source_text) if source_text else []
    gold_flags = _percent_flags(gold, percents)
    pred_flags = _percent_flags(pred, percents)

    row_pairs = align_rows(gold, pred, threshold=row_threshold)
    column_pairs = _pair_columns(gold, pred, row_pairs, gold_flags, pred_flags)

    matched = _matched_cells(gold, pred, row_pairs, column_pairs, gold_flags, pred_flags)
    gold_cells = len(gold.rows) * len(gold.marker_columns)
    pred_cells = len(pred.rows) * len(pred.marker_columns)
    precision = Fraction(matched, pred_cells) if pred_cells else Fraction(1)
    recall = Fraction(matched, gold_cells) if gold_cells else Fraction(1)
    f1 = Fraction(2 * matched, gold_cells + pred_cells) if (gold_cells + pred_cells) else Fraction(1)
    exact = matched == gold_cells == pred_cells

    if exact:
        verdict = Verdict.CORRECT
    elif f1 < wrong_threshold:
        verdict = Verdict.WRONG
    else:
        verdict = Verdict.PARTIALLY_CORRECT
    return TableScore(
        matched_cells=matched,
        gold_cells=gold_cells,
        pred_cells=pred_cells,
        precision=precision,
        recall=recall,
        f1=f1,
        exact=exact,
        verdict=verdict,
    )


@dataclass
class EvalSummary:
    count: int
    histogram: dict[str, int]
    percents: dict[str, str]
    mean_f1: Fraction
    scores: list[tuple[str, TableScore]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "histogram": dict(self.histogram),
            "percents": dict(self.percents),
            "mean_f1": float(self.mean_f1),
            "verdict_is_automatic_proxy": True,
            "scores": [
                {
                    "pmid": pmid,
                    "verdict": s.verdict.value,
                    "f1": float(s.f1),
                    "matched_cells": s.matched_cells,
                    "gold_cells": s.gold_cells,
                    "pred_cells": s.pred_cells,
                    "exact": s.exact,
                }
                for pmid, s in self.scores
            ],
        }


def evaluate_set(
    pairs: Sequence[tuple[ProfileTable, ProfileTable]],
    source_texts: dict[str, str] | None = None,
    wrong_threshold: Fraction = WRONG_F1_THRESHOLD,
    row_threshold: float = ROW_SIMILARITY_THRESHOLD,
) -> EvalSummary:
    """Verdict histogram (percentages at one decimal) and mean F1 over pairs."""
    from .domain import format_percent

    if not pairs:
        raise ValidationError("evaluate_set needs at least one (gold, pred) pair")
    histogram = {v.value: 0 for v in Verdict}
    scores: list[tuple[str, TableScore]] = []
    total_f1 = Fraction(0)
    for gold, pred in pairs:
        if gold.pmid != pred.pmid:
            raise ValidationError(f"pmid mismatch in pair: {gold.pmid!r} vs {pred.pmid!r}")
        text = (source_texts or {}).get(gold.pmid)
        result = score(gold, pred, source_text=text, wrong_threshold=wrong_threshold, row_threshold=row_threshold)
        histogram[result.verdict.value] += 1
        total_f1 += result.f1
        scores.append((gold.pmid, result))
    n = len(pairs)
    percents = {name: format_percent(Fraction(100 * count, n), 1) for name, count in histogram.items()}
    return EvalSummary(
        count=n,
        histogram=histogram,
        percents=percents,
        mean_f1=total_f1 / n,
        scores=scores,
    )
