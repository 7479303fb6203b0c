"""Head/tail/overall accuracy scoring and inter-annotator agreement.

Accuracy is bookkept with exact rationals and only rounded when a report
is rendered, so aggregate figures are reproducible bit-for-bit.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .data import GroupKey, QASample, Task, as_gold
from .splitting import SplitAssignment, SplitDecision, SplitLabel

SCHEMA_VERSION = 1


class ScoringError(ValueError):
    """Invalid scoring input; ``sample_id`` names the split assignment at fault, if one is."""

    def __init__(self, message: str, sample_id: str | None = None):
        super().__init__(message)
        self.sample_id = sample_id


def normalize_answer(text: str) -> str:
    """Trim ASCII whitespace and lowercase; no stemming or synonyms."""
    return text.strip(" \t\r\n\f\v").lower()


@dataclass
class AccuracyCell:
    head_correct: int = 0
    head_n: int = 0
    tail_correct: int = 0
    tail_n: int = 0

    def add(self, label: SplitLabel, correct: bool, count: int = 1) -> None:
        """Count ``count`` rows of one split label, all right or all wrong."""
        if label is SplitLabel.HEAD:
            self.head_n += count
            self.head_correct += count if correct else 0
        else:
            self.tail_n += count
            self.tail_correct += count if correct else 0

    @property
    def head_acc(self) -> Fraction | None:
        return Fraction(self.head_correct, self.head_n) if self.head_n else None

    @property
    def tail_acc(self) -> Fraction | None:
        return Fraction(self.tail_correct, self.tail_n) if self.tail_n else None

    @property
    def overall_acc(self) -> Fraction | None:
        n = self.head_n + self.tail_n
        if n == 0:
            return None
        return Fraction(self.head_correct + self.tail_correct, n)


@dataclass
class RobustnessReport:
    per_group: dict[GroupKey, AccuracyCell]
    per_task: dict[Task, AccuracyCell]
    aggregate: AccuracyCell
    unmatched_ids: list[str]
    warnings: list[str] = field(default_factory=list)


def _outcomes(splits, gold, preds, unmatched):
    """Yield (decision, normalized prediction or None) for each assignment,
    and put the id of each assignment without a prediction in ``unmatched``.
    Each distinct prediction string is normalized once."""
    normalized: dict[str, str] = {}
    for sid, decision in splits:
        record = gold.get(sid)
        if record is None:
            raise ScoringError(f"split assignment refers to unknown sample id {sid!r}", sid)
        if decision[:2] != record:
            raise ScoringError(
                f"split assignment {sid!r} ({decision.group}, answer "
                f"{decision.answer_class!r}) disagrees with the gold sample ({record[0]}, "
                f"answer {record[1]!r})", sid)
        predicted = preds.get(sid)
        if predicted is None:
            unmatched.append(sid)
            yield decision, None
            continue
        ours = normalized.get(predicted)
        if ours is None:
            ours = normalized[predicted] = normalize_answer(predicted)
        yield decision, ours


def score_predictions(
    gold: dict[str, tuple[GroupKey, str]] | list[QASample],
    splits: dict[str, SplitDecision] | list[SplitAssignment],
    preds: dict[str, str],
) -> RobustnessReport:
    """Score predictions over the samples that carry a head/tail label.

    ``gold`` is ``data.read_gold``'s map of each sample id to its
    ``(GroupKey, answer)``, or samples that ``data.as_gold`` maps so.
    ``splits`` is ``splitting.read_splits``'s map of each sample id to its
    decision, or a list of ``(id, decision)`` assignments.

    A sample is correct iff the prediction matches the gold answer after
    whitespace trimming and lowercasing. Samples with no prediction count
    as incorrect and are listed in ``unmatched_ids``. An assignment whose
    group or answer disagrees with its gold sample is an error.

    Rows are tallied by their decision and normalized prediction, so each
    answer string is normalized once and each distinct pair is judged
    right or wrong once. The cells are built from the tallies once, and
    integer sums keep them exact.
    """
    gold = as_gold(gold)
    warnings = [f"prediction id {pid!r} not in gold corpus" for pid in preds if pid not in gold]
    unmatched: list[str] = []
    pairs = splits.items() if isinstance(splits, dict) else splits
    tally = Counter(_outcomes(pairs, gold, preds, unmatched))

    per_group: dict[GroupKey, AccuracyCell] = {}
    per_task: dict[Task, AccuracyCell] = {}
    aggregate = AccuracyCell()
    for ((group, answer, label, _), predicted), count in tally.items():
        correct = predicted == normalize_answer(answer)
        per_group.setdefault(group, AccuracyCell()).add(label, correct, count)
        per_task.setdefault(group.task, AccuracyCell()).add(label, correct, count)
        aggregate.add(label, correct, count)
    return RobustnessReport(
        per_group=dict(sorted(per_group.items())),
        per_task=dict(sorted(per_task.items(), key=lambda kv: kv[0].value)),
        aggregate=aggregate,
        unmatched_ids=unmatched,
        warnings=warnings,
    )


@dataclass(frozen=True)
class VoteTable:
    """Per-item category vote counts from a fixed panel of raters.

    ``multiplicities[i]`` says how many items share the vote pattern
    ``rows[i]``; omit it for one item per row.
    """

    raters: int
    rows: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.raters < 2:
            raise ScoringError("at least 2 raters are required")
        if not self.rows:
            raise ScoringError("vote table needs at least one row")
        k = len(self.rows[0])
        if k < 2:
            raise ScoringError("at least 2 categories are required")
        for row in self.rows:
            if len(row) != k:
                raise ScoringError("ragged vote table")
            if any(c < 0 for c in row):
                raise ScoringError(f"row {row} has a negative vote count")
            if sum(row) != self.raters:
                raise ScoringError(f"row {row} does not sum to {self.raters} raters")
        if self.multiplicities is not None:
            if len(self.multiplicities) != len(self.rows):
                raise ScoringError("multiplicities must align with rows")
            if any(m < 1 for m in self.multiplicities):
                raise ScoringError("multiplicities must be positive")

    @property
    def categories(self) -> int:
        return len(self.rows[0])

    @property
    def item_count(self) -> int:
        if self.multiplicities is None:
            return len(self.rows)
        return sum(self.multiplicities)


def fleiss_kappa(table: VoteTable) -> float:
    """Chance-corrected agreement for many raters over nominal categories.

    kappa = (P_bar - Pe_bar) / (1 - Pe_bar), computed exactly in rationals
    before the final float conversion. Perfect agreement with degenerate
    chance (Pe_bar = 1) returns 1.0; Pe_bar = 1 with imperfect agreement
    is undefined and raises.
    """
    n = table.raters
    mult = table.multiplicities or tuple(1 for _ in table.rows)
    n_items = table.item_count

    p_bar = Fraction(0)
    col_totals = [0] * table.categories
    for row, m in zip(table.rows, mult):
        agree = Fraction(sum(c * c for c in row) - n, n * (n - 1))
        p_bar += m * agree
        for j, c in enumerate(row):
            col_totals[j] += m * c
    p_bar /= n_items

    pe_bar = sum(Fraction(t, n_items * n) ** 2 for t in col_totals)
    if pe_bar == 1:
        if p_bar == 1:
            return 1.0
        raise ScoringError("chance agreement is 1 but observed agreement is not; kappa undefined")
    return float((p_bar - pe_bar) / (1 - pe_bar))


def _pct(x: Fraction | None) -> str:
    return "  --  " if x is None else f"{float(x) * 100:6.2f}"


def _acc_json(x: Fraction | None) -> float | None:
    return None if x is None else round(float(x), 4)


def _cell_json(cell: AccuracyCell) -> dict:
    return {
        "head_acc": _acc_json(cell.head_acc),
        "tail_acc": _acc_json(cell.tail_acc),
        "overall_acc": _acc_json(cell.overall_acc),
        "head_n": cell.head_n,
        "tail_n": cell.tail_n,
    }


def _table_row(name: str, cell: AccuracyCell) -> str:
    return (f"| {name:<24} | {_pct(cell.head_acc)} | {_pct(cell.tail_acc)} "
            f"| {_pct(cell.overall_acc)} | {cell.head_n:>7} | {cell.tail_n:>7} |")


def render_report(report: RobustnessReport, format: str = "text-table") -> bytes:
    """Render a robustness report as an ASCII table or stable JSON."""
    if format == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "per_group": {str(k): _cell_json(v) for k, v in report.per_group.items()},
            "per_task": {k.value: _cell_json(v) for k, v in report.per_task.items()},
            "aggregate": _cell_json(report.aggregate),
            "unmatched_ids": report.unmatched_ids,
            "warnings": report.warnings,
        }
        return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    if format != "text-table":
        raise ScoringError(f"unknown report format {format!r}")

    header = f"| {'Group':<24} | {'H':>6} | {'T':>6} | {'Avg.':>6} | {'head_n':>7} | {'tail_n':>7} |"
    lines = [header, "|" + "-" * (len(header) - 2) + "|"]
    lines += [_table_row(str(key), cell) for key, cell in report.per_group.items()]
    lines += [_table_row(f"{task.value} (task)", cell) for task, cell in report.per_task.items()]
    lines.append(_table_row("All", report.aggregate))
    return ("\n".join(lines) + "\n").encode("utf-8")
