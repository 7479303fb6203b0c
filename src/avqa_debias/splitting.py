"""Head/tail distribution-shift construction from answer frequencies.

Groups of (task, question_type) samples are kept only when their answer
distribution is imbalanced, measured by normalized Shannon entropy below
a threshold (default 0.9). Within a kept group an answer class is *tail*
when its count is at most ``tail_factor`` times the mean class count
(default 1.2), and *head* otherwise; two-answer groups instead label the
strictly less frequent answer as tail.

A two-answer tie and a single-answer group both have normalized entropy
exactly 1.0, and the threshold is at most 1.0, so ``assign_splits`` always
skips them; ``split_head_tail`` called on either raises ``SplitError``.
Each group's decision lives in one ``GroupReport``: its distribution and,
when the group is retained, the labels and the rule.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring
from typing import IO, Iterable, NamedTuple

from .data import (
    GROUP_KEYS,
    ID_ROWS,
    CorpusError,
    GroupKey,
    IdentityEnum,
    QASample,
    QuestionType,
    Task,
    as_gold,
    group_samples,  # not called here; the benchmark's tracer looks it up in this module
    read_id_rows,
    write_lines,
)


class SplitLabel(IdentityEnum):
    HEAD = "head"
    TAIL = "tail"


class SplitRule(IdentityEnum):
    GENERAL_THRESHOLD = "general_threshold"
    TWO_ANSWER_LOW_FREQUENCY = "two_answer_low_frequency"


_LABELS = {m.value: m for m in SplitLabel}
_RULES = {m.value: m for m in SplitRule}


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SplitConfig:
    entropy_threshold: float = 0.9
    tail_factor: float = 1.2

    def __post_init__(self):
        if not 0.0 < self.entropy_threshold <= 1.0:
            raise ValueError("entropy_threshold must be in (0, 1]")
        if not (math.isfinite(self.tail_factor) and self.tail_factor > 0):
            raise ValueError(f"tail_factor must be finite and positive, not {self.tail_factor}")

    def tail_factor_exact(self) -> Fraction:
        # str() round-trips the decimal the user wrote, so 1.2 becomes 6/5
        # and the count <= factor * mean comparison stays exact for
        # integer counts.
        return Fraction(str(self.tail_factor))


@dataclass(frozen=True)
class AnswerDistribution:
    group: GroupKey
    counts: dict[str, int]
    total: int = field(init=False)
    class_count: int = field(init=False)
    entropy: float = field(init=False)  # nats
    normalized_entropy: float = field(init=False)

    def __post_init__(self):
        if not self.counts:
            raise SplitError(f"empty answer distribution for group {self.group}")
        if any(c < 1 for c in self.counts.values()):
            raise SplitError("zero or negative answer counts are not representable")
        total = sum(self.counts.values())
        n = len(self.counts)
        h = 0.0
        for c in self.counts.values():
            p = c / total
            h -= p * math.log(p)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "class_count", n)
        object.__setattr__(self, "entropy", h)
        # A single-class group is trivially "balanced": normalized entropy
        # is pinned to 1 so any threshold < 1 excludes it.
        hbar = 1.0 if n == 1 else h / math.log(n)
        object.__setattr__(self, "normalized_entropy", hbar)

    @property
    def mean_count(self) -> Fraction:
        return Fraction(self.total, self.class_count)


class SplitDecision(NamedTuple):
    """The split of one answer class of one group. Its first two fields are
    the ``(GroupKey, answer)`` a gold sample of that class has; every row of
    the class shares one decision."""

    group: GroupKey
    answer_class: str
    label: SplitLabel
    rule: SplitRule


@dataclass
class GroupReport:
    """One group's split decision; ``labels`` and ``rule`` are None for a skipped group."""

    distribution: AnswerDistribution
    labels: dict[str, SplitLabel] | None
    rule: SplitRule | None

    @property
    def retained(self) -> bool:
        return self.labels is not None


@dataclass
class SplitResult:
    assignments: dict[str, SplitDecision]  # sample id -> its decision, in corpus order
    group_reports: list[GroupReport]

    @property
    def skipped_groups(self) -> list[GroupKey]:
        return [r.distribution.group for r in self.group_reports if not r.retained]


def answer_distribution(samples: list[QASample]) -> AnswerDistribution:
    """Answer-class histogram and entropy statistics for one group."""
    if not samples:
        raise SplitError("cannot build an answer distribution from an empty group")
    group = samples[0].group
    mixed = next((s.group for s in samples if s.group != group), None)
    if mixed is not None:
        raise SplitError(f"mixed groups in one distribution: {group} vs {mixed}")
    return AnswerDistribution(group=group, counts=dict(Counter(s.answer for s in samples)))


def select_imbalanced_groups(
    dists: list[AnswerDistribution], cfg: SplitConfig = SplitConfig()
) -> list[AnswerDistribution]:
    """Keep groups whose normalized entropy is strictly below the threshold."""
    return [d for d in dists if d.normalized_entropy < cfg.entropy_threshold]


def split_head_tail(
    dist: AnswerDistribution, cfg: SplitConfig = SplitConfig()
) -> tuple[dict[str, SplitLabel], SplitRule]:
    """Label each answer class of one retained group as head or tail."""
    if dist.class_count == 1:
        raise SplitError(
            f"group {dist.group} has a single answer class; no shift is definable"
        )
    if dist.class_count == 2:
        (a, ca), (b, cb) = sorted(dist.counts.items())
        if ca == cb:
            raise SplitError(
                f"group {dist.group}: two answer classes with equal counts; "
                "the low-frequency rule cannot break the tie"
            )
        if ca < cb:
            labels = {a: SplitLabel.TAIL, b: SplitLabel.HEAD}
        else:
            labels = {a: SplitLabel.HEAD, b: SplitLabel.TAIL}
        return labels, SplitRule.TWO_ANSWER_LOW_FREQUENCY

    cutoff = cfg.tail_factor_exact() * dist.mean_count
    labels = {
        cls: (SplitLabel.TAIL if Fraction(c) <= cutoff else SplitLabel.HEAD)
        for cls, c in dist.counts.items()
    }
    return labels, SplitRule.GENERAL_THRESHOLD


def assign_splits(
    corpus: dict[str, tuple[GroupKey, str]] | list[QASample], cfg: SplitConfig = SplitConfig()
) -> SplitResult:
    """Run the full pipeline: count answers, measure entropy, filter, label samples.

    ``corpus`` is ``data.read_gold``'s map, or samples that ``data.as_gold``
    maps so. ``assignments`` maps each labelled sample's id to its decision,
    in corpus order; samples in excluded (balanced) groups get none, and
    their groups are listed in ``skipped_groups``. Deterministic given
    corpus order. The rows of one (group, answer) share one
    ``SplitDecision``, and the map is built in bulk, with no Python code run
    per row.
    """
    gold = as_gold(corpus)
    if not gold:
        raise SplitError("empty corpus")
    counts: dict[GroupKey, dict[str, int]] = {}
    for (group, answer), n in Counter(gold.values()).items():
        counts.setdefault(group, {})[answer] = n
    reports, decisions = [], {}
    for group, by_answer in sorted(counts.items()):
        dist = AnswerDistribution(group, by_answer)
        reports.append(report := GroupReport(dist, labels=None, rule=None))
        if select_imbalanced_groups([dist], cfg):
            report.labels, report.rule = split_head_tail(dist, cfg)
            for answer, label in report.labels.items():
                decisions[group, answer] = SplitDecision(group, answer, label, report.rule)
    kept = list(map(decisions.get, gold.values()))  # a decision, or None for a skipped row
    assignments = dict(zip(compress(gold, kept), filter(None, kept)))
    return SplitResult(assignments=assignments, group_reports=reports)


def write_splits(assignments: dict[str, SplitDecision], stream: IO[bytes]) -> None:
    """Write a map of sample ids to decisions as JSONL, in map order, by
    ``data.write_lines``: id, task, question_type, answer, split, rule.

    Each line is the text ``json.dumps(obj, ensure_ascii=False)`` gives for
    the row's object. The fields after ``id`` are encoded once per decision,
    and the id by the string encoder ``json.dumps`` uses.
    """
    suffixes: dict[SplitDecision, str] = {}

    def suffix(decision: SplitDecision) -> str:
        group, answer, label, rule = decision
        suffixes[decision] = text = json.dumps({
            "task": group.task.value,
            "question_type": group.question_type.value,
            "answer": answer,
            "split": label.value,
            "rule": rule.value,
        }, ensure_ascii=False)[1:]
        return text

    def lines(chunk: Iterable[tuple[str, SplitDecision]]) -> list[str]:
        return [f'{{"id": {encode_basestring(sid)}, {suffixes.get(d) or suffix(d)}\n'
                for sid, d in chunk]

    write_lines(assignments.items(), lines, stream)


def _decision(obj: dict) -> SplitDecision:
    """The decision a splits row spells; an unknown or unhashable value is the
    ValueError its enum constructor raises, and a missing field a KeyError,
    reading the fields in file order."""
    try:
        group = GROUP_KEYS[obj["task"], obj["question_type"]]
        label, answer, rule = _LABELS[obj["split"]], obj["answer"], _RULES[obj["rule"]]
    except (KeyError, TypeError):  # the constructors raise the error to report
        group = GroupKey(Task(obj["task"]), QuestionType(obj["question_type"]))
        label, answer, rule = SplitLabel(obj["split"]), obj["answer"], SplitRule(obj["rule"])
    if not isinstance(answer, str) or not answer:
        raise ValueError("answer must be a nonempty string")
    return SplitDecision(group, answer, label, rule)


def read_splits(stream: IO[bytes]) -> dict[str, SplitDecision]:
    """Map each sample id of a splits JSONL file, read by ``data.read_id_rows``,
    to its ``SplitDecision``, in file order.

    The rows that spell one (task, question_type, answer, split, rule)
    share one ``SplitDecision``, checked once; a line whose text after a
    plain id repeats an earlier line's is not decoded again. A row's id is
    checked to be a string, then its decision, then its id to be nonempty,
    each fault an invalid splits record. A duplicate id is an error at the
    line of its second copy, as ``data.duplicate_id`` reports it: counting
    a sample twice would change the reported accuracy.
    """
    decisions: dict[tuple, SplitDecision] = {}  # by the raw strings of a row's fields

    def row(obj: dict, lineno: int) -> tuple[str, SplitDecision]:
        try:
            sid = obj["id"]
            if not isinstance(sid, str):
                raise ValueError("id must be a string")
            try:
                key = obj["task"], obj["question_type"], obj["answer"], obj["split"], obj["rule"]
                decision = decisions[key]
            except (KeyError, TypeError):
                # A new key; or a missing field or an unhashable value, for
                # which _decision raises before anything is stored.
                decision = decisions[key] = _decision(obj)
            if not sid:
                raise ValueError("id must be a nonempty string")
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"invalid splits record: {exc}", lineno) from exc
        return sid, decision

    return read_id_rows(stream, ID_ROWS, row)


def group_report_json(result: SplitResult) -> dict:
    """Side-channel per-group statistics: entropy, mean count, retained flag, labels."""
    groups = []
    for rep in result.group_reports:
        dist = rep.distribution
        groups.append(
            {
                "task": dist.group.task.value,
                "question_type": dist.group.question_type.value,
                "class_count": dist.class_count,
                "total": dist.total,
                "entropy_nats": dist.entropy,
                "normalized_entropy": dist.normalized_entropy,
                "mean_count": float(dist.mean_count),
                "retained": rep.retained,
                "rule": rep.rule.value if rep.rule else None,
                "labels": {k: v.value for k, v in sorted(rep.labels.items())} if rep.labels else None,
            }
        )
    return {"schema_version": 1, "groups": groups}
