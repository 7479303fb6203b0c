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
from json.encoder import encode_basestring
from typing import IO, NamedTuple

from .data import (
    GROUP_KEYS,
    CorpusError,
    GroupKey,
    IdentityEnum,
    QASample,
    QuestionType,
    Task,
    as_gold,
    group_samples,  # not called here; the benchmark's tracer looks it up in this module
    read_id_rows,
)


class SplitLabel(IdentityEnum):
    HEAD = "head"
    TAIL = "tail"


class SplitRule(IdentityEnum):
    GENERAL_THRESHOLD = "general_threshold"
    TWO_ANSWER_LOW_FREQUENCY = "two_answer_low_frequency"


_LABELS = {m.value: m for m in SplitLabel}
_RULES = {m.value: m for m in SplitRule}


# Lines per write of ``write_splits``: a bounded chunk, so the encoded
# text of a whole file is never held at once.
_CHUNK_LINES = 4096


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


class SplitAssignment(NamedTuple):
    """One sample's split: its id and its answer class's shared decision."""

    sample_id: str
    decision: SplitDecision


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
    assignments: list[SplitAssignment]
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
    maps so. Samples in excluded (balanced) groups get no assignment; their
    groups are listed in ``skipped_groups``. Deterministic given corpus order.
    The rows of one (group, answer) share one ``SplitDecision``.
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
    rows = zip(gold, map(decisions.get, gold.values()))
    assignments = [SplitAssignment(sid, decision) for sid, decision in rows if decision is not None]
    return SplitResult(assignments=assignments, group_reports=reports)


def write_splits(assignments: list[SplitAssignment], stream: IO[bytes]) -> None:
    """Write assignments as JSONL: id, task, question_type, answer, split, rule.

    Each line is the text ``json.dumps(obj, ensure_ascii=False)`` gives for
    the row's object. The fields after ``id`` are encoded once per decision,
    and the id by the string encoder ``json.dumps`` uses. Each line is
    encoded to UTF-8 on its own, and the lines go out ``_CHUNK_LINES`` per
    write; a line that cannot be encoded (a lone surrogate) raises after
    the lines before it are written, as from a per-row writer.
    """
    suffixes: dict[SplitDecision, str] = {}
    for start in range(0, len(assignments), _CHUNK_LINES):
        lines: list[bytes] = []
        try:
            for sid, decision in assignments[start : start + _CHUNK_LINES]:
                suffix = suffixes.get(decision)
                if suffix is None:
                    group, answer, label, rule = decision
                    suffix = suffixes[decision] = json.dumps({
                        "task": group.task.value,
                        "question_type": group.question_type.value,
                        "answer": answer,
                        "split": label.value,
                        "rule": rule.value,
                    }, ensure_ascii=False)[1:]
                lines.append(f'{{"id": {encode_basestring(sid)}, {suffix}\n'.encode("utf-8"))
        finally:
            stream.write(b"".join(lines))


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
    plain id repeats an earlier line's is not decoded again. An empty id is
    an error, and so is a duplicate id, raised at the line of its second
    copy: counting a sample twice would change the reported accuracy.
    """
    out: dict[str, SplitDecision] = {}
    decisions: dict[tuple, SplitDecision] = {}  # by the raw strings of a row's fields
    seen: dict[str, int] = {}

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
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"invalid splits record: {exc}", lineno) from exc
        return sid, decision

    for lineno, (sid, decision) in read_id_rows(stream, row):
        if not sid:
            raise CorpusError("invalid splits record: id must be a nonempty string", lineno)
        first = seen.setdefault(sid, lineno)
        if first != lineno:
            raise CorpusError(f"duplicate id {sid!r} (first seen on line {first})", lineno)
        out[sid] = decision
    return out


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
