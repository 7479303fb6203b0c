"""Corpus representation, JSONL ingestion, and structural validation.

A corpus is a list of QA samples, one JSON object per line on disk:

    {"id": "q1", "task": "AVQA", "question_type": "Temporal",
     "question": "...", "answer": "yes", "source_id": "t17"}

``source_id`` is optional and links a rephrased question back to the
template question it was derived from.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import IO, Iterable


class Task(enum.Enum):
    AUDIO_QA = "AudioQA"
    VISUAL_QA = "VisualQA"
    AVQA = "AVQA"


class QuestionType(enum.Enum):
    EXISTENTIAL = "Existential"
    LOCATION = "Location"
    COUNTING = "Counting"
    COMPARATIVE = "Comparative"
    TEMPORAL = "Temporal"


# Task/type combinations actually present in the audio, visual and
# audio-visual QA tasks; anything else is loadable but warned about.
KNOWN_GROUPS = frozenset(
    [
        (Task.AUDIO_QA, QuestionType.COUNTING),
        (Task.AUDIO_QA, QuestionType.COMPARATIVE),
        (Task.VISUAL_QA, QuestionType.COUNTING),
        (Task.VISUAL_QA, QuestionType.LOCATION),
        (Task.AVQA, QuestionType.EXISTENTIAL),
        (Task.AVQA, QuestionType.LOCATION),
        (Task.AVQA, QuestionType.COUNTING),
        (Task.AVQA, QuestionType.COMPARATIVE),
        (Task.AVQA, QuestionType.TEMPORAL),
    ]
)

_TASK_ORDER = {t: i for i, t in enumerate(Task)}
_TYPE_ORDER = {t: i for i, t in enumerate(QuestionType)}

REQUIRED_FIELDS = ("id", "task", "question_type", "question", "answer")


class CorpusError(ValueError):
    """Malformed corpus input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, order=True)
class GroupKey:
    """(task, question_type) pair; ordering is task-major, type-minor."""

    sort_index: tuple[int, int] = field(init=False, repr=False, compare=True)
    task: Task = field(compare=False)
    question_type: QuestionType = field(compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "sort_index", (_TASK_ORDER[self.task], _TYPE_ORDER[self.question_type])
        )

    def __str__(self) -> str:
        return f"{self.task.value}/{self.question_type.value}"


@dataclass(frozen=True)
class QASample:
    id: str
    task: Task
    question_type: QuestionType
    question: str
    answer: str
    source_id: str | None = None

    @property
    def group(self) -> GroupKey:
        return GroupKey(task=self.task, question_type=self.question_type)

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "task": self.task.value,
            "question_type": self.question_type.value,
            "question": self.question,
            "answer": self.answer,
        }
        if self.source_id is not None:
            obj["source_id"] = self.source_id
        return obj


@dataclass
class CorpusStats:
    sample_count: int
    vocabulary: tuple[str, ...]
    per_group_counts: dict[GroupKey, int]
    duplicate_ids: list[str]
    warnings: list[str]


def _decode_line(raw: bytes, lineno: int) -> dict:
    if lineno == 1 and raw.startswith(b"\xef\xbb\xbf"):
        raise CorpusError("byte-order mark not allowed; files must be plain UTF-8", lineno)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"invalid UTF-8: {exc}", lineno) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}", lineno) from exc
    if not isinstance(obj, dict):
        raise CorpusError("each line must be a JSON object", lineno)
    return obj


def _sample_from_obj(obj: dict, lineno: int | None, warnings: list[str] | None) -> QASample:
    for name in REQUIRED_FIELDS:
        if name not in obj:
            raise CorpusError(f"missing required field {name!r}", lineno)
    try:
        task = Task(obj["task"])
    except ValueError:
        raise CorpusError(f"unknown task {obj['task']!r}", lineno) from None
    try:
        qtype = QuestionType(obj["question_type"])
    except ValueError:
        raise CorpusError(f"unknown question_type {obj['question_type']!r}", lineno) from None
    sid = obj["id"]
    if not isinstance(sid, str) or not sid:
        raise CorpusError("id must be a nonempty string", lineno)
    answer = obj["answer"]
    if not isinstance(answer, str) or not answer:
        raise CorpusError("answer must be a nonempty string", lineno)
    unknown = sorted(set(obj) - set(REQUIRED_FIELDS) - {"source_id"})
    if unknown and warnings is not None:
        where = f"line {lineno}: " if lineno is not None else ""
        warnings.append(f"{where}ignored unknown fields: {', '.join(unknown)}")
    return QASample(
        id=sid,
        task=task,
        question_type=qtype,
        question=obj["question"],
        answer=answer,
        source_id=obj.get("source_id"),
    )


def parse_samples(stream: IO[bytes], warnings: list[str] | None = None) -> list[QASample]:
    """Parse a JSONL byte stream into samples, preserving file order.

    Raises CorpusError with a 1-based line number on malformed JSON,
    missing fields, or duplicate ids. Unknown fields are ignored and,
    when a ``warnings`` list is given, recorded there.
    """
    samples: list[QASample] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(stream, start=1):
        raw = raw.rstrip(b"\r\n")
        if not raw.strip():
            continue
        obj = _decode_line(raw, lineno)
        sample = _sample_from_obj(obj, lineno, warnings)
        if sample.id in seen:
            raise CorpusError(
                f"duplicate id {sample.id!r} (first seen on line {seen[sample.id]})", lineno
            )
        seen[sample.id] = lineno
        samples.append(sample)
    return samples


def write_samples(samples: Iterable[QASample], stream: IO[bytes]) -> None:
    """Serialize samples as JSONL (inverse of parse_samples)."""
    for s in samples:
        stream.write(json.dumps(s.to_json_obj(), ensure_ascii=False).encode("utf-8"))
        stream.write(b"\n")


def validate_corpus(samples: list[QASample]) -> CorpusStats:
    """One-pass structural validation; problems land in the stats, not exceptions."""
    vocab: set[str] = set()
    per_group: dict[GroupKey, int] = {}
    seen: dict[str, int] = {}
    duplicates: list[str] = []
    warnings: list[str] = []
    warned_groups: set[GroupKey] = set()
    for i, s in enumerate(samples, start=1):
        vocab.add(s.answer)
        key = s.group
        per_group[key] = per_group.get(key, 0) + 1
        if s.id in seen:
            duplicates.append(s.id)
        else:
            seen[s.id] = i
        pair = (s.task, s.question_type)
        if pair not in KNOWN_GROUPS and key not in warned_groups:
            warned_groups.add(key)
            warnings.append(f"unexpected task/type combination {key}")
    return CorpusStats(
        sample_count=len(samples),
        vocabulary=tuple(sorted(vocab)),
        per_group_counts=dict(sorted(per_group.items())),
        duplicate_ids=duplicates,
        warnings=warnings,
    )


def group_samples(samples: list[QASample]) -> dict[GroupKey, list[QASample]]:
    """Partition samples by (task, question_type); iteration follows GroupKey order."""
    groups: dict[GroupKey, list[QASample]] = {}
    for s in samples:
        groups.setdefault(s.group, []).append(s)
    return dict(sorted(groups.items()))


def parse_predictions(stream: IO[bytes]) -> dict[str, str]:
    """Parse a prediction JSONL file ({"id", "predicted_answer"}) into a map.

    Duplicate prediction ids are an error: silently keeping either copy
    could change the reported accuracy.
    """
    preds: dict[str, str] = {}
    for lineno, raw in enumerate(stream, start=1):
        raw = raw.rstrip(b"\r\n")
        if not raw.strip():
            continue
        obj = _decode_line(raw, lineno)
        for name in ("id", "predicted_answer"):
            if name not in obj:
                raise CorpusError(f"missing required field {name!r}", lineno)
            if not isinstance(obj[name], str):
                raise CorpusError(f"{name} must be a string", lineno)
        if obj["id"] in preds:
            raise CorpusError(f"duplicate prediction id {obj['id']!r}", lineno)
        preds[obj["id"]] = obj["predicted_answer"]
    return preds
