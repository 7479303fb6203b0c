"""Corpus representation, JSONL ingestion, and structural validation.

A corpus is a list of QA samples, one JSON object per line on disk:

    {"id": "q1", "task": "AVQA", "question_type": "Temporal",
     "question": "...", "answer": "yes", "source_id": "t17"}

``source_id`` is optional and links a rephrased question back to the
template question it was derived from.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import pickle
import re
import signal
import stat
import sys
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring
from operator import attrgetter, indexOf, itemgetter
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar


class IdentityEnum(enum.Enum):
    """Members hash by identity, as they compare, and in C: ``Enum.__hash__`` is
    Python code, and per-row tables key on tuples of these members."""

    __hash__ = object.__hash__


@functools.total_ordering
class _DeclarationOrder(IdentityEnum):
    """Members compare by their declaration order."""

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        members = list(type(self))
        return members.index(self) < members.index(other)


class Task(_DeclarationOrder):
    AUDIO_QA = "AudioQA"
    VISUAL_QA = "VisualQA"
    AVQA = "AVQA"


class QuestionType(_DeclarationOrder):
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

REQUIRED_FIELDS = ("id", "task", "question_type", "question", "answer")

T = TypeVar("T")


class CorpusError(ValueError):
    """Malformed corpus input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GroupKey(NamedTuple):
    """(task, question_type) pair, a plain tuple: it hashes and compares equal
    to ``(task, question_type)``, and orders task-major, type-minor, each
    enum by declaration order."""

    task: Task
    question_type: QuestionType

    def __str__(self) -> str:
        return f"{self.task.value}/{self.question_type.value}"


# Every GroupKey, by the pair of strings that spell it on disk. The readers
# decode a row's task and question_type with one lookup here, and call the
# enum constructors only for a pair this table lacks, so that an unknown or
# unhashable value reports the error the constructor gives.
GROUP_KEYS = {(t.value, q.value): GroupKey(t, q) for t in Task for q in QuestionType}


@dataclass(frozen=True, slots=True)
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


# The deepest nesting of arrays and objects a line may have; the outer
# object is level 1. A fixed limit makes the verdict on a line the same
# from any caller: the JSON decoder counts its nesting against the
# interpreter's recursion limit, which the caller's own frames use up.
MAX_DEPTH = 100

# One decoder for every line: raw_decode is the call json.loads makes after
# it skips leading whitespace, without the check for trailing bytes.
_raw_decode = json.JSONDecoder().raw_decode

# A line that raw_decode reads whole has a closing bracket for each opening
# one, so it nests deeper than MAX_DEPTH only if it is longer than this.
_LONG_LINE = 2 * MAX_DEPTH

# A JSON string (its closing quote may be missing) or one bracket.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]')
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _too_deep(text: str) -> bool:
    """Whether the brackets of ``text`` outside its strings nest deeper than MAX_DEPTH."""
    if text.count("[") + text.count("{") <= MAX_DEPTH:
        return False
    depth = 0
    for token in _TOKEN.findall(text):
        depth += _STEP.get(token, 0)
        if depth > MAX_DEPTH:
            return True
    return False


# Bytes per read of a JSONL stream. Each read is cut after its last newline,
# so that a block holds whole lines and is decoded from UTF-8 in one call.
# A block is alive about five times over while its lines are read (the
# read, its copies, the text and the lines), and heap pages freed after
# reading stay resident, so a larger block raises a command's peak memory
# without making it faster.
_BLOCK_BYTES = 1 << 13

# The whitespace ``bytes.strip()`` removes, less the newline that ends a line:
# a line of only these is blank. ``str.strip()`` would remove more.
_BLANK = " \t\r\x0b\x0c"


def _blocks(stream: IO[bytes]) -> Iterator[bytes]:
    """The bytes of ``stream`` as runs of whole lines, without the newline that
    ends each run; a line longer than one read makes a run of its own."""
    pieces: list[bytes] = []
    while chunk := stream.read(_BLOCK_BYTES):
        end = chunk.rfind(b"\n")
        if end < 0:
            pieces.append(chunk)
            continue
        pieces.append(chunk[:end])
        yield b"".join(pieces)
        pieces = [chunk[end + 1 :]]
    if last := b"".join(pieces):
        yield last


def _texts(stream: IO[bytes]) -> Iterator[tuple[str, bool]]:
    """Yield (text, escaped) for each block of a JSONL stream; ``escaped``
    says the block is not valid UTF-8 and was decoded with its bad bytes
    escaped."""
    for block in _blocks(stream):
        try:
            text, escaped = block.decode("utf-8"), False
        except UnicodeDecodeError:
            text, escaped = block.decode("utf-8", "surrogateescape"), True
        yield text, escaped


def _rows(pattern: re.Pattern, block: tuple[str, bool], refused: str) -> list | None:
    """``pattern.findall(text)`` if that has one match per line of a block
    ``(text, escaped)`` from ``_texts`` that is valid UTF-8 and holds no
    character of ``refused``, else None. A pattern anchored to both ends of
    a line matches each line at most once, and a match that runs over two
    lines leaves fewer matches than lines. A block that gets None paid its
    regex pass for nothing, so ``read_id_rows`` reads the rest of its
    stream line by line after one."""
    text, escaped = block
    if escaped or any(map(text.__contains__, refused)):
        return None
    found = pattern.findall(text)
    return found if len(found) == text.count("\n") + 1 else None


def _lines(blocks: Iterable[tuple[str, bool]], decode: Callable[[str, int], T],
           lineno: int = 0, blanks: list[int] | None = None) -> Iterator[tuple[int, T]]:
    """Yield (1-based line number, ``decode(line, line number)``) for each
    nonblank line of the blocks from ``_texts``, which follow ``lineno``
    lines.

    A line loses its trailing carriage returns; blank lines are skipped but
    still counted, and appended to ``blanks`` if it is given. A byte-order
    mark on line 1, or a line that is not valid UTF-8, is a CorpusError
    with the line number. Each line of an escaped block is checked alone,
    so the error names the first bad line, after every line before it has
    been decoded.
    """
    for text, escaped in blocks:
        if lineno == 0 and text.startswith("\ufeff"):  # line 1, which is not blank
            raise CorpusError("byte-order mark not allowed; files must be plain UTF-8", 1)
        cr = "\r" in text
        for lineno, line in enumerate(text.split("\n"), lineno + 1):
            if cr:
                line = line.rstrip("\r")
            if not line.strip(_BLANK):
                if blanks is not None:
                    blanks.append(lineno)
                continue
            if escaped:
                try:  # the line's own bytes, so the message gives its position in the line
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusError(f"invalid UTF-8: {exc}", lineno) from exc
            yield lineno, decode(line, lineno)


def _decode_line(text: str, lineno: int) -> dict:
    """The JSON object on one line; malformed JSON, nesting deeper than
    ``MAX_DEPTH``, a value that is not an object, or a string holding a lone
    surrogate is a CorpusError with the line number.

    The line is decoded by one ``raw_decode`` call, kept only when it read
    the whole line. Any other line (an error, leading or trailing
    whitespace, extra data) goes to ``json.loads``, so every value and
    every error is the one ``json.loads`` gives for that line alone. The
    depth is checked, once, only on a line that goes to ``json.loads`` or
    is longer than ``2 * MAX_DEPTH`` characters, and only a line with a
    ``\\u`` escape, the one way a lone surrogate gets into decoded UTF-8,
    has its strings checked.
    """
    try:
        obj, end = _raw_decode(text)
    except (ValueError, RecursionError):
        end = -1
    n = len(text)
    if (end != n or n > _LONG_LINE) and _too_deep(text):
        raise CorpusError(f"JSON nested deeper than {MAX_DEPTH} levels", lineno)
    if end != n:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed JSON: {exc.msg}", lineno) from exc
        except (ValueError, RecursionError) as exc:  # an over-long integer; a caller near the limit
            raise CorpusError(f"malformed JSON: {exc}", lineno) from exc
    if not isinstance(obj, dict):
        raise CorpusError("each line must be a JSON object", lineno)
    # A one-character search costs a fifth of a two-character one, so
    # only a line with a backslash is searched for a \u escape.
    if "\\" in text and "\\u" in text:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(
                f"lone surrogate {exc.object[exc.start]!r} in a string", lineno
            ) from None
    return obj


def read_jsonl(stream: IO[bytes]) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each nonblank line of a JSONL stream.

    Every line check lives in ``_lines`` (a byte-order mark, invalid UTF-8)
    and ``_decode_line`` (malformed JSON, nesting deeper than ``MAX_DEPTH``,
    a value that is not a JSON object, a lone surrogate); each failure is a
    CorpusError with the line number.
    """
    return _lines(_texts(stream), _decode_line)


# The text of a JSON string that holds no quote, backslash or control
# character: its value is its text, which in valid UTF-8 holds no lone
# surrogate.
_PLAIN = r'[^"\\\x00-\x1f]*'

# A line that starts with a plain id, split into (id, the tail after it).
_ID_ROW = re.compile(rf'^\{{"id": "({_PLAIN})", (.*)$', re.M)

# A corpus line as ``write_samples`` writes it: one JSON object of distinct
# keys at depth 1. The groups are its id, task, question type and answer.
# Its strings are any text up to the next quote, which is plain (``_PLAIN``)
# in a block that holds none of ``_GOLD_REFUSED``, and is matched faster.
_GOLD_ROW = re.compile(
    r'^\{"id": "([^"]*)", "task": "([^"]*)", "question_type": "([^"]*)", '
    r'"question": "[^"]*", "answer": "([^"]*)"(?:, "source_id": "[^"]*")?\}$',
    re.M,
)
# A backslash and every control character but the newline that ends a line.
_GOLD_REFUSED = "\\" + "".join(map(chr, range(0x20))).replace("\n", "")


class RowShape(NamedTuple):
    """A line as its writer writes it, with its id in group 1: matched by
    ``pattern`` in a block that holds none of ``refused``, or by ``line``
    alone. It decodes to its id and what ``key`` of its groups spells, so
    the lines of one ``memoizable`` key get one value and pass every check
    but those on their ids, which ``read_id_rows`` leaves to a row's
    reader for an empty id and makes itself for a duplicate. The memo
    holds at least ``memo_keys`` keys (see ``read_id_rows``)."""

    pattern: re.Pattern
    refused: str
    line: re.Pattern
    key: Callable[[tuple], object]
    memoizable: Callable[[object], bool]
    memo_keys: int


# A line ``{"id": "<id>", <tail>`` with a plain id spells ``{"id": <id>}``
# and what the tail alone spells, unless the tail spells the key ``id``
# (which, with no ``\u`` escape, it can only as ``"id"``) or holds a lone
# surrogate (only by a ``\u`` escape). A block's tail would keep the
# carriage return that a line loses. A file whose tails seldom repeat, such
# as one distinct prediction per row, gains nothing from the memo, so once
# it holds 1,024 tails and more than nine for every ten lines read, every
# later line is decoded. A file of 3,000 tails in random order holds about
# 0.82 per line at 1,024 and keeps them all.
ID_ROWS = RowShape(_ID_ROW, "\r", _ID_ROW, itemgetter(1),
                   lambda tail: "\\u" not in tail and '"id"' not in tail, 1024)

# A corpus line's checks but those on its id are those of its (task,
# question_type, answer), whose records ``_check_row`` keeps in any number.
# Alone, a line is matched with its strings plain, in one regex pass, not
# after a scan for each of ``_GOLD_REFUSED``.
_GOLD_ROWS = RowShape(_GOLD_ROW, _GOLD_REFUSED,
                      re.compile(_GOLD_ROW.pattern.replace('[^"]*', _PLAIN)),
                      itemgetter(1, 2, 3), lambda key: True, sys.maxsize)


def duplicate_id(sid: str, ids: Iterable[str], blanks: list[int], lineno: int) -> CorpusError:
    """The error for the row at ``lineno`` whose id ``sid`` an earlier row
    has, given ``ids``, the ids of the rows before it in line order, and
    ``blanks``, the blank lines before it, in order. The line of the first
    row is worked out only here, so no reader keeps a map of ids to lines."""
    first = indexOf(ids, sid) + 1  # its line, were no line blank
    for blank in blanks:
        if blank > first:
            break
        first += 1
    return CorpusError(f"duplicate id {sid!r} (first seen on line {first})", lineno)


def read_id_rows(
    stream: IO[bytes],
    shape: RowShape,
    row: Callable[[dict, int], tuple[str, T]],
    duplicate: Callable[[str, Iterable[str], list[int], int], CorpusError] = duplicate_id,
) -> dict[str, T]:
    """Map ``id`` to ``value``, in file order, for each nonblank line of a
    JSONL stream whose rows are keyed by ``id``, where ``(id, value) =
    row(obj, lineno)`` for the line's object, read as by ``read_jsonl``.

    ``row`` makes every check of a row but the one for a duplicate id, an
    empty id's included, and raises a CorpusError. A row whose id is
    already mapped raises ``duplicate(id, ids, blanks, lineno)``, with the
    ids before it in line order and the blank lines before it, as
    ``duplicate_id`` takes them.

    The value of a line of the writers' ``shape`` (see ``RowShape``) with a
    nonempty id is memoized by its key, and a later such line with that key
    is not decoded. The memo is full when it reaches its limit, at first
    ``shape.memo_keys``; the limit doubles if the memo then holds at most
    nine tenths of the lines read, so past ``memo_keys`` keys it grows only
    while its keys repeat. Until it is full, each block is split into
    rows by one regex pass (``_rows``), and stored by one ``update`` if the memo
    has every row's value and every id is nonempty and new; otherwise what
    it added is dropped, newest first, and it is read line by line, so that
    any error is its line's. From the first block that is not split, and
    once the memo is full, every line is read line by line.
    """
    pattern, refused, line, key, memoizable, limit = shape
    memo: dict = {}
    out: dict[str, T] = {}
    blanks: list[int] = []

    def decode(text: str, lineno: int) -> tuple[str, T]:
        nonlocal limit
        head = line.match(text) if len(memo) < limit else None
        if head is not None:
            groups = head.groups()
            value = memo.get(known := key(groups))
            if value is not None and groups[0]:  # an empty id goes to ``row``
                return groups[0], value
        sid, value = row(_decode_line(text, lineno), lineno)
        if head is not None and memoizable(known):
            memo[known] = value
            if len(memo) == limit and 10 * limit <= 9 * lineno:
                limit *= 2
        return sid, value

    def store(rows: Iterable[tuple[int, tuple[str, T]]]) -> None:
        for lineno, (sid, value) in rows:
            if sid in out:
                raise duplicate(sid, out, blanks, lineno)
            out[sid] = value

    start, texts = 0, _texts(stream)
    for block in texts:
        rows = _rows(pattern, block, refused) if len(memo) < limit else None
        if rows is None:  # this block and every later one, line by line
            store(_lines(chain([block], texts), decode, start, blanks))
            return out
        n, ids = len(out), list(map(itemgetter(0), rows))
        values = list(map(memo.get, map(key, rows)))
        if None not in values:
            out.update(zip(ids, values))
        if len(out) - n < len(rows) or "" in ids:
            while len(out) > n:
                out.popitem()
            store(_lines([block], decode, start))
        start += len(rows)
    return out


def _check_row(obj: dict, lineno: int, records: dict) -> tuple[str, tuple[GroupKey, str]]:
    """Every check of one corpus row, in a fixed order, but the one for a
    duplicate id, which the caller makes after these; returns the row's id
    and its ``(GroupKey, answer)`` record.

    ``records`` maps each raw ``(task, question_type, answer)`` triple that
    has passed to its record, so the group and answer of a triple are
    checked once and every row with that triple shares one record.
    """
    try:
        sid, task, qtype, question, answer = (
            obj["id"], obj["task"], obj["question_type"], obj["question"], obj["answer"])
    except KeyError:
        missing = next(name for name in REQUIRED_FIELDS if name not in obj)
        raise CorpusError(f"missing required field {missing!r}", lineno) from None
    key = task, qtype, answer
    try:
        record = records.get(key)
    except TypeError:  # an unhashable value; the checks below name it
        record = None
    if record is None:
        try:
            group = GROUP_KEYS[task, qtype]
        except (KeyError, TypeError):  # an unknown or unhashable value; the enums name it
            try:
                task = Task(task)
            except ValueError:
                raise CorpusError(f"unknown task {task!r}", lineno) from None
            try:
                qtype = QuestionType(qtype)
            except ValueError:
                raise CorpusError(f"unknown question_type {qtype!r}", lineno) from None
            group = GroupKey(task, qtype)
    if not isinstance(sid, str) or not sid:
        raise CorpusError("id must be a nonempty string", lineno)
    if record is None:
        if not isinstance(answer, str) or not answer:
            raise CorpusError("answer must be a nonempty string", lineno)
        record = records[key] = (group, answer)
    if not isinstance(question, str):
        raise CorpusError("question must be a string", lineno)
    source_id = obj.get("source_id")
    if source_id is not None and not isinstance(source_id, str):
        raise CorpusError("source_id must be a string or null", lineno)
    return sid, record


def parse_samples(stream: IO[bytes]) -> list[QASample]:
    """Parse a JSONL byte stream into samples, preserving file order.

    Lines are read as by ``read_jsonl``; a missing or invalid field or a
    duplicate id is a CorpusError with the line number. Unknown fields are
    ignored. A set of the ids read so far finds a duplicate; the samples
    list alone has no fast membership test.
    """
    samples: list[QASample] = []
    records: dict = {}
    ids: set[str] = set()
    blanks: list[int] = []
    for lineno, obj in _lines(_texts(stream), _decode_line, 0, blanks):
        sid, (group, answer) = _check_row(obj, lineno, records)
        if sid in ids:
            raise duplicate_id(sid, map(attrgetter("id"), samples), blanks, lineno)
        ids.add(sid)
        samples.append(QASample(sid, *group, obj["question"], answer, obj.get("source_id")))
    return samples


def read_gold(stream: IO[bytes]) -> dict[str, tuple[GroupKey, str]]:
    """Map each sample id of a corpus JSONL stream to its ``(GroupKey, answer)``.

    Each line gets the checks of ``parse_samples``, with the same errors.
    Rows with the same task, question type and answer share one record,
    and nothing else of a row is kept. The lines are read by
    ``read_id_rows``: a line as ``write_samples`` writes it, with no
    backslash or control character, is decoded only if it is the first
    with its raw (task, question_type, answer), since every check of
    ``_check_row`` but the one on its id then holds.
    """
    return read_id_rows(stream, _GOLD_ROWS, functools.partial(_check_row, records={}))


def as_gold(corpus: dict | Iterable[QASample]) -> dict[str, tuple[GroupKey, str]]:
    """``corpus`` as ``read_gold``'s map: a map as it is, or each sample's id to a
    ``(GroupKey, answer)`` record shared, as there, by one (group, answer). A
    duplicate id is a CorpusError: either sample could change a split or an accuracy."""
    if isinstance(corpus, dict):
        return corpus
    gold: dict[str, tuple[GroupKey, str]] = {}
    records: dict[tuple[Task, QuestionType, str], tuple[GroupKey, str]] = {}
    for s in corpus:
        key = s.task, s.question_type, s.answer
        if key not in records:
            records[key] = GROUP_KEYS[s.task.value, s.question_type.value], s.answer
        if s.id in gold:
            raise CorpusError(f"duplicate id {s.id!r}")
        gold[s.id] = records[key]
    return gold


# Lines per write of the JSONL writers. A chunk's lines, text and bytes are
# alive at once; 512 lines keep that small and cost no more time than 4,096.
_CHUNK_LINES = 512


def write_lines(
    rows: Iterable[T], lines: Callable[[Iterable[T]], list[str]], stream: IO[bytes]
) -> None:
    """Write ``lines(chunk)`` for each chunk of ``_CHUNK_LINES`` rows, in
    order: one line per row, each ending in its newline, joined and encoded
    to UTF-8 once. A chunk that cannot be encoded (a lone surrogate) is
    written from its list of lines, not by splitting its text, which U+2028
    would break, so its bad line raises after the lines before it, as from a
    per-row writer."""
    rows = iter(rows)
    while chunk := lines(islice(rows, _CHUNK_LINES)):
        try:
            text = "".join(chunk).encode("utf-8")
        except UnicodeEncodeError:
            for line in chunk:  # the bad line raises, after the lines before it
                stream.write(line.encode("utf-8"))
            raise
        stream.write(text)


def write_samples(
    rows: Iterable[tuple[str, tuple[GroupKey, str], str, str | None]], stream: IO[bytes]
) -> None:
    """Serialize corpus rows ``(id, (group, answer), question, source_id)``
    as JSONL (inverse of parse_samples), by ``write_lines``: each line is
    ``json.dumps`` of the row's object with ``ensure_ascii=False``, its
    fields in ``QASample.to_json_obj`` order and ``source_id`` only when it
    is not None. The strings go through ``json.dumps``'s string encoder, the
    fields of one ``(group, answer)`` record once."""
    fields: dict[tuple[GroupKey, str], tuple[str, str]] = {}

    def record_fields(record: tuple[GroupKey, str]) -> tuple[str, str]:
        (task, qtype), answer = record
        fields[record] = parts = (
            f'"task": {encode_basestring(task.value)}, '
            f'"question_type": {encode_basestring(qtype.value)}, "question": ',
            f', "answer": {encode_basestring(answer)}')
        return parts

    def lines(chunk: Iterable[tuple]) -> list[str]:
        out = []
        for sid, record, question, source_id in chunk:
            head, tail = fields.get(record) or record_fields(record)
            source = "" if source_id is None else f', "source_id": {encode_basestring(source_id)}'
            out.append(f'{{"id": {encode_basestring(sid)}, {head}{encode_basestring(question)}'
                       f'{tail}{source}}}\n')
        return out

    write_lines(rows, lines, stream)


def validate_corpus(samples: list[QASample]) -> CorpusStats:
    """One-pass structural validation; problems land in the stats, not exceptions."""
    vocab: set[str] = set()
    per_group: dict[GroupKey, int] = {}
    seen: set[str] = set()
    duplicates: list[str] = []
    warnings: list[str] = []
    warned_groups: set[GroupKey] = set()
    for s in samples:
        vocab.add(s.answer)
        key = s.group
        per_group[key] = per_group.get(key, 0) + 1
        if s.id in seen:
            duplicates.append(s.id)
        else:
            seen.add(s.id)
        if key not in KNOWN_GROUPS and key not in warned_groups:
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

    Lines are read by ``read_id_rows``; both fields must be strings, and an
    empty id is accepted. A duplicate id is the error ``duplicate
    prediction id``, at its second copy: silently keeping either copy could
    change the reported accuracy. Lines that spell one prediction the same
    way after a plain id share one string.
    """
    return read_id_rows(stream, ID_ROWS, _prediction, lambda pid, ids, blanks, lineno:
                        CorpusError(f"duplicate prediction id {pid!r}", lineno))


def _prediction(obj: dict, lineno: int) -> tuple[str, str]:
    """The id and predicted answer of a predictions row, both strings."""
    pid, predicted = obj.get("id"), obj.get("predicted_answer")
    if not (isinstance(pid, str) and isinstance(predicted, str)):
        for name in ("id", "predicted_answer"):
            if name not in obj:
                raise CorpusError(f"missing required field {name!r}", lineno)
            if not isinstance(obj[name], str):
                raise CorpusError(f"{name} must be a string", lineno)
    return pid, predicted


# The rows in one message from a range worker: a few thousand, so that the
# parent holds one piece of a worker's map at a time beside the merged map,
# never the worker's whole map.
_PIECE_ROWS = 4096


class _Slice:
    """The bytes of the binary file ``f`` from its position up to offset ``end``."""

    def __init__(self, f: IO[bytes], end: int):
        self._f, self._left = f, end - f.tell()

    def read(self, n: int) -> bytes:
        data = self._f.read(min(n, self._left)) if self._left > 0 else b""
        self._left -= len(data)
        return data


def _cut(f: IO[bytes], size: int, k: int, ranges: int) -> int:
    """Seek the open ``size``-byte file ``f`` to where range ``k > 0`` of
    ``ranges`` starts, and return it: just after the first newline at or
    past ``size * k // ranges``, or the end of the file if there is none.
    So each range holds whole lines; the line read here to find the cut
    ends the range before."""
    f.seek(size * k // ranges)
    f.readline()
    return f.tell()


def _read(parse: Callable[[IO[bytes]], T], path, size: int | None, k: int, ranges: int) -> T:
    """``parse`` of range ``k`` of ``ranges`` of the ``size``-byte file at ``path``.
    The last range runs to the end of the file, so one range is the whole
    file, parsed as it opens, without a seek: a FIFO (``size`` None) too."""
    with open(path, "rb") as f:
        start = _cut(f, size, k, ranges) if k else 0
        if k + 1 == ranges:
            return parse(f)
        end = _cut(f, size, k + 1, ranges)
        f.seek(start)
        return parse(_Slice(f, end))


def _regular_size(path) -> int | None:
    """The size of the regular file at ``path``; None for anything else (a
    FIFO, a terminal, a missing file), which is read whole, as a stream."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None
    return st.st_size if stat.S_ISREG(st.st_mode) else None


def _send(out: IO[bytes], message) -> None:
    """Pickle one message onto a range worker's pipe, flushed, so that the
    parent never waits on bytes left in the buffer. Pickle frames each
    message itself: ``pickle.load`` on the pipe reads exactly one."""
    pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
    out.flush()


def _range_worker(jobs: list, sizes: list, k: int, ranges: int, workers: list, r: int, w: int):
    """The body of range worker ``k`` in a forked child: parse range ``k`` of
    each regular file of ``jobs`` in turn and send its rows to the parent on
    the pipe whose ends are ``r`` and ``w``, in pieces of ``_PIECE_ROWS``,
    then ``{}``. It writes nothing else anywhere, and leaves through
    ``os._exit``, whatever happens: a range that raises ends the worker,
    and the parent, which finds the pipe closed, reads the file whole."""
    code = 0
    try:
        os.close(r)
        for _, pipe in workers:  # the parent's ends of the earlier workers' pipes
            pipe.close()
        with open(w, "wb") as out:
            for (parse, path), size in zip(jobs, sizes):
                if size is None:
                    continue
                items = iter(_read(parse, path, size, k, ranges).items())
                while piece := dict(islice(items, _PIECE_ROWS)):
                    _send(out, piece)
                _send(out, {})
                items = None
    except BaseException:  # a worker reports nothing but through its pipe
        code = 1
    os._exit(code)


def _stop(workers: list) -> None:
    """Kill and reap every range worker; none is left behind on any path."""
    while workers:
        pid, pipe = workers.pop()
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def read_ranges(jobs: list[tuple[Callable[[IO[bytes]], T], object]], ranges: int) -> list[T]:
    """``parse(file)`` for each ``(parse, path)`` of ``jobs``, in job order,
    each regular file read in ``ranges`` byte ranges of whole lines.

    Range k starts just after the first newline at or past ``size * k /
    ranges``. Before any file is read, ``ranges - 1`` workers are forked,
    and worker k parses range k of every regular file in turn with its
    ``parse``, which must then return a map keyed by id. This process
    parses range 0 of each file and updates that map in place, in file
    order, from the workers' pieces. A worker whose range raises exits.
    On any fault (a worker's pipe closed before its ``{}``, or a merged
    map with fewer rows than the ranges gave, from an id in two ranges),
    the workers are stopped and the file is read whole here by ``parse``,
    so any error is the one the whole-file read raises; so is an error in
    range 0, which begins the file. The remaining files are then read
    whole, as is a file that is not a regular file (a FIFO, a terminal).
    Without ``os.fork``, or with one range, each file is read whole. A
    CorpusError is raised again with the path of its file and ``: `` before
    its text. Every worker is reaped before this returns or raises. The
    workers run only the readers, which are pure Python, so no thread of
    the parent (a BLAS pool) is needed after the fork.
    """
    sizes = [_regular_size(path) for _, path in jobs]
    workers: list[tuple[int, IO[bytes]]] = []
    results = []
    try:
        ranges = ranges if hasattr(os, "fork") and any(s is not None for s in sizes) else 1
        for k in range(1, ranges):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: every file is read whole
                os.close(r)
                os.close(w)
                _stop(workers)
                break
            if pid == 0:
                _range_worker(jobs, sizes, k, ranges, workers, r, w)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        for (parse, path), size in zip(jobs, sizes):
            if size is None or not workers:
                results.append(_read(parse, path, size, 0, 1))
                continue
            rows = _read(parse, path, size, 0, ranges)
            try:
                n = len(rows)
                for _, pipe in workers:
                    while piece := pickle.load(pipe):  # {} ends the file's pieces
                        rows.update(piece)
                        n += len(piece)
            except (EOFError, pickle.UnpicklingError):  # the worker exited early
                n = -1
            if len(rows) != n:  # a worker exited early, or an id is in two ranges
                rows = None
                _stop(workers)
                rows = _read(parse, path, size, 0, 1)
            results.append(rows)
        return results
    except CorpusError as exc:  # only a read raises one, so ``path`` is its file's
        raise CorpusError(f"{path}: {exc}") from None
    finally:
        _stop(workers)
