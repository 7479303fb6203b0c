import enum
import io
import json
import os
import pickle
import random
import re
from collections import Counter
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

import avqa_debias.data as data_module
from avqa_debias.data import (
    KNOWN_GROUPS,
    MAX_DEPTH,
    CorpusError,
    GroupKey,
    QASample,
    QuestionType,
    Task,
    group_samples,
    parse_predictions,
    parse_samples,
    read_gold,
    read_jsonl,
    read_ranges,
    validate_corpus,
    write_samples,
)
from avqa_debias.scoring import score_predictions
from avqa_debias.splitting import (
    SplitError,
    answer_distribution,
    assign_splits,
    read_splits,
    select_imbalanced_groups,
    split_head_tail,
    write_splits,
)
from conftest import TRICKY, jsonl_stream, make_sample, sample_rows, written


class TestParseSamples:
    def test_round_trip_preserves_order_and_fields(self, tiny_corpus_bytes):
        samples = parse_samples(io.BytesIO(tiny_corpus_bytes))
        assert [s.id for s in samples] == ["q1", "q2"]
        assert samples[0].task is Task.AVQA
        assert samples[0].question_type is QuestionType.COUNTING
        assert samples[0].source_id is None
        assert samples[1].source_id == "t1"
        out = io.BytesIO()
        write_samples(sample_rows(samples), out)
        assert out.getvalue() == tiny_corpus_bytes

    def test_blank_lines_are_skipped(self):
        stream = jsonl_stream(
            [
                b"",
                b'{"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q", "answer": "yes"}',
                b"   ",
            ]
        )
        assert len(parse_samples(stream)) == 1

    def test_duplicate_id_reports_both_lines(self):
        row = b'{"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q", "answer": "yes"}'
        with pytest.raises(CorpusError) as exc:
            parse_samples(jsonl_stream([row, row]))
        assert "line 2" in str(exc.value)
        assert "first seen on line 1" in str(exc.value)

    def test_bom_rejected(self):
        stream = io.BytesIO(
            b'\xef\xbb\xbf{"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q", "answer": "y"}\n'
        )
        with pytest.raises(CorpusError, match="byte-order mark"):
            parse_samples(stream)

    def test_invalid_utf8(self):
        with pytest.raises(CorpusError, match="invalid UTF-8"):
            parse_samples(io.BytesIO(b"\xff\xfe{}\n"))

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_samples(jsonl_stream([b"{not json"]))

    def test_non_object_line(self):
        with pytest.raises(CorpusError, match="JSON object"):
            parse_samples(jsonl_stream([b"[1, 2]"]))

    @pytest.mark.parametrize("missing", ["id", "task", "question_type", "question", "answer"])
    def test_missing_required_field(self, missing):
        obj = {
            "id": "a",
            "task": "AVQA",
            "question_type": "Temporal",
            "question": "q",
            "answer": "yes",
        }
        del obj[missing]
        with pytest.raises(CorpusError, match=missing):
            parse_samples(jsonl_stream([json.dumps(obj).encode()]))

    def test_unknown_task_and_type(self):
        base = {"id": "a", "question": "q", "answer": "yes"}
        bad_task = dict(base, task="TextQA", question_type="Temporal")
        with pytest.raises(CorpusError, match="unknown task"):
            parse_samples(jsonl_stream([json.dumps(bad_task).encode()]))
        bad_type = dict(base, task="AVQA", question_type="Why")
        with pytest.raises(CorpusError, match="unknown question_type"):
            parse_samples(jsonl_stream([json.dumps(bad_type).encode()]))

    def test_empty_id_or_answer_rejected(self):
        obj = {"id": "", "task": "AVQA", "question_type": "Temporal", "question": "q", "answer": "yes"}
        with pytest.raises(CorpusError, match="id"):
            parse_samples(jsonl_stream([json.dumps(obj).encode()]))
        obj = dict(obj, id="a", answer="")
        with pytest.raises(CorpusError, match="answer"):
            parse_samples(jsonl_stream([json.dumps(obj).encode()]))

    @pytest.mark.parametrize("field, value, problem", [
        ("question", 3, "question must be a string"),
        ("question", None, "question must be a string"),
        ("source_id", [1], "source_id must be a string or null"),
        ("source_id", 7, "source_id must be a string or null"),
    ])
    def test_mistyped_field_rejected(self, field, value, problem):
        obj = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q",
               "answer": "yes", field: value}
        with pytest.raises(CorpusError, match=f"^line 1: {problem}$"):
            parse_samples(jsonl_stream([json.dumps(obj).encode()]))

    def test_null_source_id_is_absent(self):
        obj = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q",
               "answer": "yes", "source_id": None}
        [sample] = parse_samples(jsonl_stream([json.dumps(obj).encode()]))
        assert sample.source_id is None and "source_id" not in sample.to_json_obj()

    def test_unknown_fields_ignored(self):
        obj = {
            "id": "a",
            "task": "AVQA",
            "question_type": "Temporal",
            "question": "q",
            "answer": "yes",
            "extra": 1,
        }
        samples = parse_samples(jsonl_stream([json.dumps(obj).encode()]))
        assert samples == [QASample("a", Task.AVQA, QuestionType.TEMPORAL, "q", "yes")]


# A clean corpus record and splits record; the enum fields each reader
# decodes (for splits, with the enum its message names); and bad values:
# one that no member has, and two unhashable ones, which a table lookup
# rejects with TypeError rather than KeyError.
_SAMPLE = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q", "answer": "yes"}
_SPLIT = {"id": "a", "task": "AVQA", "question_type": "Temporal", "answer": "yes",
          "split": "head", "rule": "general_threshold"}
_SAMPLE_ENUMS = ["task", "question_type"]
_SPLIT_ENUMS = {"task": "Task", "question_type": "QuestionType", "split": "SplitLabel",
                "rule": "SplitRule"}
_BAD_ENUM_VALUES = ["bogus", [1], {}]


class TestEnumErrors:
    """Every unknown or unhashable enum value gives the enum constructor's message."""

    @pytest.mark.parametrize("value", _BAD_ENUM_VALUES)
    @pytest.mark.parametrize("field", _SAMPLE_ENUMS)
    def test_parse_samples(self, field, value):
        line = json.dumps(dict(_SAMPLE, **{field: value})).encode()
        with pytest.raises(CorpusError) as info:
            parse_samples(jsonl_stream([line]))
        assert str(info.value) == f"line 1: unknown {field} {value!r}"

    @pytest.mark.parametrize("value", _BAD_ENUM_VALUES)
    @pytest.mark.parametrize("field", list(_SPLIT_ENUMS))
    def test_read_splits(self, field, value):
        line = json.dumps(dict(_SPLIT, **{field: value})).encode()
        with pytest.raises(CorpusError) as info:
            read_splits(jsonl_stream([line]))
        expected = f"line 1: invalid splits record: {value!r} is not a valid {_SPLIT_ENUMS[field]}"
        assert str(info.value) == expected

    @pytest.mark.parametrize("drop, bad, message", [
        ("answer", {"rule": "x"}, "'answer'"),  # the answer is read before the rule
        ("question_type", {"task": [1]}, "[1] is not a valid Task"),
        ("split", {"question_type": "Why"}, "'Why' is not a valid QuestionType"),
        ("rule", {}, "'rule'"),
    ])
    def test_read_splits_reports_the_first_bad_field(self, drop, bad, message):
        obj = {k: v for k, v in _SPLIT.items() if k != drop} | bad
        with pytest.raises(CorpusError) as info:
            read_splits(jsonl_stream([json.dumps(obj).encode()]))
        assert str(info.value) == f"line 1: invalid splits record: {message}"


def test_clean_input_takes_the_fast_path(monkeypatch):
    """Clean rows reach neither json.loads nor an enum constructor, read_gold
    decodes only the first row of each (group, answer), nothing from
    splitting to scoring runs Enum.__hash__ or builds a GroupKey per row,
    splitting read_gold's records gives what splitting the samples gives,
    and the rows of one answer class share one gold record and one split
    decision. The splits and predictions readers decode each distinct
    line tail after the id at most once, one with a \\t escape too, and the
    predictions of one tail share one string."""
    groups = sorted(KNOWN_GROUPS)
    corpus = [
        QASample(f"q{i:04d}", *groups[i % len(groups)], f"question {i}", "abbbbbc"[i % 7],
                 f"t{i // 10}" if i % 10 == 0 else None)
        for i in range(1_000)
    ]
    corpus_bytes, splits_bytes = io.BytesIO(), io.BytesIO()
    write_samples(sample_rows(corpus), corpus_bytes)
    spellings = ["a", "b", "c", "b\t"]
    preds_bytes = b"".join(
        json.dumps({"id": s.id, "predicted_answer": spellings[i % 4]}).encode() + b"\n"
        for i, s in enumerate(corpus)
    )

    calls: Counter = Counter()
    loads, enum_call, group = json.loads, enum.EnumType.__call__, QASample.group
    enum_hash = enum.Enum.__hash__
    raw_decode = data_module._raw_decode

    def counting_loads(*args, **kwargs):
        calls["json.loads"] += 1
        return loads(*args, **kwargs)

    def counting_raw_decode(text):
        calls["raw_decode"] += 1
        return raw_decode(text)

    def counting_enum_call(cls, *args, **kwargs):
        calls[cls.__name__] += 1
        return enum_call(cls, *args, **kwargs)

    def counting_enum_hash(member):
        calls["Enum.__hash__"] += 1
        return enum_hash(member)

    def counting_group(sample):
        calls["QASample.group"] += 1
        return group.fget(sample)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(enum.EnumType, "__call__", counting_enum_call)
    monkeypatch.setattr(QASample, "group", property(counting_group))
    monkeypatch.setattr(data_module, "_raw_decode", counting_raw_decode)
    monkeypatch.setattr(enum.Enum, "__hash__", counting_enum_hash)
    result = assign_splits(corpus)
    group_calls = calls.pop("QASample.group", 0)
    write_splits(result.assignments, splits_bytes)
    gold = parse_samples(io.BytesIO(corpus_bytes.getvalue()))
    assert calls.pop("raw_decode") == 1_000  # parse_samples decodes every row
    records = read_gold(io.BytesIO(corpus_bytes.getvalue()))
    # read_gold decodes only the first row of each (group, answer)
    assert 0 < calls.pop("raw_decode") <= 9 * 3
    from_records = assign_splits(records)
    splits = read_splits(io.BytesIO(splits_bytes.getvalue()))
    splits_decodes = calls.pop("raw_decode", 0)
    preds = parse_predictions(io.BytesIO(preds_bytes))
    preds_decodes = calls.pop("raw_decode", 0)
    report = score_predictions(records, splits, preds)
    monkeypatch.undo()

    def tails(data: bytes) -> set[bytes]:
        return {line.split(b'", ', 1)[1] for line in data.splitlines()}

    assert 0 < splits_decodes <= len(tails(splits_bytes.getvalue())) < 1_000
    assert 0 < preds_decodes <= len(tails(preds_bytes)) == 4
    assert len({id(p) for p in preds.values()}) == len(set(preds.values())) == 4
    assert group_calls <= len(result.group_reports) == len(groups)
    assert calls.pop("Enum.__hash__", 0) == 0
    assert calls == Counter()
    assert gold == corpus and splits == result.assignments and len(preds) == 1_000
    assert from_records == result and list(from_records.assignments) == list(result.assignments)
    assert len(splits) == 1_000 and report.aggregate.head_n + report.aggregate.tail_n == 1_000
    assert report == score_predictions(gold, splits, preds)
    # one record per (group, answer) and one decision per (group, answer, label)
    assert len({id(r) for r in records.values()}) == len(set(records.values())) == 9 * 3
    assert len(set(map(id, splits.values()))) == len(set(splits.values()))
    decisions = list(from_records.assignments.values())
    assert len({id(d) for d in decisions}) == len(set(decisions)) == len({d[:2] for d in decisions})


def _counting_raw_decode(monkeypatch) -> Counter:
    """Count the calls of ``data._raw_decode`` from now on."""
    decodes = Counter()
    raw_decode = data_module._raw_decode

    def counting_raw_decode(text):
        decodes["raw_decode"] += 1
        return raw_decode(text)

    monkeypatch.setattr(data_module, "_raw_decode", counting_raw_decode)
    return decodes


@pytest.mark.parametrize("reordered", [True, False])
@pytest.mark.parametrize("answers", [3, 130])
def test_gold_reader_decodes_the_first_row_of_each_answer(monkeypatch, reordered, answers):
    """read_gold decodes only the first row of each (task, question_type,
    answer) written as write_samples writes it, with 27 such triples or
    1,170: when its blocks are stored in bulk, and when a first line with
    its keys in another order makes it read every line on its own."""
    groups = sorted(KNOWN_GROUPS)
    rows = [json.loads(_gold_line(i, task=groups[i % 9][0].value,
                                  question_type=groups[i % 9][1].value,
                                  answer=f"a{i // 9 % answers}"))
            for i in range(9 * answers * 3)]
    first = dict(reversed(rows[0].items())) if reordered else rows[0]
    lines = [json.dumps(row, ensure_ascii=False).encode() for row in [first, *rows[1:]]]
    data = b"\n".join(lines) + b"\n"
    decodes = _counting_raw_decode(monkeypatch)
    gold = read_gold(io.BytesIO(data))
    monkeypatch.undo()
    firsts = {(row["task"], row["question_type"], row["answer"]) for row in rows[reordered:]}
    assert len(firsts) == 9 * answers
    assert decodes["raw_decode"] == reordered + len(firsts)
    assert gold == {s.id: (s.group, s.answer) for s in parse_samples(io.BytesIO(data))}


def _memo_keeps_tails(monkeypatch, distinct: int, rows: int) -> None:
    """read_splits decodes one row per (task, question_type, answer, split,
    rule) tail when ``distinct`` tails repeat in random order through
    ``rows`` rows."""
    rng = random.Random(29)
    tails = [rng.randrange(distinct) for _ in range(rows)]
    data = b"".join(
        _id_row(f"s{i:05d}", f'"task": "AVQA", "question_type": "Counting", "answer": "a{t // 2}", '
                             f'"split": "{("head", "tail")[t % 2]}", "rule": "general_threshold"}}')
        + b"\n" for i, t in enumerate(tails))
    decodes = _counting_raw_decode(monkeypatch)
    splits = read_splits(io.BytesIO(data))
    monkeypatch.undo()
    assert decodes["raw_decode"] == len(set(tails)) == distinct
    assert [(d.answer_class, d.label.value) for d in splits.values()] == [
        (f"a{t // 2}", ("head", "tail")[t % 2]) for t in tails]
    assert list(splits) == [f"s{i:05d}" for i in range(len(tails))]


def test_id_row_memo_keeps_more_tails_that_repeat(monkeypatch):
    """1,500 tails, more than the memo's first 1,024 keys, in 20,000 rows."""
    _memo_keeps_tails(monkeypatch, 1_500, 20_000)


def test_id_row_memo_keeps_tails_at_0_82_per_line(monkeypatch):
    """3,000 tails in 100,000 rows: the memo reaches 1,024 keys at about
    0.82 keys per line read, and keeps growing."""
    _memo_keeps_tails(monkeypatch, 3_000, 100_000)


def test_id_row_memo_stops_at_1024_tails_that_do_not_repeat(monkeypatch):
    """A predictions file with a distinct tail on every row memoizes 1,024
    tails and then decodes every line without the memo, so the memo stays
    bounded."""
    memoized = Counter()
    memoizable = data_module.ID_ROWS.memoizable

    def counting_memoizable(tail):
        memoized["tails"] += 1
        return memoizable(tail)

    monkeypatch.setattr(data_module, "ID_ROWS",
                        data_module.ID_ROWS._replace(memoizable=counting_memoizable))
    data = b"".join(_id_row(f"p{i:05d}", f'"predicted_answer": "a", "score": {i}}}') + b"\n"
                    for i in range(5_000))
    preds = parse_predictions(io.BytesIO(data))
    monkeypatch.undo()
    assert memoized["tails"] == 1_024
    assert preds == {f"p{i:05d}": "a" for i in range(5_000)}


def _write_per_sample(samples, stream) -> None:
    """What ``write_samples`` must write: ``json.dumps`` of each sample's
    ``to_json_obj`` and a newline, one sample at a time."""
    for s in samples:
        stream.write(json.dumps(s.to_json_obj(), ensure_ascii=False).encode() + b"\n")


_TRICKY_SAMPLE = st.builds(QASample, TRICKY, st.sampled_from(Task), st.sampled_from(QuestionType),
                           TRICKY, TRICKY, st.none() | TRICKY)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TRICKY_SAMPLE, max_size=6))
@example([QASample("a\u2028b", Task.AVQA, QuestionType.COUNTING, 'q"\\\x00', "\x85", None),
          QASample("c", Task.AUDIO_QA, QuestionType.EXISTENTIAL, "\U0001f600", "x\ud800", "t")])
def test_write_samples_matches_json_dumps(samples):
    """Every field quoted as ``json.dumps`` quotes it, and a lone surrogate
    raises the same error after the same lines."""
    assert written(write_samples, sample_rows(samples)) == written(_write_per_sample, samples)


_BLOCK_READERS = {  # (reader, row i as written, row i in another shape)
    # a quote in the question: refused by read_gold's check before its pattern runs
    "read_gold": (read_gold, lambda i: _gold_line(i),
                  lambda i: _gold_line(i, question='a "quoted" question')),
    "read_gold, extra field": (read_gold, lambda i: _gold_line(i),
                               lambda i: _gold_line(i, extra="x")),
    "read_splits": (read_splits, lambda i: _id_row(f"c{i:04d}", _BOTH),
                    lambda i: _id_row(f'c\\"{i:04d}', _BOTH)),
    "parse_predictions": (parse_predictions, lambda i: _id_row(f"c{i:04d}", _BOTH),
                          lambda i: _id_row(f'c\\"{i:04d}', _BOTH)),
}


@pytest.mark.parametrize("name", _BLOCK_READERS)
@pytest.mark.parametrize("odd", [(), (0,), (1_000, 1_500), range(1_990, 2_000)])
def test_block_pattern_stops_after_a_failed_block(monkeypatch, name, odd):
    """A reader tries its block pattern (``_rows``) on each block of a clean
    file, up to and including the first block it refuses, and on no block
    after it. The file reads as its lines read one at a time either way."""
    reader, line, other = _BLOCK_READERS[name]
    lines = [other(i) if i in odd else line(i) for i in range(2_000)]
    data = b"\n".join(lines) + b"\n"
    ends, end = [], 0
    for block in data_module._blocks(io.BytesIO(data)):
        end += block.count(b"\n") + 1
        ends.append(end)  # the lines before the next block
    tries = next((i + 1 for i, end in enumerate(ends) if end > min(odd, default=2_000)), len(ends))
    calls = Counter()
    real = data_module._rows

    def counting_rows(*args):
        calls["_rows"] += 1
        return real(*args)

    monkeypatch.setattr(data_module, "_rows", counting_rows)
    result = reader(io.BytesIO(data))
    assert calls["_rows"] == tries and len(ends) > 20
    monkeypatch.undo()
    assert result == {k: v for text in lines for k, v in reader(io.BytesIO(text)).items()}


class TestGroupKey:
    def test_ordering_is_task_major(self):
        a = GroupKey(task=Task.AUDIO_QA, question_type=QuestionType.TEMPORAL)
        b = GroupKey(task=Task.AVQA, question_type=QuestionType.EXISTENTIAL)
        assert a < b
        assert str(b) == "AVQA/Existential"

    def test_group_samples_sorted(self):
        corpus = [
            make_sample("1", "x", task=Task.AVQA, qtype=QuestionType.TEMPORAL),
            make_sample("2", "x", task=Task.AUDIO_QA, qtype=QuestionType.COUNTING),
            make_sample("3", "x", task=Task.AVQA, qtype=QuestionType.TEMPORAL),
        ]
        groups = group_samples(corpus)
        assert [str(k) for k in groups] == ["AudioQA/Counting", "AVQA/Temporal"]
        assert [s.id for s in groups[corpus[0].group]] == ["1", "3"]


class TestValidateCorpus:
    def test_stats(self):
        corpus = [
            make_sample("1", "yes"),
            make_sample("2", "no"),
            make_sample("3", "yes"),
        ]
        stats = validate_corpus(corpus)
        assert stats.sample_count == 3
        assert stats.vocabulary == ("no", "yes")
        assert stats.per_group_counts == {corpus[0].group: 3}
        assert stats.duplicate_ids == []
        assert stats.warnings == []

    def test_duplicates_and_unexpected_groups(self):
        odd = QASample(
            id="1", task=Task.AUDIO_QA, question_type=QuestionType.TEMPORAL,
            question="q", answer="x",
        )
        stats = validate_corpus([odd, make_sample("1", "y")])
        assert stats.duplicate_ids == ["1"]
        assert any("AudioQA/Temporal" in w for w in stats.warnings)

    def test_empty(self):
        stats = validate_corpus([])
        assert stats.sample_count == 0
        assert stats.vocabulary == ()


class TestParsePredictions:
    def test_basic(self):
        rows = [
            b'{"id": "q1", "predicted_answer": "two"}',
            b'{"id": "q2", "predicted_answer": "left"}',
        ]
        assert parse_predictions(jsonl_stream(rows)) == {"q1": "two", "q2": "left"}

    def test_missing_field(self):
        with pytest.raises(CorpusError, match="predicted_answer"):
            parse_predictions(jsonl_stream([b'{"id": "q1"}']))

    def test_duplicate_id(self):
        row = b'{"id": "q1", "predicted_answer": "two"}'
        with pytest.raises(CorpusError, match="duplicate prediction id"):
            parse_predictions(jsonl_stream([row, row]))

    @pytest.mark.parametrize("row, field", [
        (b'{"id": "q2", "predicted_answer": 3}', "predicted_answer"),
        (b'{"id": ["q2"], "predicted_answer": "two"}', "id"),
    ])
    def test_non_string_field(self, row, field):
        good = b'{"id": "q1", "predicted_answer": "two"}'
        with pytest.raises(CorpusError, match=f"^line 2: {field} must be a string$"):
            parse_predictions(jsonl_stream([good, row]))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Objects over the fields the three readers look up, each value either one a
# reader accepts or any JSON value, so that lines get past the JSON checks.
_VALID = {
    "id": ["a", "b", ""],
    "task": [t.value for t in Task],
    "question_type": [t.value for t in QuestionType],
    "question": ["q"],
    "answer": ["yes", ""],
    "source_id": ["a"],
    "predicted_answer": ["yes"],
    "split": ["head", "tail"],
    "rule": ["general_threshold", "two_answer_low_frequency"],
}
_RECORD = st.fixed_dictionaries(
    {}, optional={k: st.sampled_from(v) | _JSON for k, v in _VALID.items()}
)
_LINE = (
    st.binary(max_size=12)
    | _JSON.map(lambda v: json.dumps(v).encode())
    | _RECORD.map(lambda r: json.dumps(r).encode())
)


@pytest.mark.parametrize("parse", [parse_samples, read_gold, parse_predictions, read_splits])
@settings(deadline=None)
@given(lines=st.lists(_LINE, max_size=6))
@example(lines=[b"\xef\xbb\xbf{}"])
@example(lines=[b"", b"[" * 100_000])
@example(lines=[b"1" * 5_000])
@example(lines=[json.dumps(dict(_SAMPLE, task=[1])).encode()])
@example(lines=[json.dumps(dict(_SAMPLE, question_type={})).encode()])
@example(lines=[json.dumps(dict(_SPLIT, task="bogus")).encode()])
@example(lines=[json.dumps(dict(_SPLIT, question_type=[1])).encode()])
@example(lines=[json.dumps(dict(_SPLIT, split={})).encode()])
@example(lines=[json.dumps(dict(_SPLIT, rule=[1])).encode()])
def test_reader_fuzz(parse, lines):
    """Any input either parses or raises a CorpusError that names one of its lines."""
    data = b"\n".join(lines)
    try:
        parse(io.BytesIO(data))
    except CorpusError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match and 1 <= int(match[1]) <= len(io.BytesIO(data).readlines()), str(exc)


# Corpus rows whose fields come from small pools, so that a file repeats
# ids, (task, question_type, answer) triples and faults in any order: a
# good triple met first and then on a row with another fault, or a fault
# before the triple's first good row.
_CORPUS_FIELDS = {
    "id": st.sampled_from(["a", "b", "c", "d", "", 3, None]),
    "task": st.sampled_from(["AVQA", "AVQA", "AudioQA", "bogus", [1], 1]),
    "question_type": st.sampled_from(["Counting", "Counting", "Temporal", "Why", {}, None]),
    "question": st.sampled_from(["q", "q", "", 7, None]),
    "answer": st.sampled_from(["yes", "yes", "no", " No", "", 3, True, [1], None]),
}
_CORPUS_OPTIONAL = {"source_id": st.sampled_from(["t", None, 5]), "extra": st.just(1)}
_CORPUS_LINE = (
    st.fixed_dictionaries(_CORPUS_FIELDS, optional=_CORPUS_OPTIONAL)
    | st.fixed_dictionaries({}, optional=_CORPUS_FIELDS | _CORPUS_OPTIONAL)
).map(lambda obj: json.dumps(obj).encode()) | _LINE


def _read(reader, data: bytes):
    """What ``reader`` returns for ``data``, or the text of the CorpusError it raises."""
    try:
        return reader(io.BytesIO(data)), None
    except CorpusError as exc:
        return None, str(exc)


def _one_line_at_a_time(data: bytes):
    """What parse_samples must give for ``data``: each line read on its own,
    at its line number, and an id met twice a duplicate at its second line."""
    samples, first = [], {}
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        parsed, error = _read(parse_samples, b"\n" * (lineno - 1) + line)
        if error is not None:
            return None, error
        for sample in parsed:
            if sample.id in first:
                return None, (f"line {lineno}: duplicate id {sample.id!r} "
                              f"(first seen on line {first[sample.id]})")
            first[sample.id] = lineno
            samples.append(sample)
    return samples, None


_GOOD_ROW = dict(_SAMPLE, task="AVQA", question_type="Counting")


def _after_clean_block(clean: list[bytes], faults: st.SearchStrategy) -> st.SearchStrategy:
    """Lines that open with more than one 8 KiB block of ``clean`` lines and
    go on, in a later block, with up to three lines of ``faults`` and then
    the rest of ``clean``."""
    return st.builds(lambda k, more: clean[:k] + more + clean[k:],
                     st.integers(len(clean) // 2, len(clean)), st.lists(faults, max_size=3))


def _examples(cases: Iterable[dict]):
    """A decorator that gives a hypothesis test one example per keyword dict of ``cases``."""
    def decorate(test):
        for kwargs in cases:
            test = example(**kwargs)(test)
        return test
    return decorate


def _gold_line(i: int, **fields) -> bytes:
    """Row ``i`` of a corpus, written as write_samples writes it."""
    row = dict(_GOOD_ROW, id=f"c{i:03d}", question=f"question {i} " + "x" * 150,
               answer=["yes", "no", "two"][i % 3])
    return json.dumps(row | fields, ensure_ascii=False).encode()


# About four blocks of rows that read_gold stores from its regex pass, and
# lines to put after the first block: each fault named by a test, and good
# rows that take the slow path (a \u escape) or that a fast block decodes (a
# new group and answer, a raw non-ASCII question).
_CLEAN_GOLD = [_gold_line(i, **({"source_id": f"t{i}"} if i % 5 == 0 else {})) for i in range(120)]
# Row 0 of _CLEAN_GOLD with its keys in another order.
_REORDERED_GOLD = json.dumps(dict(reversed(json.loads(_CLEAN_GOLD[0]).items()))).encode()
_GOLD_FAULTS = [
    _gold_line(500)[:-9],  # malformed
    _gold_line(501, task="bogus"),
    _gold_line(502, id=""),
    _gold_line(0),  # a duplicate of the first row's id
    b"",
    _gold_line(503) + b"\r",
    _gold_line(504, question="q?").replace(b"q?", b"q\xff"),  # invalid UTF-8
    json.dumps(dict(_GOOD_ROW, id="c505", question="\u00e9")).encode(),
    json.dumps(dict(_GOOD_ROW, id="c506", question="\ud800")).encode(),
    _gold_line(507, answer="four"),
    _gold_line(508, question="\u00e9t\u00e9"),
]


@settings(max_examples=800, deadline=None)
@given(lines=st.lists(_CORPUS_LINE, max_size=8)
       | _after_clean_block(_CLEAN_GOLD, st.sampled_from(_GOLD_FAULTS) | _CORPUS_LINE))
@_examples({"lines": [*_CLEAN_GOLD[:60], line, *_CLEAN_GOLD[60:]]} for line in _GOLD_FAULTS)
@example(lines=_CLEAN_GOLD)
@example(lines=[b"\xef\xbb\xbf" + _CLEAN_GOLD[0], *_CLEAN_GOLD[1:]])
@example(lines=[*_CLEAN_GOLD[:60], _CLEAN_GOLD[59], *_CLEAN_GOLD[60:]])  # a duplicate in its block
@example(lines=[json.dumps(_GOOD_ROW).encode(), json.dumps(dict(_GOOD_ROW, id="")).encode()])
@example(lines=[json.dumps(_GOOD_ROW).encode(), json.dumps(dict(_GOOD_ROW, id="b", question=1)).encode()])
@example(lines=[json.dumps(_GOOD_ROW).encode(), b"", json.dumps(_GOOD_ROW).encode()])
@example(lines=[json.dumps(dict(_GOOD_ROW, answer=["yes"])).encode()])
# Read line by line after a first line in another shape: lines in the
# writers' shape whose id is written c\\, or whose question holds \" or a
# raw tab, after rows with the same (task, question_type, answer).
@example(lines=[_REORDERED_GOLD, *_CLEAN_GOLD[1:7], _gold_line(7).replace(b'"c007"', b'"c\\\\"')])
@example(lines=[_REORDERED_GOLD, *_CLEAN_GOLD[1:7],
                _gold_line(7, question="q").replace(b'"q"', b'"q\\"')])
@example(lines=[_REORDERED_GOLD, *_CLEAN_GOLD[1:7],
                _gold_line(7, question="a\tb").replace(b"\\t", b"\t")])
def test_gold_reader_matches_parse_samples(lines):
    """read_gold accepts the lines parse_samples accepts, maps each id to its
    sample's (group, answer), and rejects the rest with the same error;
    rows with one (group, answer) share one record. Both give what each
    line gives when read on its own, so no check is lost to the cache of
    checked (task, question_type, answer) triples."""
    data = b"\n".join(lines)
    samples, error = _read(parse_samples, data)
    gold, gold_error = _read(read_gold, data)
    assert gold_error == error
    assert (samples, error) == _one_line_at_a_time(data)
    if error is None:
        assert gold == {s.id: (s.group, s.answer) for s in samples}
        shared: dict = {}
        assert all(shared.setdefault(record, record) is record for record in gold.values())


def _id_row(sid: str, tail: str) -> bytes:
    """A line that starts ``{"id": "<sid>", `` as the id-row reader expects; ``sid``
    is JSON string text, so it may hold escapes."""
    return f'{{"id": "{sid}", {tail}'.encode()


# A tail both id-row readers accept, and tails that they reject, that name
# another id (plainly or escaped), nest 100 or 101 levels deep, hold a lone
# surrogate or an escape, or carry whitespace or extra data after the object.
_BOTH = ('"task": "AVQA", "question_type": "Counting", "answer": "yes", "split": "head", '
         '"rule": "general_threshold", "predicted_answer": "yes"}')
_DEEP = '"x": ' + "[" * 99 + "]" * 99 + ", "  # 100 levels with the outer object
_DEEPER = '"x": ' + "[" * 100 + "]" * 100 + ", "
_TAILS = [
    _BOTH,
    _BOTH.replace('"yes"', '"no"').replace('"head"', '"tail"'),
    _BOTH.replace('"AVQA"', '"bogus"'),
    _BOTH.replace('"answer": "yes"', '"answer": ""'),
    _BOTH.replace('"predicted_answer": "yes"', '"predicted_answer": 3'),
    _BOTH.replace('"predicted_answer": "yes"', '"predicted_answer": "y\\tes"'),
    _BOTH.replace('"predicted_answer": "yes"', '"predicted_answer": "x\\ud800"'),
    _BOTH.replace('"predicted_answer": "yes"', '"predicted_answer": "id"'),
    _BOTH[:-1] + ', "id": "b"}',
    _BOTH[:-1] + ', "\\u0069d": "b"}',
    _BOTH[:-1] + ', "\\u0069d": 3}',
    '"predicted_answer": "yes"}',
    _DEEP + _BOTH,
    _DEEPER + _BOTH,
    _BOTH + " ",
    _BOTH + " {}",
    _BOTH[:-1],
]
# Plain ids; ids with escapes, one of which decodes to a plain one ("A");
# and an id with a raw tab, which JSON does not allow in a string.
_ID_TEXTS = ["a", "b", "A", "", "\\u0041", 'q\\"1', "q\\\\2", "é", "a b", "a\tb"]
_ID_LINE = st.builds(_id_row, st.sampled_from(_ID_TEXTS), st.sampled_from(_TAILS))


def _rows(parsed) -> list[tuple]:
    """The (id, value) pairs of what read_splits or parse_predictions returns."""
    return list(parsed.items() if isinstance(parsed, dict) else parsed)


def _one_row_at_a_time(reader, data: bytes):
    """What ``reader``, read_splits or parse_predictions, must give for
    ``data``: the (id, value) pairs of each line read on its own, at its line
    number, and an id met twice a duplicate at its second line."""
    rows, first = [], {}
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        parsed, error = _read(reader, b"\n" * (lineno - 1) + line)
        if error is not None:
            return None, error
        for sid, value in _rows(parsed):
            if sid in first:
                if reader is parse_predictions:
                    return None, f"line {lineno}: duplicate prediction id {sid!r}"
                return None, (f"line {lineno}: duplicate id {sid!r} "
                              f"(first seen on line {first[sid]})")
            first[sid] = lineno
            rows.append((sid, value))
    return rows, None


_MANY = [_id_row(f"r{i:04d}", _BOTH) for i in range(500)]  # more than one block

# About three blocks of rows that the readers split by one regex pass, and
# lines to put after the first block: each fault named by a test, and rows
# that a fast block decodes (a new tail, one that fails a check).
_CLEAN_IDS = [_id_row(f"c{i:03d}", _TAILS[i % 2]) for i in range(120)]
_ID_FAULTS = [
    _id_row("c500", _BOTH[:-9]),  # malformed
    _id_row("c501", _TAILS[2]),  # an unknown task
    _id_row("", _BOTH),
    _id_row("c000", _BOTH),  # a duplicate of the first row's id
    b"",
    _id_row("c503", _BOTH) + b"\r",
    _id_row("c504", _BOTH).replace(b"yes", b"y\xffs", 1),  # invalid UTF-8
    _id_row("\\u0041", _BOTH),
    _id_row("c505", _BOTH.replace('"yes"}', '"y\\u0065s"}')),
    _id_row("c506", _TAILS[8]),  # a tail with "id"
    _id_row("c507", _TAILS[5]),
    _id_row("c508", _TAILS[3]),
]


@pytest.mark.parametrize("reader", [read_splits, parse_predictions])
@settings(max_examples=600, deadline=None)
@given(lines=st.lists(_ID_LINE | _ID_LINE | _LINE | st.sampled_from([b"", b" \t"]), max_size=8)
       | _after_clean_block(_CLEAN_IDS, st.sampled_from(_ID_FAULTS) | _ID_LINE | _LINE),
       ending=st.sampled_from([b"\n", b"\r\n"]))
@_examples({"lines": [*_CLEAN_IDS[:60], line, *_CLEAN_IDS[60:]], "ending": b"\n"}
           for line in _ID_FAULTS)
@example(lines=[*_CLEAN_IDS[:60], _CLEAN_IDS[59], *_CLEAN_IDS[60:]], ending=b"\n")
# Every line a plain-id row, in a \r\n file: a string cut off at the end
# of a line is unterminated, not one holding a control character (\r).
@example(lines=[*_CLEAN_IDS[:60], _id_row("c509", _BOTH[:-2]), *_CLEAN_IDS[60:]], ending=b"\r\n")
@example(lines=[_id_row(i, _BOTH) for i in ['q\\"1', "q\\\\2", "\\u0041", "A"]], ending=b"\n")
@example(lines=[_id_row(i, _BOTH[:-1] + ', "id": "b"}') for i in "ac"], ending=b"\n")
@example(lines=[_id_row(i, _BOTH[:-1] + ', "\\u0069d": "b"}') for i in "ac"], ending=b"\n")
@example(lines=[_id_row(i, _BOTH) for i in ["a", "", "b", "a"]], ending=b"\n")
@example(lines=[_id_row(i, _BOTH) for i in "aba"], ending=b"\n")
@example(lines=[_id_row(i, _BOTH) for i in ["a", "a\tb"]], ending=b"\n")
@example(lines=[_id_row("a", _BOTH), b"", b" \t", _id_row("b", _BOTH)], ending=b"\r\n")
@example(lines=[b"\xef\xbb\xbf" + _id_row("a", _BOTH)], ending=b"\n")
@example(lines=[_id_row("a", _BOTH), b"\xef\xbb\xbf" + _id_row("b", _BOTH)], ending=b"\n")
@example(lines=[*_MANY, _id_row("bad", _BOTH).replace(b"yes", b"y\xffs"), _id_row("z", _BOTH)],
         ending=b"\n")
@example(lines=[_id_row("a", _BOTH), _id_row("long", f'"pad": "{"x" * 70_000}", {_BOTH}'),
                _id_row("b", _BOTH)], ending=b"\r\n")
@example(lines=[_id_row(i, _DEEP + _BOTH) for i in "ab"], ending=b"\n")
@example(lines=[_id_row("a", _DEEP + _BOTH), _id_row("b", _DEEPER + _BOTH)], ending=b"\n")
@example(lines=[_id_row(i, _BOTH.replace('"yes"}', '"\\udc00"}')) for i in "ab"], ending=b"\n")
# Tails with escapes other than \u, which are memoized: each one under two ids.
@example(lines=[_id_row(f"{i}{k}", _BOTH.replace('"yes"', f'"{text}"'))
                for k, text in enumerate(["y\\tes", '\\"', "\\\\", "\\/", '\\"id\\"'])
                for i in "ab"], ending=b"\n")
def test_id_row_readers_match_one_line_at_a_time(reader, lines, ending):
    """read_splits and parse_predictions give, value for value and error for
    error, what each line gives when read on its own: no line whose tail
    repeats an earlier one's loses a check to the memo of decoded tails.
    The rows of one split decision share one SplitDecision, and a file
    with \\r\\n line endings reads as the one with \\n endings."""
    data = b"".join(line + ending for line in lines)
    parsed, error = _read(reader, data)
    assert (None if parsed is None else _rows(parsed), error) == _one_row_at_a_time(reader, data)
    if ending == b"\r\n":
        assert (parsed, error) == _read(reader, b"".join(line + b"\n" for line in lines))
    if reader is read_splits and parsed:
        shared: dict = {}
        assert all(shared.setdefault(d, d) is d for d in parsed.values())


def _split(corpus):
    """``assign_splits(corpus)``, or the text of the SplitError it raises."""
    try:
        return assign_splits(corpus)
    except SplitError as exc:
        return str(exc)


def _reference_split(samples: list[QASample]):
    """What assign_splits must give for ``samples``: each group's histogram
    counted row by row, in GroupKey order, and each row of a retained group
    labelled in corpus order."""
    if not samples:
        return "empty corpus"
    reports, decided = [], {}
    for group, members in group_samples(samples).items():
        dist = answer_distribution(members)
        labels, rule = split_head_tail(dist) if select_imbalanced_groups([dist]) else (None, None)
        reports.append((group, list(dist.counts.items()), labels, rule))
        decided[group] = labels, rule
    assignments = [(s.id, s.group, s.answer, decided[s.group][0][s.answer], decided[s.group][1])
                   for s in samples if decided[s.group][0] is not None]
    return assignments, reports


# Corpora that parse and, unlike most of _CORPUS_LINE's, keep a group: rows
# with distinct ids and answer classes of unequal size.
_VALID_CORPUS = st.lists(st.fixed_dictionaries({
    "id": st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
    "task": st.sampled_from(["AVQA", "AVQA", "AudioQA"]),
    "question_type": st.just("Counting"),
    "question": st.just("q"),
    "answer": st.sampled_from(["yes", "yes", "yes", "yes", "no", " No", "two"]),
}), min_size=6, max_size=26, unique_by=lambda obj: obj["id"]).map(
    lambda rows: [json.dumps(obj).encode() for obj in rows])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CORPUS_LINE, max_size=8) | _VALID_CORPUS)
@example(lines=[json.dumps(dict(_GOOD_ROW, id=i, answer=a)).encode()
                for i, a in zip("abcdef", ["yes", "no", "yes", "yes", "two", "yes"])])
@example(lines=[])
def test_split_is_the_same_from_either_reader(lines):
    """Whenever parse_samples accepts a file, assign_splits gives the same
    assignments and group reports from read_gold's map as from the samples
    or from a map with one record per row, and these equal a row-by-row
    reference. Each decision's group is its report's key object, and each
    (group, answer) has one decision object."""
    data = b"\n".join(lines)
    samples, error = _read(parse_samples, data)
    if error is not None:
        return
    from_samples = _split(samples)
    from_gold = _split(read_gold(io.BytesIO(data)))
    # a hand-built map, whose equal records are not shared, counts the same
    by_hand = _split({s.id: (s.group, s.answer) for s in samples})
    assert from_gold == from_samples == by_hand
    if isinstance(from_gold, str):
        assert from_gold == _reference_split(samples)
        return
    # maps compare equal in any order, so their order is compared apart
    assert list(from_gold.assignments) == list(from_samples.assignments) == list(by_hand.assignments)
    reports = [(r.distribution.group, list(r.distribution.counts.items()), r.labels, r.rule)
               for r in from_gold.group_reports]
    assignments = [(sid, *d) for sid, d in from_gold.assignments.items()]
    assert (assignments, reports) == _reference_split(samples)
    for result in (from_gold, from_samples):
        keys = {r.distribution.group: r.distribution.group for r in result.group_reports}
        one: dict = {}
        for d in result.assignments.values():
            assert d.group is keys[d.group]
            assert one.setdefault(d[:2], d) is d


def _nesting(value) -> int:
    """How deep arrays and objects nest in a decoded JSON value; a scalar is 0."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    return 0


def _reference_read(stream) -> list[tuple[int, dict]]:
    """What read_jsonl must yield: one plain json.loads per line, with two
    rules of its own: nesting deeper than MAX_DEPTH, and a string holding a
    lone surrogate, are errors."""
    too_deep = f"JSON nested deeper than {MAX_DEPTH} levels"
    out = []
    for lineno, raw in enumerate(stream, start=1):
        raw = raw.rstrip(b"\r\n")
        if not raw.strip():
            continue
        if lineno == 1 and raw.startswith(b"\xef\xbb\xbf"):
            raise CorpusError("byte-order mark not allowed; files must be plain UTF-8", lineno)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorpusError(f"invalid UTF-8: {exc}", lineno) from exc
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed JSON: {exc.msg}", lineno) from exc
        except ValueError as exc:
            raise CorpusError(f"malformed JSON: {exc}", lineno) from exc
        except RecursionError:
            raise CorpusError(too_deep, lineno) from None
        if _nesting(obj) > MAX_DEPTH:
            raise CorpusError(too_deep, lineno)
        if not isinstance(obj, dict):
            raise CorpusError("each line must be a JSON object", lineno)
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(f"lone surrogate {exc.object[exc.start]!r} in a string", lineno)
        out.append((lineno, obj))
    return out


def _outcome(read, data: bytes) -> str:
    """The repr of what ``read`` yields, or of the error it raises; repr keeps
    NaN comparable and tells 1 from 1.0 and True."""
    try:
        return repr(list(read(io.BytesIO(data))))
    except CorpusError as exc:
        return f"CorpusError({str(exc)!r})"


_PAD = st.sampled_from([b"", b" ", b"\t", b"\r", b" \r"])
_ENCODED = (_JSON | _RECORD).map(lambda v: json.dumps(v).encode())
_DIFF_LINE = (
    st.binary(max_size=12)
    | st.tuples(_PAD, _ENCODED, _PAD).map(b"".join)
    | st.tuples(_ENCODED, st.sampled_from([b"", b" ", b",", b", ", b"],[", b"]"]), _ENCODED)
    .map(b"".join)
    | st.tuples(_ENCODED, st.integers(0, 40)).map(lambda t: t[0][: t[1]])
)


@settings(deadline=None)
@given(lines=st.lists(_DIFF_LINE, max_size=6), ending=st.sampled_from([b"\n", b"\r\n"]))
@example(lines=[b' {"a": 1}', b'{"a": 1} ', b"\t{}\t", b'{"b": 2}\r'], ending=b"\n")
@example(lines=[b'{"a": 1}', b"{}"], ending=b"\r\n")
@example(lines=[b'{"a": "abc'], ending=b"\r\n")
@example(lines=[b"{} {}"], ending=b"\n")
@example(lines=[b'{"a":1}, {"b":2}'], ending=b"\n")
@example(lines=[b'{"k":[[1', b"2]]}"], ending=b"\n")
@example(lines=[b'{"a":1}],[{"b":2}'], ending=b"\n")
@example(lines=[b'{"x": NaN, "y": -Infinity}', b'{"x": 1e999}'], ending=b"\n")
@example(lines=[b'{"n": ' + b"7" * 5_000 + b"}"], ending=b"\n")
@example(lines=[b'{"d": ' + b"[" * 50 + b"]" * 50 + b"}"], ending=b"\n")
@example(lines=[b'{"d": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"], ending=b"\n")
@example(lines=[b'{"d": ' + b"[" * n + b"]" * n + b"}" for n in (99, 100)], ending=b"\n")
@example(lines=[b'{"d": ' + b"[" * 99 + b"{}" + b"]" * 99 + b"}"], ending=b"\n")
@example(lines=[b'{"s": "\\"' + b"[" * 300 + b'", "t": ["]"]}'], ending=b"\n")
@example(lines=[b'{"a": "\\ud83d\\ude00"}', b'{"a": "x\\ud800"}'], ending=b"\n")
@example(lines=[b'{"\\udc00": 1}'], ending=b"\n")
@example(lines=[b'[1, "\\ud800"]'], ending=b"\n")
@example(lines=[b"\xef\xbb\xbf{}"], ending=b"\n")
@example(lines=[b"{}", b"\xef\xbb\xbf{}"], ending=b"\n")
@example(lines=[b'{"a": "x\xffy"}'], ending=b"\n")
@example(lines=[b"\x1c", b"\xc2\x85", b"\x0b\x0c", b"\xc2\xa0{}"], ending=b"\n")
def test_read_jsonl_matches_per_line_json_loads(lines, ending):
    """read_jsonl yields the pairs, or raises the error, of _reference_read."""
    data = b"".join(line + ending for line in lines)
    assert _outcome(read_jsonl, data) == _outcome(_reference_read, data)


def _at_stack_depth(frames: int, fn):
    """``fn()``, called ``frames`` frames below this one."""
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


@pytest.mark.parametrize("arrays", [MAX_DEPTH - 1, MAX_DEPTH, 600])
def test_nesting_verdict_does_not_depend_on_the_callers_stack(arrays):
    """A line is accepted or rejected the same from a shallow and a deep
    caller; the JSON decoder alone rejects 600 levels only from the deep one."""
    line = b'{"id": "p", "predicted_answer": "a", "x": ' + b"[" * arrays + b"]" * arrays + b"}\n"
    outcomes = {
        _at_stack_depth(frames, lambda: _outcome(parse_predictions, line)) for frames in (0, 400)
    }
    assert len(outcomes) == 1
    expected = "line 1: JSON nested deeper than 100 levels" if arrays >= MAX_DEPTH else "['p']"
    assert expected in outcomes.pop()


def _row_of_every_file(sid: str, answer: str, split: str, predicted) -> bytes:
    """One line that is a corpus, a splits and a predictions row at once."""
    return json.dumps({"id": sid, "task": "AVQA", "question_type": "Counting", "question": "q",
                       "answer": answer, "split": split, "rule": "general_threshold",
                       "predicted_answer": predicted}, ensure_ascii=False).encode()


# Rows whose ids collide now and then, and whose fields a reader may reject:
# an empty id or answer, an unknown split, a prediction that is not a string.
_ANY_ROW = st.builds(
    _row_of_every_file,
    st.integers(0, 59).map(lambda i: f"r{i}") | st.just(""),
    st.sampled_from(["yes", "yes", "no", "n\to", ""]),
    st.sampled_from(["head", "head", "tail", "bogus"]),
    st.sampled_from(["yes", "yes", "no", "y\tes", 3]),
)
_RANGE_LINE = (
    _ANY_ROW | _ANY_ROW | _ANY_ROW
    | _ANY_ROW.map(lambda row: b"\xef\xbb\xbf" + row)  # a byte-order mark
    | _ANY_ROW.map(lambda row: row.replace(b'"q"', b'"q\xff"'))  # invalid UTF-8
    | _ANY_ROW.map(lambda row: row[:-1])  # malformed JSON
    | st.sampled_from([b"", b" \t"])
    | st.binary(max_size=6)
)
_EIGHT = [_row_of_every_file(f"r{i}", "yes", "head", "yes") for i in range(8)]


def _read_in_ranges(reader, path, ranges: int):
    """What ``reader`` gives for the file at ``path`` through ``read_ranges`` in
    ``ranges`` ranges, or the text of the CorpusError it raises, after the
    ``path: `` that must begin it."""
    try:
        [parsed] = read_ranges([(reader, path)], ranges)
    except CorpusError as exc:
        prefix, text = f"{path}: ", str(exc)
        assert text.startswith(prefix), text
        return None, text[len(prefix):]
    return parsed, None


@pytest.mark.parametrize("reader", [read_gold, read_splits, parse_predictions])
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_RANGE_LINE, max_size=12), ending=st.sampled_from([b"\n", b"\r\n"]),
       final_newline=st.booleans(), ranges=st.integers(1, 4))
@example(lines=_EIGHT, ending=b"\n", final_newline=True, ranges=2)
@example(lines=_EIGHT + _EIGHT[:1], ending=b"\n", final_newline=True, ranges=2)
@example(lines=_EIGHT[:6] + [b"\xef\xbb\xbf" + _EIGHT[6]], ending=b"\n", final_newline=True,
         ranges=2)
@example(lines=_EIGHT[:6] + [_EIGHT[6].replace(b'"q"', b'"q\xff"')], ending=b"\r\n",
         final_newline=False, ranges=3)
@example(lines=[b"", *_EIGHT, b" \t"], ending=b"\r\n", final_newline=False, ranges=4)
def test_read_ranges_matches_one_read(tmp_path_factory, reader, lines, ending, final_newline,
                                      ranges):
    """A file read in 1 to 4 byte ranges, on as many processes, gives what
    one read of the whole stream gives: the same map in the same key order,
    or the same CorpusError text."""
    data = ending.join(lines) + (ending if final_newline and lines else b"")
    path = tmp_path_factory.mktemp("ranges") / "input.jsonl"
    path.write_bytes(data)
    expected, error = _read(reader, data)
    parsed, ranged_error = _read_in_ranges(reader, path, ranges)
    assert ranged_error == error
    if error is None:
        assert list(parsed.items()) == list(expected.items())


def test_read_ranges_outlives_a_dead_worker(tmp_path):
    """A worker that dies leaves its file to be read whole in this process."""
    parent = os.getpid()

    def parse(stream):
        if os.getpid() != parent:
            os._exit(3)
        return parse_predictions(stream)

    data = b"".join(row + b"\n" for row in _EIGHT)
    (path := tmp_path / "preds.jsonl").write_bytes(data)
    parsed, error = _read_in_ranges(parse, path, 3)
    assert error is None
    assert list(parsed.items()) == list(parse_predictions(io.BytesIO(data)).items())


def test_read_ranges_outlives_a_worker_that_dies_mid_message(tmp_path, monkeypatch):
    """A worker that dies after part of a pickled piece is on its pipe, which
    ``pickle.load`` reports as truncated, leaves its file to be read whole."""
    parent, dump = os.getpid(), pickle.dump

    def dump_half_then_exit(message, out, protocol):
        if os.getpid() == parent:
            return dump(message, out, protocol)
        data = pickle.dumps(message, protocol)
        out.write(data[: len(data) // 2])
        out.flush()
        os._exit(3)

    monkeypatch.setattr(pickle, "dump", dump_half_then_exit)
    data = b"".join(row + b"\n" for row in _EIGHT)
    (path := tmp_path / "preds.jsonl").write_bytes(data)
    parsed, error = _read_in_ranges(parse_predictions, path, 3)
    assert error is None
    assert list(parsed.items()) == list(parse_predictions(io.BytesIO(data)).items())


def test_stop_workers_reaps_a_worker_that_left_a_message_unsent():
    """A message this process has not flushed to a worker that has exited
    cannot be sent: stopping the worker drops it, raises nothing, and reaps
    the worker."""
    workers = data_module.fork_workers(2, lambda k, inbox, outbox: None)
    assert len(workers) == 1
    [worker] = workers
    os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
    worker.send.write(b"unsent")
    data_module.stop_workers(workers)
    assert workers == [] and worker.send.closed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The corpus-line pattern with every string plain (no quote, backslash or
# control character), as the reference for read_gold's block test: that
# test refuses a block with a backslash or a control character other than
# the newline, and matches the rest with strings that run to the next quote.
_PLAIN = r'[^"\\\x00-\x1f]*'
_REFERENCE_GOLD_ROW = re.compile(
    rf'^\{{"id": "({_PLAIN})", "task": "({_PLAIN})", "question_type": "({_PLAIN})", '
    rf'"question": "{_PLAIN}", "answer": "({_PLAIN})"(?:, "source_id": "{_PLAIN}")?\}}$',
    re.M,
)


def _reference_gold_rows(text: str):
    """The rows of a valid UTF-8 block by the reference pattern, or None if
    the block holds a carriage return or a line it does not match."""
    if "\r" in text:
        return None
    found = _REFERENCE_GOLD_ROW.findall(text)
    return found if len(found) == text.count("\n") + 1 else None


# The text of a string as it stands between the quotes of a line: plain
# text, or plain text around one odd piece. The odd pieces are escapes, raw
# control characters (a raw newline ends the line), U+007F, non-ASCII text,
# and a raw quote, which ends the string early.
_PLAIN_PIECES = ["", "a", "yes", "Counting"]
_ODD_PIECES = (["\u00e9", "\u4e2d", "\U0001f600", "\x7f", '"', "\\u0041", '\\"', "\\\\", "\\/",
                "\\t"] + [chr(c) for c in range(0x20)])
_STRING_TEXT = st.sampled_from(_PLAIN_PIECES) | st.builds(
    lambda a, odd, b: a + odd + b, st.sampled_from(_PLAIN_PIECES), st.sampled_from(_ODD_PIECES),
    st.sampled_from(_PLAIN_PIECES))
_SHAPED_GOLD_LINE = st.builds(
    lambda sid, task, qtype, question, answer, source: (
        f'{{"id": "{sid}", "task": "{task}", "question_type": "{qtype}", '
        f'"question": "{question}", "answer": "{answer}"'
        + ("" if source is None else f', "source_id": "{source}"') + "}"),
    st.just("c1") | _STRING_TEXT, st.just("AVQA") | _STRING_TEXT,
    st.just("Counting") | _STRING_TEXT, st.just("q") | _STRING_TEXT,
    st.just("yes") | _STRING_TEXT, st.none() | _STRING_TEXT,
)


@settings(max_examples=1_000, deadline=None)
@given(lines=st.lists(_SHAPED_GOLD_LINE | _SHAPED_GOLD_LINE | st.text(max_size=12),
                      min_size=1, max_size=6))
@example(lines=['{"id": "c1", "task": "AVQA", "question_type": "Counting", '
                '"question": "a\nb", "answer": "yes"}'])
@example(lines=['{"id": "c\\\\", "task": "AVQA", "question_type": "Counting", '
                '"question": "q", "answer": "yes"}'])
@_examples({"lines": ['{"id": "c1", "task": "AVQA", "question_type": "Counting", '
                       f'"question": "q{odd}", "answer": "yes"}}']} for odd in _ODD_PIECES)
def test_gold_block_check_accepts_what_the_plain_string_pattern_accepts(lines):
    """read_gold's block test (``_GOLD_REFUSED``, then ``_GOLD_ROW``) accepts
    exactly the blocks that the pattern with every string plain accepts,
    with the same groups, whatever the strings of the lines hold."""
    text = "\n".join(lines)
    expected = _reference_gold_rows(text)
    rows = data_module._rows(data_module._GOLD_ROW, (text, False), data_module._GOLD_REFUSED)
    assert rows == expected


def _row_lines(reader, n: int) -> list[bytes]:
    """``n`` distinct rows that ``reader`` reads, in more than one 8 KiB block."""
    if reader is read_splits:
        return [_id_row(f"c{i:03d}", _BOTH) for i in range(n)]
    return [_gold_line(i) for i in range(n)]


# (rows, where a copy of row ``copy`` goes in, blank lines to put before
# the given rows); each case reads its file in 1 range and in 2.
_DUPLICATE_CASES = {
    "same block": (200, 10, 5, []),
    "later block": (200, 150, 5, []),
    "after blank lines": (200, 150, 50, [0, 3, 3, 51, 100]),
    "right after blank lines": (200, 150, 3, [0, 3, 3, 51]),
    "across ranges": (200, 200, 5, [2]),
}


@pytest.mark.parametrize("reader", [parse_samples, read_gold, read_splits])
@pytest.mark.parametrize("case", _DUPLICATE_CASES)
def test_duplicate_id_names_the_line_of_the_first_copy(tmp_path, reader, case):
    """A duplicate id is reported at the line of its second copy, with the
    line of its first, counting blank lines: in the block of the first copy,
    in a later block, after blank lines, and with the copies in different
    ranges of a read in two."""
    n, at, copy, blanks = _DUPLICATE_CASES[case]
    rows = _row_lines(reader, n)
    lines = rows[:at] + [rows[copy]] + rows[at:]
    for before in sorted(blanks, reverse=True):
        lines.insert(lines.index(rows[before]), b" \t" if before % 2 else b"")
    first, second = [i + 1 for i, line in enumerate(lines) if line == rows[copy]]
    sid = f"c{copy:03d}"
    expected = f"line {second}: duplicate id {sid!r} (first seen on line {first})"
    data = b"\n".join(lines) + b"\n"
    assert _read(reader, data) == (None, expected)
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    if reader is not parse_samples:
        assert _read_in_ranges(reader, path, 2) == (None, expected)
