import io
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avqa_debias import data as data_module
from avqa_debias.data import CorpusError, GroupKey, QuestionType, Task
from avqa_debias.splitting import (
    AnswerDistribution,
    SplitConfig,
    SplitDecision,
    SplitError,
    SplitLabel,
    SplitRule,
    answer_distribution,
    assign_splits,
    read_splits,
    select_imbalanced_groups,
    split_head_tail,
    write_splits,
)
from conftest import TRICKY, make_sample, samples_from_counts, written


def dist(counts: dict[str, int]) -> AnswerDistribution:
    return answer_distribution(samples_from_counts(counts))


class TestAnswerDistribution:
    def test_counts_and_totals(self):
        d = dist({"a": 2, "b": 1, "c": 1})
        assert d.counts == {"a": 2, "b": 1, "c": 1}
        assert d.total == 4
        assert d.class_count == 3
        assert d.mean_count == Fraction(4, 3)

    def test_normalized_entropy_oracle(self):
        # independently derived: H({1/2, 1/4, 1/4}) / log 3
        assert dist({"a": 2, "b": 1, "c": 1}).normalized_entropy == pytest.approx(
            0.946394630357186, abs=1e-12
        )

    def test_uniform_is_one_point_mass_is_zero(self):
        assert dist({"a": 5, "b": 5, "c": 5, "d": 5}).normalized_entropy == pytest.approx(
            1.0, abs=1e-12
        )
        single = dist({"only": 7})
        assert single.entropy == 0.0
        assert single.normalized_entropy == 1.0  # pinned so thresholds < 1 exclude it

    def test_empty_group_rejected(self):
        with pytest.raises(SplitError):
            answer_distribution([])

    def test_mixed_groups_rejected(self):
        mixed = [
            make_sample("1", "x", task=Task.AVQA),
            make_sample("2", "x", task=Task.AUDIO_QA),
        ]
        with pytest.raises(SplitError, match="mixed groups"):
            answer_distribution(mixed)


class TestSelectImbalanced:
    def test_threshold_is_strict(self):
        d = dist({"a": 2, "b": 1, "c": 1})
        at = SplitConfig(entropy_threshold=d.normalized_entropy)
        below = SplitConfig(entropy_threshold=math.nextafter(d.normalized_entropy, 0.0))
        assert select_imbalanced_groups([d], at) == []  # equality excludes
        assert select_imbalanced_groups([d], below) == []
        assert select_imbalanced_groups([d], SplitConfig(entropy_threshold=0.95)) == [d]

    def test_default_excludes_the_spec_example(self):
        # normalized entropy 0.9464 >= 0.9, so the group is balanced enough to skip
        assert select_imbalanced_groups([dist({"a": 2, "b": 1, "c": 1})]) == []


class TestSplitHeadTail:
    def test_three_class_fixture(self):
        labels, rule = split_head_tail(dist({"a": 100, "b": 20, "c": 4}))
        assert labels == {"a": SplitLabel.HEAD, "b": SplitLabel.TAIL, "c": SplitLabel.TAIL}
        assert rule is SplitRule.GENERAL_THRESHOLD

    def test_two_answer_low_frequency_rule(self):
        labels, rule = split_head_tail(dist({"a": 60, "b": 40}))
        assert labels == {"a": SplitLabel.HEAD, "b": SplitLabel.TAIL}
        assert rule is SplitRule.TWO_ANSWER_LOW_FREQUENCY

    def test_exact_boundary_count_is_tail(self):
        # mean 10/3, factor 6/5, cutoff exactly 4: the count-4 class is tail
        labels, _ = split_head_tail(dist({"a": 4, "b": 3, "c": 3}))
        assert labels["a"] is SplitLabel.TAIL

    def test_boundary_uses_exact_arithmetic(self):
        cfg = SplitConfig()
        assert cfg.tail_factor_exact() == Fraction(6, 5)
        # 1.2 * 35 = 42 exactly; a count of 42 must be tail, 43 head
        labels, _ = split_head_tail(dist({"a": 42, "b": 43, "c": 20}))
        assert labels == {
            "a": SplitLabel.TAIL,
            "b": SplitLabel.HEAD,
            "c": SplitLabel.TAIL,
        }

    def test_single_class_errors(self):
        with pytest.raises(SplitError, match="single answer class"):
            split_head_tail(dist({"only": 3}))

    def test_two_answer_tie(self):
        with pytest.raises(SplitError, match="equal counts"):
            split_head_tail(dist({"a": 5, "b": 5}))

    @pytest.mark.parametrize("factor", [0.0, -1.2, math.nan, math.inf, -math.inf])
    def test_tail_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(ValueError, match="tail_factor must be finite and positive"):
            SplitConfig(tail_factor=factor)


class TestSkippedByConstruction:
    """A two-answer tie and a single-answer group have normalized entropy
    exactly 1.0. No threshold in (0, 1] keeps them, so ``assign_splits``
    never hands either to ``split_head_tail``."""

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @example(1, 1.0)
    @example(10**6, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_tie_and_single_answer_have_entropy_one(self, c, threshold):
        key = GroupKey(Task.AVQA, QuestionType.COUNTING)
        tie = AnswerDistribution(group=key, counts={"a": c, "b": c})
        single = AnswerDistribution(group=key, counts={"a": c})
        assert tie.normalized_entropy == 1.0
        assert single.normalized_entropy == 1.0
        cfg = SplitConfig(entropy_threshold=threshold)
        assert select_imbalanced_groups([tie, single], cfg) == []

    def test_assign_splits_skips_both_at_threshold_one(self):
        corpus = TestAssignSplits().corpus()  # holds a single-answer VisualQA group
        corpus += samples_from_counts(
            {"p": 3, "q": 3}, task=Task.AVQA, qtype=QuestionType.TEMPORAL, prefix="tie"
        )
        result = assign_splits(corpus, SplitConfig(entropy_threshold=1.0))
        assert [str(g) for g in result.skipped_groups] == ["VisualQA/Counting", "AVQA/Temporal"]
        assert list(result.assignments) == [s.id for s in corpus if s.id.startswith(("avqa", "aq"))]


class TestAssignSplits:
    def corpus(self):
        c = samples_from_counts(
            {"a": 10, "b": 2, "c": 1}, task=Task.AVQA, qtype=QuestionType.COUNTING, prefix="avqa"
        )
        c += samples_from_counts(
            {"x": 8, "y": 2}, task=Task.AUDIO_QA, qtype=QuestionType.COMPARATIVE, prefix="aq"
        )
        c += samples_from_counts(
            {"z": 4}, task=Task.VISUAL_QA, qtype=QuestionType.COUNTING, prefix="vq"
        )
        return c

    def test_pipeline(self):
        result = assign_splits(self.corpus())
        # the single-class VisualQA group has pinned entropy 1 and is skipped
        assert [str(g) for g in result.skipped_groups] == ["VisualQA/Counting"]
        by_id = result.assignments
        assert len(by_id) == 13 + 10
        # answer a has count 10 > 1.2 * 13/3 = 5.2 -> head
        assert by_id["avqa0000"].label is SplitLabel.HEAD
        assert by_id["avqa0010"].label is SplitLabel.TAIL  # answer "b"
        assert by_id["aq0000"].label is SplitLabel.HEAD  # answer "x", two-answer rule
        assert by_id["aq0008"].label is SplitLabel.TAIL  # answer "y"
        assert by_id["aq0000"].rule is SplitRule.TWO_ANSWER_LOW_FREQUENCY

    def test_one_report_per_group(self):
        result = assign_splits(self.corpus())
        by_group = {str(r.distribution.group): r for r in result.group_reports}
        assert list(by_group) == ["AudioQA/Comparative", "VisualQA/Counting", "AVQA/Counting"]
        skipped = by_group["VisualQA/Counting"]
        assert not skipped.retained and skipped.labels is None and skipped.rule is None
        assert result.skipped_groups == [skipped.distribution.group]
        for d in result.assignments.values():
            report = by_group[str(d.group)]
            assert report.retained
            assert d.group is report.distribution.group  # one key object per group
            assert (d.label, d.rule) == (report.labels[d.answer_class], report.rule)

    def test_assignment_order_follows_corpus(self):
        corpus = self.corpus()
        result = assign_splits(corpus)
        assert list(result.assignments) == [s.id for s in corpus if not s.id.startswith("vq")]

    def test_output_follows_map_order(self):
        """Rows come out in the gold map's order, not in id order, from
        assign_splits through write_splits and back through read_splits."""
        corpus = self.corpus()[::-1]
        result = assign_splits({s.id: (s.group, s.answer) for s in corpus})
        expected = [s.id for s in corpus if not s.id.startswith("vq")]
        assert list(result.assignments) == expected != sorted(expected)
        buf = io.BytesIO()
        write_splits(result.assignments, buf)
        assert [json.loads(line)["id"] for line in buf.getvalue().splitlines()] == expected
        assert list(read_splits(io.BytesIO(buf.getvalue()))) == expected

    def test_empty_corpus(self):
        with pytest.raises(SplitError, match="empty corpus"):
            assign_splits([])

    def test_duplicate_sample_id_rejected(self):
        # counted twice, s0000 would make this skipped group (entropy 0.946) a kept one (0.865)
        corpus = samples_from_counts({"a": 2, "b": 1, "c": 1})
        corpus.append(make_sample(corpus[0].id, "a"))
        with pytest.raises(CorpusError) as info:
            assign_splits(corpus)
        assert str(info.value) == "duplicate id 's0000'"

    def test_round_trip(self):
        result = assign_splits(self.corpus())
        buf = io.BytesIO()
        write_splits(result.assignments, buf)
        buf.seek(0)
        assert list(read_splits(buf).items()) == list(result.assignments.items())

    def test_duplicate_id_rejected_at_the_second_copy(self):
        # a sample listed twice would be scored twice
        result = assign_splits(self.corpus())
        buf = io.BytesIO()
        write_splits(dict(list(result.assignments.items())[:3]), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        # lines 1-3 are records, 4 and 6 are blank, 5 copies line 2
        data = b"".join(lines) + b"\n" + lines[1] + b"\n"
        with pytest.raises(CorpusError, match=r"^line 5: duplicate id 'avqa0001' \(first .* 2\)"):
            read_splits(io.BytesIO(data))
        data = b"\n\n" + b"".join(lines) + lines[0]
        with pytest.raises(CorpusError, match=r"^line 6: duplicate id 'avqa0000' \(first .* 3\)"):
            read_splits(io.BytesIO(data))


def _write_per_row(assignments, stream):
    """The writer write_splits must match byte for byte: one json.dumps per row."""
    for sid, d in assignments.items():
        obj = {
            "id": sid,
            "task": d.group.task.value,
            "question_type": d.group.question_type.value,
            "answer": d.answer_class,
            "split": d.label.value,
            "rule": d.rule.value,
        }
        stream.write(json.dumps(obj, ensure_ascii=False).encode("utf-8") + b"\n")


_DECISION = st.builds(
    SplitDecision,
    st.builds(GroupKey, st.sampled_from(Task), st.sampled_from(QuestionType)),
    TRICKY,
    st.sampled_from(SplitLabel),
    st.sampled_from(SplitRule),
)


@st.composite
def _assignments(draw):
    """A map of up to 12 unique ids, whose decisions come from a pool of up to
    3, so rows share a decision as they do in ``assign_splits`` and
    ``read_splits``."""
    pool = draw(st.lists(_DECISION, min_size=1, max_size=3))
    return {sid: draw(st.sampled_from(pool))
            for sid in draw(st.lists(TRICKY, max_size=12, unique=True))}


class TestWriteSplits:
    @settings(max_examples=300, deadline=None)
    @given(assignments=_assignments(), chunk=st.integers(1, 5))
    def test_matches_a_per_row_writer(self, assignments, chunk):
        """Same bytes, or the same error after the same bytes, with a lone
        surrogate at any row, on either side of a chunk boundary."""
        with mock.patch.object(data_module, "_CHUNK_LINES", chunk):
            assert written(write_splits, assignments) == written(_write_per_row, assignments)

    @pytest.mark.parametrize("bad_row", [None, 0, 511, 512, 1024])
    def test_matches_a_per_row_writer_at_full_chunks(self, bad_row):
        group = GroupKey(Task.AVQA, QuestionType.COUNTING)
        head, tail = (SplitDecision(group, "two", label, SplitRule.GENERAL_THRESHOLD)
                      for label in SplitLabel)
        rows = [(f"r{i}", (head, tail)[i % 2]) for i in range(2 * 512 + 1)]
        if bad_row is not None:
            rows[bad_row] = 'q"\ud800', tail
        assignments = dict(rows)
        assert data_module._CHUNK_LINES == 512
        got = written(write_splits, assignments)
        assert got == written(_write_per_row, assignments)
        assert got[0].count(b"\n") == (len(assignments) if bad_row is None else bad_row)


class TestEntropyProperties:
    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=2, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_base_invariance(self, counts):
        # normalized entropy computed in nats equals the log2 formulation
        d = dist({f"a{i}": c for i, c in enumerate(counts)})
        total = sum(counts)
        h2 = -sum((c / total) * math.log2(c / total) for c in counts)
        assert d.normalized_entropy == pytest.approx(h2 / math.log2(len(counts)), abs=1e-12)

    @given(st.integers(min_value=2, max_value=128), st.integers(min_value=1, max_value=40))
    @settings(deadline=None)
    def test_uniform_normalizes_to_one(self, n, c):
        d = dist({f"a{i}": c for i in range(n)})
        assert d.normalized_entropy == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=2, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_bounded_in_unit_interval(self, counts):
        d = dist({f"a{i}": c for i, c in enumerate(counts)})
        assert -1e-12 <= d.normalized_entropy <= 1.0 + 1e-12

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=10),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_scale_invariance(self, counts, k):
        a = dist({f"a{i}": c for i, c in enumerate(counts)})
        b = dist({f"a{i}": c * k for i, c in enumerate(counts)})
        assert a.normalized_entropy == pytest.approx(b.normalized_entropy, abs=1e-9)

    @given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=200))
    @settings(deadline=None)
    def test_concentration_lowers_entropy(self, n, extra):
        balanced = dist({f"a{i}": 10 for i in range(n)})
        skewed = dist({f"a{i}": 10 + (extra if i == 0 else 0) for i in range(n)})
        assert skewed.normalized_entropy <= balanced.normalized_entropy + 1e-12

    @given(
        st.dictionaries(
            st.text(st.characters(categories=("Ll",)), min_size=1, max_size=4),
            st.integers(min_value=1, max_value=300),
            min_size=3,
            max_size=10,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_split_labels_are_total_and_tail_nonempty(self, counts):
        labels, rule = split_head_tail(dist(counts))
        assert set(labels) == set(counts)
        assert rule is SplitRule.GENERAL_THRESHOLD
        # the minimum count never exceeds the mean, so the cutoff with
        # factor 6/5 always leaves at least one tail class
        assert any(v is SplitLabel.TAIL for v in labels.values())
