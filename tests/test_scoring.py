import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avqa_debias.data import (
    CorpusError, GroupKey, QASample, QuestionType, Task, parse_predictions, read_gold,
    read_ranges, write_samples,
)
from avqa_debias.scoring import (
    AccuracyCell,
    ScoringError,
    VoteTable,
    fleiss_kappa,
    normalize_answer,
    render_report,
    score_predictions,
)
from avqa_debias.splitting import SplitDecision, SplitLabel, SplitRule, read_splits, write_splits
from conftest import make_sample, sample_rows


def decision(sample, label):
    return SplitDecision(sample.group, sample.answer, label, SplitRule.GENERAL_THRESHOLD)


def fixture_4h2t():
    """4 head + 2 tail samples; 3 head and 1 tail predictions correct."""
    gold = [make_sample(f"s{i}", "yes") for i in range(6)]
    labels = [SplitLabel.HEAD] * 4 + [SplitLabel.TAIL] * 2
    splits = {s.id: decision(s, lab) for s, lab in zip(gold, labels)}
    preds = {
        "s0": "yes", "s1": "yes", "s2": "yes", "s3": "no",
        "s4": "yes", "s5": "no",
    }
    return gold, splits, preds


class TestNormalizeAnswer:
    def test_trim_and_lower(self):
        assert normalize_answer("  Two\t\n") == "two"
        assert normalize_answer("YES") == "yes"

    def test_interior_whitespace_kept(self):
        assert normalize_answer("middle ear") == "middle ear"


class TestScorePredictions:
    def test_hand_fixture_exact(self):
        report = score_predictions(*fixture_4h2t())
        agg = report.aggregate
        assert agg.head_acc == Fraction(3, 4)
        assert agg.tail_acc == Fraction(1, 2)
        assert agg.overall_acc == Fraction(2, 3)
        assert (agg.head_n, agg.tail_n) == (4, 2)
        assert report.unmatched_ids == []

    def test_missing_prediction_counts_incorrect(self):
        gold, splits, preds = fixture_4h2t()
        del preds["s0"]
        report = score_predictions(gold, splits, preds)
        assert report.unmatched_ids == ["s0"]
        assert report.aggregate.head_acc == Fraction(2, 4)

    def test_unknown_prediction_id_warns(self):
        gold, splits, preds = fixture_4h2t()
        preds["ghost"] = "yes"
        report = score_predictions(gold, splits, preds)
        assert any("ghost" in w for w in report.warnings)

    def test_unknown_prediction_ids_warn_in_prediction_order(self):
        gold, splits, preds = fixture_4h2t()
        preds = {"zz": "yes", **preds, "aa": "no"}
        report = score_predictions(gold, splits, preds)
        assert report.warnings == ["prediction id 'zz' not in gold corpus",
                                   "prediction id 'aa' not in gold corpus"]
        assert report.aggregate.overall_acc == Fraction(2, 3)

    def test_split_for_unknown_sample_raises(self):
        gold, splits, preds = fixture_4h2t()
        rogue = decision(make_sample("other", "yes"), SplitLabel.HEAD)
        with pytest.raises(ScoringError, match="unknown sample"):
            score_predictions(gold, {**splits, "other": rogue}, preds)

    def test_results_follow_splits_order_not_id_order(self):
        """Unmatched ids come in the map's order, and of two faulty split ids
        the first in that order is reported, not the first by id."""
        gold, splits, preds = fixture_4h2t()
        splits = dict(reversed(splits.items()))
        del preds["s1"], preds["s4"]
        assert score_predictions(gold, splits, preds).unmatched_ids == ["s4", "s1"]
        rogue = decision(make_sample("other", "yes"), SplitLabel.HEAD)
        with pytest.raises(ScoringError, match="unknown sample id 'zz'"):
            score_predictions(gold, {"zz": rogue, **splits, "aa": rogue}, preds)

    def test_split_disagreeing_with_gold_group_raises(self):
        gold, splits, preds = fixture_4h2t()
        moved = make_sample("s2", "yes", qtype=QuestionType.TEMPORAL)
        splits["s2"] = decision(moved, SplitLabel.HEAD)
        with pytest.raises(ScoringError, match=r"'s2' \(AVQA/Temporal, answer 'yes'\) disagrees "
                                               r"with the gold sample \(AVQA/Counting, "):
            score_predictions(gold, splits, preds)

    def test_split_disagreeing_with_gold_answer_raises(self):
        gold, splits, preds = fixture_4h2t()
        splits["s4"] = decision(make_sample("s4", "no"), SplitLabel.TAIL)
        with pytest.raises(ScoringError, match=r"'s4' \(AVQA/Counting, answer 'no'\) disagrees "
                                               r"with the gold sample \(.*, answer 'yes'\)"):
            score_predictions(gold, splits, preds)

    def test_duplicate_gold_id_rejected(self):
        # keeping the last gold row would score s0 right, at head accuracy 1
        gold = [make_sample("s0", "yes"), make_sample("s0", "no")]
        splits = {"s0": decision(gold[1], SplitLabel.HEAD)}
        with pytest.raises(CorpusError) as info:
            score_predictions(gold, splits, {"s0": "no"})
        assert str(info.value) == "duplicate id 's0'"

    def test_normalization_applied_to_both_sides(self):
        gold = [make_sample("s0", "  Yes ")]
        splits = {"s0": decision(gold[0], SplitLabel.HEAD)}
        report = score_predictions(gold, splits, {"s0": "YES\n"})
        assert report.aggregate.head_acc == 1

    def test_only_assigned_samples_scored(self):
        gold, splits, preds = fixture_4h2t()
        extra = make_sample("unsplit", "yes")
        report = score_predictions(gold + [extra], splits, preds)
        assert report.aggregate.head_n + report.aggregate.tail_n == 6

    def test_aggregate_is_sample_weighted_group_mean(self):
        rng = random.Random(7)
        groups = [
            (Task.AUDIO_QA, QuestionType.COUNTING),
            (Task.AUDIO_QA, QuestionType.COMPARATIVE),
            (Task.VISUAL_QA, QuestionType.LOCATION),
            (Task.AVQA, QuestionType.EXISTENTIAL),
            (Task.AVQA, QuestionType.TEMPORAL),
        ]
        gold, splits, preds = [], {}, {}
        for gi, (task, qtype) in enumerate(groups):
            for i in range(rng.randint(5, 40)):
                s = make_sample(f"g{gi}-{i}", "yes", task=task, qtype=qtype)
                gold.append(s)
                splits[s.id] = decision(
                    s, SplitLabel.HEAD if rng.random() < 0.6 else SplitLabel.TAIL)
                preds[s.id] = "yes" if rng.random() < 0.7 else "no"
        report = score_predictions(gold, splits, preds)
        total = sum(c.head_n + c.tail_n for c in report.per_group.values())
        weighted = sum(
            (c.overall_acc or 0) * (c.head_n + c.tail_n) for c in report.per_group.values()
        )
        # both sides are exact rationals, so the identity is exact
        assert report.aggregate.overall_acc == weighted / total

    def test_empty_cell_accuracy_is_none(self):
        cell = AccuracyCell()
        assert cell.head_acc is None and cell.tail_acc is None and cell.overall_acc is None


def _reference_score(gold, splits, preds):
    """The scorer's rules as a plain per-row tally: (per_group, per_task,
    aggregate) cells as [head_correct, head_n, tail_correct, tail_n] lists,
    the unmatched ids and the warnings; or the ScoringError to raise."""
    by_id = {s.id: s for s in gold}
    cells: dict = {}
    unmatched = []
    for sid, d in splits.items():
        sample = by_id.get(sid)
        if sample is None:
            raise ScoringError(f"split assignment refers to unknown sample id {sid!r}")
        if d.group != sample.group or d.answer_class != sample.answer:
            raise ScoringError(
                f"split assignment {sid!r} ({d.group}, answer {d.answer_class!r}) "
                f"disagrees with the gold sample ({sample.group}, answer {sample.answer!r})")
        predicted = preds.get(sid)
        if predicted is None:
            unmatched.append(sid)
        ascii_space = " \t\r\n\f\v"
        correct = (predicted is not None and predicted.strip(ascii_space).lower()
                   == sample.answer.strip(ascii_space).lower())
        i = 0 if d.label is SplitLabel.HEAD else 2
        for key in (d.group, d.group.task, "All"):
            cell = cells.setdefault(key, [0, 0, 0, 0])
            cell[i] += correct
            cell[i + 1] += 1
    warnings = [f"prediction id {pid!r} not in gold corpus" for pid in preds if pid not in by_id]
    per_group = dict(sorted((k, v) for k, v in cells.items() if isinstance(k, GroupKey)))
    per_task = dict(sorted(((k, v) for k, v in cells.items() if isinstance(k, Task)),
                           key=lambda kv: kv[0].value))
    return per_group, per_task, cells.get("All", [0, 0, 0, 0]), unmatched, warnings


def _cell(c: AccuracyCell) -> list[int]:
    return [c.head_correct, c.head_n, c.tail_correct, c.tail_n]


_GROUPS = [GroupKey(Task.AVQA, QuestionType.COUNTING), GroupKey(Task.AVQA, QuestionType.TEMPORAL),
           GroupKey(Task.AUDIO_QA, QuestionType.COUNTING)]
_ANSWERS = ["yes", "No", " two", "three\t", "\u00a0yes", "İ"]
# Ways to spell a prediction of an answer: as is, in another case, with
# ASCII whitespace (trimmed), with a no-break space (kept); or present but
# empty, which is wrong and not unmatched.
_SPELLINGS = [str, str.upper, str.lower, lambda a: f" {a}\n", lambda a: f"\u00a0{a}",
              lambda a: "", lambda a: "  "]


@st.composite
def _scoring_case(draw):
    """A corpus, a splits map over some of its samples in any order (their
    decisions shared by answer class, or one per row), and predictions that
    are right, wrong, missing or for unknown ids; at times one split id is
    unknown or its decision disagrees with its gold sample."""
    gold = [QASample(f"s{i}", *draw(st.sampled_from(_GROUPS)), "q", draw(st.sampled_from(_ANSWERS)))
            for i in range(draw(st.integers(0, 24)))]
    shared = draw(st.booleans())
    decisions: dict = {}
    splits = []
    for i in draw(st.lists(st.integers(0, len(gold) - 1), unique=True)) if gold else []:
        s = gold[i]
        decision = SplitDecision(s.group, s.answer, draw(st.sampled_from(SplitLabel)),
                                 SplitRule.GENERAL_THRESHOLD)
        if shared:
            decision = decisions.setdefault(decision, decision)
        splits.append((s.id, decision))
    fault = draw(st.sampled_from([None, None, None, "unknown", "group", "answer", "borrowed"]))
    if fault and splits:
        k = draw(st.integers(0, len(splits) - 1))
        sid, decision = splits[k]
        group, answer, label, rule = decision
        if fault == "unknown":
            sid = "ghost"
        elif fault == "group":
            group = draw(st.sampled_from([g for g in _GROUPS if g != group]))
        elif fault == "answer":
            answer = draw(st.sampled_from([a for a in _ANSWERS if a != answer]))
        else:  # the decision object of another row, perhaps of another answer class
            decision = draw(st.sampled_from(splits))[1]
        if fault != "borrowed":
            decision = SplitDecision(group, answer, label, rule)
        splits[k] = sid, decision
    preds = {}
    for s in gold:
        kind = draw(st.sampled_from(["right", "wrong", "missing"]))
        if kind != "missing":
            answer = s.answer if kind == "right" else draw(st.sampled_from(_ANSWERS))
            preds[s.id] = draw(st.sampled_from(_SPELLINGS))(answer)
    for pid in draw(st.lists(st.sampled_from(["ghost", "x1", "x2"]), unique=True)):
        preds[pid] = "yes"
    return gold, dict(splits), dict(draw(st.permutations(list(preds.items()))))


def _as_files(tmp_path_factory, gold, splits, preds) -> tuple:
    """Paths of ``gold``, ``splits`` and ``preds`` written as the CLI reads them."""
    folder = tmp_path_factory.mktemp("scoring")
    paths = folder / "gold.jsonl", folder / "splits.jsonl", folder / "preds.jsonl"
    with open(paths[0], "wb") as f:
        write_samples(sample_rows(gold), f)
    with open(paths[1], "wb") as f:
        write_splits(splits, f)
    paths[2].write_bytes(b"".join(
        json.dumps({"id": pid, "predicted_answer": p}).encode() + b"\n" for pid, p in preds.items()))
    return paths


class TestScoreAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(case=_scoring_case(),
           form=st.sampled_from(["samples", "read_gold", "by_hand", "read_splits", "read_ranges"]))
    def test_matches_a_per_row_tally(self, tmp_path_factory, case, form):
        """Same cells in the same order, unmatched ids and warnings, or the
        same error, whether gold is a list of samples, read_gold's map, or a
        map built by hand, whose equal records are not shared; whether splits
        is the map built here or read_splits' map; and whether the three
        maps are read by read_ranges in two ranges, merged from two processes."""
        gold, splits, preds = case
        scored = gold, splits, preds
        if form in ("read_gold", "read_splits", "read_ranges"):
            paths = _as_files(tmp_path_factory, gold, splits, preds)
            if form == "read_gold":
                scored = read_gold(io.BytesIO(paths[0].read_bytes())), splits, preds
            elif form == "read_splits":
                scored = gold, read_splits(io.BytesIO(paths[1].read_bytes())), preds
            else:
                jobs = list(zip([read_gold, read_splits, parse_predictions], paths))
                scored = tuple(read_ranges(jobs, 2))
                assert scored[2] == preds
        elif form == "by_hand":
            scored = {s.id: (s.group, s.answer) for s in gold}, splits, preds
        try:
            expected = _reference_score(gold, splits, preds)
        except ScoringError as exc:
            with pytest.raises(ScoringError) as info:
                score_predictions(*scored)
            assert str(info.value) == str(exc)
            return
        report = score_predictions(*scored)
        per_group, per_task, aggregate, unmatched, warnings = expected
        assert {k: _cell(c) for k, c in report.per_group.items()} == per_group
        assert list(report.per_group) == list(per_group)
        assert {k: _cell(c) for k, c in report.per_task.items()} == per_task
        assert list(report.per_task) == list(per_task)
        assert _cell(report.aggregate) == aggregate
        assert report.unmatched_ids == unmatched and report.warnings == warnings

    def test_empty_predictions_are_wrong_not_unmatched(self):
        gold = [make_sample("a", "yes"), make_sample("b", "yes"), make_sample("c", "yes")]
        splits = {s.id: decision(s, SplitLabel.HEAD) for s in gold}
        report = score_predictions(gold, splits, {"a": "", "b": "  "})
        assert _cell(report.aggregate) == [0, 3, 0, 0]
        assert report.unmatched_ids == ["c"] and report.warnings == []


class TestVoteTable:
    def test_validation(self):
        with pytest.raises(ScoringError, match="raters"):
            VoteTable(raters=1, rows=((1, 0),))
        with pytest.raises(ScoringError, match="at least one row"):
            VoteTable(raters=3, rows=())
        with pytest.raises(ScoringError, match="categories"):
            VoteTable(raters=3, rows=((3,),))
        with pytest.raises(ScoringError, match="ragged"):
            VoteTable(raters=3, rows=((2, 1), (3, 0, 0)))
        with pytest.raises(ScoringError, match="sum"):
            VoteTable(raters=3, rows=((2, 2),))
        with pytest.raises(ScoringError, match="negative"):
            VoteTable(raters=3, rows=((4, -1), (3, 0)))
        with pytest.raises(ScoringError, match="multiplicities"):
            VoteTable(raters=3, rows=((2, 1),), multiplicities=(1, 2))
        with pytest.raises(ScoringError, match="positive"):
            VoteTable(raters=3, rows=((2, 1),), multiplicities=(0,))

    def test_item_count(self):
        t = VoteTable(raters=3, rows=((2, 1), (0, 3)), multiplicities=(4, 6))
        assert t.item_count == 10
        assert t.categories == 2


class TestFleissKappa:
    def test_three_rater_pass_fail_oracle(self):
        # 3 raters x 228,225 items summarized by agreement pattern; the
        # expected value was derived independently with exact rationals
        table = VoteTable(
            raters=3,
            rows=((3, 0), (2, 1), (1, 2), (0, 3)),
            multiplicities=(164219, 47353, 7481, 9172),
        )
        assert fleiss_kappa(table) == pytest.approx(0.29740496162077545, abs=1e-12)

    def test_textbook_example(self):
        # Fleiss (1971)-style table, 2 raters, checked by hand:
        # P_bar = 1/2, Pe_bar = 1/2, kappa = 0
        table = VoteTable(raters=2, rows=((2, 0), (1, 1), (1, 1), (0, 2)))
        assert fleiss_kappa(table) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_agreement_degenerate_chance(self):
        table = VoteTable(raters=3, rows=((3, 0), (3, 0)))
        assert fleiss_kappa(table) == 1.0

    def test_perfect_agreement_across_categories(self):
        # P_bar = 1, Pe_bar = 1/2 -> kappa = 1 exactly
        table = VoteTable(raters=3, rows=((3, 0), (0, 3)))
        assert fleiss_kappa(table) == 1.0

    def test_multiplicities_equal_expansion(self):
        rows = ((2, 1), (0, 3), (3, 0))
        mult = (3, 2, 5)
        compact = VoteTable(raters=3, rows=rows, multiplicities=mult)
        expanded = VoteTable(
            raters=3, rows=tuple(r for r, m in zip(rows, mult) for _ in range(m))
        )
        assert fleiss_kappa(compact) == fleiss_kappa(expanded)


class TestRenderReport:
    def test_text_table_shape(self):
        report = score_predictions(*fixture_4h2t())
        text = render_report(report, "text-table").decode()
        lines = text.splitlines()
        assert lines[0].startswith("| Group")
        assert lines[-1].startswith("| All")
        assert " 75.00 " in lines[-1] and " 50.00 " in lines[-1] and " 66.67 " in lines[-1]

    def test_json_stable_and_rounded(self):
        report = score_predictions(*fixture_4h2t())
        obj = json.loads(render_report(report, "json"))
        assert obj["schema_version"] == 1
        assert obj["aggregate"] == {
            "head_acc": 0.75,
            "tail_acc": 0.5,
            "overall_acc": 0.6667,
            "head_n": 4,
            "tail_n": 2,
        }
        assert render_report(report, "json") == render_report(report, "json")

    def test_unknown_format(self):
        report = score_predictions(*fixture_4h2t())
        with pytest.raises(ScoringError, match="unknown report format"):
            render_report(report, "yaml")
