"""Acceptance suite: one test per stated criterion, at the stated tolerances.

The debiasing demonstration (criteria 5 and 6) trains 40 small models and
dominates the runtime of this file; everything else is seconds.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from avqa_debias.data import GroupKey, QuestionType, Task, parse_samples, validate_corpus
from avqa_debias.losses import (
    LogitBundle,
    MccdConfig,
    answer_loss,
    cycle_loss,
    discrepancy_loss,
    joint_loss,
)
from avqa_debias.scoring import score_predictions
from avqa_debias.splitting import (
    SplitLabel,
    answer_distribution,
    assign_splits,
    split_head_tail,
    write_splits,
)
from avqa_debias.toy import (
    AblationSpec,
    AblationVariant,
    SyntheticConfig,
    TrainConfig,
    run_variant,
)
from conftest import make_sample, samples_from_counts
from test_scoring import decision, fixture_4h2t

GOLDEN = Path(__file__).parent / "golden"
SEEDS = list(range(10))


def dist(counts):
    return answer_distribution(samples_from_counts(counts))


@pytest.fixture(scope="session")
def debias_runs():
    """Median accuracies per variant over 10 seeds at library defaults."""
    variants = {
        "full": AblationVariant.FULL,
        "baseline": AblationVariant.BASELINE_CE_ONLY,
        "without_md": AblationVariant.WITHOUT_MD,
        "without_cg": AblationVariant.WITHOUT_CG,
    }
    scfg, tcfg = SyntheticConfig(), TrainConfig()
    out = {"elapsed": {}}
    for name, variant in variants.items():
        t0 = time.monotonic()
        runs = [run_variant(scfg, tcfg, AblationSpec(variant=variant), seed) for seed in SEEDS]
        out["elapsed"][name] = time.monotonic() - t0
        out[name] = {
            "tail": statistics.median(r["tail_acc"] for r in runs),
            "overall": statistics.median(r["overall_acc"] for r in runs),
            "head": statistics.median(r["head_acc"] for r in runs),
        }
    return out


class TestCriterion1Entropy:
    def test_uniform_and_point_mass(self):
        t0 = time.monotonic()
        for n in range(2, 129):
            uniform = dist({f"a{i}": 3 for i in range(n)})
            assert abs(uniform.normalized_entropy - 1.0) <= 1e-12, n
        point = dist({"only": 17})
        assert point.entropy == 0.0
        assert time.monotonic() - t0 < 1.0


class TestCriterion2SplitterFixtures:
    def test_fixtures_and_golden_bytes(self, tmp_path):
        t0 = time.monotonic()
        labels, _ = split_head_tail(dist({"a": 100, "b": 20, "c": 4}))
        assert labels == {"a": SplitLabel.HEAD, "b": SplitLabel.TAIL, "c": SplitLabel.TAIL}

        labels, _ = split_head_tail(dist({"a": 60, "b": 40}))
        assert labels == {"a": SplitLabel.HEAD, "b": SplitLabel.TAIL}

        # count exactly 1.2 * mean: {4, 3, 3} has mean 10/3, cutoff 4
        labels, _ = split_head_tail(dist({"a": 4, "b": 3, "c": 3}))
        assert labels["a"] is SplitLabel.TAIL

        with open(GOLDEN / "corpus.jsonl", "rb") as f:
            corpus = parse_samples(f)
        result = assign_splits(corpus)
        with open(tmp_path / "splits.jsonl", "wb") as f:
            write_splits(result.assignments, f)
        assert (tmp_path / "splits.jsonl").read_bytes() == (GOLDEN / "splits.jsonl").read_bytes()
        assert time.monotonic() - t0 < 1.0


def _rows_softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _oracle_values(loss, y, labels, cfg):
    """Straight-line per-row loss values, written independently of the library.

    ``y`` maps each head to an (M, C) matrix of logit rows; ``labels`` is a
    length-M vector. Returns the M per-row loss values.
    """
    m = y["fused"].shape[0]
    out = np.zeros(m)
    if loss in ("answer", "joint"):
        f = y["fused"]
        lse = np.log(np.exp(f - f.max(axis=1, keepdims=True)).sum(axis=1)) + f.max(axis=1)
        out += lse - f[np.arange(m), labels]
    if loss in ("discrepancy", "joint"):
        z = {n: _rows_softmax(y[n]) for n in y} if cfg.distance_space == "probability" else y
        for h in ("audio", "video", "question"):
            d = np.sqrt(((z[h] - z["fused"]) ** 2).sum(axis=1))
            out += cfg.alpha / 3.0 / (d + cfg.epsilon)
    if loss in ("cycle", "joint"):
        p = {n: _rows_softmax(y[n]) for n in ("audio", "video", "question")}
        for src, dst in (("question", "audio"), ("audio", "video"), ("video", "question")):
            out += cfg.beta / 3.0 * (p[src] * np.log(p[src] / p[dst])).sum(axis=1)
    return out


class TestCriterion3Gradients:
    def test_all_losses_both_modes(self):
        """Analytic gradients of every loss term match central finite
        differences of an independent value oracle, per coordinate, for 50
        random bundles at each answer-space size and in both distance modes."""
        t0 = time.monotonic()
        h = 1e-5
        worst = 0.0
        k = 50
        for c in (3, 10, 42):
            rng = np.random.default_rng(1000 + c)
            bundles = [
                LogitBundle(*(rng.standard_normal(c) * 3.0 for _ in range(4)))
                for _ in range(k)
            ]
            labels = list(rng.integers(c, size=k))
            y = {n: np.stack([getattr(b, n) for b in bundles])
                 for n in ("audio", "video", "question", "fused")}
            for mode in ("probability", "raw_logit"):
                cfg = MccdConfig(distance_space=mode)
                losses = {
                    "answer": answer_loss(y["fused"], labels),
                    "discrepancy": discrepancy_loss(bundles, cfg),
                    "cycle": cycle_loss(bundles, cfg),
                    "joint": joint_loss(bundles, labels, cfg),
                }
                eye = np.eye(c)
                for loss_name, lv in losses.items():
                    for i in range(k):
                        rows = {n: y[n][i][None, :].repeat(2 * c, axis=0) for n in y}
                        for head in ("audio", "video", "question", "fused"):
                            pert = dict(rows)
                            pert[head] = np.concatenate(
                                [rows[head][:c] + h * eye, rows[head][:c] - h * eye]
                            )
                            vals = _oracle_values(
                                loss_name, pert, [labels[i]] * (2 * c), cfg
                            )
                            gf = (vals[:c] - vals[c:]) / (2.0 * h)
                            ga = k * lv.grads[head][i]  # batch loss is the mean
                            err = np.abs(ga - gf) / np.maximum(
                                1.0, np.maximum(np.abs(ga), np.abs(gf))
                            )
                            worst = max(worst, float(err.max()))
        elapsed = time.monotonic() - t0
        assert worst < 1e-5
        assert elapsed < 10.0


class TestCriterion4CycleSemantics:
    def test_nonnegative_zero_on_agreement_shift_invariant(self):
        rng = np.random.default_rng(42)
        c = 7
        for _ in range(10_000):
            b = LogitBundle(*(rng.standard_normal(c) * 2.0 for _ in range(4)))
            assert cycle_loss([b]).value >= 0.0
        for _ in range(100):
            v = rng.standard_normal(c)
            equal = LogitBundle(audio=v, video=v, question=v, fused=rng.standard_normal(c))
            assert cycle_loss([equal]).value < 1e-10
        cfg = MccdConfig()
        for _ in range(100):
            b = LogitBundle(*(rng.standard_normal(c) for _ in range(4)))
            s = LogitBundle(*(getattr(b, n) + 11.25 for n in ("audio", "video", "question", "fused")))
            labels = [int(rng.integers(c))]
            for fn in (
                lambda x: discrepancy_loss([x], cfg).value,
                lambda x: cycle_loss([x], cfg).value,
                lambda x: answer_loss([x.fused], labels).value,
                lambda x: joint_loss([x], labels, cfg).value,
            ):
                assert abs(fn(b) - fn(s)) <= 1e-10


class TestCriterion5Debiasing:
    def test_full_beats_baseline_on_the_tail(self, debias_runs):
        elapsed = debias_runs["elapsed"]["full"] + debias_runs["elapsed"]["baseline"]
        assert elapsed < 300.0
        gap = debias_runs["full"]["tail"] - debias_runs["baseline"]["tail"]
        overall_drift = abs(debias_runs["full"]["overall"] - debias_runs["baseline"]["overall"])
        assert overall_drift <= 0.03
        assert gap >= 0.05, (
            f"median tail gap {gap * 100:+.2f} points "
            f"(full {debias_runs['full']['tail']:.4f}, "
            f"baseline {debias_runs['baseline']['tail']:.4f})"
        )


class TestCriterion6AblationDirection:
    def test_dropping_either_term_hurts_the_tail(self, debias_runs):
        full = debias_runs["full"]["tail"]
        assert debias_runs["without_md"]["tail"] < full, (
            f"without_md {debias_runs['without_md']['tail']:.4f} vs full {full:.4f}"
        )
        assert debias_runs["without_cg"]["tail"] < full, (
            f"without_cg {debias_runs['without_cg']['tail']:.4f} vs full {full:.4f}"
        )


class TestCriterion7Scoring:
    def test_hand_fixture_rendered_exactly(self):
        report = score_predictions(*fixture_4h2t())
        from avqa_debias.scoring import render_report

        text = render_report(report, "text-table").decode()
        assert " 75.00 " in text and " 50.00 " in text and " 66.67 " in text

    def test_aggregate_is_weighted_group_mean(self):
        rng = np.random.default_rng(5)
        pairs = [
            (Task.AUDIO_QA, QuestionType.COUNTING),
            (Task.AUDIO_QA, QuestionType.COMPARATIVE),
            (Task.VISUAL_QA, QuestionType.COUNTING),
            (Task.AVQA, QuestionType.LOCATION),
            (Task.AVQA, QuestionType.COMPARATIVE),
        ]
        gold, splits, preds = [], {}, {}
        for gi, (task, qtype) in enumerate(pairs):
            for i in range(int(rng.integers(5, 50))):
                s = make_sample(f"g{gi}-{i}", "yes", task=task, qtype=qtype)
                gold.append(s)
                label = SplitLabel.HEAD if rng.random() < 0.5 else SplitLabel.TAIL
                splits[s.id] = decision(s, label)
                preds[s.id] = "yes" if rng.random() < 0.6 else "no"
        report = score_predictions(gold, splits, preds)
        total = sum(c.head_n + c.tail_n for c in report.per_group.values())
        weighted = (
            sum(
                float(c.overall_acc) * (c.head_n + c.tail_n)
                for c in report.per_group.values()
            )
            / total
        )
        assert abs(float(report.aggregate.overall_acc) - weighted) <= 1e-12


class TestCriterion8Determinism:
    def run_cli(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "avqa_debias.cli", *map(str, args)],
            capture_output=True,
        )
        assert proc.returncode in (0, 1), proc.stderr.decode()
        return proc.stdout

    def tree_bytes(self, root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
        }

    def test_every_subcommand_is_byte_stable(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(b'{"id": "avqa0000", "predicted_answer": "a"}\n')
        votes = tmp_path / "votes.json"
        votes.write_text('{"raters": 3, "rows": [[2, 1], [3, 0]]}')

        small = ["--train-n", "150", "--test-n", "80"]
        commands = {
            "split": ["split", "--input", GOLDEN / "corpus.jsonl"],
            "score": [
                "score", "--gold", GOLDEN / "corpus.jsonl",
                "--splits", GOLDEN / "splits.jsonl", "--preds", preds,
            ],
            "kappa": ["kappa", "--votes", votes],
            "gen-synth": ["gen-synth", *small],
            "gradcheck": ["gradcheck", "--classes", "6", "--batch", "2"],
            "ablation": [
                "ablation", "--variants", "full,baseline", "--seeds", "0",
                *small, "--epochs", "2", "--format", "json",
            ],
            "grid": [
                "grid", "--alphas", "0.01", "--betas", "0.3", "--seeds", "0",
                *small, "--epochs", "2",
            ],
        }

        data_dir = tmp_path / "data"
        self.run_cli("gen-synth", *small, "--output-dir", data_dir)
        commands["train-toy"] = [
            "train-toy", "--data", data_dir, "--epochs", "2", "--no-timestamp",
        ]

        for name, argv in commands.items():
            outputs = []
            for threads, tag in (("1", "a"), ("1", "b"), ("4", "c")):
                run_args = ["--seed", "0", "--threads", threads, *argv]
                out_dir = tmp_path / name / tag
                if name in ("split", "gen-synth", "train-toy", "ablation", "grid"):
                    if name == "ablation" or name == "grid":
                        run_args += ["--output-dir", out_dir]
                    else:
                        run_args += ["--output-dir", out_dir]
                    out_dir.mkdir(parents=True)
                stdout = self.run_cli(*run_args)
                # the path echo differs by construction; mask it out
                stdout = stdout.replace(str(out_dir).encode(), b"<out>")
                files = self.tree_bytes(out_dir) if out_dir.exists() else {}
                outputs.append((stdout, files))
            assert outputs[0] == outputs[1] == outputs[2], f"{name} is not deterministic"


TABLE7_COUNTS = {
    GroupKey(task=Task.AUDIO_QA, question_type=QuestionType.COUNTING): 23107,
    GroupKey(task=Task.AUDIO_QA, question_type=QuestionType.COMPARATIVE): 13506,
    GroupKey(task=Task.VISUAL_QA, question_type=QuestionType.COUNTING): 27867,
    GroupKey(task=Task.VISUAL_QA, question_type=QuestionType.LOCATION): 33049,
    GroupKey(task=Task.AVQA, question_type=QuestionType.EXISTENTIAL): 25049,
    GroupKey(task=Task.AVQA, question_type=QuestionType.LOCATION): 21546,
    GroupKey(task=Task.AVQA, question_type=QuestionType.COUNTING): 26565,
    GroupKey(task=Task.AVQA, question_type=QuestionType.COMPARATIVE): 23121,
    GroupKey(task=Task.AVQA, question_type=QuestionType.TEMPORAL): 17762,
}


class TestCriterion9DatasetIngest:
    @pytest.mark.skipif(
        "ROBUST_AVQA_TEST_FILE" not in os.environ,
        reason="set ROBUST_AVQA_TEST_FILE to the released test JSONL to enable",
    )
    def test_released_test_split_counts(self):
        path = Path(os.environ["ROBUST_AVQA_TEST_FILE"])
        with open(path, "rb") as f:
            samples = parse_samples(f)
        stats = validate_corpus(samples)
        assert stats.per_group_counts == TABLE7_COUNTS
