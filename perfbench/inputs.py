"""Seeded inputs of the `eval-table7` workload and the tallies they imply.

The corpus has the per-group row counts of Table 7 of the MUSIC-AVQA-R
paper. Each group's answer histogram is drawn from the seed within ranges
that keep its normalized entropy far from the 0.9 retention threshold, so
the expected split never hangs on the last bit of a float:

* six retained groups: four with a geometric answer histogram (ratio
  0.35-0.55, 5-8 classes; normalized entropy at most 0.82) split by the
  1.2x-mean rule, and two yes/no groups (minority share 15-22 %;
  normalized entropy at most 0.77) split by the two-answer rule;
* three skipped groups: near-uniform histograms (each weight 1 +- 5 %, or
  a yes/no minority share of 44-49 %; normalized entropy at least 0.98).

In `AVQA/Counting` one class holds exactly 1.2x the mean class count when
the group size allows it, so the inclusive `count <= 1.2 * mean` boundary
is exercised.

Each prediction file plants, row by row, whether its prediction is right,
wrong or missing. Every prediction names an answer of the row's group, in
one of several case and ASCII-whitespace variants, so a right prediction
is often not byte-equal to the gold answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (task, question_type) -> rows, from TABLE7_COUNTS in tests/test_acceptance.py.
TABLE7_COUNTS = {
    ("AudioQA", "Counting"): 23107,
    ("AudioQA", "Comparative"): 13506,
    ("VisualQA", "Counting"): 27867,
    ("VisualQA", "Location"): 33049,
    ("AVQA", "Existential"): 25049,
    ("AVQA", "Location"): 21546,
    ("AVQA", "Counting"): 26565,
    ("AVQA", "Comparative"): 23121,
    ("AVQA", "Temporal"): 17762,
}

_NUMBERS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_PLACES = ("left", "right", "middle", "front", "back", "top", "bottom", "center")
_TIMES = ("first", "second", "third", "fourth", "last", "before", "after")
_YES_NO = ("yes", "no")

# group -> (histogram shape, answer vocabulary)
_GROUP_SHAPES = {
    ("AudioQA", "Counting"): ("geometric", _NUMBERS),
    ("AudioQA", "Comparative"): ("two_skewed", _YES_NO),
    ("VisualQA", "Counting"): ("geometric", _NUMBERS),
    ("VisualQA", "Location"): ("uniform", _PLACES),
    ("AVQA", "Existential"): ("two_balanced", _YES_NO),
    ("AVQA", "Location"): ("geometric", _PLACES),
    ("AVQA", "Counting"): ("boundary", _NUMBERS),
    ("AVQA", "Comparative"): ("two_skewed", _YES_NO),
    ("AVQA", "Temporal"): ("uniform", _TIMES),
}

ENTROPY_THRESHOLD = 0.9
TAIL_FACTOR = (6, 5)  # 1.2 as an exact ratio: tail iff 5 * k * count <= 6 * total

# Prediction patterns: "mostly_right" is right on 75 % of rows, wrong on 24 %
# and missing on 1 %; "majority" names each group's most frequent answer
# (0.5 % missing); "uniform" names an answer of the group drawn uniformly
# (2 % missing).
PREDICTION_FILES = ("mostly_right", "majority", "uniform")
_RIGHT_VARIANTS = ("{}", "{}", "{}", "{U}", "{T}", " {} ", "{}\t", "\t{U} ")


def group_name(group: tuple[str, str]) -> str:
    return f"{group[0]}/{group[1]}"


def _apportion(weights: np.ndarray, total: int) -> list[int]:
    """Integer counts summing to ``total``, by largest remainder."""
    share = weights / weights.sum() * total
    counts = np.floor(share).astype(int)
    rest = total - int(counts.sum())
    for i in np.argsort(-(share - counts), kind="stable")[:rest]:
        counts[i] += 1
    return [int(c) for c in counts]


def _histogram(shape: str, vocab: tuple[str, ...], total: int, rng) -> dict[str, int]:
    if shape in ("two_skewed", "two_balanced"):
        lo, hi = (0.15, 0.22) if shape == "two_skewed" else (0.44, 0.49)
        minority = int(round(total * rng.uniform(lo, hi)))
        order = rng.permutation(2)
        return {vocab[order[0]]: total - minority, vocab[order[1]]: minority}
    if shape == "uniform":
        k = len(vocab)
        weights = 1.0 + rng.uniform(-0.05, 0.05, size=k)
        names = [vocab[i] for i in rng.permutation(k)]
        return dict(zip(names, _apportion(weights, total)))
    if shape == "geometric":
        k = int(rng.integers(5, 9))
        weights = rng.uniform(0.40, 0.55) ** np.arange(k)
        names = [vocab[i] for i in rng.permutation(len(vocab))[:k]]
        return dict(zip(names, _apportion(weights, total)))
    # "boundary": six classes, one of them exactly at 1.2x the mean count
    k = 6
    names = [vocab[i] for i in rng.permutation(len(vocab))[:k]]
    num, den = TAIL_FACTOR[0] * total, TAIL_FACTOR[1] * k
    if num % den:
        weights = rng.uniform(0.35, 0.45) ** np.arange(k)
        return dict(zip(names, _apportion(weights, total)))
    at_boundary = num // den
    rest = _apportion(rng.uniform(0.35, 0.45) ** np.arange(k - 1), total - at_boundary)
    return dict(zip(names, [rest[0], at_boundary, *rest[1:]]))


def normalized_entropy(counts: list[int]) -> float:
    total = sum(counts)
    if len(counts) == 1:
        return 1.0
    h = -sum(c / total * math.log(c / total) for c in counts)
    return h / math.log(len(counts))


def expected_labels(counts: dict[str, int]) -> tuple[dict[str, str], str] | None:
    """Head/tail label per answer and the rule, or None for a skipped group."""
    if normalized_entropy(list(counts.values())) >= ENTROPY_THRESHOLD:
        return None
    if len(counts) == 2:
        (a, ca), (b, cb) = counts.items()
        if ca == cb:
            raise ValueError("a two-answer tie has no low-frequency answer")
        low = a if ca < cb else b
        return {x: ("tail" if x == low else "head") for x in counts}, "two_answer_low_frequency"
    total, k = sum(counts.values()), len(counts)
    num, den = TAIL_FACTOR
    labels = {x: ("tail" if den * k * c <= num * total else "head") for x, c in counts.items()}
    return labels, "general_threshold"


@dataclass
class EvalInputs:
    corpus: Path
    predictions: dict[str, Path]
    histograms: dict[tuple[str, str], dict[str, int]]
    # Per retained row in corpus order: (id, group, expected split label).
    split_rows: list[tuple[str, tuple[str, str], str]]
    rules: dict[tuple[str, str], str]
    # Per prediction file and retained row: "right", "wrong" or "missing".
    outcomes: dict[str, list[str]]


def make_eval_inputs(out_dir: Path, seed: int, scale: float = 1.0) -> EvalInputs:
    """Write corpus.jsonl and one JSONL file per prediction pattern."""
    rng = np.random.default_rng([seed, 7])
    rows: list[tuple[tuple[str, str], str]] = []
    histograms = {}
    for group, total in TABLE7_COUNTS.items():
        shape, vocab = _GROUP_SHAPES[group]
        hist = _histogram(shape, vocab, max(40, int(total * scale)), rng)
        hist = {a: c for a, c in hist.items() if c > 0}
        histograms[group] = hist
        rows.extend((group, a) for a, c in hist.items() for _ in range(c))
    rows = [rows[i] for i in rng.permutation(len(rows))]

    expected = {g: expected_labels(h) for g, h in histograms.items()}
    corpus = out_dir / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as f:
        for i, ((task, qtype), answer) in enumerate(rows):
            source = f', "source_id": "t{i // 10:05d}"' if i % 10 == 0 else ""
            f.write(
                f'{{"id": "r{i:06d}", "task": "{task}", "question_type": "{qtype}", '
                f'"question": "{qtype} question {i} about the clip", "answer": "{answer}"{source}}}\n'
            )

    split_rows = [
        (f"r{i:06d}", g, expected[g][0][a]) for i, (g, a) in enumerate(rows) if expected[g]
    ]
    majority = {g: max(h, key=lambda a: (h[a], a)) for g, h in histograms.items()}
    predictions, outcomes = {}, {}
    for name in PREDICTION_FILES:
        path = out_dir / f"preds_{name}.jsonl"
        outcome_all = _write_predictions(path, name, rows, histograms, majority, rng)
        predictions[name] = path
        outcomes[name] = [o for o, (g, _) in zip(outcome_all, rows) if expected[g]]
    return EvalInputs(
        corpus=corpus,
        predictions=predictions,
        histograms=histograms,
        split_rows=split_rows,
        rules={g: e[1] for g, e in expected.items() if e},
        outcomes=outcomes,
    )


def _write_predictions(path, name, rows, histograms, majority, rng) -> list[str]:
    n = len(rows)
    draw = rng.random(n)
    variant = rng.integers(len(_RIGHT_VARIANTS), size=n)
    other = rng.integers(1 << 30, size=n)
    quoted: dict[str, str] = {}
    outcomes = []
    with open(path, "w", encoding="utf-8") as f:
        for i, (g, gold) in enumerate(rows):
            if name == "majority":
                missing, guess = draw[i] < 0.005, majority[g]
            elif name == "uniform":
                answers = list(histograms[g])
                missing, guess = draw[i] < 0.02, answers[other[i] % len(answers)]
            else:
                missing = draw[i] < 0.01
                if draw[i] < 0.76:
                    guess = gold
                else:
                    others = [a for a in histograms[g] if a != gold]
                    guess = others[other[i] % len(others)]
            if missing:
                outcomes.append("missing")
                continue
            outcomes.append("right" if guess == gold else "wrong")
            text = _RIGHT_VARIANTS[variant[i]].format(guess, U=guess.upper(), T=guess.title())
            q = quoted.get(text)
            if q is None:
                q = quoted[text] = json.dumps(text)
            f.write(f'{{"id": "r{i:06d}", "predicted_answer": {q}}}\n')
    return outcomes
