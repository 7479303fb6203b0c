"""
Scoring predictions under a head/tail split
===========================================

Overall accuracy hides how much of a model's score comes from guessing the
frequent answer. Splitting the test set by answer frequency makes the
failure mode visible: a majority-class guesser aces the head and scores
zero on the tail. This demo scores two synthetic "models" on the same
corpus and renders the head/tail report, then computes inter-annotator
agreement for a small vote table.
"""


from avqa_debias.data import QASample, QuestionType, Task
from avqa_debias.scoring import VoteTable, fleiss_kappa, render_report, score_predictions
from avqa_debias.splitting import assign_splits

# ---------------------------------------------------------------------
# A single counting group where "two" dominates 40:8:4.

corpus = []
for answer, n in (("two", 40), ("three", 8), ("five", 4)):
    for _ in range(n):
        corpus.append(
            QASample(
                id=f"q{len(corpus):04d}",
                task=Task.AVQA,
                question_type=QuestionType.COUNTING,
                question="(elided)",
                answer=answer,
            )
        )

split = assign_splits(corpus)

# Model A always answers the majority class; model B is right 70% of the
# time on every class (simulated deterministically by position).
majority = {s.id: "two" for s in corpus}
balanced = {
    s.id: (s.answer if i % 10 < 7 else "wrong") for i, s in enumerate(corpus)
}

for name, preds in (("majority-class guesser", majority), ("70% uniform model", balanced)):
    print(f"--- {name}")
    report = score_predictions(corpus, split.assignments, preds)
    print(render_report(report, "text-table").decode(), end="")
    print()

# The guesser's 77% overall is pure head accuracy; its tail is zero.

# ---------------------------------------------------------------------
# Fleiss kappa: chance-corrected agreement of 3 raters over pass/fail
# judgments, given as (pass-votes, fail-votes) per item with
# multiplicities for repeated patterns.

table = VoteTable(
    raters=3,
    rows=((3, 0), (2, 1), (1, 2), (0, 3)),
    multiplicities=(820, 240, 40, 46),
)
print(f"Fleiss kappa over {table.item_count} items: {fleiss_kappa(table):.4f}")
