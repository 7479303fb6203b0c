"""
Building head/tail distribution shifts from answer frequencies
==============================================================

A question group is balanced when every answer is roughly equally likely,
and imbalanced when a handful of answers dominate. This demo builds a tiny
corpus by hand, measures each group's imbalance with normalized Shannon
entropy, and splits the imbalanced groups into frequent (head) and rare
(tail) answer classes.
"""

from avqa_debias.data import QASample, QuestionType, Task, group_samples
from avqa_debias.splitting import answer_distribution, assign_splits

# ---------------------------------------------------------------------
# A corpus with three groups of very different shapes:
#   * an AVQA counting group dominated by the answer "two",
#   * an audio comparison group with two answers at 8:2,
#   * a visual counting group that is almost uniform.

corpus = []


def add(group, qtype, answer, n):
    for _ in range(n):
        corpus.append(
            QASample(
                id=f"q{len(corpus):04d}",
                task=group,
                question_type=qtype,
                question="(elided)",
                answer=answer,
            )
        )


add(Task.AVQA, QuestionType.COUNTING, "two", 50)
add(Task.AVQA, QuestionType.COUNTING, "three", 9)
add(Task.AVQA, QuestionType.COUNTING, "five", 3)

add(Task.AUDIO_QA, QuestionType.COMPARATIVE, "piano", 16)
add(Task.AUDIO_QA, QuestionType.COMPARATIVE, "violin", 4)

add(Task.VISUAL_QA, QuestionType.COUNTING, "one", 10)
add(Task.VISUAL_QA, QuestionType.COUNTING, "two", 9)
add(Task.VISUAL_QA, QuestionType.COUNTING, "three", 11)

# ---------------------------------------------------------------------
# Entropy per group. A value of 1 means perfectly balanced; the splitter
# keeps only groups strictly below the 0.9 default threshold.

print("per-group normalized entropy")
for key, members in group_samples(corpus).items():
    dist = answer_distribution(members)
    print(f"  {str(key):<22} {dist.normalized_entropy:.4f}  counts={dist.counts}")

# ---------------------------------------------------------------------
# The full pipeline: filter balanced groups, then mark each answer class
# head or tail. An answer is tail when its count is at most 1.2x the mean
# class count; two-answer groups use the low-frequency rule instead.
# Each group's decision is one GroupReport: its answer distribution and,
# for a retained group, the labels and the rule that chose them. The
# skipped groups are the reports without labels. result.assignments maps
# each sample of a retained group, in corpus order, to its SplitDecision;
# the samples of one answer class share one decision.

result = assign_splits(corpus)

print("\nskipped (balanced) groups:", [str(g) for g in result.skipped_groups])
for report in result.group_reports:
    if report.retained:
        labels = {cls: lab.value for cls, lab in sorted(report.labels.items())}
        print(f"{report.distribution.group}: {labels}  via {report.rule.value}")

counts = {"head": 0, "tail": 0}
for decision in result.assignments.values():
    counts[decision.label.value] += 1
print("\nsample-level split sizes:", counts)
