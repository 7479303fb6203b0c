import io
import os

# Imported before any test module loads numpy: OpenBLAS reads
# OPENBLAS_NUM_THREADS, which this import sets to 1, once, when numpy
# loads. So the suite's in-process training runs use one BLAS thread, as
# the CLI's own processes do.
import avqa_debias.cli  # noqa: F401
import pytest
from hypothesis import strategies as st

from avqa_debias.data import QASample, QuestionType, Task


def make_sample(
    sid: str,
    answer: str,
    task: Task = Task.AVQA,
    qtype: QuestionType = QuestionType.COUNTING,
    question: str = "how many?",
) -> QASample:
    return QASample(id=sid, task=task, question_type=qtype, question=question, answer=answer)


def sample_rows(samples) -> list[tuple]:
    """``samples`` as the rows ``write_samples`` takes: id, ``(group,
    answer)``, question and source id."""
    return [(s.id, (s.group, s.answer), s.question, s.source_id) for s in samples]


def samples_from_counts(
    counts: dict[str, int],
    task: Task = Task.AVQA,
    qtype: QuestionType = QuestionType.COUNTING,
    prefix: str = "s",
) -> list:
    """One group with the requested answer histogram, ids in a stable order."""
    out = []
    i = 0
    for answer in sorted(counts):
        for _ in range(counts[answer]):
            out.append(make_sample(f"{prefix}{i:04d}", answer, task=task, qtype=qtype))
            i += 1
    return out


# Text for the writers' fuzz tests: quotes, a backslash, control characters,
# line separators, non-ASCII and non-BMP characters, and lone surrogates of
# both halves.
TRICKY = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\x85", "é",
                     "\U0001f600", "\ud800", "\udfff"]) | st.characters(),
    max_size=4,
)


def written(write, items) -> tuple[bytes, str | None]:
    """The bytes ``write(items, stream)`` writes, and the type and text of the
    error it raises."""
    buf = io.BytesIO()
    try:
        write(items, buf)
    except ValueError as exc:  # UnicodeEncodeError is one
        return buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return buf.getvalue(), None


def jsonl_stream(lines: list[bytes]) -> io.BytesIO:
    return io.BytesIO(b"".join(line + b"\n" for line in lines))


@pytest.fixture
def tiny_corpus_bytes() -> bytes:
    rows = [
        b'{"id": "q1", "task": "AVQA", "question_type": "Counting", "question": "how many instruments?", "answer": "two"}',
        b'{"id": "q2", "task": "AudioQA", "question_type": "Comparative", "question": "which is louder?", "answer": "piano", "source_id": "t1"}',
    ]
    return b"".join(r + b"\n" for r in rows)


def exit_in_worker(task):
    """An ablation task whose worker process dies; it refuses to run in the test process."""
    if os.getpid() == TEST_PID:
        raise AssertionError("the task ran in the test process, not in a worker")
    os._exit(3)


TEST_PID = os.getpid()
