"""Run one avqa-debias CLI command with spans around the calls into each layer.

    PYTHONPATH=src python3 perfbench/trace_cli.py SPANS.json <cli arguments...>

Each wrapped function is replaced, in the module whose attribute its caller
looks up, by a wrapper that records a span: metric name, start, end, the
index of the enclosing span, and a count. The spans stay in memory and are
written to SPANS.json when the command ends, with the names whose wrapped
attribute does not exist. No file of the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _one(*_):
    return 1


def _len_result(args, result):
    return len(result)


# (span name = per-layer metric, count metric or None, count function,
#  attributes "module:name" that callers look up).
WRAPS = [
    ("data.parse_samples_s", "data.rows_parsed", _len_result, ["cli:parse_samples"]),
    ("data.group_samples_s", None, None, ["splitting:group_samples"]),
    ("splitting.answer_distribution_s", None, None, ["splitting:answer_distribution"]),
    ("splitting.assign_splits_self_s", "splitting.assignments",
     lambda args, result: len(result.assignments), ["cli:assign_splits"]),
    ("splitting.write_splits_s", None, None, ["cli:write_splits"]),
    ("splitting.read_splits_s", None, None, ["cli:read_splits"]),
    ("data.parse_predictions_s", None, None, ["cli:parse_predictions"]),
    ("scoring.score_predictions_s", "scoring.rows_scored",
     lambda args, result: len(args[1]), ["cli:score_predictions", "toy:score_predictions"]),
    ("toy.generate_synthetic_s", None, None, ["cli:generate_synthetic", "toy:generate_synthetic"]),
    ("serialize.write_features_s", None, None, ["serialize:write_features"]),
    ("serialize.read_features_s", None, None, ["serialize:read_features"]),
    ("toy.evaluate_s", None, None, ["cli:evaluate", "toy:evaluate"]),
    ("toy.batch_s", None, None, ["toy:_stack_features"]),
    ("toy.forward_s", None, None, ["toy:_forward_cache"]),
    ("losses.answer_s", None, None, ["losses:answer_loss"]),
    ("losses.discrepancy_s", None, None, ["losses:discrepancy_loss_stacked"]),
    ("losses.cycle_s", None, None, ["losses:cycle_loss_stacked"]),
    ("losses.bias_answer_s", None, None, ["toy:answer_loss"]),
    ("losses.joint_self_s", None, None, ["toy:joint_components_stacked"]),
    ("toy.backward_s", None, None, ["toy:_backward"]),
    ("toy.adam_step_s", "toy.steps", _one, ["toy:Adam.step"]),
    ("toy.train_self_s", None, None, ["cli:train", "toy:train"]),
    ("toy.run_variant", "toy.runs", _one, ["toy:run_variant"]),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def wrap(self, fn, name, count_name, count_fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_name:
                counts[count_name] = counts.get(count_name, 0) + count_fn(args, result)
            return result

        return wrapper

    def install(self, wraps=WRAPS) -> None:
        """Replace every attribute in ``wraps`` that exists; record the names that do not."""
        wrappers: dict[tuple[str, int], object] = {}
        for name, count_name, count_fn, targets in wraps:
            found = False
            for target in targets:
                module_name, attr_path = target.split(":")
                owner = importlib.import_module(f"avqa_debias.{module_name}")
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                found = True
                # A function that two modules import under one span name is
                # wrapped once, so its span is not nested inside itself.
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self.wrap(fn, name, count_name, count_fn)
                setattr(owner, attr, wrappers[key])
            if not found:
                self.absent.append(name)
                if count_name:
                    self.absent.append(count_name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, f)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from avqa_debias import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
