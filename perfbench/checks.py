"""Checks of the program's outputs against computations made apart from it.

Nothing here imports `avqa_debias`: file formats are read with `json`,
`struct` and numpy, and every expected value is worked out from the
generated inputs. Each check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import math
import statistics
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from inputs import EvalInputs, group_name

_MAX_PROBLEMS = 5


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > _MAX_PROBLEMS:
        return problems[:_MAX_PROBLEMS] + [f"... {len(problems) - _MAX_PROBLEMS} more"]
    return problems


def check_splits(out_dir: Path, inputs: EvalInputs) -> list[str]:
    """splits.jsonl labels exactly the expected ids; groups.json agrees on retention."""
    problems = []
    expected = {sid: (g, label) for sid, g, label in inputs.split_rows}
    seen = set()
    with open(out_dir / "splits.jsonl", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            obj = json.loads(line)
            sid = obj["id"]
            want = expected.get(sid)
            if want is None:
                problems.append(f"splits.jsonl:{lineno}: {sid} should not be labeled")
                continue
            g, label = want
            got = (obj["task"], obj["question_type"], obj["split"], obj["rule"])
            if got != (*g, label, inputs.rules[g]):
                problems.append(f"splits.jsonl:{lineno}: {sid} is {got}, expected {(*g, label, inputs.rules[g])}")
            seen.add(sid)
    missing = len(expected) - len(seen)
    if missing:
        problems.append(f"splits.jsonl: {missing} expected ids have no label")
    report = json.loads((out_dir / "groups.json").read_text(encoding="utf-8"))
    retained = {(r["task"], r["question_type"]) for r in report["groups"] if r["retained"]}
    listed = {(r["task"], r["question_type"]) for r in report["groups"]}
    if retained != set(inputs.rules) or listed != set(inputs.histograms):
        problems.append(
            f"groups.json retains {sorted(map(group_name, retained))}, "
            f"expected {sorted(map(group_name, inputs.rules))}"
        )
    return _limit(problems)


def _cell() -> dict:
    return {"head_correct": 0, "head_n": 0, "tail_correct": 0, "tail_n": 0}


def _cell_json(c: dict) -> dict:
    def acc(k, n):
        return round(k / n, 4) if n else None

    return {
        "head_acc": acc(c["head_correct"], c["head_n"]),
        "tail_acc": acc(c["tail_correct"], c["tail_n"]),
        "overall_acc": acc(c["head_correct"] + c["tail_correct"], c["head_n"] + c["tail_n"]),
        "head_n": c["head_n"],
        "tail_n": c["tail_n"],
    }


def expected_report(inputs: EvalInputs, pred_name: str) -> dict:
    """The score report the planted outcomes imply, in the JSON report's terms."""
    per_group, per_task, agg = {}, {}, _cell()
    unmatched = []
    for (sid, g, label), outcome in zip(inputs.split_rows, inputs.outcomes[pred_name]):
        right = int(outcome == "right")
        for cell in (per_group.setdefault(g, _cell()), per_task.setdefault(g[0], _cell()), agg):
            cell[f"{label}_n"] += 1
            cell[f"{label}_correct"] += right
        if outcome == "missing":
            unmatched.append(sid)
    return {
        "per_group": {group_name(g): _cell_json(c) for g, c in per_group.items()},
        "per_task": {t: _cell_json(c) for t, c in per_task.items()},
        "aggregate": _cell_json(agg),
        "unmatched_ids": unmatched,
    }


def check_score_report(report_path: Path, expected: dict) -> list[str]:
    """A `score --format json` report matches the benchmark's own tally."""
    problems = []
    got = json.loads(report_path.read_text(encoding="utf-8"))
    for section in ("per_group", "per_task"):
        if set(got[section]) != set(expected[section]):
            problems.append(f"{section} keys {sorted(got[section])} != {sorted(expected[section])}")
            continue
        for key, cell in expected[section].items():
            if got[section][key] != cell:
                problems.append(f"{section}[{key}] = {got[section][key]}, expected {cell}")
    if got["aggregate"] != expected["aggregate"]:
        problems.append(f"aggregate = {got['aggregate']}, expected {expected['aggregate']}")
    if got["unmatched_ids"] != expected["unmatched_ids"]:
        problems.append(
            f"unmatched_ids has {len(got['unmatched_ids'])} ids, expected {len(expected['unmatched_ids'])}"
        )
    return _limit(problems)


def read_model(path: Path) -> dict[str, np.ndarray]:
    """The AVQM model file: name, shape and little-endian float64 data per parameter."""
    buf = path.read_bytes()
    if buf[:4] != b"AVQM":
        raise ValueError(f"{path}: not a model file")
    _, count = struct.unpack_from("<II", buf, 4)
    pos, params = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2 : pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        ndim = buf[pos]
        shape = struct.unpack_from(f"<{ndim}I", buf, pos + 1)
        pos += 1 + 4 * ndim
        size = math.prod(shape)
        params[name] = np.frombuffer(buf, "<f8", size, pos).reshape(shape)
        pos += 8 * size
    return params


def read_features(path: Path) -> list[np.ndarray]:
    """The AVQF features file as one (n, dim) matrix per modality."""
    buf = path.read_bytes()
    if buf[:4] != b"AVQF":
        raise ValueError(f"{path}: not a features file")
    _, n, *dims = struct.unpack_from("<IIIII", buf, 4)
    data = np.frombuffer(buf, "<f8", offset=24).reshape(n, sum(dims))
    bounds = np.cumsum([0, *dims])
    return [data[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def read_test_set(data_dir: Path) -> tuple[list[int], list[str]]:
    """Integer labels and head/tail labels of a generated test set, in file order."""
    labels, ids = [], []
    with open(data_dir / "test.jsonl", encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            ids.append(obj["id"])
            labels.append(int(obj["answer"][1:]))
    split = {}
    with open(data_dir / "splits.jsonl", encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            split[obj["id"]] = obj["split"]
    return labels, [split[i] for i in ids]


def majority_rate(labels: list[int]) -> float:
    return Counter(labels).most_common(1)[0][1] / len(labels)


def check_train_toy(data_dir: Path, out_dir: Path) -> list[str]:
    """Recompute the fusion-path accuracies from model.bin and test.features."""
    problems = []
    p = read_model(out_dir / "model.bin")
    feats = read_features(data_dir / "test.features")
    labels, split = read_test_set(data_dir)
    hidden = [
        np.maximum(x @ p[f"enc_{m}_W"].T + p[f"enc_{m}_b"], 0.0)
        for m, x in zip(("audio", "video", "question"), feats)
    ]
    logits = np.concatenate(hidden, axis=1) @ p["fusion_W"].T + p["fusion_b"]
    right = np.argmax(logits, axis=1) == np.asarray(labels)
    tally = _cell()
    for ok, label in zip(right, split):
        tally[f"{label}_n"] += 1
        tally[f"{label}_correct"] += int(ok)
    want = _cell_json(tally)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if report["aggregate"] != want:
        problems.append(f"report.json aggregate = {report['aggregate']}, recomputed {want}")
    rate = majority_rate(labels)
    if not right.mean() > rate:
        problems.append(f"overall accuracy {right.mean():.4f} does not beat the majority class {rate:.4f}")
    with open(out_dir / "history.jsonl", encoding="utf-8") as f:
        history = [json.loads(line) for line in f]
    if not all(math.isfinite(v) for row in history for v in row.values()):
        problems.append("history.jsonl holds a non-finite value")
    if not history or not history[-1]["L_a"] < history[0]["L_a"]:
        problems.append("L_a did not fall from the first epoch to the last")
    return _limit(problems)


def check_ablation(
    report_path: Path, variants: list[str], seeds: list[int], test_sets: dict[int, tuple[list[int], list[str]]]
) -> list[str]:
    """Medians are medians of their runs; accuracies are whole counts; every run beats the majority."""
    problems = []
    rows = json.loads(report_path.read_text(encoding="utf-8"))["rows"]
    if [r["variant"] for r in rows] != variants:
        problems.append(f"variants {[r['variant'] for r in rows]} != {variants}")
    for row in rows:
        runs = row["runs"]
        if [r["seed"] for r in runs] != seeds:
            problems.append(f"{row['variant']}: seeds {[r['seed'] for r in runs]} != {seeds}")
            continue
        for key in ("head_acc", "tail_acc", "overall_acc"):
            if row[f"median_{key}"] != statistics.median(r[key] for r in runs):
                problems.append(f"{row['variant']}: median_{key} is not the median of its runs")
        for run in runs:
            labels, split = test_sets[run["seed"]]
            sizes = Counter(split)
            counts = {}
            for part in ("head", "tail"):
                n = sizes[part]
                k = round(run[f"{part}_acc"] * n)
                counts[part] = k
                if k / n != run[f"{part}_acc"]:
                    problems.append(f"{row['variant']} seed {run['seed']}: {part}_acc is not a count over {n}")
            if (counts["head"] + counts["tail"]) / len(split) != run["overall_acc"]:
                problems.append(f"{row['variant']} seed {run['seed']}: overall_acc disagrees with head and tail")
            if not run["overall_acc"] > majority_rate(labels):
                problems.append(f"{row['variant']} seed {run['seed']}: does not beat the majority class")
    return _limit(problems)
