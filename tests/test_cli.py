import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avqa_debias import cli, serialize, toy
from avqa_debias.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from avqa_debias.config import (
    DISTANCE_SPACES,
    AblationSpec,
    AblationVariant,
    MccdConfig,
    SyntheticConfig,
    TrainConfig,
)
from avqa_debias.data import QASample, parse_samples
from avqa_debias.splitting import SplitConfig
from conftest import exit_in_worker

GOLDEN = Path(__file__).parent / "golden"
TOY_GOLDEN = GOLDEN / "toy"
_GOLDEN_SYNTH_CONFIG = json.loads((TOY_GOLDEN / "synth" / "synth_config.json").read_text())


def run_cli(*args):
    """Run the CLI in a subprocess so stdout bytes and exit codes are real."""
    return subprocess.run(
        [sys.executable, "-m", "avqa_debias.cli", *map(str, args)],
        capture_output=True,
    )


def one_error_line(proc) -> str:
    """The stderr of a run that must fail on its input: exit 2, one line, no traceback."""
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_USAGE, err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


class TestSplitCommand:
    def test_outputs(self, tmp_path):
        rc = main(["split", "--input", str(GOLDEN / "corpus.jsonl"), "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "splits.jsonl").read_bytes() == (GOLDEN / "splits.jsonl").read_bytes()
        assert (tmp_path / "groups.json").read_bytes() == (GOLDEN / "groups.json").read_bytes()

    def test_builds_no_sample_objects(self, tmp_path, monkeypatch):
        """split keeps read_gold's shared records, not one QASample per row;
        the counter does see each sample parse_samples builds."""
        built = []
        init = QASample.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["id"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(QASample, "__init__", counting_init)
        rc = main(["split", "--input", str(GOLDEN / "corpus.jsonl"), "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK and built == []
        for name in ("splits.jsonl", "groups.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        with open(GOLDEN / "corpus.jsonl", "rb") as f:
            assert [s.id for s in parse_samples(f)] == built != []

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["split", "--input", str(tmp_path / "nope.jsonl"), "--output-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"{broken\n")
        rc = main(["split", "--input", str(bad), "--output-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("data", [b"", b"\n \t\r\n\n"])
    def test_empty_corpus(self, tmp_path, data):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(data)
        proc = run_cli("split", "--input", empty, "--output-dir", tmp_path / "out")
        assert one_error_line(proc) == f"error: {empty}: empty corpus\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, problem", [
        ("question", 3, "question must be a string"),
        ("source_id", [1], "source_id must be a string or null"),
    ])
    def test_mistyped_field(self, tmp_path, field, value, problem):
        obj = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q",
               "answer": "yes", field: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(obj).encode() + b"\n")
        proc = run_cli("split", "--input", bad, "--output-dir", tmp_path)
        assert one_error_line(proc) == f"error: {bad}: line 1: {problem}\n"

    @pytest.mark.parametrize("field", ["id", "question", "answer", "source_id"])
    def test_lone_surrogate(self, tmp_path, field):
        good = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q",
                "answer": "yes"}
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(good).encode() + b"\n"
                        + json.dumps({**good, "id": "b", field: "x\ud800"}).encode() + b"\n")
        assert b"\\ud800" in bad.read_bytes()
        proc = run_cli("split", "--input", bad, "--output-dir", tmp_path / "out")
        err = one_error_line(proc)
        assert err == f"error: {bad}: line 2: lone surrogate '\\ud800' in a string\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["bogus", [1], {}])
    @pytest.mark.parametrize("field", ["task", "question_type"])
    def test_bad_enum_value(self, tmp_path, field, value):
        obj = {"id": "a", "task": "AVQA", "question_type": "Temporal", "question": "q",
               "answer": "yes", field: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(obj).encode() + b"\n")
        proc = run_cli("split", "--input", bad, "--output-dir", tmp_path / "out")
        assert one_error_line(proc) == f"error: {bad}: line 1: unknown {field} {value!r}\n"


class TestScoreCommand:
    def make_inputs(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        rows = [{"id": f"avqa{i:04d}", "predicted_answer": "a"} for i in range(13)]
        rows += [{"id": f"aq{i:04d}", "predicted_answer": "x"} for i in range(10)]
        preds.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in rows))
        return preds

    def test_text_report(self, tmp_path):
        preds = self.make_inputs(tmp_path)
        proc = run_cli(
            "score", "--gold", GOLDEN / "corpus.jsonl",
            "--splits", GOLDEN / "splits.jsonl", "--preds", preds,
        )
        assert proc.returncode == EXIT_OK
        assert b"| All" in proc.stdout
        assert b"100.00" in proc.stdout  # every head answer was predicted

    def test_json_report(self, tmp_path):
        preds = self.make_inputs(tmp_path)
        proc = run_cli(
            "score", "--gold", GOLDEN / "corpus.jsonl",
            "--splits", GOLDEN / "splits.jsonl", "--preds", preds,
            "--format", "json",
        )
        obj = json.loads(proc.stdout)
        assert obj["aggregate"]["head_acc"] == 1.0
        assert obj["aggregate"]["tail_acc"] == 0.0

    def test_missing_preds_file(self, tmp_path, capsys):
        rc = main([
            "score", "--gold", str(GOLDEN / "corpus.jsonl"),
            "--splits", str(GOLDEN / "splits.jsonl"),
            "--preds", str(tmp_path / "nope.jsonl"),
        ])
        assert rc == EXIT_USAGE

    def test_duplicate_split_id(self, tmp_path):
        preds = self.make_inputs(tmp_path)
        splits = tmp_path / "splits.jsonl"
        lines = (GOLDEN / "splits.jsonl").read_bytes().splitlines(keepends=True)
        splits.write_bytes(b"".join(lines) + lines[0])
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", splits,
                       "--preds", preds)
        err = one_error_line(proc)
        assert f"line {len(lines) + 1}: duplicate id" in err

    def test_split_disagreeing_with_gold(self, tmp_path):
        preds = self.make_inputs(tmp_path)
        splits = tmp_path / "splits.jsonl"
        rows = [json.loads(l) for l in (GOLDEN / "splits.jsonl").read_text().splitlines()]
        rows[0]["answer"] = rows[0]["answer"] + "x"
        splits.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in rows))
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", splits,
                       "--preds", preds)
        assert "disagrees with the gold sample" in one_error_line(proc)

    @pytest.mark.parametrize("change, problem", [
        ({"id": "ghost"}, "split assignment refers to unknown sample id 'ghost'"),
        ({"answer": "ax"}, "split assignment 'avqa0002' (AVQA/Counting, answer 'ax') disagrees "
                           "with the gold sample (AVQA/Counting, answer 'a')"),
        ({"task": "AudioQA"}, "split assignment 'avqa0002' (AudioQA/Counting, answer 'a') "
                              "disagrees with the gold sample (AVQA/Counting, answer 'a')"),
    ])
    def test_cross_file_error_names_the_splits_line(self, tmp_path, change, problem):
        """The third record, after two blank lines, is line 5 of the splits file."""
        lines = (GOLDEN / "splits.jsonl").read_bytes().splitlines(keepends=True)
        lines[2] = json.dumps(json.loads(lines[2]) | change).encode() + b"\n"
        splits = tmp_path / "splits.jsonl"
        splits.write_bytes(b"\n \n" + b"".join(lines))
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", splits,
                       "--preds", self.make_inputs(tmp_path))
        assert one_error_line(proc) == f"error: {splits}: line 5: {problem}\n"

    @pytest.mark.parametrize("change, problem", [
        ({"answer": 3}, "answer must be a nonempty string"),
        ({"answer": ""}, "answer must be a nonempty string"),
        ({"answer": None}, "answer must be a nonempty string"),
        ({"answer": ["a"]}, "answer must be a nonempty string"),
        ({"id": ""}, "id must be a nonempty string"),
    ])
    def test_bad_split_answer_or_id(self, tmp_path, change, problem):
        """Rejected where it is read, not later as a disagreement with the gold corpus."""
        lines = (GOLDEN / "splits.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = json.dumps(json.loads(lines[1]) | change).encode() + b"\n"
        splits = tmp_path / "splits.jsonl"
        splits.write_bytes(b"".join(lines))
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", splits,
                       "--preds", self.make_inputs(tmp_path))
        assert one_error_line(proc) == f"error: {splits}: line 2: invalid splits record: {problem}\n"

    def test_non_string_prediction(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(b'{"id": "avqa0000", "predicted_answer": 3}\n')
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl",
                       "--splits", GOLDEN / "splits.jsonl", "--preds", preds)
        assert one_error_line(proc) == f"error: {preds}: line 1: predicted_answer must be a string\n"

    @pytest.mark.parametrize("value", ["bogus", [1], {}])
    @pytest.mark.parametrize("field, enum_name", [
        ("task", "Task"), ("question_type", "QuestionType"), ("split", "SplitLabel"),
        ("rule", "SplitRule"),
    ])
    def test_bad_enum_value(self, tmp_path, field, enum_name, value):
        row = json.loads((GOLDEN / "splits.jsonl").read_text().splitlines()[0])
        row[field] = value
        splits = tmp_path / "splits.jsonl"
        splits.write_bytes(json.dumps(row).encode() + b"\n")
        proc = run_cli("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", splits,
                       "--preds", self.make_inputs(tmp_path))
        assert one_error_line(proc) == (
            f"error: {splits}: line 1: invalid splits record: {value!r} is not a valid {enum_name}\n"
        )

    @pytest.mark.parametrize("flag", ["--gold", "--splits", "--preds"])
    def test_reader_error_names_the_file(self, tmp_path, flag):
        inputs = {"--gold": GOLDEN / "corpus.jsonl", "--splits": GOLDEN / "splits.jsonl",
                  "--preds": self.make_inputs(tmp_path)}
        bad = inputs[flag] = tmp_path / "bad.jsonl"
        bad.write_bytes(b"[1]\n")
        proc = run_cli("score", *(x for item in inputs.items() for x in item))
        assert one_error_line(proc) == f"error: {bad}: line 1: each line must be a JSON object\n"


# Raw bytes, arbitrary JSON, and objects shaped like a votes file with
# out-of-range, ragged or mistyped parts.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_COUNT = st.integers(-2, 6) | st.sampled_from([0.0, 2.0, True, "3", None])
_VOTES = st.fixed_dictionaries(
    {"raters": _COUNT, "rows": st.lists(st.lists(_COUNT, max_size=4), max_size=4)},
    optional={"multiplicities": st.lists(_COUNT, max_size=4) | _COUNT},
)
_VOTES_BYTES = (
    st.binary(max_size=64)
    | (_JSON | _VOTES).map(lambda v: json.dumps(v).encode())
    | _VOTES.map(lambda v: json.dumps(v).encode()[:-1])
)


# The golden corpus's generator config with the model-shape fields dropped
# or replaced. Sizes are drawn below 64, small enough to train on, or at
# 2**40 and above, where an allocation of that size is refused at once
# rather than taking real memory.
_SIZE = st.integers(max_value=63) | st.integers(min_value=2**40)
_SYNTH_FIELD = _SIZE | st.sampled_from([None, False, 8.0, "8"])
_SYNTH_CONFIG = st.builds(
    lambda drop, new: {k: v for k, v in {**_GOLDEN_SYNTH_CONFIG, **new}.items() if k not in drop},
    st.sets(st.sampled_from(["num_classes", "feature_dim"])),
    st.fixed_dictionaries({}, optional={"num_classes": _SYNTH_FIELD, "feature_dim": _SYNTH_FIELD}),
)
_SYNTH_CONFIG_TEXT = st.binary(max_size=64) | _SYNTH_CONFIG.map(lambda v: json.dumps(v).encode())


class TestKappaCommand:
    def test_value(self, tmp_path, capsys):
        votes = tmp_path / "votes.json"
        votes.write_text(json.dumps({
            "raters": 3,
            "rows": [[3, 0], [2, 1], [1, 2], [0, 3]],
            "multiplicities": [164219, 47353, 7481, 9172],
        }))
        rc = main(["kappa", "--votes", str(votes)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.2974"

    def test_invalid_table(self, tmp_path, capsys):
        votes = tmp_path / "votes.json"
        votes.write_text(json.dumps({"raters": 3, "rows": [[2, 2]]}))
        assert main(["kappa", "--votes", str(votes)]) == EXIT_USAGE

    def test_missing_file(self, tmp_path, capsys):
        assert main(["kappa", "--votes", str(tmp_path / "nope.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        "[1]",
        '{"raters": 3}',
        '{"rows": [[3, 0]]}',
        '{"raters": "3", "rows": [[3, 0]]}',
        '{"raters": 3, "rows": [3, 0]}',
        '{"raters": 3, "rows": [[3, 0.0]]}',
        '{"raters": 3, "rows": [[3, 0]], "multiplicities": 2}',
        '{"raters": 3,',
        '{"raters": 3, "rows": [[4, -1], [3, 0]]}',
        pytest.param("[" * 100_000, id="deep_nesting"),
    ])
    def test_malformed_votes_file(self, tmp_path, text):
        votes = tmp_path / "votes.json"
        votes.write_text(text)
        assert one_error_line(run_cli("kappa", "--votes", votes)).startswith(f"error: {votes}: ")

    @settings(deadline=None)
    @given(data=_VOTES_BYTES)
    def test_votes_file_fuzz(self, tmp_path_factory, data):
        """Any bytes give a kappa (exit 0) or exit 2 with one line naming the file."""
        votes = tmp_path_factory.getbasetemp() / "fuzz_votes.json"
        votes.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["kappa", "--votes", str(votes)])
        if rc == EXIT_OK:
            assert re.fullmatch(r"-?\d+\.\d{4}\n", out.getvalue()) and not err.getvalue()
        else:
            assert rc == EXIT_USAGE and not out.getvalue()
            assert err.getvalue().startswith(f"error: {votes}: ") and err.getvalue().count("\n") == 1


class TestGenSynthAndTrain:
    def gen(self, out, seed=0):
        return main([
            "--seed", str(seed), "gen-synth", "--train-n", "200", "--test-n", "100",
            "--output-dir", str(out),
        ])

    def test_gen_outputs(self, tmp_path, capsys):
        assert self.gen(tmp_path / "d") == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "train.features", "test.features",
                     "splits.jsonl", "synth_config.json"):
            assert (tmp_path / "d" / name).exists()
        cfg = json.loads((tmp_path / "d" / "synth_config.json").read_text())
        assert cfg["train_n"] == 200 and cfg["seed"] == 0

    def test_train_toy_end_to_end(self, tmp_path, capsys):
        self.gen(tmp_path / "d")
        rc = main([
            "--seed", "0", "train-toy", "--data", str(tmp_path / "d"),
            "--epochs", "2", "--output-dir", str(tmp_path / "run"),
            "--no-timestamp",
        ])
        assert rc == EXIT_OK
        run = tmp_path / "run"
        for name in ("config.json", "history.jsonl", "model.bin", "report.json"):
            assert (run / name).exists()
        history = [json.loads(l) for l in (run / "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in history] == [1, 2]
        report = json.loads((run / "report.json").read_text())
        assert report["aggregate"]["head_n"] + report["aggregate"]["tail_n"] == 100
        assert "timestamp" not in json.loads((run / "config.json").read_text())

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        self.gen(tmp_path / "d")
        main([
            "train-toy", "--data", str(tmp_path / "d"), "--epochs", "1",
            "--output-dir", str(tmp_path / "run"),
        ])
        assert "timestamp" in json.loads((tmp_path / "run" / "config.json").read_text())

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train-toy", "--data", str(tmp_path / "nope"), "--output-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_truncated_features_file(self, tmp_path):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        feats = data / "train.features"
        feats.write_bytes(feats.read_bytes()[:10])
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert proc.returncode == EXIT_USAGE
        err = proc.stderr.decode()
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == f"error: {feats}: truncated header\n"

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_feature(self, tmp_path, value):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        feats = data / "train.features"
        blob = feats.read_bytes()
        feats.write_bytes(blob[:-8] + struct.pack("<d", value))
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == f"error: {feats}: non-finite feature value\n"

    @pytest.mark.parametrize("name", ["train", "test"])
    def test_row_count_mismatch(self, tmp_path, name):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        corpus = data / f"{name}.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join(lines[:-1]))
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == (
            f"error: {data / f'{name}.features'}: {len(lines)} feature rows, "
            f"but {corpus} has {len(lines) - 1} samples\n"
        )

    def test_feature_dim_mismatch(self, tmp_path):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        cfg_path = data / "synth_config.json"
        cfg = json.loads(cfg_path.read_text())
        assert cfg["feature_dim"] == 8
        cfg_path.write_text(json.dumps({**cfg, "feature_dim": 16}))
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == (
            f"error: {data / 'train.features'}: audio features are 8 wide, "
            f"but feature_dim in {cfg_path} is 16\n"
        )


    @pytest.mark.parametrize("text, problem", [
        ("{", "Expecting property name"),
        ("[6, 8]", "expected a JSON object"),
        ('{"num_classes": 6}', "feature_dim must be a positive integer"),
        ('{"num_classes": 6, "feature_dim": "8"}', "feature_dim must be a positive integer"),
        ('{"num_classes": 6.0, "feature_dim": 8}', "num_classes must be a positive integer"),
        ('{"num_classes": 0, "feature_dim": 8}', "num_classes must be a positive integer"),
        pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep_nesting"),
        # gen-synth never writes one: the shortcut needs a feature channel per class
        pytest.param(f'{{"num_classes": {10**13}, "feature_dim": 8}}',
                     f"num_classes {10**13} exceeds feature_dim 8\n", id="classes_beyond_dim"),
    ])
    def test_malformed_synth_config(self, tmp_path, text, problem):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        cfg_path = data / "synth_config.json"
        cfg_path.write_text(text)
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc).startswith(f"error: {cfg_path}: {problem}")

    def test_empty_train_corpus(self, tmp_path):
        # With no rows, no file size bounds the width the features headers
        # declare; a model 2**31 features wide would need 1.5 TiB.
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        wide = 2**31
        for name in ("train", "test"):
            (data / f"{name}.jsonl").write_bytes(b"")
            header = struct.pack("<IIIII", serialize.FORMAT_VERSION, 0, wide, wide, wide)
            (data / f"{name}.features").write_bytes(serialize.FEATURES_MAGIC + header)
        cfg_path = data / "synth_config.json"
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "feature_dim": wide}))
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == f"error: {data / 'train.jsonl'}: no samples to train on\n"
        assert not (tmp_path / "run").exists()

    @settings(deadline=None)
    @given(text=_SYNTH_CONFIG_TEXT)
    @example(text=json.dumps({**_GOLDEN_SYNTH_CONFIG, "num_classes": 2**40}).encode())
    def test_synth_config_fuzz(self, tmp_path_factory, text):
        """Any synth_config.json trains (exit 0) or gives exit 2 with one line
        naming a file of the corpus."""
        data = tmp_path_factory.getbasetemp() / "fuzz_synth"
        if not data.exists():
            shutil.copytree(TOY_GOLDEN / "synth", data)
        (data / "synth_config.json").write_bytes(text)
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # the report is bytes
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["train-toy", "--data", str(data), "--epochs", "1", "--no-timestamp",
                       "--output-dir", str(tmp_path_factory.getbasetemp() / "fuzz_run")])
        out.flush()
        if rc == EXIT_OK:
            assert not err.getvalue()
        else:
            assert rc == EXIT_USAGE and not out.buffer.getvalue()
            assert re.fullmatch(rf"error: {re.escape(str(data))}/[\w.]+: .*\n", err.getvalue())

    # Predictions are written as c00, c01, ..., so an answer spelled another
    # way, or a class beyond num_classes, could only change the accuracy.
    @pytest.mark.parametrize("names, old, new, blank_lines", [
        pytest.param(("test.jsonl", "splits.jsonl"), "c02", "c2", 0, id="unpadded"),
        pytest.param(("train.jsonl",), "c00", "cx", 2, id="not_a_number"),
        pytest.param(("train.jsonl",), "c01", "c09", 0, id="beyond_num_classes"),
    ])
    def test_answer_must_be_a_class_name(self, tmp_path, names, old, new, blank_lines):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        for name in names:
            path = data / name
            text = path.read_text().replace(f'"answer": "{old}"', f'"answer": "{new}"')
            path.write_text("\n" * blank_lines + text)
        path = data / names[0]
        line = next(i for i, l in enumerate(path.read_text().splitlines(), 1) if f'"{new}"' in l)
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == (
            f"error: {path}: line {line}: answer {new!r} is not one of the 6 answer classes "
            f"c00 to c05\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change, problem", [
        ({"id": "nope"}, "split assignment refers to unknown sample id 'nope'"),
        ({"answer": "c05"}, "split assignment 'test-00001' (AVQA/Existential, answer 'c05') "
                            "disagrees with the gold sample (AVQA/Existential, answer 'c02')"),
    ])
    def test_split_at_odds_with_the_test_corpus(self, tmp_path, monkeypatch, change, problem):
        """Reported with the splits file and line, before any training and
        with no run directory, as ``score`` reports it."""
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        lines = (data / "splits.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = json.dumps(json.loads(lines[1]) | change).encode() + b"\n"
        (data / "splits.jsonl").write_bytes(b"\n" + b"".join(lines))
        trained = []
        monkeypatch.setattr(toy, "train", lambda *args: trained.append(len(args)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["train-toy", "--data", str(data), "--epochs", "1",
                       "--output-dir", str(tmp_path / "run")])
        assert (rc, out.getvalue(), trained) == (EXIT_USAGE, "", [])
        assert err.getvalue() == f"error: {data / 'splits.jsonl'}: line 3: {problem}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["train.jsonl", "test.jsonl", "splits.jsonl"])
    def test_reader_error_names_the_file(self, tmp_path, name):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        (data / name).write_bytes(b"[1]\n")
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == (
            f"error: {data / name}: line 1: each line must be a JSON object\n"
        )

    # The lines are those of the per-sample reader, parse_samples, that
    # train-toy once read its corpora with; row 100 is past the first block.
    @pytest.mark.parametrize("name, row", [
        ("train.jsonl", 5), ("train.jsonl", 100), ("test.jsonl", 5), ("test.jsonl", 35)])
    @pytest.mark.parametrize("change, problem", [
        ({"id": "{part}-00001"}, "duplicate id '{part}-00001' (first seen on line 2)"),
        (None, "malformed JSON: Expecting property name enclosed in double quotes"),
        ({"answer": "c06"}, "answer 'c06' is not one of the 6 answer classes c00 to c05"),
    ], ids=["duplicate", "malformed", "answer"])
    def test_corpus_fault_is_the_same_line(self, tmp_path, name, row, change, problem):
        data = tmp_path / "d"
        shutil.copytree(TOY_GOLDEN / "synth", data)
        part = name.split(".")[0]
        lines = (data / name).read_bytes().splitlines(keepends=True)
        lines[row - 1] = b"{not json\n" if change is None else json.dumps(
            json.loads(lines[row - 1]) | {k: v.format(part=part) for k, v in change.items()}
        ).encode() + b"\n"
        (data / name).write_bytes(b"".join(lines))
        proc = run_cli("train-toy", "--data", data, "--epochs", "1",
                       "--output-dir", tmp_path / "run")
        assert one_error_line(proc) == (
            f"error: {data / name}: line {row}: {problem.format(part=part)}\n")
        assert not (tmp_path / "run").exists()


# SHA-256 of each file of gen-synth at the default settings, by seed.
_DEFAULT_SYNTH_DIGESTS = {
    3: {"splits.jsonl": "8eaa33bd22b1544d6763193b6b3587d308065054ae6abf8688dc02b2e7240765",
        "synth_config.json": "e908b7b03305a3344aa00690724ee4c9e05d0cb7db803effbbc4db648bd7960b",
        "test.features": "17a1ca0d63fe825ef5eb395c88a5af711e4f5c517fd03b7e1b40626756c777d7",
        "test.jsonl": "be8c681ef82c2c6bcdc3870ea970d853d96c7fef3d297e8a6d168ad4c833d4ef",
        "train.features": "d05c4035026478ebbdb610cbd894b1a6397d5439cf46cd47ab1a07f2a3db18ad",
        "train.jsonl": "c30e9494020e8ec06b5f5d95dfab214a60d98835a742383fba7e4d6a8b7dc679"},
    8: {"splits.jsonl": "fe7eea42f1119d4f42c22fbe6514bc1e76591682436a6ec31a37ddfb81d8189a",
        "synth_config.json": "7d84df8453909d7cd35c22b3547b90ec8fbeef5022127a7eceefe2aafba11490",
        "test.features": "f4b33be55840ba6d1b96f0dc774c6d78fbaaedabd29b2fd8b273397bfb086349",
        "test.jsonl": "885a10f0b877d25764bf0e4872082277db0047ae92a3006a2caad38413709d21",
        "train.features": "66ce064d6dfe7a245076e5bcf3b47ee3e5defaa003fe774ba1655f1bbd11eaf2",
        "train.jsonl": "43fae5fcbc9d7e8f1495f62a2f5d3e44c1a959efee55aedbf4fef223e6cb9115"},
}


class TestToyGoldenBytes:
    """Training-path outputs pinned byte for byte against files written by an
    earlier commit: a change to any float operation of generation or
    training, or to the order of one, shows here."""

    def test_gen_synth(self, tmp_path, capsys):
        assert main([
            "--seed", "5", "gen-synth", "--train-n", "160", "--test-n", "40",
            "--feature-dim", "8", "--output-dir", str(tmp_path),
        ]) == EXIT_OK
        golden = sorted((TOY_GOLDEN / "synth").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in golden]
        for p in golden:
            assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize("seed", sorted(_DEFAULT_SYNTH_DIGESTS))
    def test_gen_synth_at_the_defaults(self, tmp_path, capsys, seed):
        """The 6,000 rows of the default settings reach draws that the golden
        corpus's 200 rows may not; their files keep these SHA-256 digests."""
        assert main(["--seed", str(seed), "gen-synth", "--output-dir", str(tmp_path)]) == EXIT_OK
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == _DEFAULT_SYNTH_DIGESTS[seed]

    def test_train_toy(self, tmp_path, capsys):
        assert main([
            "--seed", "5", "train-toy", "--data", str(TOY_GOLDEN / "synth"), "--epochs", "3",
            "--no-timestamp", "--output-dir", str(tmp_path),
        ]) == EXIT_OK
        for name in ("model.bin", "history.jsonl", "report.json"):
            assert (tmp_path / name).read_bytes() == (TOY_GOLDEN / "train" / name).read_bytes(), name

    def test_train_toy_single_head_drop_raw_logit(self, tmp_path, capsys):
        # two discrepancy heads, distances between raw logits
        assert main([
            "--seed", "5", "train-toy", "--data", str(TOY_GOLDEN / "synth"), "--epochs", "3",
            "--variant", "without_dv", "--distance-space", "raw_logit",
            "--no-timestamp", "--output-dir", str(tmp_path),
        ]) == EXIT_OK
        for name in ("model.bin", "history.jsonl", "report.json"):
            golden = (TOY_GOLDEN / "train_raw" / name).read_bytes()
            assert (tmp_path / name).read_bytes() == golden, name

    def ablation_json(self, variants: str, capsys) -> bytes:
        assert main([
            "--seed", "5", "ablation", "--format", "json", "--variants", variants, "--seeds", "0,1",
            "--train-n", "96", "--test-n", "40", "--feature-dim", "8", "--epochs", "2",
        ]) == EXIT_OK
        return capsys.readouterr().out.encode()

    def test_ablation(self, capsys):
        out = self.ablation_json("full,without_md,without_cg,baseline", capsys)
        assert out == (TOY_GOLDEN / "ablation.json").read_bytes()

    def test_ablation_single_head_drops(self, capsys):
        out = self.ablation_json("without_dq,without_dv,without_da", capsys)
        assert out == (TOY_GOLDEN / "ablation_heads.json").read_bytes()

    def test_grid(self, tmp_path, capsys):
        assert main([
            "--seed", "5", "grid", "--alphas", "0.3,1.0", "--betas", "0.03,3.0", "--seeds", "0,1",
            "--train-n", "200", "--test-n", "80", "--feature-dim", "8", "--epochs", "6",
            "--output-dir", str(tmp_path),
        ]) == EXIT_OK
        golden = (TOY_GOLDEN / "grid.csv").read_bytes()
        assert capsys.readouterr().out.encode() == golden
        assert (tmp_path / "grid.csv").read_bytes() == golden


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self):
        proc = run_cli("gradcheck", "--classes", "5", "--batch", "2")
        assert proc.returncode == EXIT_OK
        obj = json.loads(proc.stdout)
        assert obj["loss"] == "joint"
        assert obj["max_rel_err"] < 1e-5

    def test_fails_with_impossible_tolerance(self):
        proc = run_cli("gradcheck", "--classes", "5", "--batch", "2", "--tolerance", "1e-18")
        assert proc.returncode == EXIT_CHECK_FAILED

    @pytest.mark.parametrize("loss", ["answer", "discrepancy", "cycle"])
    def test_each_loss_selectable(self, loss):
        proc = run_cli("gradcheck", "--loss", loss, "--classes", "4", "--batch", "2")
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["loss"] == loss


class TestAblationCommand:
    def test_small_grid(self, tmp_path, capsys):
        rc = main([
            "ablation", "--variants", "baseline", "--seeds", "0",
            "--train-n", "150", "--test-n", "80", "--epochs", "1",
            "--format", "json", "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((tmp_path / "ablation.json").read_text())
        assert printed == saved
        assert saved["rows"][0]["variant"] == "baseline"

    # One test row, a tail, so no head row; then 2,000 test rows and no tail.
    @pytest.mark.parametrize("split_argv, absent", [
        (("--test-n", "1", "--tail-fraction", "0.6"), "head"),
        (("--tail-fraction", "0.0002"), "tail"),
    ], ids=["no-head", "no-tail"])
    def test_absent_median(self, split_argv, absent):
        """A test split with no head (or no tail) row has no head (tail)
        accuracy in any run, so its median is absent: ``--`` in the table,
        ``null`` in JSON and an empty field in grid's CSV, at any --threads.
        It was a traceback."""
        small = (*split_argv, "--seeds", "0,1", "--train-n", "50", "--epochs", "1")
        outputs = []
        for threads in ("1", "2"):
            procs = [run_cli("--threads", threads, *argv, *small) for argv in (
                ("ablation", "--variants", "full,baseline"),
                ("ablation", "--variants", "full,baseline", "--format", "json"),
                ("grid", "--alphas", "0.1", "--betas", "0.3,1.0"))]
            for proc in procs:
                assert (proc.returncode, proc.stderr) == (EXIT_OK, b""), proc.stderr.decode()
            outputs.append([proc.stdout.decode() for proc in procs])
        assert outputs[0] == outputs[1]
        table, report, csv = outputs[0]
        column = {"head": 0, "tail": 1}[absent]
        cells = [line.split("|")[2:5] for line in table.splitlines()[2:]]
        assert len(cells) == 2
        assert all(row[column].strip() == "--" and row[2].strip() != "--" for row in cells)
        for row in json.loads(report)["rows"]:
            assert row[f"median_{absent}_acc"] is None
            assert isinstance(row["median_overall_acc"], float)
        fields = [line.split(",")[2:] for line in csv.splitlines()[1:]]
        assert len(fields) == 2
        assert all(row[column] == "" and row[2] != "" for row in fields)


class TestGridCommand:
    def test_csv(self, tmp_path, capsys):
        rc = main([
            "grid", "--alphas", "0.01", "--betas", "0.3", "--seeds", "0",
            "--train-n", "150", "--test-n", "80", "--epochs", "1",
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,median_head_acc,median_tail_acc,median_overall_acc"
        assert lines[1].startswith("0.01,0.3,")

    def test_generates_each_corpus_once(self, monkeypatch, capsys):
        calls = []
        generate_synthetic = toy.generate_synthetic

        def counting(cfg):
            calls.append(cfg.seed)
            return generate_synthetic(cfg)

        monkeypatch.setattr(toy, "generate_synthetic", counting)
        assert main([
            "--threads", "1",  # in this process, where the calls can be counted
            "grid", "--alphas", "0.01,0.1", "--betas", "0.3,1.0", "--seeds", "0,1",
            "--train-n", "60", "--test-n", "20", "--epochs", "1",
        ]) == EXIT_OK
        assert calls == [0, 1]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4


class TestThreads:
    """``--threads`` sets the worker processes of ablation and grid; no output depends on it."""

    SMALL = ("--seeds", "0,1", "--train-n", "120", "--test-n", "60", "--epochs", "2")

    # 2 seeds and 3 or 4 arms: more tasks than workers
    @pytest.mark.parametrize("argv", [
        ("ablation", "--variants", "full,without_md,without_cg", "--format", "json"),
        ("ablation", "--variants", "full,without_md,without_cg"),
        ("grid", "--alphas", "0.01,0.1", "--betas", "0.3,1.0"),
    ], ids=["ablation-json", "ablation-text", "grid"])
    def test_outputs_do_not_depend_on_threads(self, tmp_path, argv):
        outputs = []
        for threads in ("1", "2", "0"):
            out = tmp_path / threads
            proc = run_cli("--threads", threads, *argv, *self.SMALL, "--output-dir", out)
            assert proc.returncode == EXIT_OK, proc.stderr.decode()
            outputs.append((proc.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1]

    # Every subcommand checks the flag before it reads any input, so score's
    # files need not be valid. ``OUT`` is an output directory, ``VOTES`` a
    # valid vote table.
    @pytest.mark.parametrize("argv", [
        ("ablation", *SMALL, "--output-dir", "OUT"), ("grid", *SMALL, "--output-dir", "OUT"),
        ("split", "--input", GOLDEN / "corpus.jsonl", "--output-dir", "OUT"),
        ("score", "--gold", GOLDEN / "corpus.jsonl", "--splits", GOLDEN / "splits.jsonl",
         "--preds", GOLDEN / "splits.jsonl"),
        ("gen-synth", "--train-n", "20", "--test-n", "10", "--output-dir", "OUT"),
        ("train-toy", "--data", TOY_GOLDEN / "synth", "--epochs", "1", "--output-dir", "OUT"),
        ("kappa", "--votes", "VOTES"), ("gradcheck", "--classes", "4", "--batch", "2"),
    ], ids=["ablation", "grid", "split", "score", "gen-synth", "train-toy", "kappa", "gradcheck"])
    def test_negative_threads(self, tmp_path, argv):
        votes = tmp_path / "votes.json"
        votes.write_text('{"raters": 3, "rows": [[3, 0], [2, 1]]}')
        argv = [{"OUT": tmp_path / "out", "VOTES": votes}.get(a, a) for a in argv]
        proc = run_cli("--threads", "-1", *argv)
        err = one_error_line(proc)
        assert err.startswith("error: --threads must be 0 (one worker per usable CPU) or positive")
        assert proc.stdout == b""
        assert not (tmp_path / "out").exists()

    def test_worker_error_is_the_same_line(self):
        # a learning rate of 1e300 diverges in the second epoch of every run
        errors = [
            one_error_line(run_cli("--threads", threads, "ablation", "--variants", "full,baseline",
                                   *self.SMALL, "--lr", "1e300"))
            for threads in ("1", "2")
        ]
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: non-finite ")

    def test_dead_worker_is_one_line(self, monkeypatch, capfd):
        monkeypatch.setattr(toy, "_run_task", exit_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a pool on 1 CPU too
        assert main(["--threads", "2", "ablation", "--variants", "full,baseline", *self.SMALL]) \
            == EXIT_USAGE
        out, err = capfd.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "terminated abruptly" in err


# The CLI as ``python -m avqa_debias.cli`` runs it, but exiting 99 if any
# child process of the command is left, running or unreaped.
_NO_CHILD_LEFT = ("import os, sys\nfrom avqa_debias.cli import main\ncode = main(sys.argv[1:])\n"
                  "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n"
                  "    sys.exit(code)\nsys.exit(99)")


def _golden_lines(name: str) -> list[bytes]:
    return (GOLDEN / name).read_bytes().splitlines(keepends=True)


def _with_line(name: str, index: int, change: dict) -> bytes:
    """The golden file ``name`` with ``change`` merged into the row at ``index``."""
    lines = _golden_lines(name)
    lines[index] = json.dumps(json.loads(lines[index]) | change).encode() + b"\n"
    return b"".join(lines)


class TestRangeReads:
    """split and score read each input file in --threads byte ranges, one per
    process; what they print, write and exit with is the same at any count,
    errors included, and no worker process outlives the command."""

    def outcome(self, tmp_path, threads: str, argv: list, fifo: Path | None = None) -> tuple:
        """(exit code, stdout, stderr, output files) of one command; ``OUT`` in
        ``argv`` is a fresh output directory. With ``fifo``, the golden corpus is
        written into that FIFO while the command runs."""
        out = tmp_path / f"out-{threads}-{fifo is not None}"
        args = [str(out) if a == "OUT" else str(a) for a in argv]
        proc = subprocess.Popen([sys.executable, "-c", _NO_CHILD_LEFT, "--threads", threads, *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if fifo is not None:
            writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                                      args=((GOLDEN / "corpus.jsonl").read_bytes(),))
            writer.start()
        stdout, stderr = proc.communicate(timeout=120)
        if fifo is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert proc.returncode != 99, "a child process of the command was left"
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return proc.returncode, stdout, stderr, files

    def same_at_any_count(self, tmp_path, argv: list) -> tuple:
        one, two, auto = (self.outcome(tmp_path, threads, argv) for threads in ("1", "2", "0"))
        assert one == two == auto
        return one

    def score_argv(self, tmp_path, gold=None, splits=None, preds=None) -> list:
        """``score --format json`` of the golden files, or of the given bytes."""
        paths = {}
        for name, data, default in (("gold", gold, GOLDEN / "corpus.jsonl"),
                                    ("splits", splits, GOLDEN / "splits.jsonl"),
                                    ("preds", preds, None)):
            paths[name] = default
            if data is not None:
                paths[name] = tmp_path / f"{name}.jsonl"
                paths[name].write_bytes(data)
        return ["score", "--gold", paths["gold"], "--splits", paths["splits"],
                "--preds", paths["preds"], "--format", "json"]

    def preds(self) -> bytes:
        """Predictions for all but one splits row in each half of the file, and
        one prediction for an unknown id at each end: both ranges hold an
        unmatched id and a warning."""
        ids = [json.loads(line)["id"] for line in _golden_lines("splits.jsonl")]
        rows = [{"id": "ghost-first", "predicted_answer": "a"}]
        rows += [{"id": sid, "predicted_answer": "a"} for sid in ids if sid not in (ids[1], ids[-2])]
        rows.append({"id": "ghost-last", "predicted_answer": "a"})
        return b"".join(json.dumps(r).encode() + b"\n" for r in rows)

    def test_split_outputs(self, tmp_path):
        code, stdout, stderr, files = self.same_at_any_count(
            tmp_path, ["split", "--input", GOLDEN / "corpus.jsonl", "--output-dir", "OUT"])
        assert code == EXIT_OK and stderr == b""
        assert files == {name: (GOLDEN / name).read_bytes() for name in ("splits.jsonl", "groups.json")}

    def test_score_order_of_unmatched_ids_and_warnings(self, tmp_path):
        code, stdout, stderr, _ = self.same_at_any_count(
            tmp_path, self.score_argv(tmp_path, preds=self.preds()))
        assert code == EXIT_OK and stderr == b""
        report = json.loads(stdout)
        ids = [json.loads(line)["id"] for line in _golden_lines("splits.jsonl")]
        assert report["unmatched_ids"] == [ids[1], ids[-2]]
        assert report["warnings"] == ["prediction id 'ghost-first' not in gold corpus",
                                      "prediction id 'ghost-last' not in gold corpus"]

    # Each fault lies past the middle of its file, in the second of two ranges.
    CORPUS_FAULTS = {
        "malformed": (b"".join(_golden_lines("corpus.jsonl")[:-2]) + b"{broken\n",
                      "line 26: malformed JSON: Expecting property name enclosed in double quotes"),
        "duplicate": (b"".join(_golden_lines("corpus.jsonl") + _golden_lines("corpus.jsonl")[:1]),
                      "line 28: duplicate id 'avqa0000' (first seen on line 1)"),
        "unknown_task": (_with_line("corpus.jsonl", -3, {"task": "bogus"}),
                         "line 25: unknown task 'bogus'"),
    }

    @pytest.mark.parametrize("fault", CORPUS_FAULTS)
    @pytest.mark.parametrize("command", ["split", "score"])
    def test_corpus_errors(self, tmp_path, command, fault):
        data, message = self.CORPUS_FAULTS[fault]
        bad = tmp_path / "gold.jsonl"
        if command == "split":
            bad.write_bytes(data)
            argv = ["split", "--input", bad, "--output-dir", "OUT"]
        else:
            argv = self.score_argv(tmp_path, gold=data, preds=self.preds())
        code, stdout, stderr, files = self.same_at_any_count(tmp_path, argv)
        assert (code, stdout, files) == (EXIT_USAGE, b"", {})
        assert stderr.decode() == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("name, data, message", [
        ("splits", b"".join(_golden_lines("splits.jsonl") + _golden_lines("splits.jsonl")[:1]),
         "line 24: duplicate id 'avqa0000' (first seen on line 1)"),
        ("splits", _with_line("splits.jsonl", -2, {"split": "middle"}),
         "line 22: invalid splits record: 'middle' is not a valid SplitLabel"),
        ("preds", None, "line 24: duplicate prediction id 'avqa0000'"),
        # an empty id is checked after the decision, as it is in the reader
        ("splits", _with_line("splits.jsonl", -2, {"id": "", "split": "middle"}),
         "line 22: invalid splits record: 'middle' is not a valid SplitLabel"),
    ])
    def test_splits_and_predictions_errors(self, tmp_path, name, data, message):
        if data is None:
            data = self.preds() + b'{"id": "avqa0000", "predicted_answer": "b"}\n'
        argv = self.score_argv(tmp_path, **{"preds": self.preds(), name: data})
        code, stdout, stderr, _ = self.same_at_any_count(tmp_path, argv)
        assert (code, stdout) == (EXIT_USAGE, b"")
        assert stderr.decode() == f"error: {tmp_path / name}.jsonl: {message}\n"

    def test_splits_fault_in_a_fifo(self, tmp_path):
        """A splits row that disagrees with the gold is reported at once when
        the splits file is a FIFO, which is not opened again to find the
        row's line (a second open would wait for a writer forever): the line
        reads "?", and the rest of the message is the regular file's."""
        data = _with_line("splits.jsonl", -2, {"answer": "bogus"})
        regular, fifo = tmp_path / "splits.jsonl", tmp_path / "splits.fifo"
        regular.write_bytes(data)
        os.mkfifo(fifo)
        argv = self.score_argv(tmp_path, splits=data, preds=self.preds())
        code, _, stderr, _ = self.outcome(tmp_path, "1", argv)
        prefix = f"error: {regular}: line 22: "
        assert code == EXIT_USAGE and stderr.decode().startswith(prefix)
        argv = [fifo if a == regular else a for a in argv]
        proc = subprocess.Popen([sys.executable, "-c", _NO_CHILD_LEFT, *map(str, argv)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            stdout, streamed = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("score waited on its splits FIFO")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (proc.returncode, stdout) == (EXIT_USAGE, b"")
        assert streamed.decode() == f"error: {fifo}: line ?: " + stderr.decode()[len(prefix):]

    @pytest.mark.parametrize("command", ["split", "score"])
    def test_fifo_input(self, tmp_path, command):
        """A FIFO cannot be read in ranges; it is read whole, as a stream."""
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        if command == "split":
            argv = ["split", "--input", "CORPUS", "--output-dir", "OUT"]
        else:
            argv = self.score_argv(tmp_path, preds=self.preds())
            argv[2] = "CORPUS"
        regular = self.outcome(tmp_path, "2", [GOLDEN / "corpus.jsonl" if a == "CORPUS" else a
                                               for a in argv])
        streamed = self.outcome(tmp_path, "2", [fifo if a == "CORPUS" else a for a in argv], fifo)
        assert streamed == regular and regular[0] == EXIT_OK


class TestSettingsRejected:
    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-0.001"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
        ("--alpha", "nan"), ("--beta", "inf"), ("--epsilon", "nan"),
    ])
    def test_bad_training_setting(self, tmp_path, flag, value):
        proc = run_cli("train-toy", "--data", TOY_GOLDEN / "synth", "--epochs", "1",
                       f"{flag}={value}", "--output-dir", tmp_path)
        one_error_line(proc)
        assert not (tmp_path / "history.jsonl").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("two_answer_only", [False, True])
    def test_bad_tail_factor(self, tmp_path, value, two_answer_only):
        # the golden corpus has a three-answer group; with only two-answer
        # groups the factor is never used, and it must still be rejected
        lines = (GOLDEN / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"".join(ln for ln in lines if not two_answer_only or b'"aq' in ln))
        proc = run_cli("split", "--input", corpus, f"--tail-factor={value}",
                       "--output-dir", tmp_path / "out")
        assert "tail_factor must be finite and positive" in one_error_line(proc)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, value", [
        ("gen-synth", "nan"), ("gen-synth", "inf"), ("gen-synth", "-1"), ("ablation", "nan"),
    ])
    def test_bad_noise_scale(self, tmp_path, command, value):
        proc = run_cli(command, "--train-n", "20", "--test-n", "10", f"--noise-scale={value}",
                       "--output-dir", tmp_path / "out")
        assert "noise_scale must be finite and nonnegative" in one_error_line(proc)
        assert not (tmp_path / "out").exists()

    def test_noise_scale_that_overflows(self, tmp_path):
        proc = run_cli("gen-synth", "--train-n", "5", "--test-n", "3", "--noise-scale=1e308",
                       "--output-dir", tmp_path / "out")
        assert one_error_line(proc) == "error: noise_scale 1e+308 makes non-finite train features\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["train-toy", "--epochs", "1", "--lr", "1e308"],
        *(["--threads", threads, "ablation", "--seeds", "0,1", "--variants", "full",
           "--train-n", "64", "--test-n", "20", "--epochs", "1", "--lr", "1e308"]
          for threads in ("1", "2")),
    ])
    def test_last_step_that_diverges(self, tmp_path, argv):
        """One step whose update overflows: no loss check of ``train`` sees it,
        and the NaN logits it leaves are not scored."""
        if argv[0] == "train-toy":
            assert main(["gen-synth", "--train-n", "5", "--test-n", "3",
                         "--output-dir", str(tmp_path / "d")]) == EXIT_OK
            argv = [*argv, "--data", tmp_path / "d", "--output-dir", tmp_path / "run"]
        proc = run_cli(*argv)
        assert one_error_line(proc) == (
            "error: non-finite test logits: the model diverged in its last training step\n")
        assert not (tmp_path / "run" / "report.json").exists()

    def test_tie_policy_flag_is_gone(self, tmp_path):
        proc = run_cli("split", "--input", GOLDEN / "corpus.jsonl", "--tie-both-head",
                       "--output-dir", tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert not (tmp_path / "splits.jsonl").exists()

    # 2**40 and above, where numpy refuses the allocation at once
    @pytest.mark.parametrize("argv", [
        ("gen-synth", "--train-n", 2**40),
        ("gen-synth", "--test-n", 2**40),
        ("--threads", "1", "ablation", "--train-n", 2**40),
        ("gradcheck", "--classes", 2**40),
    ], ids=["gen-synth-train-n", "gen-synth-test-n", "ablation-train-n", "gradcheck-classes"])
    def test_size_too_large_to_allocate(self, tmp_path, argv):
        out = tmp_path / "out"
        writes = "gradcheck" not in argv  # the one command with no --output-dir
        proc = run_cli(*argv, *(["--output-dir", out] if writes else []))
        assert one_error_line(proc).startswith("error: Unable to allocate ")
        assert proc.stdout == b"" and not out.exists()

    @pytest.mark.parametrize("flag, value, expected", [
        pytest.param(flag, value, expected, id=f"{flag}-{value}")
        for flag, values, expected in [
            ("--step", ["nan", "inf", "0", "-1e-5"], "must be finite and positive, not "),
            ("--tolerance", ["nan", "inf", "0", "-1"], "must be finite and positive, not "),
            ("--classes", ["1", "0", "-1"], "must be at least 2, not "),
            ("--batch", ["0", "-1"], "must be at least 1, not "),
        ]
        for value in values
    ])
    def test_bad_gradcheck_setting(self, flag, value, expected):
        # a NaN or infinite step compared nothing and passed; a NaN or
        # negative tolerance failed a check whose error was 4e-11; one class
        # made every gradient 0 and passed; a negative size was numpy's
        # "negative dimensions are not allowed", which names no flag
        proc = run_cli("gradcheck", "--classes", "4", "--batch", "2", f"{flag}={value}")
        assert one_error_line(proc).startswith(f"error: {flag} {expected}")
        assert proc.stdout == b""

    @pytest.mark.parametrize("command, flag", [
        ("ablation", "--variants"), ("ablation", "--seeds"),
        ("grid", "--alphas"), ("grid", "--betas"), ("grid", "--seeds"),
    ])
    def test_empty_list(self, command, flag):
        err = one_error_line(run_cli(command, f"{flag}=", "--train-n", "20", "--epochs", "1"))
        assert err == f"error: {flag} needs at least one comma-separated value\n"

    @pytest.mark.parametrize("command, flag, value, item", [
        ("ablation", "--variants", "full,baseline,full", "full"),
        ("ablation", "--seeds", "0,0,1", "0"),
        ("grid", "--alphas", "0.1,1e-1", "1e-1"),
        ("grid", "--betas", "0.3,0.30", "0.30"),
        ("grid", "--seeds", "1,01", "01"),
    ])
    def test_repeated_list_value(self, command, flag, value, item):
        # a repeated seed or arm counted its runs twice in every median
        err = one_error_line(run_cli(command, f"{flag}={value}", "--train-n", "20", "--epochs", "1"))
        assert err == f"error: {flag} repeats the value {item!r}\n"

    @pytest.mark.parametrize("command, flag, value, item", [
        ("ablation", "--variants", "full,bogus", "bogus"),
        ("ablation", "--seeds", "0,abc", "abc"),
        ("grid", "--alphas", "0.1,x", "x"),
        ("grid", "--betas", "1/2", "1/2"),
        ("grid", "--seeds", "1.5", "1.5"),
        # a negative seed was numpy's "expected non-negative integer", which names no flag
        ("ablation", "--seeds", "0,-1", "-1"),
        ("grid", "--seeds", "-2", "-2"),
    ])
    def test_unparsed_list_value(self, command, flag, value, item):
        err = one_error_line(run_cli(command, f"{flag}={value}", "--train-n", "20", "--epochs", "1"))
        assert err.startswith(f"error: {flag}: ") and repr(item) in err

    @pytest.mark.parametrize("argv", [
        ("gen-synth", "--train-n", "20", "--test-n", "10", "--output-dir", "OUT"),
        ("train-toy", "--data", TOY_GOLDEN / "synth", "--epochs", "1", "--output-dir", "OUT"),
        ("gradcheck", "--classes", "4", "--batch", "2"),
        ("ablation", "--seeds", "0", "--train-n", "20", "--epochs", "1", "--output-dir", "OUT"),
    ], ids=["gen-synth", "train-toy", "gradcheck", "ablation"])
    def test_negative_seed(self, tmp_path, argv):
        # it was numpy's "expected non-negative integer", which names no flag
        proc = run_cli("--seed", "-1", *(tmp_path / "out" if a == "OUT" else a for a in argv))
        assert one_error_line(proc) == "error: --seed must be 0 or positive, not -1\n"
        assert proc.stdout == b""
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == EXIT_USAGE

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0


# The benchmark's per-layer tracer replaces these module attributes by name.
# A refactor that drops one turns its metric into "absent" without a failure
# anywhere else, so the names are pinned here.
@pytest.mark.parametrize("target", [
    "cli:parse_samples", "cli:read_splits", "cli:parse_predictions", "cli:assign_splits",
    "cli:write_splits", "cli:score_predictions", "splitting:group_samples",
    "splitting:answer_distribution",
])
def test_traced_eval_path_attribute_exists(target):
    module, name = target.split(":")
    assert callable(getattr(importlib.import_module(f"avqa_debias.{module}"), name, None))


@pytest.mark.parametrize("target", [
    "toy:generate_synthetic", "serialize:write_features", "serialize:read_features",
    "toy:evaluate", "toy:score_predictions", "toy:_stack_features", "toy:_forward_cache",
    "losses:answer_loss", "losses:discrepancy_loss_stacked", "losses:cycle_loss_stacked",
    "toy:answer_loss", "toy:joint_components_stacked", "toy:_backward", "toy:Adam.step",
    "toy:train", "toy:run_variant",
])
def test_traced_training_path_attribute_exists(target):
    module, path = target.split(":")
    owner = importlib.import_module(f"avqa_debias.{module}")
    for name in path.split("."):
        owner = getattr(owner, name, None)
    assert callable(owner)


def test_tracer_finds_a_target_for_every_span():
    """The benchmark's tracer, installed as it is for a traced command, finds at
    least one attribute to wrap for each of its spans. It patches the modules,
    so it runs in a process of its own."""
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\nfrom trace_cli import Tracer\n"
              "tracer = Tracer()\ntracer.install()\nprint(tracer.absent)")
    perfbench = Path(__file__).parent.parent / "perfbench"
    proc = subprocess.run([sys.executable, "-c", script, str(perfbench)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[]\n"


def test_single_run_commands_do_not_load_the_pool_modules(tmp_path):
    """gen-synth, split, score and train-toy start no pool: split and score fork
    their range readers with os.fork. So none of them may pay to import
    concurrent.futures (which loads logging) or multiprocessing."""
    script = ("import sys\nfrom avqa_debias.cli import main\ncode = main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('concurrent', 'multiprocessing')))\nsys.exit(code)")
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(b'{"id": "avqa0000", "predicted_answer": "a"}\n')
    commands = [
        ["gen-synth", "--output-dir", tmp_path / "synth"],
        ["split", "--input", GOLDEN / "corpus.jsonl", "--output-dir", tmp_path / "split"],
        ["score", "--gold", GOLDEN / "corpus.jsonl", "--splits", GOLDEN / "splits.jsonl",
         "--preds", preds],
        ["train-toy", "--data", TOY_GOLDEN / "synth", "--epochs", "1",
         "--output-dir", tmp_path / "train"],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True)
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[-1] == "[]", argv[0]


_TRAINING_MODULES = ["avqa_debias.losses", "avqa_debias.serialize", "avqa_debias.toy", "numpy"]


def test_evaluation_commands_load_no_training_module(tmp_path):
    """split, score (with a range worker forked) and kappa load neither numpy
    nor the training modules; the subcommands that train import them, and run."""
    script = ("import sys\nfrom avqa_debias.cli import main\ncode = main(sys.argv[1:])\n"
              f"print([m for m in {_TRAINING_MODULES!r} if m in sys.modules])\nsys.exit(code)")
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(b'{"id": "avqa0000", "predicted_answer": "a"}\n')
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({"raters": 3, "rows": [[3, 0], [1, 2]]}))
    evaluation = [
        ["--threads", "2", "split", "--input", GOLDEN / "corpus.jsonl",
         "--output-dir", tmp_path / "split"],
        ["--threads", "2", "score", "--gold", GOLDEN / "corpus.jsonl",
         "--splits", GOLDEN / "splits.jsonl", "--preds", preds],
        ["kappa", "--votes", votes],
    ]
    training = [
        ["gen-synth", "--train-n", "40", "--test-n", "20", "--output-dir", tmp_path / "synth"],
        ["train-toy", "--data", TOY_GOLDEN / "synth", "--epochs", "1",
         "--output-dir", tmp_path / "train"],
    ]
    for argv, loaded in [(a, []) for a in evaluation] + [(a, _TRAINING_MODULES) for a in training]:
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True)
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[-1] == repr(loaded), argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 usable CPUs")
def test_cli_import_runs_one_blas_thread():
    """A process that imports the CLI module computes with one OpenBLAS
    thread, even when its caller asks for two: after a matmul large enough
    for OpenBLAS to split, the process still has its one thread."""
    script = ("import os\nimport avqa_debias.cli\nimport numpy as np\n"
              "a = np.ones((400, 400))\na @ a\nprint(len(os.listdir('/proc/self/task')))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"1\n"


def _oldest_python() -> str | None:
    """A ``python3.10`` that runs, or None: the one on PATH, else, when that
    is missing or is a pyenv shim with no 3.10 selected, one installed
    under ``$(pyenv root)/versions/3.10*``. 3.10 is the oldest version
    ``requires-python`` in pyproject.toml allows."""
    candidates = [shutil.which("python3.10")]
    if pyenv := shutil.which("pyenv"):
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += map(str, sorted(Path(root).glob("versions/3.10*/bin/python3.10")))
    for exe in filter(None, candidates):
        probe = subprocess.run([exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
                               capture_output=True)
        if probe.returncode == 0:
            return exe
    return None


def test_evaluation_commands_are_the_same_under_the_oldest_python(tmp_path):
    """split, score (JSON and text, with a range worker) and kappa, which load
    the standard library alone, give the same exit code, stdout, stderr and
    output files under python3.10 as under this interpreter, on good input
    and on bad: no syntax or call of a later Python is on their path."""
    oldest = _oldest_python()
    if oldest is None:
        pytest.skip("no working python3.10 on PATH or under pyenv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    preds = tmp_path / "preds.jsonl"
    ids = [json.loads(line)["id"] for line in _golden_lines("splits.jsonl")]
    preds.write_bytes(b"".join(json.dumps({"id": sid, "predicted_answer": "a"}).encode() + b"\n"
                               for sid in ["ghost", *ids[1:]]))
    bad_preds = tmp_path / "bad_preds.jsonl"
    bad_preds.write_bytes(preds.read_bytes() + preds.read_bytes().splitlines(keepends=True)[3])
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({"raters": 3, "rows": [[3, 0], [1, 2]], "multiplicities": [4, 1]}))
    bad_votes = tmp_path / "bad_votes.json"
    bad_votes.write_text(json.dumps({"raters": 3, "rows": [[3, 0], [1, 1]]}))
    corpus, splits = GOLDEN / "corpus.jsonl", GOLDEN / "splits.jsonl"
    commands = [
        ["--threads", "2", "split", "--input", corpus, "--output-dir", "OUT"],
        ["--threads", "2", "split", "--input", splits, "--output-dir", "OUT"],
        *(["--threads", "2", "score", "--gold", corpus, "--splits", splits, "--preds", p,
           "--format", fmt] for p in (preds, bad_preds) for fmt in ("json", "text")),
        ["kappa", "--votes", votes],
        ["kappa", "--votes", bad_votes],
    ]
    codes = set()
    for k, argv in enumerate(commands):
        outcomes = []
        for exe in (oldest, sys.executable):
            out = tmp_path / f"out-{k}-{len(outcomes)}"
            args = [str(out) if a == "OUT" else str(a) for a in argv]
            proc = subprocess.run([exe, "-m", "avqa_debias.cli", *args], capture_output=True, env=env)
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            outcomes.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert outcomes[0] == outcomes[1], argv
        codes.add(outcomes[0][0])
    assert codes == {EXIT_OK, EXIT_USAGE}


def test_every_module_compiles_under_the_oldest_python(tmp_path):
    """Every module under ``src/avqa_debias`` byte-compiles under python3.10,
    the training modules included, which cannot run there without numpy: no
    syntax of a later Python is anywhere in the package."""
    oldest = _oldest_python()
    if oldest is None:
        pytest.skip("no working python3.10 on PATH or under pyenv")
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "avqa_debias").glob("*.py"))
    assert {"cli.py", "toy.py", "losses.py", "serialize.py"} <= {p.name for p in modules}
    script = ("import os, py_compile, sys\n"
              "for path in sys.argv[2:]:\n"
              "    cfile = os.path.join(sys.argv[1], os.path.basename(path) + 'c')\n"
              "    py_compile.compile(path, cfile, doraise=True)\n")
    proc = subprocess.run([oldest, "-c", script, str(tmp_path), *map(str, modules)],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(list(tmp_path.glob("*.pyc"))) == len(modules)


def _subparser(name: str) -> argparse.ArgumentParser:
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _choices(name: str, dest: str) -> list:
    [action] = [a for a in _subparser(name)._actions if a.dest == dest]
    return list(action.choices)


def test_parser_defaults_are_the_config_defaults():
    """With no flags, split and each subcommand that trains build the library's
    default configs; the parser holds no second copy of a default or a choice."""
    parse = cli.build_parser().parse_args
    for argv in (["gen-synth", "--output-dir", "o"], ["ablation"], ["grid"]):
        assert cli._synth_from_args(parse(argv)) == SyntheticConfig(), argv
    for argv in (["train-toy", "--data", "d", "--output-dir", "o"], ["ablation"]):
        args = parse(argv)
        assert cli._train_from_args(args, args.alpha, args.beta) == TrainConfig(), argv
    grid = parse(["grid"])  # --alpha and --beta are swept, not flags
    assert cli._train_from_args(grid, MccdConfig.alpha, MccdConfig.beta) == TrainConfig()
    split = parse(["split", "--input", "c"])
    assert SplitConfig(split.entropy_threshold, split.tail_factor) == SplitConfig()
    gradcheck = parse(["gradcheck"])
    assert cli._mccd_from_args(gradcheck, gradcheck.alpha, gradcheck.beta) == MccdConfig()
    assert gradcheck.classes == 10  # its own default, not SyntheticConfig's
    train_toy = parse(["train-toy", "--data", "d", "--output-dir", "o"])
    assert AblationSpec(AblationVariant(train_toy.variant)) == AblationSpec()
    variants = [v.value for v in AblationVariant]
    assert _choices("train-toy", "variant") == variants and len(variants) == 7
    for name in ("train-toy", "gradcheck", "ablation", "grid"):
        assert _choices(name, "distance_space") == list(DISTANCE_SPACES), name
