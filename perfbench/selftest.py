"""Quick self-test of the benchmark: about half a minute on 2 CPUs.

    python3 perfbench/selftest.py

It runs every workload at the tiny size, untraced and traced, and checks
that the result lines name exactly the metrics of BENCHMARK.json with no
failed operation. It shows that each output check is live: a wrong label
planted in splits.jsonl, a wrong accuracy in a score report and in a
train-toy report, and a wrong median in an ablation report must each be
counted as a failed operation. It shows that a wrapped name missing from
the program is reported absent, and that the benchmark refuses to run
without the program's source. Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
from checks import check_ablation, check_score_report, check_splits, check_train_toy, expected_report, read_test_set
from inputs import make_eval_inputs

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok' if condition else 'FAIL'}: {what}")
    if not condition:
        FAILURES.append(what)


def run_benchmark(*args: str, cwd=run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def tiny_workloads(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, out = run_benchmark("--workload", "all", "--seed", "3", "--seconds", "0",
                                  "--size", "tiny", "--trace", str(trace))
        result = json.loads(out.strip().splitlines()[-1])
        names = {f"{w}/{m['name']}" for w in run.WORKLOADS for m in spec[kind]}
        expect(code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"tiny workloads with --trace {trace}: attempted {result['attempted']}, failed {result['failed']}")
        expect(set(result["metrics"]) == names, f"--trace {trace} reports exactly the {kind} metrics")
        expect("absent:" not in out, f"--trace {trace} finds every wrapped function")


def flip_one_label(path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[0])
    obj["split"] = "tail" if obj["split"] == "head" else "head"
    lines[0] = json.dumps(obj) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def nudge_accuracy(path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["aggregate"]["overall_acc"] = round(report["aggregate"]["overall_acc"] + 0.0001, 4)
    path.write_text(json.dumps(report), encoding="utf-8")


def nudge_median(path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["rows"][0]["median_tail_acc"] += 0.005
    path.write_text(json.dumps(report), encoding="utf-8")


def planted_errors(work) -> None:
    """Each check, run on an output with one planted error, fails its operation."""
    size = run.SIZES["tiny"]
    with run.SpeedProbe() as probe:
        b = run.Bench(work, trace=False, deadline=time.monotonic() + 120, probe=probe)
        inputs = make_eval_inputs(work, seed=5, scale=size.eval_scale)
        split_dir = work / "split"

        def tamper(mutate, check):
            def tampered():
                mutate()
                return check()
            return tampered

        b.op(["split", "--input", str(inputs.corpus), "--output-dir", str(split_dir)],
             check=tamper(lambda: flip_one_label(split_dir / "splits.jsonl"),
                          lambda: check_splits(split_dir, inputs)))
        report = work / "report.json"
        b.op(["score", "--gold", str(inputs.corpus), "--splits", str(split_dir / "splits.jsonl"),
              "--preds", str(inputs.predictions["mostly_right"]), "--format", "json"],
             stdout=report,
             check=tamper(lambda: nudge_accuracy(report),
                          lambda: check_score_report(report, expected_report(inputs, "mostly_right"))))
        data, out = work / "synth", work / "train"
        b.op(["--seed", "5", "gen-synth", *size.synth_args, "--output-dir", str(data)])
        b.op(["--seed", "5", "train-toy", "--data", str(data), "--output-dir", str(out), "--no-timestamp",
              *size.train_args],
             check=tamper(lambda: nudge_accuracy(out / "report.json"), lambda: check_train_toy(data, out)))
        b.op(["--seed", "5", "gen-synth", *size.ablation_synth_args, "--output-dir", str(data)])
        ablation = work / "ablation.json"
        b.op(["ablation", "--format", "json", "--variants", "full,baseline", "--seeds", "5",
              *size.ablation_synth_args, *size.train_args], stdout=ablation,
             check=tamper(lambda: nudge_median(ablation),
                          lambda: check_ablation(ablation, ["full", "baseline"], [5], {5: read_test_set(data)})))
    expect(b.attempted == 6 and b.failed == 4 and not b.correct,
           f"4 planted errors give 4 failed operations of 6 (got {b.failed} of {b.attempted})")
    for word in ("splits.jsonl", "aggregate", "report.json aggregate", "median_tail_acc"):
        expect(any(word in p for p in b.problems), f"a problem names {word!r}")


def missing_name() -> None:
    sys.path.insert(0, str(run.SRC))
    import trace_cli

    tracer = trace_cli.Tracer()
    tracer.install([("toy.renamed_s", "toy.renamed_calls", trace_cli._one, ["toy:_no_such_function"])])
    expect(tracer.absent == ["toy.renamed_s", "toy.renamed_calls"], "a missing wrapped name is reported absent")


def without_program(work) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(run.HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    start = time.monotonic()
    code, out = run_benchmark("--workload", "train-one", "--seed", "0", "--seconds", "1", cwd=work)
    expect(code != 0 and not out.strip().endswith("}") and time.monotonic() - start < 180,
           f"without the program it exits {code} and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny_workloads(spec)
    base = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        (base / "planted").mkdir(parents=True)
        planted_errors(base / "planted")
        missing_name()
        (base / "bare").mkdir()
        without_program(base / "bare")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks held")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
