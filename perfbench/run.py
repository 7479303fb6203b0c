"""Benchmark of the avqa-debias command line, measured from outside the program.

    python3 perfbench/run.py --workload eval-table7 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each CLI command runs in its own process, as a user runs it; its wall time,
peak resident memory and CPU time come from wait4. Set-up commands run a
fixed number of times and are reported as a median; the served command
repeats in whole rounds until --seconds have passed. Every command's output
is checked against values computed apart from the program (checks.py).

With --trace 1 the set-up and one round run once untraced and once under
trace_cli.py, and the per-layer metrics are the summed self times of the
traced spans, with the tracing overhead against the untraced run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_ablation, check_score_report, check_splits, check_train_toy, expected_report, read_test_set
from inputs import PREDICTION_FILES, make_eval_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0

ABLATION_VARIANTS = ["full", "without_md", "without_cg", "baseline"]


@dataclass(frozen=True)
class Size:
    eval_scale: float  # share of the Table 7 row counts
    split_repeats: int
    gen_repeats: int
    synth_args: tuple[str, ...]  # gen-synth flags of train-one beyond the defaults
    train_args: tuple[str, ...]  # train-toy and ablation flags beyond the defaults
    ablation_seeds: int
    ablation_synth_args: tuple[str, ...]  # shared by the ablation and its reference gen-synth


SIZES = {
    # Full size: the Table 7 corpus, the default train-toy run, and an
    # ablation whose 12 runs take about as many Adam steps as one default
    # run (12 x 5 batches x 60 epochs = 3,600 against 63 x 60 = 3,780).
    "full": Size(1.0, 3, 5, (), (), 3, ("--train-n", "320")),
    # Tiny: a quick pass over every workload for selftest.py.
    "tiny": Size(0.01, 1, 1, ("--train-n", "400", "--test-n", "200"), ("--epochs", "30"), 2,
                 ("--train-n", "400", "--test-n", "200")),
}


@dataclass
class Proc:
    wall_s: float
    ref_s: float  # wall_s at the probe's reference speed
    rss_mib: float
    cpu_s: float
    code: int


class SpeedProbe:
    """Samples the speed of the CPU a command runs on, for reference-speed times.

    Other jobs share this machine's CPUs, and the speed of one CPU drifts by
    up to 1.6x over seconds to minutes, which no repetition inside a run
    averages away. A thread of this process follows the running command:
    every 50 ms it moves itself onto the CPU that the command's process last
    ran on (read from /proc/<pid>/stat) and times a fixed pure-Python loop
    of about 0.25 ms in its own CPU time, taking under 1 % of that CPU. A
    command's reference-speed time is its wall time scaled by REFERENCE_S
    over the mean loop time during the command. A loop on the other CPU
    tracks the command's speed worse than the raw wall time does.
    """

    REFERENCE_S = 0.00025
    PERIOD_S = 0.05

    def __init__(self):
        self.pid: int | None = None  # the command being measured
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, loop CPU seconds)
        self._cpus = os.sched_getaffinity(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _loop() -> int:
        total = 0
        for _ in range(400):
            total += sum(range(50))
        return total

    def _command_cpu(self) -> set[int]:
        """The CPU the command last ran on (field 39 of its stat), else every usable CPU."""
        try:
            with open(f"/proc/{self.pid}/stat", "rb") as f:
                stat = f.read()
            cpu = int(stat[stat.rindex(b")") + 2 :].split()[36])
        except (OSError, ValueError, IndexError):
            return self._cpus
        return {cpu} if cpu in self._cpus else self._cpus

    def _run(self) -> None:
        while not self._stop.is_set():
            os.sched_setaffinity(0, self._command_cpu())
            start, cpu = time.perf_counter(), time.thread_time()
            self._loop()
            self.samples.append((start, time.thread_time() - cpu))
            self._stop.wait(self.PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time in [start, end], or in the last samples before end."""
        inside = [t for s, t in self.samples if start <= s <= end]
        if len(inside) < 3:
            inside = [t for s, t in self.samples if s <= end][-3:]
        return self.REFERENCE_S / statistics.mean(inside) if inside else 1.0


def _command_name(args: list[str]) -> str:
    return next(a for a in args if not a.startswith("-") and not a.isdigit())


class Bench:
    """Runs CLI commands as operations, checks them, and keeps the counts and spans."""

    def __init__(self, work: Path, trace: bool, deadline: float, probe: SpeedProbe):
        self.work = work
        self.probe = probe
        self.trace = trace
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.layer = defaultdict(float)
        self.absent: set[str] = set()
        self.ref_s = {False: 0.0, True: 0.0}  # summed over traced commands and their untraced twins
        self._spawned = 0

    def _spawn(self, args: list[str], stdout: Path | None, traced: bool) -> Proc:
        self._spawned += 1
        spans = self.work / f"spans-{self._spawned}.json"
        prog = [str(HERE / "trace_cli.py"), str(spans)] if traced else ["-m", "avqa_debias.cli"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        err_path = self.work / "stderr.txt"
        with open(stdout or os.devnull, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen([sys.executable, *prog, *args], stdout=out, stderr=err, cwd=self.work, env=env)
            self.probe.pid = p.pid
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
            self.probe.pid = None
        wall = end - start
        ref = wall * self.probe.scale(start, end)
        p.returncode = code = os.waitstatus_to_exitcode(status)
        if code:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{_command_name(args)}: exit {code} {' '.join(tail)}")
        elif traced:
            self._add_spans(json.loads(spans.read_text(encoding="utf-8")), ref / wall)
        return Proc(wall, ref, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, code)

    def _add_spans(self, dump: dict, scale: float) -> None:
        """Add each span's self time, at the command's reference speed, to its metric."""
        spans = dump["spans"]
        self_s = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        for (name, *_), t in zip(spans, self_s):
            self.layer[name] += t * scale
        for name, n in dump["counts"].items():
            self.layer[name] += n
        self.absent.update(dump["absent"])

    def op(self, args: list[str], stdout: Path | None = None, check=None, layers: bool = True) -> Proc:
        """Run one CLI command, untraced and, in a traced run, traced too.

        Each process is one operation. It fails when it exits non-zero or
        when ``check`` returns problems or raises on malformed output. A
        command with ``layers=False`` only makes reference data and is
        never traced.
        """
        untraced = None
        twins = self.trace and layers
        for traced in (False, True) if twins else (False,):
            proc = self._spawn(args, stdout, traced)
            untraced = untraced or proc
            if twins:
                self.ref_s[traced] += proc.ref_s
            self.attempted += 1
            problems = []
            if proc.code == 0 and check is not None:
                try:
                    problems = check()
                except Exception as exc:  # any malformed output is a failed check
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                self.correct = False
                self.problems.extend(f"{_command_name(args)}: {p}" for p in problems)
            if proc.code or problems:
                self.failed += 1
        return untraced

    def repeats(self, n: int) -> range:
        """A set-up repeated n times for its median; a traced run does it once."""
        return range(1 if self.trace else n)

    def rounds(self, seconds: float, one_round) -> None:
        """Repeat whole rounds until ``seconds`` have passed; a traced run does one."""
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            one_round()
            now = time.perf_counter()
            if self.trace or now - start >= seconds or time.monotonic() + (now - round_start) > self.deadline:
                return


def _summary(setup: list[Proc], served: list[Proc]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p.ref_s for p in setup),
        "served_s": statistics.median(p.ref_s for p in served),
        "setup_peak_rss_mib": max(p.rss_mib for p in setup),
        "served_peak_rss_mib": max(p.rss_mib for p in served),
    }


def _raw_summary(setup: list[Proc], served: list[Proc]) -> str:
    return (f"wall medians: set-up {statistics.median(p.wall_s for p in setup):.3f} s over {len(setup)}, "
            f"served {statistics.median(p.wall_s for p in served):.3f} s over {len(served)}")


def eval_table7(b: Bench, seed: int, seconds: float, size: Size) -> tuple[list[Proc], list[Proc]]:
    """split a Table-7-size corpus (the set-up), then score prediction files."""
    inputs = make_eval_inputs(b.work, seed, size.eval_scale)
    corpus, split_dir = str(inputs.corpus), b.work / "split"
    setup = [
        b.op(["split", "--input", corpus, "--output-dir", str(split_dir)],
             check=lambda: check_splits(split_dir, inputs))
        for _ in b.repeats(size.split_repeats)
    ]
    expected = {name: expected_report(inputs, name) for name in PREDICTION_FILES}
    served = []

    def score_every_file():
        for name, preds in inputs.predictions.items():
            report = b.work / f"report-{name}.json"
            served.append(b.op(
                ["score", "--gold", corpus, "--splits", str(split_dir / "splits.jsonl"),
                 "--preds", str(preds), "--format", "json"],
                stdout=report, check=lambda: check_score_report(report, expected[name])))

    b.rounds(seconds, score_every_file)
    return setup, served


def train_one(b: Bench, seed: int, seconds: float, size: Size) -> tuple[list[Proc], list[Proc]]:
    """gen-synth at the defaults (the set-up), then default train-toy runs."""
    data, out = b.work / "synth", b.work / "train"
    setup = [
        b.op(["--seed", str(seed), "gen-synth", *size.synth_args, "--output-dir", str(data)])
        for _ in b.repeats(size.gen_repeats)
    ]
    served = []
    b.rounds(seconds, lambda: served.append(b.op(
        ["--seed", str(seed), "train-toy", "--data", str(data), "--output-dir", str(out),
         "--no-timestamp", *size.train_args],
        check=lambda: check_train_toy(data, out))))
    return setup, served


def ablation_grid(b: Bench, seed: int, seconds: float, size: Size) -> tuple[list[Proc], list[Proc]]:
    """gen-synth of each ablation seed's data (the set-up), then ablation runs."""
    seeds = [size.ablation_seeds * seed + i for i in range(size.ablation_seeds)]
    test_sets = {}
    setup = []
    for s in seeds:
        data = b.work / f"synth-{s}"

        def load_test_set(s=s, data=data):
            test_sets[s] = read_test_set(data)
            return []

        setup.append(b.op(["--seed", str(s), "gen-synth", *size.ablation_synth_args, "--output-dir", str(data)],
                          check=load_test_set, layers=False))
    report = b.work / "ablation.json"
    served = []
    b.rounds(seconds, lambda: served.append(b.op(
        ["--threads", str(len(os.sched_getaffinity(0))), "ablation", "--format", "json",
         "--variants", ",".join(ABLATION_VARIANTS), "--seeds", ",".join(map(str, seeds)),
         *size.ablation_synth_args, *size.train_args],
        stdout=report, check=lambda: check_ablation(report, ABLATION_VARIANTS, seeds, test_sets))))
    b.layer["cli.ablation_cpu_s"] = statistics.median(p.cpu_s * p.ref_s / p.wall_s for p in served)
    return setup, served


WORKLOADS = {"eval-table7": eval_table7, "train-one": train_one, "ablation-grid": ablation_grid}


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size, spec: dict) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with SpeedProbe() as probe:
            b = Bench(work, trace, time.monotonic() + RUN_LIMIT_S, probe)
            setup, served = WORKLOADS[name](b, seed, seconds, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    end_to_end = _summary(setup, served)
    for p in b.problems[:10]:
        print(f"{name}: {p}", file=sys.stderr)
    if trace:
        b.layer["trace.overhead_pct"] = 100.0 * (b.ref_s[True] / b.ref_s[False] - 1.0)
        values, declared = b.layer, spec["per_layer"]
    else:
        values, declared = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    print(f"{name}: attempted {b.attempted}, failed {b.failed}, correct {b.correct}; {_raw_summary(setup, served)}")
    for metric, v in metrics.items():
        mark = "  (absent: its function was not found)" if metric in b.absent else ""
        print(f"  {metric:<36} {v['value']:>12.4f} {v['unit']}{mark}")
    if b.absent:
        print(f"absent: {json.dumps(sorted(b.absent))}")
    return {"correct": b.correct, "attempted": b.attempted, "failed": b.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=list(SIZES), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "avqa_debias" / "cli.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"machine: {json.dumps(machine())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), SIZES[args.size], spec)
        for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
