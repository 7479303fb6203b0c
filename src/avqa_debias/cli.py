"""Command-line front end.

Subcommands: split, score, kappa, gen-synth, train-toy, gradcheck,
ablation, grid. Exit codes: 0 success, 1 check failure (e.g. gradient
tolerance exceeded), 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import serialize
from .data import CorpusError, parse_predictions, parse_samples, write_samples
from .losses import (
    LogitBundle,
    MccdConfig,
    answer_loss,
    cycle_loss,
    discrepancy_loss,
    finite_difference_check,
    joint_loss,
)
from .scoring import VoteTable, fleiss_kappa, render_report, score_predictions
from .splitting import (
    SplitConfig,
    assign_splits,
    group_report_json,
    read_splits,
    write_splits,
)
from .toy import (
    AblationSpec,
    AblationVariant,
    SyntheticConfig,
    ToyModel,
    ToySet,
    TrainConfig,
    ablation_run,
    class_index,
    evaluate,
    generate_synthetic,
    render_ablation_table,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _parse_file(parse, path):
    """``parse`` applied to the file at ``path``; a CorpusError is prefixed with the path."""
    with open(path, "rb") as f:
        try:
            return parse(f)
        except CorpusError as exc:
            raise CliError(f"{path}: {exc}") from None


def _read_json_object(path: Path) -> dict:
    """The JSON object in the file at ``path``; anything else is a CliError naming the path."""
    try:  # invalid UTF-8 and malformed JSON are ValueErrors, deep nesting a RecursionError
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object")
    return obj


def _dump_json(obj, path: Path) -> None:
    path.write_bytes((json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def _mccd_from_args(args, alpha: float, beta: float) -> MccdConfig:
    return MccdConfig(alpha, beta, epsilon=args.epsilon, distance_space=args.distance_space)


def _train_from_args(args, alpha: float, beta: float) -> TrainConfig:
    """Every subcommand that trains builds its TrainConfig here."""
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
                       mccd=_mccd_from_args(args, alpha, beta), seed=args.seed)


def cmd_split(args) -> int:
    cfg = SplitConfig(entropy_threshold=args.entropy_threshold, tail_factor=args.tail_factor)
    result = assign_splits(_parse_file(parse_samples, args.input), cfg)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "splits.jsonl", "wb") as f:
        write_splits(result.assignments, f)
    _dump_json(group_report_json(result), out / "groups.json")
    print(
        f"wrote {len(result.assignments)} assignments; "
        f"skipped groups: {', '.join(str(g) for g in result.skipped_groups) or 'none'}"
    )
    return EXIT_OK


def cmd_score(args) -> int:
    gold = _parse_file(parse_samples, args.gold)
    splits = _parse_file(read_splits, args.splits)
    preds = _parse_file(parse_predictions, args.preds)
    report = score_predictions(gold, splits, preds)
    fmt = "json" if args.format == "json" else "text-table"
    sys.stdout.buffer.write(render_report(report, fmt))
    return EXIT_OK


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(type(x) is int for x in v)


def cmd_kappa(args) -> int:
    path = Path(args.votes)
    obj = _read_json_object(path)
    try:  # a wrong shape and an invalid table are both ValueErrors
        if not (type(obj.get("raters")) is int
                and isinstance(obj.get("rows"), list) and all(map(_is_int_list, obj["rows"]))
                and _is_int_list(obj.get("multiplicities", []))):
            raise ValueError("expected an object with an integer 'raters', a list of integer "
                             "lists 'rows' and an optional integer list 'multiplicities'")
        table = VoteTable(
            raters=obj["raters"],
            rows=tuple(tuple(r) for r in obj["rows"]),
            multiplicities=tuple(obj["multiplicities"]) if "multiplicities" in obj else None,
        )
        kappa = fleiss_kappa(table)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    print(f"{kappa:.4f}")
    return EXIT_OK


def _synth_from_args(args) -> SyntheticConfig:
    return SyntheticConfig(
        num_classes=args.classes, feature_dim=args.feature_dim, train_n=args.train_n,
        test_n=args.test_n, bias_strength=args.bias_strength, tail_fraction=args.tail_fraction,
        noise_scale=args.noise_scale, seed=args.seed,
    )


def cmd_gen_synth(args) -> int:
    cfg = _synth_from_args(args)
    data = generate_synthetic(cfg)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", data.train), ("test", data.test)):
        with open(out / f"{name}.jsonl", "wb") as f:
            write_samples(part.qa, f)
        serialize.write_features(out / f"{name}.features", part.audio, part.video, part.question)
    with open(out / "splits.jsonl", "wb") as f:
        write_splits(data.splits, f)
    _dump_json({"schema_version": 1, **asdict(cfg)}, out / "synth_config.json")
    print(f"wrote synthetic corpus to {out}")
    return EXIT_OK


def _load_toy_corpus(data_dir: Path, name: str, feature_dim: int) -> ToySet:
    qa = _parse_file(parse_samples, data_dir / f"{name}.jsonl")
    path = data_dir / f"{name}.features"
    audio, video, question = serialize.read_features(path)
    if len(audio) != len(qa):
        raise CliError(f"{name}: {len(qa)} samples but {len(audio)} feature rows")
    for m, x in zip(ToyModel.MODALITIES, (audio, video, question)):
        if x.shape[1] != feature_dim:
            raise CliError(f"{path}: {m} features are {x.shape[1]} wide, but feature_dim "
                           f"in {data_dir / 'synth_config.json'} is {feature_dim}")
    labels = np.array([class_index(s.answer) for s in qa], dtype=np.int64)
    return ToySet(qa=qa, labels=labels, audio=audio, video=video, question=question)


def _read_synth_config(path: Path) -> dict:
    """The generator config of a corpus; the model's shape comes from two of its fields."""
    cfg = _read_json_object(path)
    for name in ("num_classes", "feature_dim"):
        if type(cfg.get(name)) is not int or cfg[name] < 1:
            raise CliError(f"{path}: {name} must be a positive integer")
    return cfg


def cmd_train_toy(args) -> int:
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise CliError(f"data directory not found: {args.data}")
    synth_cfg = _read_synth_config(data_dir / "synth_config.json")
    train_set = _load_toy_corpus(data_dir, "train", synth_cfg["feature_dim"])
    test_set = _load_toy_corpus(data_dir, "test", synth_cfg["feature_dim"])
    splits = _parse_file(read_splits, data_dir / "splits.jsonl")

    spec = AblationSpec(variant=AblationVariant(args.variant))
    tcfg = _train_from_args(args, args.alpha, args.beta)
    model = ToyModel.initialize(
        num_classes=synth_cfg["num_classes"],
        feature_dim=synth_cfg["feature_dim"],
        seed=args.seed,
    )
    history = train(model, train_set, tcfg, spec)
    report = evaluate(model, test_set, splits)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = {
        "schema_version": 1,
        "variant": spec.variant.value,
        "epochs": tcfg.epochs,
        "batch_size": tcfg.batch_size,
        "learning_rate": tcfg.learning_rate,
        "alpha": tcfg.mccd.alpha,
        "beta": tcfg.mccd.beta,
        "epsilon": tcfg.mccd.epsilon,
        "distance_space": tcfg.mccd.distance_space,
        "seed": args.seed,
        "data_dir": str(data_dir),
    }
    if not args.no_timestamp:
        config["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _dump_json(config, out / "config.json")
    with open(out / "history.jsonl", "wb") as f:
        for row in history:
            f.write(json.dumps(row).encode("utf-8") + b"\n")
    serialize.write_model(out / "model.bin", model.params)
    (out / "report.json").write_bytes(render_report(report, "json"))
    sys.stdout.buffer.write(render_report(report, "text-table"))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} must be finite and positive, not {value}")
    rng = np.random.default_rng(args.seed)
    batch = [
        LogitBundle(*(rng.standard_normal(args.classes) * 3.0 for _ in range(4)))
        for _ in range(args.batch)
    ]
    cfg = _mccd_from_args(args, args.alpha, args.beta)
    labels = list(rng.integers(args.classes, size=args.batch))
    loss_fns = {
        "answer": lambda b: answer_loss([x.fused for x in b], labels),
        "discrepancy": lambda b: discrepancy_loss(b, cfg),
        "cycle": lambda b: cycle_loss(b, cfg),
        "joint": lambda b: joint_loss(b, labels, cfg),
    }
    fn = loss_fns[args.loss]
    err = finite_difference_check(fn, batch, h=args.step)
    obj = {
        "loss": args.loss,
        "value": fn(batch).value,
        "max_rel_err": err,
        "mode": cfg.distance_space,
        "seed": args.seed,
    }
    print(json.dumps(obj))
    return EXIT_OK if err < args.tolerance else EXIT_CHECK_FAILED


def _parse_list(args, name: str, cast) -> list:
    """``cast`` of each nonblank item of the comma-separated list in flag ``--name``."""
    items = [cast(item.strip()) for item in getattr(args, name).split(",") if item.strip()]
    if not items:
        raise CliError(f"--{name} needs at least one comma-separated value")
    return items


def _workers_from_args(args) -> int:
    """The worker count that ``--threads`` asks for: 0 means one per usable
    CPU, and N means at most N, capped at the usable CPUs."""
    if args.threads < 0:
        raise CliError(f"--threads must be 0 (one worker per usable CPU) or positive, "
                       f"not {args.threads}")
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # macOS has no affinity mask
        usable = os.cpu_count() or 1
    return min(args.threads or usable, usable)


def cmd_ablation(args) -> int:
    workers = _workers_from_args(args)
    tcfg = _train_from_args(args, args.alpha, args.beta)
    arms = [(tcfg, AblationSpec(AblationVariant(v))) for v in _parse_list(args, "variants", str)]
    rows = ablation_run(_synth_from_args(args), arms, _parse_list(args, "seeds", int), workers)
    report = {"schema_version": 1, "rows": rows}
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(report, out / "ablation.json")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_ablation_table(rows))
    return EXIT_OK


def cmd_grid(args) -> int:
    workers = _workers_from_args(args)
    alphas, betas = _parse_list(args, "alphas", float), _parse_list(args, "betas", float)
    cells = [(alpha, beta) for alpha in alphas for beta in betas]
    arms = [(_train_from_args(args, alpha, beta), AblationSpec()) for alpha, beta in cells]
    rows = ablation_run(_synth_from_args(args), arms, _parse_list(args, "seeds", int), workers)
    lines = ["alpha,beta,median_head_acc,median_tail_acc,median_overall_acc"]
    for (alpha, beta), row in zip(cells, rows):
        lines.append(
            f"{alpha},{beta},{row['median_head_acc']:.4f},"
            f"{row['median_tail_acc']:.4f},{row['median_overall_acc']:.4f}"
        )
    text = "\n".join(lines) + "\n"
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--beta", type=float, default=3e-1)


def _add_distance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--distance-space", choices=["probability", "raw_logit"], default="probability")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--train-n", type=int, default=4000)
    p.add_argument("--test-n", type=int, default=2000)
    p.add_argument("--bias-strength", type=float, default=0.9)
    p.add_argument("--tail-fraction", type=float, default=0.3)
    p.add_argument("--noise-scale", type=float, default=3.0)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    _add_distance_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avqa-debias",
        description="Distribution-shift splitting, robustness scoring, and debiasing tools",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker processes for the runs of ablation and grid: 0 (the "
                             "default) means one per usable CPU, N at most N; outputs do not "
                             "depend on it, and the other subcommands ignore it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="build head/tail splits from a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--entropy-threshold", type=float, default=0.9)
    p.add_argument("--tail-factor", type=float, default=1.2)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("score", help="score predictions under a split")
    p.add_argument("--gold", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kappa", help="Fleiss kappa of a vote table")
    p.add_argument("--votes", required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("gen-synth", help="generate a synthetic biased corpus")
    _add_synth_flags(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train-toy", help="train the toy model on a generated corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=[v.value for v in AblationVariant], default="full")
    _add_train_flags(p)
    _add_weight_flags(p)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p.add_argument("--loss", choices=["answer", "discrepancy", "cycle", "joint"], default="joint")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    _add_weight_flags(p)
    _add_distance_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablation", help="run the variant grid over seeds")
    p.add_argument("--variants", default="full,without_md,without_cg,baseline")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    _add_synth_flags(p)
    _add_train_flags(p)
    _add_weight_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("grid", help="alpha/beta sensitivity sweep to CSV")
    p.add_argument("--alphas", default="0.001,0.01,0.1")
    p.add_argument("--betas", default="0.03,0.3,1.0")
    p.add_argument("--seeds", default="0,1,2")
    _add_synth_flags(p)
    _add_train_flags(p)  # --alpha and --beta are swept, so they are not flags here
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # a worker process of ablation or grid that dies breaks its pool
    except (CliError, OSError, ValueError, KeyError, concurrent.futures.BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
