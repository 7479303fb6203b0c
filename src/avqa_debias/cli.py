"""Command-line front end.

Subcommands: split, score, kappa, gen-synth, train-toy, gradcheck,
ablation, grid. Exit codes: 0 success, 1 check failure (e.g. gradient
tolerance exceeded), 2 usage or IO error. For every subcommand, ``main``
rejects a negative ``--threads`` or ``--seed`` and passes the worker count
that ``--threads`` asks for as ``args.workers``.

Only the subcommands that train (gen-synth, train-toy, gradcheck, ablation,
grid) import numpy and the training modules, inside their own bodies; split,
score and kappa load the standard library alone. The parser's defaults and
choices come from the stdlib-only records of ``config`` and ``splitting``.

Importing this module sets ``OPENBLAS_NUM_THREADS=1``, whatever the caller's
environment holds: every process of a training subcommand, its forked pool
workers included, computes with one OpenBLAS thread, since on the toy
network's small matmuls a second one only spins and allocates buffers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import asdict
from operator import itemgetter
from pathlib import Path

from .config import (
    DISTANCE_SPACES,
    AblationSpec,
    AblationVariant,
    MccdConfig,
    SyntheticConfig,
    ToyError,
    TrainConfig,
)
from .data import (
    parse_predictions,
    parse_samples,  # not called here; the benchmark's tracer looks it up in this module
    read_gold,
    read_jsonl,
    read_ranges,
    write_samples,
)
from .scoring import (
    RobustnessReport,
    ScoringError,
    VoteTable,
    fleiss_kappa,
    render_report,
    score_predictions,
)
from .splitting import (
    SplitConfig,
    assign_splits,
    group_report_json,
    read_splits,
    write_splits,
)

# OpenBLAS reads this once, when numpy loads, and this module loads numpy
# only in a training subcommand's body. Set on import, not in ``main``, so
# that the benchmark's tracer, which imports this module before numpy, keeps
# a plain run's BLAS state; assigned, not defaulted, so that the caller's
# environment cannot change it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _read_json_object(path: Path) -> dict:
    """The JSON object in the file at ``path``; anything else is a CliError naming the path."""
    try:  # invalid UTF-8 and malformed JSON are ValueErrors, deep nesting a RecursionError
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object")
    return obj


def _line_of(path, sid: str):
    """The line of the row with id ``sid`` in the JSONL file at ``path``, which a
    reader has accepted, so its ids are unique; "?" if the file changed since,
    or is not a regular file, which cannot be read again (a FIFO)."""
    if not os.path.isfile(path):
        return "?"
    with open(path, "rb") as f:
        return next((n for n, obj in read_jsonl(f) if obj.get("id") == sid), "?")


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
    [gold] = read_ranges([(read_gold, args.input)], args.workers)
    if not gold:
        raise CliError(f"{args.input}: empty corpus")
    result = assign_splits(gold, cfg)
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


def _score(gold, splits, preds, splits_path) -> RobustnessReport:
    """``score_predictions(gold, splits, preds)``; an assignment that names an
    unknown sample or disagrees with its gold sample is a CliError naming its
    line of the splits file at ``splits_path``."""
    try:
        return score_predictions(gold, splits, preds)
    except ScoringError as exc:  # the splits row at fault; its line is found only now
        line = _line_of(splits_path, exc.sample_id)
        raise CliError(f"{splits_path}: line {line}: {exc}") from None


def cmd_score(args) -> int:
    jobs = [(read_gold, args.gold), (read_splits, args.splits), (parse_predictions, args.preds)]
    gold, splits, preds = read_ranges(jobs, args.workers)
    report = _score(gold, splits, preds, args.splits)
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
    from . import serialize
    from .toy import corpus_rows, generate_synthetic

    cfg = _synth_from_args(args)
    data = generate_synthetic(cfg)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", data.train), ("test", data.test)):
        with open(out / f"{name}.jsonl", "wb") as f:
            write_samples(corpus_rows(part), f)
        serialize.write_features(out / f"{name}.features", part.x)
    with open(out / "splits.jsonl", "wb") as f:
        write_splits(data.splits, f)
    _dump_json({"schema_version": 1, **asdict(cfg)}, out / "synth_config.json")
    print(f"wrote synthetic corpus to {out}")
    return EXIT_OK


def _labels(path: Path, gold: dict, num_classes: int):
    """The class index of each sample's answer, in ``gold`` order. Only
    ``class_name(k)`` for ``0 <= k < num_classes`` is an answer class: any
    other answer is a CliError naming the line of its first sample in the
    corpus file at ``path``, since the predictions are written as
    ``class_name(k)`` and would never match it."""
    import numpy as np

    from .toy import class_index, class_name

    index = {}  # each distinct answer, in the order of its first sample, to its class
    for answer in dict.fromkeys(map(itemgetter(1), gold.values())):
        try:
            k = class_index(answer)
        except ToyError:
            k = num_classes
        if k >= num_classes:
            sid = next(sid for sid, (_, a) in gold.items() if a == answer)
            raise CliError(f"{path}: line {_line_of(path, sid)}: answer {answer!r} is not "
                           f"one of the {num_classes} answer classes {class_name(0)} to "
                           f"{class_name(num_classes - 1)}")
        index[answer] = k
    return np.fromiter(map(index.__getitem__, map(itemgetter(1), gold.values())), np.int64,
                       len(gold))


def _load_toy_corpus(data_dir: Path, name: str, synth_cfg: dict):
    from . import serialize
    from .toy import ToySet

    corpus_path = data_dir / f"{name}.jsonl"
    [gold] = read_ranges([(read_gold, corpus_path)], 1)
    path = data_dir / f"{name}.features"
    x = serialize.read_features(path)
    _, n, d = x.shape
    if n != len(gold):
        raise CliError(f"{path}: {n} feature rows, but {corpus_path} has {len(gold)} samples")
    if d != synth_cfg["feature_dim"]:
        raise CliError(f"{path}: audio features are {d} wide, but feature_dim "
                       f"in {data_dir / 'synth_config.json'} is {synth_cfg['feature_dim']}")
    labels = _labels(corpus_path, gold, synth_cfg["num_classes"])
    return ToySet(gold=gold, labels=labels, x=x)


def _read_synth_config(path: Path) -> dict:
    """The generator config of a corpus; the model's shape comes from two of its fields.
    As in ``generate_synthetic``, the question shortcut needs one channel per
    class, so ``num_classes`` may not exceed ``feature_dim``."""
    cfg = _read_json_object(path)
    for name in ("num_classes", "feature_dim"):
        if type(cfg.get(name)) is not int or cfg[name] < 1:
            raise CliError(f"{path}: {name} must be a positive integer")
    if cfg["num_classes"] > cfg["feature_dim"]:
        raise CliError(f"{path}: num_classes {cfg['num_classes']} exceeds "
                       f"feature_dim {cfg['feature_dim']}")
    return cfg


def cmd_train_toy(args) -> int:
    from . import serialize
    from .toy import ToyModel, evaluate, train

    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise CliError(f"data directory not found: {args.data}")
    synth_cfg = _read_synth_config(data_dir / "synth_config.json")
    train_set = _load_toy_corpus(data_dir, "train", synth_cfg)
    # With rows, the features file's size bounds feature_dim and so the
    # model's; with none, nothing does, so this comes before the model.
    if not len(train_set):
        raise CliError(f"{data_dir / 'train.jsonl'}: no samples to train on")
    test_set = _load_toy_corpus(data_dir, "test", synth_cfg)
    [splits] = read_ranges([(read_splits, data_dir / "splits.jsonl")], 1)
    _score(test_set.gold, splits, {}, data_dir / "splits.jsonl")  # a bad split fails before training

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
    serialize.write_model(out / "model.bin", model.named())
    (out / "report.json").write_bytes(render_report(report, "json"))
    sys.stdout.buffer.write(render_report(report, "text-table"))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    import numpy as np

    from .losses import (
        LogitBundle, answer_loss, cycle_loss, discrepancy_loss, finite_difference_check, joint_loss)

    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} must be finite and positive, not {value}")
    # with one class every gradient is 0, and the check compares nothing
    for flag, value, least in (("--classes", args.classes, 2), ("--batch", args.batch, 1)):
        if value < least:
            raise CliError(f"{flag} must be at least {least}, not {value}")
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
    """``cast`` of each nonblank item of the comma-separated list in flag
    ``--name``. An item that ``cast`` rejects, or whose value an earlier
    item already gave, is a CliError that names the flag and the item."""
    values = []
    for item in getattr(args, name).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            value = cast(item)
        except ValueError as exc:
            raise CliError(f"--{name}: {exc}") from None
        if value in values:
            raise CliError(f"--{name} repeats the value {item!r}")
        values.append(value)
    if not values:
        raise CliError(f"--{name} needs at least one comma-separated value")
    return values


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


def _seed(item: str) -> int:
    """The seed an item of ``--seeds`` gives: an integer, 0 or more."""
    if (seed := int(item)) < 0:
        raise ValueError(f"a seed must be 0 or positive, not {item!r}")
    return seed


def _ablation_rows(args, arms: list[tuple[TrainConfig, AblationSpec]]) -> list[dict]:
    """``ablation_run`` of ``arms`` over ``--seeds`` on ``args.workers`` workers."""
    from .toy import ablation_run

    scfg = _synth_from_args(args)
    seeds = _parse_list(args, "seeds", _seed)
    return ablation_run(scfg, arms, seeds, args.workers)


def cmd_ablation(args) -> int:
    from .toy import render_ablation_table

    tcfg = _train_from_args(args, args.alpha, args.beta)
    arms = [(tcfg, AblationSpec(v)) for v in _parse_list(args, "variants", AblationVariant)]
    rows = _ablation_rows(args, arms)
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
    alphas, betas = _parse_list(args, "alphas", float), _parse_list(args, "betas", float)
    cells = [(alpha, beta) for alpha in alphas for beta in betas]
    arms = [(_train_from_args(args, alpha, beta), AblationSpec()) for alpha, beta in cells]
    rows = _ablation_rows(args, arms)
    lines = ["alpha,beta,median_head_acc,median_tail_acc,median_overall_acc"]
    for (alpha, beta), row in zip(cells, rows):
        accs = (row[f"median_{part}_acc"] for part in ("head", "tail", "overall"))
        cells = ("" if a is None else f"{a:.4f}" for a in accs)
        lines.append(",".join([f"{alpha}", f"{beta}", *cells]))
    text = "\n".join(lines) + "\n"
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=MccdConfig.alpha)
    p.add_argument("--beta", type=float, default=MccdConfig.beta)


def _add_distance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=MccdConfig.epsilon)
    p.add_argument("--distance-space", choices=DISTANCE_SPACES, default=MccdConfig.distance_space)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=SyntheticConfig.num_classes)
    p.add_argument("--feature-dim", type=int, default=SyntheticConfig.feature_dim)
    p.add_argument("--train-n", type=int, default=SyntheticConfig.train_n)
    p.add_argument("--test-n", type=int, default=SyntheticConfig.test_n)
    p.add_argument("--bias-strength", type=float, default=SyntheticConfig.bias_strength)
    p.add_argument("--tail-fraction", type=float, default=SyntheticConfig.tail_fraction)
    p.add_argument("--noise-scale", type=float, default=SyntheticConfig.noise_scale)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    _add_distance_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avqa-debias",
        description="Distribution-shift splitting, robustness scoring, and debiasing tools",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="worker processes: ablation and grid spread their runs over "
                             "them, and split and score read each input file in that many "
                             "byte ranges, one per process; 0 (the default) means one per "
                             "usable CPU, N at most N; outputs do not depend on it, and the "
                             "other subcommands only reject a negative value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="build head/tail splits from a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--entropy-threshold", type=float, default=SplitConfig.entropy_threshold)
    p.add_argument("--tail-factor", type=float, default=SplitConfig.tail_factor)
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
    p.add_argument("--variant", choices=[v.value for v in AblationVariant],
                   default=AblationSpec.variant.value)
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
    try:  # no reference to the parser outlives parsing: what a command imports reuses its memory
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args.workers = _workers_from_args(args)
        if args.seed < 0:
            raise CliError(f"--seed must be 0 or positive, not {args.seed}")
        return args.func(args)
    # MemoryError: a size numpy refuses to allocate, such as --train-n 2**40
    except (CliError, OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
