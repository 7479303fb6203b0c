"""Desk-scale demonstration of shortcut debiasing on a synthetic task.

The generator plants a uni-modal shortcut: the true label is a function
of the audio and video features jointly, while a channel of the question
feature encodes the label directly with probability ``bias_strength``
during training. Test samples where the shortcut agrees with the label
are the head regime; samples where it disagrees are the tail regime. A
model that memorizes the question shortcut aces the head and fails the
tail, which is exactly what the debiasing objective is meant to prevent.

A corpus is a ``ToySet``: the map of each id to its ``(GroupKey,
answer)`` record, one int64 label vector, and the features of all three
modalities as one (3, n, d) float64 array in ``MODALITIES`` order. That
array is the one form the features take from the generator through the
features file to training, and a minibatch is one row selection of it.

The classifier is a small numpy network: one affine+ramp encoder per
modality, an affine fusion head producing the answer logits, and one
two-layer perceptron bias learner per modality. Bias learners exist only
at training time; inference uses the encoders and fusion head alone.
Training (``_forward_cache``) and inference (``predict_logits``) share one
encoder-plus-fusion pass, ``_encode``, which reads no bias-learner
parameter. The parameters live in one contiguous buffer, each kind of
per-modality parameter as one (3, ...) view of it; the backward pass
writes its gradients into the same views of one buffer of the same
layout, so the optimizer updates the whole network with one elementwise
pass. The encoders and bias learners run as one stacked matmul per layer
over the modality axis, forward and backward; no step loops over
modalities. Per-modality names such as ``enc_audio_W`` exist only in
``ToyModel.named``, the layout ``model.bin`` stores.

Each bias learner is trained on its own softmax cross-entropy against the
label, so it captures what its modality alone predicts, and its gradients
stop at the encoder output: the encoders and the fusion head learn only
through the fused head, from its answer loss and its side of the
discrepancy term.

``ablation_run`` trains a list of (``TrainConfig``, ``AblationSpec``) arms
over a list of seeds. The variant ablation and the alpha/beta grid both
run through it. Each (seed, arm) run is one task, taken in seed-major
order, in-process or on a pool of worker processes; a process generates
a seed's corpus once for the consecutive tasks of that seed that it runs,
and holds one corpus at a time.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterator

import numpy as np

from .config import UNIMODAL, AblationSpec, SyntheticConfig, ToyError, TrainConfig
from .config import AblationVariant  # noqa: F401  (callers import it from here)
from .data import GroupKey, QuestionType, Task
from .losses import check_labels, softmaxed, training_components_stacked
# Not called here: perfbench/trace_cli.py wraps these names of this module.
from .losses import answer_loss, joint_components_stacked  # noqa: F401
from .scoring import RobustnessReport, score_predictions
from .splitting import SplitDecision, SplitLabel, SplitRule


def class_name(label: int) -> str:
    return f"c{label:02d}"


def class_index(name: str) -> int:
    """The ``k`` whose ``class_name(k)`` is ``name``; any other string,
    such as ``c2`` for ``c02``, is a ToyError."""
    digits = name[1:]
    if digits.isascii() and digits.isdigit() and class_name(int(digits)) == name:
        return int(digits)
    raise ToyError(f"not a synthetic answer class: {name!r}")


@dataclass(frozen=True)
class ToySet:
    """A toy corpus as arrays: row i of each array belongs to the i-th id of
    ``gold``.

    ``gold`` maps each sample id, in row order, to its ``(GroupKey,
    answer)`` record, as ``data.read_gold`` reads a corpus file and
    ``score_predictions`` takes it. ``labels`` is an int64 vector of
    answer-class indices; ``x`` is the (3, n, d) float64 feature array, one
    (n, d) matrix per modality in ``ToyModel.MODALITIES`` order, as a
    features file stores it, so ``x[i]`` is modality i's matrix.
    """

    gold: dict[str, tuple[GroupKey, str]]
    labels: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        n = len(self.gold)
        if self.labels.shape != (n,):
            raise ToyError(f"labels have shape {self.labels.shape}, expected ({n},)")
        if self.x.ndim != 3 or self.x.shape[:2] != (3, n):
            raise ToyError(f"features have shape {self.x.shape}, expected (3, {n}, d)")

    def __len__(self) -> int:
        return len(self.gold)


# Answer-class skew for the synthetic corpus; geometric decay keeps the
# normalized entropy of the training answer distribution below 0.9 so
# the shift-splitter retains the group.
_SKEW_RATIO = 0.55


def _label_probs(num_classes: int) -> np.ndarray:
    w = _SKEW_RATIO ** np.arange(num_classes)
    return w / w.sum()


# Rows per block of ``generate_synthetic``: the most rows its row-major
# scratch of normals and its prototype gathers hold, so that neither is
# (n, d).
_PROTO_ROWS = 256


@dataclass
class SyntheticData:
    train: ToySet
    test: ToySet
    splits: dict[str, SplitDecision]  # test sample id -> its head or tail decision


@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(cfg: SyntheticConfig = SyntheticConfig()) -> SyntheticData:
    """Build train/test corpora with a planted question shortcut.

    The label factors into an audio cluster and a video cluster, so
    neither modality alone determines it; the question feature carries a
    one-hot shortcut channel equal to the label with probability
    ``bias_strength`` on the training side. Test samples are drawn head
    (shortcut agrees) or tail (shortcut disagrees) per ``tail_fraction``
    and labeled accordingly. A ``noise_scale`` so large that a feature
    overflows is a ``ToyError``; numpy's overflow warnings are off.

    The result depends on ``cfg`` alone. A row draws its audio and video
    normals, a training row's shortcut uniform, an integer when the
    shortcut disagrees, and its question normals, in that order. Each run
    of normals with no other draw between them, such as a training row's
    question and the next row's audio and video, is drawn by one call into
    a row-major scratch block of at most ``_PROTO_ROWS`` rows; the
    arithmetic then runs on the block as it goes into the feature array.

    Each part's ``gold`` maps its ids, ``train-00000`` on, to one shared
    ``(GroupKey, answer)`` record per answer class; ``corpus_rows`` gives
    the rows ``gen-synth`` writes.
    """
    rng = np.random.default_rng(cfg.seed)
    c, d = cfg.num_classes, cfg.feature_dim
    if d < c:
        raise ToyError("feature_dim must be at least num_classes for the shortcut channel")
    n_video = 2
    n_audio = math.ceil(c / n_video)
    audio_protos = rng.choice([-1.0, 1.0], size=(n_audio, d))
    video_protos = rng.choice([-1.0, 1.0], size=(n_video, d))
    probs = _label_probs(c)
    names = [class_name(k) for k in range(c)]
    normal, uniform, integers = rng.standard_normal, rng.random, rng.integers

    group = GroupKey(Task.AVQA, QuestionType.EXISTENTIAL)  # every synthetic sample's
    records = [(group, name) for name in names]  # one per answer class, shared by its rows

    def draw(n: int, prefix: str, heads: np.ndarray | None) -> ToySet:
        labels = rng.choice(c, size=n, p=probs)
        label_of = labels.tolist()
        x = np.empty((3, n, d))
        shortcuts = labels.copy()
        scratch = np.empty((min(n, _PROTO_ROWS), 3, d))  # each row's audio, video, question
        for start in range(0, n, _PROTO_ROWS):
            rows = scratch[: n - start]
            stop = start + len(rows)
            normals, done = rows.reshape(-1), 0
            # Row j's other draws come between its video and its question
            # normals: every training row's uniform, and a test row's
            # integer when it is a tail.
            others = (range(len(rows)) if heads is None
                      else np.flatnonzero(~heads[start:stop]).tolist())
            for j in others:
                cut = (3 * j + 2) * d
                normal(out=normals[done:cut])
                done = cut
                if heads is None and uniform() < cfg.bias_strength:
                    continue
                shortcut = int(integers(c - 1))
                shortcuts[start + j] = shortcut + (shortcut >= label_of[start + j])
            normal(out=normals[done:])
            block = labels[start:stop]
            audio, video, question = x[:, start:stop]
            np.multiply(rows[:, 0], cfg.noise_scale, out=audio)
            audio += audio_protos[block // n_video]
            np.multiply(rows[:, 1], cfg.noise_scale, out=video)
            video += video_protos[block % n_video]
            np.multiply(rows[:, 2], 0.1, out=question)
        x[2, np.arange(n), shortcuts] += 2.0
        if not np.isfinite(x).all():
            raise ToyError(f"noise_scale {cfg.noise_scale} makes non-finite {prefix} features")
        gold = dict(zip(map(f"{prefix}-{{:05d}}".format, range(n)),
                        map(records.__getitem__, label_of)))
        return ToySet(gold=gold, labels=labels.astype(np.int64), x=x)

    train = draw(cfg.train_n, "train", heads=None)
    head_mask = np.ones(cfg.test_n, dtype=bool)
    n_tail = int(round(cfg.tail_fraction * cfg.test_n))
    head_mask[:n_tail] = False
    rng.shuffle(head_mask)
    test = draw(cfg.test_n, "test", heads=head_mask)

    decisions = [SplitDecision(group, answer, label, SplitRule.GENERAL_THRESHOLD)
                 for answer in names for label in (SplitLabel.TAIL, SplitLabel.HEAD)]
    splits = dict(zip(test.gold,
                      map(decisions.__getitem__, (2 * test.labels + head_mask).tolist())))
    return SyntheticData(train=train, test=test, splits=splits)


def corpus_rows(part: ToySet) -> Iterator[tuple[str, tuple[GroupKey, str], str, None]]:
    """The rows of a generated corpus as ``data.write_samples`` takes them:
    each id of ``part.gold`` with its record, the question ``synthetic
    probe <id>``, and no source id."""
    gold = part.gold
    return zip(gold, gold.values(), map("synthetic probe {}".format, gold), repeat(None))


@dataclass
class ToyModel:
    """Parameter container; the forward/backward passes live in free functions.

    The parameters live in one contiguous float64 buffer, ``flat``, and
    ``params`` holds views of it: each ``PER_MODALITY`` template maps to a
    (3, ...) array whose row i is that parameter of ``MODALITIES[i]``, and
    ``fusion_W`` and ``fusion_b`` follow. The buffer holds one block per
    modality, in ``MODALITIES`` order, with that modality's parameters in
    ``PER_MODALITY`` order, then the fusion head; the three blocks are
    alike, so each (3, ...) array is a strided view, not a copy. A new
    model is all zeros; ``initialize`` draws its weights.
    """

    num_classes: int
    feature_dim: int
    flat: np.ndarray = field(init=False, repr=False)
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    MODALITIES = ("audio", "video", "question")
    # The per-modality parameters of one block, as name templates.
    PER_MODALITY = ("enc_{}_W", "enc_{}_b", "bias_{}_1_W", "bias_{}_1_b", "bias_{}_2_W",
                    "bias_{}_2_b")
    HIDDEN = 32  # width of each encoder output and bias-learner layer

    def __post_init__(self):
        h, c = self.HIDDEN, self.num_classes
        # W and b of the encoder and of both bias-learner layers
        block = h * (self.feature_dim + 1) + h * (h + 1) + c * (h + 1)
        self.flat = np.zeros(3 * block + c * (3 * h + 1))
        self.params = self.views(self.flat)

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Arrays keyed like ``params``, viewing ``buf`` laid out like ``flat``."""
        h, c = self.HIDDEN, self.num_classes
        shapes = [(h, self.feature_dim), (h,), (h, h), (h,), (c, h), (c,)]
        block = sum(map(math.prod, shapes))
        blocks = buf[: 3 * block].reshape(3, block)
        out, pos = {}, 0
        for kind, shape in zip(self.PER_MODALITY, shapes):
            out[kind] = blocks[:, pos : pos + math.prod(shape)].reshape(3, *shape)
            pos += math.prod(shape)
        out["fusion_W"] = buf[3 * block : -c].reshape(c, 3 * h)
        out["fusion_b"] = buf[-c:]
        return out

    def named(self) -> dict[str, np.ndarray]:
        """Every parameter under its own name, such as ``enc_audio_W``, as a
        view of ``flat``, in ``flat`` order: the layout of ``model.bin``."""
        p = self.params
        return {**{kind.format(m): p[kind][i] for i, m in enumerate(self.MODALITIES)
                   for kind in self.PER_MODALITY},
                "fusion_W": p["fusion_W"], "fusion_b": p["fusion_b"]}

    @classmethod
    def initialize(cls, num_classes: int, feature_dim: int, seed: int = 0) -> "ToyModel":
        """A model with zero biases and He-normal weights, drawn from ``seed``
        in ``flat`` order: each modality's encoder, bias-learner layer 1 and
        layer 2 weights, then the fusion weights."""
        rng = np.random.default_rng(seed)
        model = cls(num_classes, feature_dim)
        p = model.params
        kinds = ("enc_{}_W", "bias_{}_1_W", "bias_{}_2_W")
        for w in [p[kind][i] for i in range(3) for kind in kinds] + [p["fusion_W"]]:
            w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[1])
        return model


def _encode(
    model: ToyModel, x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (3, K, H) encoder outputs of the (3, K, d) features ``x``, their
    (K, 3H) concatenation in modality order, and the fused logits, written
    into ``out`` when it is given. Reads the encoder and fusion parameters
    only."""
    p = model.params
    h = np.matmul(x, p["enc_{}_W"].transpose(0, 2, 1))
    h += p["enc_{}_b"][:, None]
    np.maximum(h, 0.0, out=h)
    h_cat = h.transpose(1, 0, 2).reshape(h.shape[1], 3 * h.shape[2])
    fused = np.matmul(h_cat, p["fusion_W"].T, out=out)
    fused += p["fusion_b"]
    return h, h_cat, fused


def _forward_cache(model: ToyModel, x: np.ndarray) -> dict:
    """Training forward pass over the (3, K, d) minibatch ``x``: the four
    logit heads stacked (4, K, C) in ``HEADS`` order with their softmax, as
    the ``Softmaxed`` record ``"heads"``, plus what ``_backward`` needs."""
    p = model.params
    logits = np.empty((4, x.shape[1], model.num_classes))
    h, h_cat, _ = _encode(model, x, out=logits[3])
    ba = np.matmul(h, p["bias_{}_1_W"].transpose(0, 2, 1))
    ba += p["bias_{}_1_b"][:, None]
    np.maximum(ba, 0.0, out=ba)
    np.matmul(ba, p["bias_{}_2_W"].transpose(0, 2, 1), out=logits[:3])
    logits[:3] += p["bias_{}_2_b"][:, None]
    return {"x": x, "h": h, "h_cat": h_cat, "ba": ba, "heads": softmaxed(logits)}


def _stack_features(features: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The minibatch at row indices ``idx`` of the (3, n, d) feature array,
    as one C-contiguous (3, K, d) array."""
    return np.take(features, idx, axis=1)


def _check_feature_dim(model: ToyModel, data: ToySet) -> None:
    d = data.x.shape[2]  # the width of all three modalities
    if d != model.feature_dim:
        raise ToyError(f"feature dim {d} does not match model dim {model.feature_dim}")


def predict_logits(model: ToyModel, data: ToySet) -> np.ndarray:
    """Inference-path logits: encoders + fusion head, bias learners untouched."""
    _check_feature_dim(model, data)
    *_, fused = _encode(model, data.x)
    return fused


def _backward(model: ToyModel, cache: dict, dlogits: np.ndarray, g: dict[str, np.ndarray]) -> None:
    """Write every parameter's gradient, from the (4, K, C) gradient of the
    heads, into ``g``: the ``model.views`` of one buffer laid out like
    ``model.flat``."""
    p = model.params
    h, ba = cache["h"], cache["ba"]
    dy = dlogits[-1]
    np.matmul(dy.T, cache["h_cat"], out=g["fusion_W"])
    dy.sum(axis=0, out=g["fusion_b"])
    # bias learners; their gradient stops at the encoder output h, so the
    # bias learners never shape the features inference uses
    dyb = dlogits[:3]
    np.matmul(dyb.transpose(0, 2, 1), ba, out=g["bias_{}_2_W"])
    dyb.sum(axis=1, out=g["bias_{}_2_b"])
    dbz = np.matmul(dyb, p["bias_{}_2_W"])
    dbz *= ba > 0.0  # ba > 0 exactly where its pre-activation is
    np.matmul(dbz.transpose(0, 2, 1), h, out=g["bias_{}_1_W"])
    dbz.sum(axis=1, out=g["bias_{}_1_b"])
    # encoders, driven by the fused head alone; h > 0 exactly where z > 0
    dz = (dy @ p["fusion_W"]).reshape(len(dy), 3, -1).transpose(1, 0, 2) * (h > 0.0)
    np.matmul(dz.transpose(0, 2, 1), cache["x"], out=g["enc_{}_W"])
    dz.sum(axis=1, out=g["enc_{}_b"])


class Adam:
    """Plain Adam with the standard moment constants, over one flat buffer."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        self.params -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: ToyModel,
    corpus: ToySet,
    tcfg: TrainConfig = TrainConfig(),
    spec: AblationSpec = AblationSpec(),
) -> list[dict]:
    """Algorithm: seeded shuffle, minibatch joint loss, Adam, stepped lr decay.

    ``model`` is trained in place; the return value is the per-epoch history.

    The minibatch loss is the joint objective plus one unit-weight
    cross-entropy per uni-modal head; those bias-learner terms are not
    logged in the history, but each is checked for a non-finite value.
    Bias-learner gradients stop at the encoder output (see ``_backward``).
    A divergence is reported once, by the ``ToyError`` of that check: numpy's
    overflow and invalid-value warnings are off while training. The labels
    are checked once, before the first step.
    """
    if not len(corpus):
        raise ToyError("empty training corpus")
    _check_feature_dim(model, corpus)
    labels_all = check_labels(corpus.labels, len(corpus), model.num_classes)
    cfg = spec.effective(tcfg.mccd)
    rng = np.random.default_rng(tcfg.seed)
    opt = Adam(model.flat, lr=tcfg.learning_rate)
    grad_flat = np.empty_like(model.flat)
    grads = model.views(grad_flat)
    features = corpus.x
    history: list[dict] = []
    n = len(corpus)
    answers = np.empty(n, dtype=np.intp)  # the fused head's argmax of each row, in epoch order
    for epoch in range(1, tcfg.epochs + 1):
        opt.lr = tcfg.learning_rate * tcfg.LR_DECAY_FACTOR ** ((epoch - 1) // tcfg.LR_DECAY_EVERY)
        order = rng.permutation(n)
        sums = dict.fromkeys(("L_a", "L_d", "L_c"), 0.0)
        batches = 0
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            labels = labels_all[idx]
            cache = _forward_cache(model, _stack_features(features, idx))
            heads = cache["heads"]
            ce, ld, lc, dlogits = training_components_stacked(heads, labels, cfg)
            *bias_ce, la = ce.value.tolist()
            for m, value in zip(UNIMODAL, bias_ce):
                if not math.isfinite(value):
                    raise ToyError(
                        f"non-finite {m} bias-learner loss at epoch {epoch} "
                        f"({value}); training aborted"
                    )
            total = la + ld.value + lc.value
            if not math.isfinite(total):
                raise ToyError(
                    f"non-finite loss at epoch {epoch} (L_a={la}, "
                    f"L_d={ld.value}, L_c={lc.value}); training aborted"
                )
            np.argmax(heads.logits[-1], axis=1, out=answers[start : start + tcfg.batch_size])
            for key, value in zip(sums, (la, ld.value, lc.value)):
                sums[key] += value
            batches += 1
            _backward(model, cache, dlogits, grads)
            opt.step(grad_flat)
        correct = int(np.count_nonzero(answers == labels_all[order]))
        history.append({"epoch": epoch, **{key: v / batches for key, v in sums.items()},
                        "train_acc": correct / n, "lr": opt.lr})
    return history


def evaluate(model: ToyModel, test: ToySet, splits: dict[str, SplitDecision]) -> RobustnessReport:
    """Score argmax answers of the fusion path against ``test.gold`` under
    the given head/tail splits.
    A non-finite logit, from a model whose last training step diverged after
    ``train``'s last loss check, is a ``ToyError``: its argmax would be scored."""
    with np.errstate(all="ignore"):
        logits = predict_logits(model, test)
    if not np.isfinite(logits).all():
        raise ToyError("non-finite test logits: the model diverged in its last training step")
    names = [class_name(k) for k in range(logits.shape[1])]
    preds = dict(zip(test.gold, map(names.__getitem__, np.argmax(logits, axis=1).tolist())))
    return score_predictions(test.gold, splits, preds)


def _acc_float(x) -> float | None:
    return None if x is None else float(x)


def run_variant(
    scfg: SyntheticConfig,
    tcfg: TrainConfig,
    spec: AblationSpec,
    seed: int,
    data: SyntheticData | None = None,
) -> dict:
    """One end-to-end run: generate, train, evaluate; seed drives all three.

    ``data``, when given, must be ``generate_synthetic`` of this seed's
    config; it is then used instead of generating the corpus again.
    """
    if data is None:
        data = generate_synthetic(replace(scfg, seed=seed))
    model = ToyModel.initialize(scfg.num_classes, scfg.feature_dim, seed=seed)
    history = train(model, data.train, replace(tcfg, seed=seed), spec)
    agg = evaluate(model, data.test, data.splits).aggregate
    return {
        "variant": spec.variant.value,
        "seed": seed,
        "head_acc": _acc_float(agg.head_acc),
        "tail_acc": _acc_float(agg.tail_acc),
        "overall_acc": _acc_float(agg.overall_acc),
        "final_epoch": history[-1],
    }


# The corpus of the last task this process ran, keyed by its config.
_CORPUS: dict[SyntheticConfig, SyntheticData] = {}


def _corpus(scfg: SyntheticConfig) -> SyntheticData:
    """``generate_synthetic(scfg)``, kept for the next task of this process
    that has the same config. The corpus it replaces is dropped before the
    new one is generated, so a process holds one corpus at a time."""
    if scfg not in _CORPUS:
        _CORPUS.clear()
        _CORPUS[scfg] = generate_synthetic(scfg)
    return _CORPUS[scfg]


def _run_task(task: tuple[SyntheticConfig, TrainConfig, AblationSpec, int]) -> dict:
    """One (seed, arm) run of ``ablation_run``, in whichever process takes it."""
    scfg, tcfg, spec, seed = task
    return run_variant(scfg, tcfg, spec, seed, _corpus(replace(scfg, seed=seed)))


def ablation_run(
    scfg: SyntheticConfig,
    arms: list[tuple[TrainConfig, AblationSpec]],
    seeds: list[int],
    workers: int = 1,
) -> list[dict]:
    """Median head/tail/overall accuracy per (training config, variant) arm
    over the given seeds, one row per arm in the given order.

    Each (seed, arm) pair is one task, in seed-major order. With one
    worker the tasks run in this process; otherwise they go to a pool of
    at most ``workers`` forked processes, capped at the number of tasks,
    and come back in the same order, so the rows do not depend on
    ``workers``. Each process generates a seed's corpus once for the
    consecutive tasks of that seed it runs and holds one corpus at a
    time; with a pool, this process holds none. The first failed task
    cancels the tasks not yet started and its exception is raised here; a
    worker that dies is a ``ToyError``. Every run computes with as many BLAS
    threads as this process: the caller chooses them, and the CLI chooses one.
    """
    if workers < 1:
        raise ToyError(f"workers must be at least 1, not {workers}")
    tasks = [(scfg, tcfg, spec, seed) for seed in seeds for tcfg, spec in arms]
    try:
        runs = _map_tasks(tasks, min(workers, len(tasks)))
    finally:
        _CORPUS.clear()
    runs_by_arm = [runs[i :: len(arms)] for i in range(len(arms))]
    return [
        {
            "variant": spec.variant.value,
            "seeds": list(seeds),
            "median_head_acc": _median([r["head_acc"] for r in runs]),
            "median_tail_acc": _median([r["tail_acc"] for r in runs]),
            "median_overall_acc": _median([r["overall_acc"] for r in runs]),
            "runs": runs,
        }
        for (_, spec), runs in zip(arms, runs_by_arm)
    ]


def _median(accs: list[float | None]) -> float | None:
    """The median of an arm's accuracies; None if the test split has no such
    row. Its row counts depend on the config alone, so then every run has None."""
    return None if None in accs else statistics.median(accs)


def _map_tasks(tasks: list[tuple], workers: int) -> list[dict]:
    """``_run_task`` of each task, in order: by the built-in ``map`` for at
    most one worker, else by a process pool that is shut down, with its
    pending tasks cancelled, before this returns or raises. A worker that
    dies breaks the pool, and that is raised as a ``ToyError``."""
    if workers <= 1:
        return list(map(_run_task, tasks))
    # Here, so that runs without a pool load neither; concurrent.futures
    # also loads logging.
    import concurrent.futures
    import multiprocessing

    # Forked, not spawned: a spawned worker imports numpy and this package
    # again, which made a 12-run ablation use 0.8 s more CPU and 4 MiB more
    # peak memory than forked workers do. The pool forks every worker before
    # it starts a thread of its own, and OpenBLAS stops its threads before a
    # fork, so a worker computes with as many BLAS threads as this process.
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_run_task, tasks))
    except concurrent.futures.BrokenExecutor as exc:
        raise ToyError(str(exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)


def render_ablation_table(rows: list[dict]) -> str:
    """The medians of ``ablation_run``'s rows in percent; an absent one is ``--``."""
    header = f"| {'Variant':<12} | {'H':>7} | {'T':>7} | {'Avg.':>7} |"
    out = [header, "|" + "-" * (len(header) - 2) + "|"]
    for row in rows:
        accs = (row[f"median_{part}_acc"] for part in ("head", "tail", "overall"))
        cells = ("--" if a is None else f"{a * 100:.2f}" for a in accs)
        out.append(f"| {row['variant']:<12} | " + " | ".join(f"{c:>7}" for c in cells) + " |")
    return "\n".join(out) + "\n"
