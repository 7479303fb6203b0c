"""Cycle-collaborative debiasing objective with hand-derived gradients.

Three terms over a batch of four prediction heads (audio, video,
question, fused multimodal), all length-C score vectors:

* discrepancy enlargement: mean joint inverse Euclidean distance between
  each uni-modal head and the fused head, pushing them apart;
* cycle guidance: cyclic KL divergences question->audio->video->question
  over the softmax-normalized uni-modal heads, pulling them together;
* answer loss: softmax cross-entropy of the fused head against labels.

All math is double precision; gradients are analytic with respect to the
raw logits of every head and checkable by central finite differences.

A batch is one (4, K, C) array of logits in ``HEADS`` order. ``softmaxed``
takes its softmax and log-softmax once, from one shared exponential, into
a ``Softmaxed`` record that every term reads. Each ``*_stacked`` term adds
its gradient into one (4, K, C) buffer and leaves it alone when its
weight is zero; ``joint_components_stacked`` runs the three terms over one
record and one buffer. The functions over a list of ``LogitBundle``
samples stack the list and call their ``*_stacked`` twin.

A training step makes one ``training_components_stacked`` call: into one
zeroed buffer it adds the discrepancy term, then the cycle term, then one
cross-entropy over all four heads, whose uni-modal rows are the bias
learners' losses. Per gradient entry that is the order of
``joint_components_stacked`` followed by the bias learners' terms, so
the sums are the same to the bit. ``train`` checks the labels once per
run, with ``check_labels``, and not at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LossError, MccdConfig
from .config import UNIMODAL  # noqa: F401  (callers import it from here)

HEADS = ("audio", "video", "question", "fused")


@dataclass(frozen=True)
class LogitBundle:
    """Raw pre-softmax scores of the four heads for one sample."""

    audio: np.ndarray
    video: np.ndarray
    question: np.ndarray
    fused: np.ndarray

    def __post_init__(self):
        for name in HEADS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        c = self.audio.shape
        if len(c) != 1 or c[0] == 0:
            raise LossError("logits must be nonempty 1-D vectors")
        for name in HEADS:
            v = getattr(self, name)
            if v.shape != c:
                raise LossError(f"head {name!r} shape {v.shape} != {c}")
            if not np.all(np.isfinite(v)):
                raise LossError(f"head {name!r} contains non-finite entries")

    @property
    def num_classes(self) -> int:
        return self.audio.shape[0]


@dataclass
class LossValue:
    value: float  # a cross-entropy over H stacked heads gives H values
    grad: np.ndarray  # (4, K, C) in HEADS order; zero where untouched

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """The gradient of each head, as views into ``grad``."""
        return dict(zip(HEADS, self.grad))


@dataclass(frozen=True)
class Softmaxed:
    """Logits with their softmax ``p`` and log-softmax ``logp`` along the
    last axis; indexing selects the same rows of all three."""

    logits: np.ndarray
    p: np.ndarray
    logp: np.ndarray

    def __getitem__(self, rows) -> "Softmaxed":
        return Softmaxed(self.logits[rows], self.p[rows], self.logp[rows])


def softmaxed(v: np.ndarray) -> Softmaxed:
    """Numerically stable softmax and log-softmax of ``v`` from one exp."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise LossError("softmax of an empty vector")
    # The row max as elementwise maxima over a class-major copy: numpy
    # reduces a short last axis one row at a time, and a max is exact in
    # any order. The sum below stays numpy's own last-axis sum, whose
    # order a column-wise sum would not keep.
    shifted = v - np.maximum.reduce(v.T.copy(), axis=0).T[..., None]
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return Softmaxed(v, e / total, shifted - np.log(total))


def softmax(v: np.ndarray) -> np.ndarray:
    return softmaxed(v).p


def log_softmax(v: np.ndarray) -> np.ndarray:
    return softmaxed(v).logp


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backprop g through softmax with output p (rowwise)."""
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def _stack(batch: list[LogitBundle]) -> Softmaxed:
    if not batch:
        raise LossError("empty batch")
    if len({b.num_classes for b in batch}) > 1:
        raise LossError("inconsistent answer-space size across the batch")
    return softmaxed([[getattr(b, name) for b in batch] for name in HEADS])


def _ordered_sum(rows: np.ndarray) -> float:
    """Sum each C-contiguous row, then the row sums left to right, uncompensated."""
    total = 0.0
    for v in np.ascontiguousarray(rows).reshape(len(rows), -1).sum(axis=1).tolist():
        total += v
    return total


def discrepancy_loss(batch: list[LogitBundle], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """Joint inverse distance between uni-modal heads and the fused head.

    L = alpha / (H * K) * sum_i sum_h 1 / (d_i^h + eps) over the H heads
    of cfg.heads, with d the Euclidean distance in probability space
    (softmax of both ends) or in raw logit space per cfg.distance_space.
    An ablation that drops a head's term thus rescales 1/3 to 1/2.
    """
    return discrepancy_loss_stacked(_stack(batch), cfg)


def discrepancy_loss_stacked(sm: Softmaxed, cfg: MccdConfig = MccdConfig(), grad=None) -> LossValue:
    """discrepancy_loss over the (4, K, C) stacked heads; the gradient is
    added into ``grad`` when one is given."""
    grad = np.zeros(sm.p.shape) if grad is None else grad
    if cfg.alpha == 0.0 or not cfg.heads:
        return LossValue(0.0, grad)
    scale = cfg.alpha / (len(cfg.heads) * sm.p.shape[1])
    prob_mode = cfg.distance_space == "probability"
    rows = [HEADS.index(h) for h in cfg.heads]
    n = len(rows)
    # the uni-modal rows, then the fused one: all of z, in order, for the
    # default heads, else a gather
    ends = slice(None) if rows == [0, 1, 2] else rows + [len(HEADS) - 1]
    z = (sm.p if prob_mode else sm.logits)[ends]
    diff = z[:n] - z[n]
    d = np.sqrt(np.add.reduce(diff * diff, axis=-1))  # np.linalg.norm's own formula
    d_eps = d + cfg.epsilon
    total = _ordered_sum(1.0 / d_eps)
    # d(1/(d+eps))/dz_h = -(d+eps)^-2 * diff/d; at d=0 the direction
    # is undefined and the subgradient 0 is used. Raw logits far enough
    # apart overflow to d=inf, where the term is at its limit 0 with the
    # gradient 0; the direction is taken as 0 there too, as inf/inf is NaN.
    # Probabilities are at most 1 apart, so their d is always finite.
    coef = -1.0 / d_eps**2
    d = d[..., None]
    where = d > 0.0 if prob_mode else (d > 0.0) & (d < np.inf)
    unit = np.divide(diff, d, out=np.zeros(diff.shape), where=where)
    g = np.empty(z.shape)
    np.multiply(scale * coef[..., None], unit, out=g[:n])
    np.negative(g[:n].sum(axis=0), out=g[n])  # the fused end of each distance
    grad[ends] += _softmax_vjp(z, g) if prob_mode else g
    return LossValue(scale * total, grad)


def cycle_loss(batch: list[LogitBundle], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """Cyclic KL guidance over softmax-normalized uni-modal heads.

    L = beta/3 * (KL(q‖a) + KL(a‖v) + KL(v‖q)) averaged over the batch,
    with q, a, v the question, audio and video distributions. The fused
    head is untouched.
    """
    return cycle_loss_stacked(_stack(batch), cfg)


def cycle_loss_stacked(sm: Softmaxed, cfg: MccdConfig = MccdConfig(), grad=None) -> LossValue:
    """cycle_loss over the (4, K, C) stacked heads; the gradient is added
    into ``grad`` when one is given."""
    grad = np.zeros(sm.p.shape) if grad is None else grad
    if cfg.beta == 0.0:
        return LossValue(0.0, grad)
    scale = cfg.beta / (3.0 * sm.p.shape[1])
    src = [2, 0, 1]  # pair i runs from head src[i] to head i: q->a, a->v, v->q
    p, logp = sm.p[:3], sm.logp[:3]
    p_src = p[src]
    s = logp[src] - logp
    total = _ordered_sum(p_src * s)
    # d KL(p_src || p_dst): through src it is the softmax VJP of the
    # pointwise log-ratio; through dst it collapses to p_dst - p_src.
    through_src = scale * _softmax_vjp(p_src, s)
    grad[:3] += scale * (p - p_src) + through_src[[1, 2, 0]]
    return LossValue(scale * total, grad)


def answer_loss(logits: np.ndarray, labels: list[int]) -> LossValue:
    """Softmax cross-entropy of the (K, C) fused head against integer
    labels, averaged over the batch; its gradient fills the fused row of a
    new (4, K, C) array."""
    y = np.asarray(logits, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] == 0:
        raise LossError("expected a nonempty batch of logit vectors")
    grad = np.zeros((len(HEADS), *y.shape))
    value = _cross_entropy(softmaxed(y[None]), check_labels(labels, *y.shape), grad[-1:]).value
    return LossValue(float(value[0]), grad)


def check_labels(labels, k: int, num_classes: int) -> np.ndarray:
    """``labels`` as an int64 vector, which must hold K classes in
    [0, num_classes); anything else is a LossError."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (k,):
        raise LossError("labels must align with the batch")
    if k and (labels.min() < 0 or labels.max() >= num_classes):
        raise LossError(f"labels must lie in [0, {num_classes})")
    return labels


def _cross_entropy(sm: Softmaxed, labels: np.ndarray, grad: np.ndarray) -> LossValue:
    """Cross-entropy of each of the H stacked heads of ``sm`` against the
    same checked labels: H values, and the gradient added into the
    (H, K, C) ``grad``."""
    k = sm.p.shape[1]
    rows = np.arange(k)
    value = -np.ascontiguousarray(sm.logp[:, rows, labels]).sum(axis=1) / k
    g = sm.p.copy()
    g[:, rows, labels] -= 1.0
    g /= k
    grad += g
    return LossValue(value, grad)


def joint_loss(
    batch: list[LogitBundle], labels: list[int], cfg: MccdConfig = MccdConfig()
) -> LossValue:
    """L = answer + discrepancy + cycle; value and gradients are exact sums."""
    la, ld, lc, grad = joint_components_stacked(_stack(batch), labels, cfg)
    return LossValue(la.value + ld.value + lc.value, grad)


def joint_components_stacked(
    sm: Softmaxed, labels: list[int], cfg: MccdConfig = MccdConfig()
) -> tuple[LossValue, LossValue, LossValue, np.ndarray]:
    """Answer, discrepancy and cycle terms over the (4, K, C) stacked
    heads, plus their summed gradient: one buffer that the terms add into
    in the order discrepancy, cycle, answer, and that is each term's grad."""
    labels = check_labels(labels, *sm.p.shape[1:])
    grad = np.zeros(sm.p.shape)
    ld = discrepancy_loss_stacked(sm, cfg, grad)
    lc = cycle_loss_stacked(sm, cfg, grad)
    la = _cross_entropy(sm[-1:], labels, grad[-1:])
    return LossValue(float(la.value[0]), grad), ld, lc, grad


def training_components_stacked(
    sm: Softmaxed, labels: np.ndarray, cfg: MccdConfig = MccdConfig()
) -> tuple[LossValue, LossValue, LossValue, np.ndarray]:
    """``joint_components_stacked`` with one cross-entropy per head, in
    one call, in place of the fused one: the first record holds the four
    in ``HEADS`` order, the uni-modal ones being the bias learners' losses.
    ``labels`` must have passed ``check_labels``."""
    grad = np.zeros(sm.p.shape)
    ld = discrepancy_loss_stacked(sm, cfg, grad)
    lc = cycle_loss_stacked(sm, cfg, grad)
    return _cross_entropy(sm, labels, grad), ld, lc, grad


def finite_difference_check(loss_fn, batch: list[LogitBundle], h: float = 1e-5) -> float:
    """Max relative error of loss_fn's analytic gradient vs central differences.

    loss_fn maps a batch of LogitBundles to a LossValue; relative error is
    |ga - gf| / max(1, |ga|, |gf|) per coordinate. A NaN error at any
    coordinate makes the result NaN, so no threshold passes it.
    """
    if not (math.isfinite(h) and h > 0):
        raise LossError(f"step size must be finite and positive, not {h}")
    base = loss_fn(batch)
    y = _stack(batch).logits
    # LogitBundle keeps float64 inputs by reference, so these bundles see
    # in-place edits of y and never need rebuilding.
    bundles = [LogitBundle(*y[:, m]) for m in range(y.shape[1])]
    errs = np.empty(y.shape)
    for idx in np.ndindex(y.shape):
        orig = y[idx]
        y[idx] = orig + h
        up = loss_fn(bundles).value
        y[idx] = orig - h
        down = loss_fn(bundles).value
        y[idx] = orig
        gf = (up - down) / (2.0 * h)
        errs[idx] = abs(base.grad[idx] - gf) / max(1.0, abs(base.grad[idx]), abs(gf))
    return float(errs.max())  # unlike max(), ndarray.max keeps a NaN
