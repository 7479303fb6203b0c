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

Each term is computed once, by a ``*_stacked`` function over (K, C) head
matrices; ``joint_components_stacked`` assembles the joint objective. The
functions over a list of ``LogitBundle`` samples stack the list and call
their ``*_stacked`` twin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADS = ("audio", "video", "question", "fused")
UNIMODAL = ("audio", "video", "question")


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class LogitBundle:
    """Raw pre-softmax scores of the four heads for one sample."""

    audio: np.ndarray
    video: np.ndarray
    question: np.ndarray
    fused: np.ndarray

    def __post_init__(self):
        for name in HEADS:
            v = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, v)
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


@dataclass(frozen=True)
class MccdConfig:
    alpha: float = 1e-2
    beta: float = 3e-1
    epsilon: float = 1e-5
    distance_space: str = "probability"  # or "raw_logit"
    heads: tuple[str, ...] = UNIMODAL  # uni-modal heads in the discrepancy term

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        for h in self.heads:
            if h not in UNIMODAL:
                raise LossError(f"unknown uni-modal head {h!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.distance_space not in ("probability", "raw_logit"):
            raise ValueError(f"unknown distance_space {self.distance_space!r}")


@dataclass
class LossValue:
    value: float
    grads: dict[str, np.ndarray]  # head name -> (K, C); zero where untouched


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise LossError("softmax of an empty vector")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backprop g through softmax with output p (rowwise)."""
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def _stack(batch: list[LogitBundle]) -> dict[str, np.ndarray]:
    if not batch:
        raise LossError("empty batch")
    c = batch[0].num_classes
    for b in batch:
        if b.num_classes != c:
            raise LossError("inconsistent answer-space size across the batch")
    return {name: np.stack([getattr(b, name) for b in batch]) for name in HEADS}


def _zero_grads(k: int, c: int) -> dict[str, np.ndarray]:
    return {name: np.zeros((k, c)) for name in HEADS}


def discrepancy_loss(batch: list[LogitBundle], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """Joint inverse distance between uni-modal heads and the fused head.

    L = alpha / (H * K) * sum_i sum_h 1 / (d_i^h + eps) over the H heads
    of cfg.heads, with d the Euclidean distance in probability space
    (softmax of both ends) or in raw logit space per cfg.distance_space.
    An ablation that drops a head's term thus rescales 1/3 to 1/2.
    """
    return discrepancy_loss_stacked(_stack(batch), cfg)


def discrepancy_loss_stacked(y: dict[str, np.ndarray], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """discrepancy_loss over pre-stacked (K, C) head matrices."""
    k, c = y["fused"].shape
    grads = _zero_grads(k, c)
    if cfg.alpha == 0.0 or not cfg.heads:
        return LossValue(0.0, grads)
    scale = cfg.alpha / (len(cfg.heads) * k)

    prob_mode = cfg.distance_space == "probability"
    if prob_mode:
        z = {name: softmax(y[name]) for name in HEADS}
    else:
        z = y

    total = 0.0
    grad_zm = np.zeros((k, c))
    for h in cfg.heads:
        diff = z[h] - z["fused"]
        d = np.linalg.norm(diff, axis=-1)
        total += float((1.0 / (d + cfg.epsilon)).sum())
        # d(1/(d+eps))/dz_h = -(d+eps)^-2 * diff/d; at d=0 the direction
        # is undefined and the subgradient 0 is used.
        coef = -1.0 / (d + cfg.epsilon) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(d[:, None] > 0.0, diff / np.where(d[:, None] > 0.0, d[:, None], 1.0), 0.0)
        g = scale * coef[:, None] * unit
        if prob_mode:
            grads[h] += _softmax_vjp(z[h], g)
        else:
            grads[h] += g
        grad_zm -= g
    if prob_mode:
        grads["fused"] += _softmax_vjp(z["fused"], grad_zm)
    else:
        grads["fused"] += grad_zm
    return LossValue(scale * total, grads)


def cycle_loss(batch: list[LogitBundle], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """Cyclic KL guidance over softmax-normalized uni-modal heads.

    L = beta/3 * (KL(q‖a) + KL(a‖v) + KL(v‖q)) averaged over the batch,
    with q, a, v the question, audio and video distributions. The fused
    head is untouched.
    """
    return cycle_loss_stacked(_stack(batch), cfg)


def cycle_loss_stacked(y: dict[str, np.ndarray], cfg: MccdConfig = MccdConfig()) -> LossValue:
    """cycle_loss over pre-stacked (K, C) head matrices."""
    k, c = y["fused"].shape
    grads = _zero_grads(k, c)
    if cfg.beta == 0.0:
        return LossValue(0.0, grads)
    scale = cfg.beta / (3.0 * k)

    p = {h: softmax(y[h]) for h in UNIMODAL}
    logp = {h: log_softmax(y[h]) for h in UNIMODAL}
    cycle = (("question", "audio"), ("audio", "video"), ("video", "question"))

    total = 0.0
    for src, dst in cycle:
        s = logp[src] - logp[dst]
        total += float((p[src] * s).sum())
        # d KL(p_src || p_dst): through src it is the softmax VJP of the
        # pointwise log-ratio; through dst it collapses to p_dst - p_src.
        grads[src] += scale * _softmax_vjp(p[src], s)
        grads[dst] += scale * (p[dst] - p[src])
    return LossValue(scale * total, grads)


def answer_loss(y_m_batch: list[np.ndarray] | np.ndarray, labels: list[int]) -> LossValue:
    """Softmax cross-entropy of the fused head against integer labels."""
    y = np.asarray(y_m_batch, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] == 0:
        raise LossError("expected a nonempty batch of logit vectors")
    k, c = y.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (k,):
        raise LossError("labels must align with the batch")
    if (labels < 0).any() or (labels >= c).any():
        raise LossError(f"labels must lie in [0, {c})")
    logq = log_softmax(y)
    value = -float(logq[np.arange(k), labels].sum()) / k
    grad = softmax(y)
    grad[np.arange(k), labels] -= 1.0
    grad /= k
    grads = _zero_grads(k, c)
    grads["fused"] = grad
    return LossValue(value, grads)


def joint_loss(
    batch: list[LogitBundle], labels: list[int], cfg: MccdConfig = MccdConfig()
) -> LossValue:
    """L = answer + discrepancy + cycle; value and gradients are exact sums."""
    la, ld, lc, grads = joint_components_stacked(_stack(batch), labels, cfg)
    return LossValue(la.value + ld.value + lc.value, grads)


def joint_components_stacked(
    y: dict[str, np.ndarray], labels: list[int], cfg: MccdConfig = MccdConfig()
) -> tuple[LossValue, LossValue, LossValue, dict[str, np.ndarray]]:
    """Answer, discrepancy and cycle terms over pre-stacked (K, C) head
    matrices, plus their summed gradients."""
    la = answer_loss(y["fused"], labels)
    ld = discrepancy_loss_stacked(y, cfg)
    lc = cycle_loss_stacked(y, cfg)
    grads = {name: la.grads[name] + ld.grads[name] + lc.grads[name] for name in HEADS}
    return la, ld, lc, grads


def finite_difference_check(loss_fn, batch: list[LogitBundle], h: float = 1e-5) -> float:
    """Max relative error of loss_fn's analytic gradient vs central differences.

    loss_fn maps a batch of LogitBundles to a LossValue; relative error is
    |ga - gf| / max(1, |ga|, |gf|) per coordinate.
    """
    if h <= 0:
        raise LossError("step size must be positive")
    base = loss_fn(batch)
    y = _stack(batch)
    k, c = y["fused"].shape
    # LogitBundle keeps float64 inputs by reference, so these bundles see
    # in-place edits of y and never need rebuilding.
    bundles = [LogitBundle(*(y[n][m] for n in HEADS)) for m in range(k)]
    max_err = 0.0
    for name in HEADS:
        for i in range(k):
            for j in range(c):
                orig = y[name][i, j]
                y[name][i, j] = orig + h
                up = loss_fn(bundles).value
                y[name][i, j] = orig - h
                down = loss_fn(bundles).value
                y[name][i, j] = orig
                gf = (up - down) / (2.0 * h)
                ga = base.grads[name][i, j]
                err = abs(ga - gf) / max(1.0, abs(ga), abs(gf))
                max_err = max(max_err, err)
    return max_err
