"""
The debiasing objective and its gradients
=========================================

The training objective has three terms over four prediction heads (audio,
video, question, fused):

  * answer loss      -- cross-entropy of the fused head;
  * discrepancy      -- mean inverse distance pushing each uni-modal head
                        away from the fused head;
  * cycle guidance   -- cyclic KL divergences pulling the uni-modal heads
                        toward one another.

All gradients are hand-derived, so this demo verifies every term against
central finite differences before trusting them in training.
"""

import numpy as np

from avqa_debias.losses import (
    LogitBundle,
    MccdConfig,
    answer_loss,
    cycle_loss,
    discrepancy_loss,
    finite_difference_check,
    joint_loss,
    softmax,
)

rng = np.random.default_rng(7)
C = 6  # answer classes

# A batch of random logit bundles standing in for real model outputs.
batch = [
    LogitBundle(*(rng.standard_normal(C) * 2.0 for _ in range(4))) for _ in range(4)
]
labels = list(rng.integers(C, size=len(batch)))
cfg = MccdConfig()  # alpha 1e-2, beta 0.3, probability-space distances

print("loss values on a random batch")
print(f"  answer      {answer_loss([b.fused for b in batch], labels).value:.6f}")
print(f"  discrepancy {discrepancy_loss(batch, cfg).value:.6f}")
print(f"  cycle       {cycle_loss(batch, cfg).value:.6f}")
print(f"  joint       {joint_loss(batch, labels, cfg).value:.6f}")

# ---------------------------------------------------------------------
# When the three uni-modal heads agree exactly, the cycle term vanishes;
# when every head agrees, the discrepancy term hits its 1/epsilon wall.

v = rng.standard_normal(C)
agreeing = LogitBundle(audio=v, video=v, question=v, fused=rng.standard_normal(C))
print(f"\ncycle loss under full agreement: {cycle_loss([agreeing]).value:.2e}")

wall = LogitBundle(audio=v, video=v, question=v, fused=v)
print(f"discrepancy at zero distance:    {discrepancy_loss([wall], MccdConfig(alpha=1.0)).value:.1e}")

# The wall exists because the distance enters as 1/(d + eps): identical
# distributions are maximally penalized, which is what pushes the fused
# head away from any single-modality shortcut.

# ---------------------------------------------------------------------
# Finite-difference check: perturb every logit coordinate of every head
# and compare the numerical slope against the analytic gradient.

print("\nmax relative gradient error vs central differences")
for mode in ("probability", "raw_logit"):
    cfg = MccdConfig(distance_space=mode)
    checks = {
        "answer": lambda b: answer_loss([x.fused for x in b], labels),
        "discrepancy": lambda b: discrepancy_loss(b, cfg),
        "cycle": lambda b: cycle_loss(b, cfg),
        "joint": lambda b: joint_loss(b, labels, cfg),
    }
    for name, fn in checks.items():
        err = finite_difference_check(fn, batch)
        print(f"  {mode:<12} {name:<12} {err:.2e}")

# Softmax probabilities for one bundle, to show what the distance terms
# actually compare:
b = batch[0]
print("\nsoftmax of each head (bundle 0)")
for head in ("audio", "video", "question", "fused"):
    p = softmax(getattr(b, head))
    print(f"  {head:<9}", np.array2string(p, precision=3))
