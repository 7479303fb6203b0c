"""Settings of the debiasing objective, the synthetic task and training.

These records and their checks use only the standard library, so the
command-line parser takes its defaults and choices from them without
loading numpy or the training modules. ``losses`` and ``toy`` import them
from here: ``losses.MccdConfig`` and ``toy.TrainConfig`` are these classes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

UNIMODAL = ("audio", "video", "question")
DISTANCE_SPACES = ("probability", "raw_logit")


class LossError(ValueError):
    pass


class ToyError(ValueError):
    pass


@dataclass(frozen=True)
class MccdConfig:
    alpha: float = 1e-2
    beta: float = 3e-1
    epsilon: float = 1e-5
    distance_space: str = "probability"  # or "raw_logit"
    heads: tuple[str, ...] = UNIMODAL  # uni-modal heads in the discrepancy term

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and nonnegative")
        for h in self.heads:
            if h not in UNIMODAL:
                raise LossError(f"unknown uni-modal head {h!r}")
        if len(set(self.heads)) < len(self.heads):
            raise LossError(f"repeated uni-modal head in {self.heads}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.distance_space not in DISTANCE_SPACES:
            raise ValueError(f"unknown distance_space {self.distance_space!r}")


@dataclass(frozen=True)
class SyntheticConfig:
    num_classes: int = 6
    feature_dim: int = 16
    train_n: int = 4000
    test_n: int = 2000
    bias_strength: float = 0.9
    tail_fraction: float = 0.3
    noise_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ToyError("need at least 2 answer classes")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ToyError("bias_strength must lie in [0, 1]")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ToyError("tail_fraction must lie in (0, 1)")
        if self.train_n < 1 or self.test_n < 1:
            raise ToyError("train_n and test_n must be positive")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ToyError(f"noise_scale must be finite and nonnegative, not {self.noise_scale}")


class AblationVariant(enum.Enum):
    FULL = "full"
    WITHOUT_DQ = "without_dq"
    WITHOUT_DV = "without_dv"
    WITHOUT_DA = "without_da"
    WITHOUT_MD = "without_md"
    WITHOUT_CG = "without_cg"
    BASELINE_CE_ONLY = "baseline"


# What each variant changes in the objective config; FULL changes nothing.
_VARIANT_MCCD: dict[AblationVariant, dict] = {
    AblationVariant.WITHOUT_DQ: {"heads": ("audio", "video")},
    AblationVariant.WITHOUT_DV: {"heads": ("audio", "question")},
    AblationVariant.WITHOUT_DA: {"heads": ("video", "question")},
    AblationVariant.WITHOUT_MD: {"alpha": 0.0},
    AblationVariant.WITHOUT_CG: {"beta": 0.0},
    AblationVariant.BASELINE_CE_ONLY: {"alpha": 0.0, "beta": 0.0},
}


@dataclass(frozen=True)
class AblationSpec:
    variant: AblationVariant = AblationVariant.FULL

    def effective(self, cfg: MccdConfig) -> MccdConfig:
        """The objective config of the variant: ``cfg`` with the dropped
        discrepancy head, discrepancy term or cycle term switched off."""
        return replace(cfg, **_VARIANT_MCCD.get(self.variant, {}))


@dataclass(frozen=True)
class TrainConfig:
    """Training settings. The learning rate is multiplied by
    ``LR_DECAY_FACTOR`` after every ``LR_DECAY_EVERY`` epochs."""

    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    mccd: MccdConfig = field(default_factory=MccdConfig)
    seed: int = 0

    LR_DECAY_FACTOR, LR_DECAY_EVERY = 0.5, 20

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ToyError("epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ToyError("learning_rate must be finite and positive")
