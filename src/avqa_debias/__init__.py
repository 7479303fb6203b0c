"""Robustness evaluation and debiasing toolkit for multimodal QA.

Submodules:

* ``data`` — JSONL corpus model and validation
* ``splitting`` — entropy-based head/tail distribution-shift splitter
* ``scoring`` — head/tail/overall accuracy and Fleiss kappa
* ``losses`` — the cycle-collaborative debiasing objective with gradients
* ``toy`` — synthetic biased task, trainer, and ablation grid
* ``serialize`` — binary files for synthetic features and toy model parameters
* ``cli`` — command-line entry points
"""

from .data import (
    CorpusError,
    CorpusStats,
    GroupKey,
    QASample,
    QuestionType,
    Task,
    group_samples,
    parse_predictions,
    parse_samples,
    read_gold,
    validate_corpus,
    write_samples,
)
from .losses import (
    LogitBundle,
    LossValue,
    MccdConfig,
    answer_loss,
    cycle_loss,
    discrepancy_loss,
    finite_difference_check,
    joint_loss,
    softmax,
)
from .scoring import (
    RobustnessReport,
    VoteTable,
    fleiss_kappa,
    render_report,
    score_predictions,
)
from .splitting import (
    AnswerDistribution,
    SplitAssignment,
    SplitConfig,
    SplitDecision,
    SplitLabel,
    SplitResult,
    SplitRule,
    answer_distribution,
    assign_splits,
    select_imbalanced_groups,
    split_head_tail,
)
from .toy import (
    AblationSpec,
    AblationVariant,
    SyntheticConfig,
    ToyModel,
    TrainConfig,
    ablation_run,
    evaluate,
    generate_synthetic,
    train,
)

__version__ = "0.1.0"
