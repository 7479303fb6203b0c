"""Robustness evaluation and debiasing toolkit for multimodal QA.

Submodules (import names from them; the package itself loads none):

* ``data`` — JSONL corpus model and validation
* ``splitting`` — entropy-based head/tail distribution-shift splitter
* ``scoring`` — head/tail/overall accuracy and Fleiss kappa
* ``config`` — settings of the objective, the synthetic task and training
* ``losses`` — the cycle-collaborative debiasing objective with gradients
* ``toy`` — synthetic biased task, trainer, and ablation grid
* ``serialize`` — binary files for synthetic features and toy model parameters
* ``cli`` — command-line entry points

``data``, ``splitting``, ``scoring`` and ``config`` use only the standard
library; ``losses``, ``toy`` and ``serialize`` need numpy.
"""

__version__ = "0.1.0"
