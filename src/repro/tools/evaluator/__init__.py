"""Proxy LLM training, held-out evaluation, leaderboard, reference models and judge."""

from repro.tools.evaluator.harness import (
    EvaluationReport,
    Evaluator,
    Leaderboard,
    reference_slice,
    source_slices,
)
from repro.tools.evaluator.judge import JudgeResult, PairwiseJudge
from repro.tools.evaluator.ngram_lm import BigramLanguageModel, tokenize
from repro.tools.evaluator.reference_models import ReferenceModel, ReferenceModelRegistry
from repro.tools.evaluator.trainer import ProxyLLM, ProxyTrainer

__all__ = [
    "BigramLanguageModel",
    "EvaluationReport",
    "Evaluator",
    "JudgeResult",
    "Leaderboard",
    "PairwiseJudge",
    "ProxyLLM",
    "ProxyTrainer",
    "ReferenceModel",
    "ReferenceModelRegistry",
    "reference_slice",
    "source_slices",
    "tokenize",
]
