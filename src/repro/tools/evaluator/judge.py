"""Pairwise judging of fine-tuned proxy models (the GPT-4 evaluation stand-in).

The paper scores fine-tuning recipes by asking GPT-4 to compare responses of
two models on a prompt set and tallying wins/ties (Table 3).  The stand-in
judge compares two proxy models prompt by prompt on what each model measures
there: prompt *i* is the *i*-th row of a fixed clean synthetic chat set in the
scenario's language, and a model's quality on it is its mean log2 probability
per token of that row.  A win is a margin above the tie threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sample import Fields
from repro.synth.corpora import instruction_dataset
from repro.tools.evaluator.harness import REFERENCE_SEED
from repro.tools.evaluator.trainer import ProxyLLM


@dataclass
class JudgeResult:
    """Win/tie/loss tallies of model A vs model B over a prompt set."""

    model_a: str
    model_b: str
    wins_a: int
    wins_b: int
    ties: int

    @property
    def num_prompts(self) -> int:
        """Total number of judged prompts."""
        return self.wins_a + self.wins_b + self.ties

    def win_rate_a(self) -> float:
        """Fraction of prompts won by model A."""
        return self.wins_a / self.num_prompts if self.num_prompts else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view for the Table 3 benchmark."""
        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "wins_a": self.wins_a,
            "wins_b": self.wins_b,
            "ties": self.ties,
        }


class PairwiseJudge:
    """Deterministic pairwise comparison over a fixed clean prompt set."""

    def __init__(self, num_prompts: int = 160, tie_margin: float = 0.0, language: str = "en"):
        self.tie_margin = tie_margin
        prompts = instruction_dataset(
            num_samples=num_prompts, seed=REFERENCE_SEED, language=language.lower(), usage="CFT", quality=1.0
        )
        self.prompts = [row[Fields.text] for row in prompts]

    def _quality(self, model: ProxyLLM, prompt: str) -> float:
        """Mean log2 probability per token of the prompt under the model."""
        log_prob, count = model.language_model.log2_likelihood([prompt])
        return log_prob / count if count else 0.0

    def compare(self, model_a: ProxyLLM, model_b: ProxyLLM) -> JudgeResult:
        """Judge both models on every prompt and tally wins/ties."""
        wins_a = wins_b = ties = 0
        for prompt in self.prompts:
            quality_a = self._quality(model_a, prompt)
            quality_b = self._quality(model_b, prompt)
            if abs(quality_a - quality_b) <= self.tie_margin:
                ties += 1
            elif quality_a > quality_b:
                wins_a += 1
            else:
                wins_b += 1
        return JudgeResult(
            model_a=model_a.name, model_b=model_b.name, wins_a=wins_a, wins_b=wins_b, ties=ties
        )
