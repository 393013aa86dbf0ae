"""Auto-evaluation harness: held-out likelihood on reference slices, and a leaderboard.

Reproduces the evaluator / leaderboard tooling of Sec. 4.3 on what the proxy
model measures: the perplexity of its language model on named slices of clean
held-out text.  No name, weight or offset enters a number, so two models
trained on the same tokens score the same whatever they are called.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.core.errors import EvaluationError
from repro.core.sample import Fields
from repro.synth.corpora import CORPUS_BUILDERS, make_corpus
from repro.synth.generators import DocumentGenerator
from repro.tools.evaluator.ngram_lm import perplexity_of
from repro.tools.evaluator.trainer import ProxyLLM

#: seed of the reference texts; every corpus a benchmark trains on is built
#: from a lower seed, so no reference text is also a training text
REFERENCE_SEED = 1234


def reference_slice() -> list[str]:
    """The fixed clean held-out slice: 40 plain prose documents."""
    generator = DocumentGenerator(REFERENCE_SEED)
    return [generator.document(num_paragraphs=3) for _ in range(40)]


def source_slices(sources: list[str]) -> dict[str, list[str]]:
    """One clean held-out slice of 20 documents per synthetic source, each
    from its own seed.

    A builder that takes ``quality`` is asked for clean documents only; the
    others build clean documents anyway.
    """
    slices = {}
    for name in sources:
        builder = CORPUS_BUILDERS[name]
        clean = {"quality": 1.0} if "quality" in inspect.signature(builder).parameters else {}
        seed = REFERENCE_SEED + 101 * (1 + list(CORPUS_BUILDERS).index(name))
        slices[name] = [row[Fields.text] for row in make_corpus(name, 20, seed, **clean)]
    return slices


@dataclass
class EvaluationReport:
    """A model's held-out perplexity per reference slice and over all of them."""

    model_name: str
    perplexities: dict[str, float]
    perplexity: float

    def as_dict(self) -> dict:
        """Plain-dict view for benchmark tables."""
        return {
            "model_name": self.model_name,
            "perplexities": dict(self.perplexities),
            "perplexity": self.perplexity,
        }


class Evaluator:
    """Evaluate proxy models by held-out perplexity on named reference slices."""

    def __init__(self, references: dict[str, list[str]] | None = None):
        self.references = dict(references) if references is not None else {"reference": reference_slice()}
        if not self.references:
            raise EvaluationError("the evaluator needs at least one reference slice")

    def evaluate(self, model: ProxyLLM) -> EvaluationReport:
        """Perplexity per slice, and over the pooled tokens of every slice."""
        likelihoods = {
            name: model.language_model.log2_likelihood(texts) for name, texts in self.references.items()
        }
        return EvaluationReport(
            model_name=model.name,
            perplexities={name: perplexity_of(*pair) for name, pair in likelihoods.items()},
            perplexity=perplexity_of(
                sum(log_prob for log_prob, _ in likelihoods.values()),
                sum(count for _, count in likelihoods.values()),
            ),
        )


class Leaderboard:
    """Collect evaluation reports and rank models by held-out perplexity."""

    def __init__(self):
        self.reports: list[EvaluationReport] = []

    def add(self, report: EvaluationReport) -> None:
        """Add one model's report to the leaderboard."""
        self.reports.append(report)

    def ranking(self) -> list[tuple[str, float]]:
        """Model names with their perplexity, best (lowest) first."""
        return sorted(
            ((report.model_name, report.perplexity) for report in self.reports),
            key=lambda item: item[1],
        )

    def render(self) -> str:
        """Human-readable leaderboard table."""
        lines = ["Leaderboard (held-out perplexity, lower is better)"]
        for position, (name, value) in enumerate(self.ranking(), start=1):
            lines.append(f"  {position}. {name}: {value:.1f}")
        return "\n".join(lines)
