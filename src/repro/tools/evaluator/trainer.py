"""Proxy LLM training: turn a processed dataset into a measurable model.

``ProxyTrainer.train`` fits the bigram language model on (up to) a token
budget drawn from the dataset and records counts of the corpus it saw: the
effective token count, flagged-word exposure, duplicate fraction, number of
sources, verb-noun diversity and the diversity of the model's generations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diversity_analysis import DiversityAnalysis
from repro.core.dataset import NestedDataset
from repro.core.sample import Fields
from repro.ops.common.flagged_words import FLAGGED_WORDS_EN
from repro.tools.evaluator.ngram_lm import BigramLanguageModel, tokenize


@dataclass
class ProxyLLM:
    """A trained proxy model plus counts measured on the corpus it was trained on.

    The counts are reported next to the evaluation, not folded into it: a
    model is scored only by its language model's held-out likelihood
    (:class:`~repro.tools.evaluator.harness.Evaluator`).
    """

    name: str
    language_model: BigramLanguageModel
    effective_tokens: int
    generation_diversity: float
    flagged_exposure: float
    duplicate_fraction: float
    num_sources: int
    verb_noun_diversity: float
    training_tokens_requested: int | None = None
    metadata: dict = field(default_factory=dict)


class ProxyTrainer:
    """Fit :class:`ProxyLLM` models from processed datasets."""

    def train(
        self,
        dataset: NestedDataset,
        name: str = "proxy-llm",
        num_tokens: int | None = None,
        text_key: str = Fields.text,
    ) -> ProxyLLM:
        """Train a proxy model on (up to ``num_tokens`` tokens of) the dataset."""
        texts = [row.get(text_key, "") if isinstance(row.get(text_key), str) else "" for row in dataset]
        model = BigramLanguageModel().fit(texts, max_tokens=num_tokens)

        flagged = 0
        total = 0
        seen_texts: set[str] = set()
        duplicates = 0
        sources: set[str] = set()
        for row, text in zip(dataset, texts):
            tokens = tokenize(text)
            total += len(tokens)
            flagged += sum(1 for token in tokens if token in FLAGGED_WORDS_EN)
            if text in seen_texts:
                duplicates += 1
            else:
                seen_texts.add(text)
            source = row.get(Fields.source) or (row.get(Fields.meta) or {}).get("source")
            if source:
                sources.add(str(source))

        diversity_report = DiversityAnalysis(text_key=text_key).analyze(dataset)
        return ProxyLLM(
            name=name,
            language_model=model,
            effective_tokens=model.total_tokens,
            generation_diversity=model.distinct_n(2),
            flagged_exposure=flagged / total if total else 0.0,
            duplicate_fraction=duplicates / len(dataset) if len(dataset) else 0.0,
            num_sources=len(sources),
            verb_noun_diversity=diversity_report.diversity_score(),
            training_tokens_requested=num_tokens,
            metadata={"num_documents": len(dataset)},
        )
