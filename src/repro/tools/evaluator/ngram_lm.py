"""An interpolated bigram language model: the proxy "LLM" trained on recipes.

The paper trains billion-parameter LLaMA models on its data recipes; the
reproduction's substitute is a word-level bigram language model with add-k
smoothing, interpolated with an add-k unigram model.  It is small enough to train in
milliseconds yet responds to the properties that matter for the evaluation:
more training tokens reduce held-out perplexity, duplicated or noisy training
text biases the distribution, and diverse corpora yield more diverse
generations.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict

from repro.ops.common.helper_funcs import get_words_from_text, words_refinement

_BOS = "<s>"
_UNK = "<unk>"


def perplexity_of(log_prob: float, count: int) -> float:
    """Perplexity from a summed log2 likelihood over ``count`` tokens (inf with none)."""
    return float(2 ** (-log_prob / count)) if count else float("inf")


def tokenize(text: str) -> list[str]:
    """Word-level tokenisation used by the proxy model."""
    return words_refinement(get_words_from_text(text, lowercase=True))


class BigramLanguageModel:
    """Interpolated bigram LM with add-k smoothing over an open vocabulary."""

    def __init__(self, interpolation: float = 0.7, add_k: float = 0.1):
        self.interpolation = interpolation
        self.add_k = add_k
        self.unigram_counts: Counter = Counter()
        self.bigram_counts: dict[str, Counter] = defaultdict(Counter)
        #: each context's bigram count total, kept as ``fit`` counts
        self.context_totals: Counter = Counter()
        self.total_tokens = 0

    # ------------------------------------------------------------------
    def fit(self, texts: list[str], max_tokens: int | None = None) -> "BigramLanguageModel":
        """Count unigrams/bigrams over the texts, up to ``max_tokens`` tokens."""
        budget = max_tokens if max_tokens is not None else math.inf
        for text in texts:
            if self.total_tokens >= budget:
                break
            tokens = tokenize(text)
            if not tokens:
                continue
            if self.total_tokens + len(tokens) > budget:
                tokens = tokens[: int(budget - self.total_tokens)]
            previous = _BOS
            for token in tokens:
                self.unigram_counts[token] += 1
                self.bigram_counts[previous][token] += 1
                self.context_totals[previous] += 1
                previous = token
            self.total_tokens += len(tokens)
        return self

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens seen during training."""
        return len(self.unigram_counts)

    # ------------------------------------------------------------------
    def _unigram_prob(self, token: str) -> float:
        vocab = self.vocabulary_size + 1
        return (self.unigram_counts.get(token, 0) + self.add_k) / (
            self.total_tokens + self.add_k * vocab
        )

    def _bigram_prob(self, previous: str, token: str) -> float:
        context = self.bigram_counts.get(previous)
        if not context:
            return self._unigram_prob(token)
        vocab = self.vocabulary_size + 1
        return (context.get(token, 0) + self.add_k) / (self.context_totals[previous] + self.add_k * vocab)

    def probability(self, previous: str, token: str) -> float:
        """Interpolated probability P(token | previous)."""
        return (
            self.interpolation * self._bigram_prob(previous, token)
            + (1.0 - self.interpolation) * self._unigram_prob(token)
        )

    def log2_likelihood(self, texts: list[str]) -> tuple[float, int]:
        """Summed log2 P(token | previous) over the texts, and their token count."""
        log_prob = 0.0
        count = 0
        for text in texts:
            previous = _BOS
            for token in tokenize(text):
                log_prob += math.log2(max(self.probability(previous, token), 1e-12))
                previous = token
                count += 1
        return log_prob, count

    def perplexity(self, texts: list[str]) -> float:
        """Held-out perplexity of the model on a list of texts."""
        return perplexity_of(*self.log2_likelihood(texts))

    def generate(self, num_tokens: int = 50, seed: int = 0) -> list[str]:
        """Sample a token sequence from the model (greedy-ish multinomial sampling)."""
        if not self.unigram_counts:
            return []
        rng = random.Random(seed)
        tokens: list[str] = []
        previous = _BOS
        vocabulary = list(self.unigram_counts)
        for _ in range(num_tokens):
            context = self.bigram_counts.get(previous)
            if context:
                candidates = list(context.keys())
                weights = [context[token] for token in candidates]
            else:
                candidates = vocabulary
                weights = [self.unigram_counts[token] for token in candidates]
            token = rng.choices(candidates, weights=weights, k=1)[0]
            tokens.append(token)
            previous = token
        return tokens

    def distinct_n(self, n: int = 2, num_tokens: int = 400, seed: int = 0) -> float:
        """Distinct-n ratio of a generated sample — a generation-diversity proxy."""
        tokens = self.generate(num_tokens=num_tokens, seed=seed)
        if len(tokens) < n:
            return 0.0
        ngrams = [tuple(tokens[index:index + n]) for index in range(len(tokens) - n + 1)]
        return len(set(ngrams)) / len(ngrams)
