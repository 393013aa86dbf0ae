"""Linguistic diversity analysis: verb–noun pair extraction (the pie plots of Fig. 5).

The original system runs a dependency parser to extract the root verb and its
direct noun object from instruction texts.  This stand-in uses a heuristic
part-of-speech tagger: the first verb-like token of a text is taken as the root
verb and the first following noun-like token as its object.  The aggregated
(verb, noun) distribution is what the diversity-aware sampler and the
fine-tuning recipes consume.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.dataset import NestedDataset
from repro.core.sample import get_field
from repro.ops.common.helper_funcs import get_words_from_text, words_refinement
from repro.ops.common.stopwords import STOPWORDS_EN
from repro.ops.filters.text_action_filter import looks_like_verb


def extract_verb_noun(text: str) -> tuple[str | None, str | None]:
    """Return the first (verb, following-noun) pair found in the text."""
    words = words_refinement(get_words_from_text(text, lowercase=True))
    for index, word in enumerate(words):
        if looks_like_verb(word) and word not in STOPWORDS_EN:
            nouns = (w for w in words[index + 1:] if w.isalpha() and w not in STOPWORDS_EN)
            return word, next((w for w in nouns if not looks_like_verb(w)), None)
    return None, None


@dataclass
class DiversityReport:
    """Aggregated verb–noun diversity statistics of a dataset."""

    verb_counts: Counter = field(default_factory=Counter)
    verb_noun_counts: Counter = field(default_factory=Counter)
    num_samples: int = 0
    num_with_verb: int = 0

    @property
    def distinct_verbs(self) -> int:
        """Number of distinct root verbs observed."""
        return len(self.verb_counts)

    @property
    def distinct_pairs(self) -> int:
        """Number of distinct (verb, noun) pairs observed."""
        return len(self.verb_noun_counts)

    def diversity_score(self) -> float:
        """Simple diversity score in [0, 1]: distinct pairs per analysable sample."""
        if self.num_with_verb == 0:
            return 0.0
        return min(1.0, self.distinct_pairs / self.num_with_verb)

    def top(self, num_verbs: int = 20, nouns_per_verb: int = 4) -> dict[str, list[tuple[str, int]]]:
        """Top verbs with their top nouns — the structure behind the paper's pie plots."""
        result: dict[str, list[tuple[str, int]]] = {}
        for verb, _ in self.verb_counts.most_common(num_verbs):
            nouns = Counter()
            for (pair_verb, noun), count in self.verb_noun_counts.items():
                if pair_verb == verb and noun:
                    nouns[noun] += count
            result[verb] = nouns.most_common(nouns_per_verb)
        return result


class DiversityAnalysis:
    """Compute a :class:`DiversityReport` over a dataset's text field."""

    def __init__(self, text_key: str = "text"):
        self.text_key = text_key

    def observe(self, report: DiversityReport, row: dict) -> None:
        """Fold one sample into an existing report (streaming-friendly).

        Only the aggregated verb/noun counters grow — the text itself is
        never retained, so a streaming analysis stays bounded by the
        vocabulary, not the corpus.
        """
        report.num_samples += 1
        text = get_field(row, self.text_key, "")
        verb, noun = extract_verb_noun(text if isinstance(text, str) else "")
        if verb is None:
            return
        report.num_with_verb += 1
        report.verb_counts[verb] += 1
        report.verb_noun_counts[(verb, noun)] += 1

    def analyze(self, dataset: NestedDataset) -> DiversityReport:
        """Extract verb–noun pairs from every sample and aggregate them."""
        return self.analyze_records(dataset)

    def analyze_records(self, records) -> DiversityReport:
        """Aggregate a lazy record stream into a :class:`DiversityReport`."""
        report = DiversityReport()
        for row in records:
            self.observe(report, row)
        return report
