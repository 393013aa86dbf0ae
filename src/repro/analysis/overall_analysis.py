"""Overall (dataset-level) statistical summary of per-sample stats columns.

Reproduces the ``analyzer``'s summary table (Sec. 4.2): for every numeric
statistic produced by Filter operators, report count, mean, standard deviation,
min/max, quantiles and entropy; categorical statistics get value counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import NestedDataset
from repro.core.sample import STATS_PREFIX, Fields


@dataclass
class ColumnSummary:
    """Summary of one statistic across the dataset."""

    name: str
    kind: str  # "numeric" or "categorical"
    count: int
    mean: float | None = None
    std: float | None = None
    minimum: float | None = None
    maximum: float | None = None
    quantiles: dict[str, float] = field(default_factory=dict)
    entropy: float | None = None
    value_counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view (rendered by the text visualizer and benchmarks)."""
        payload = {"name": self.name, "kind": self.kind, "count": self.count}
        if self.kind == "numeric":
            payload.update(
                {
                    "mean": self.mean,
                    "std": self.std,
                    "min": self.minimum,
                    "max": self.maximum,
                    "quantiles": self.quantiles,
                    "entropy": self.entropy,
                }
            )
        else:
            payload["value_counts"] = dict(self.value_counts)
            payload["entropy"] = self.entropy
        return payload


def _entropy_from_counts(counts: Counter) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def numeric_values(raw_values: list) -> list[float]:
    """The numeric (non-bool) values of one stat, as floats."""
    return [float(v) for v in raw_values if isinstance(v, (int, float)) and not isinstance(v, bool)]


def fold_stats_values(values: dict[str, list], batch: dict[str, list]) -> None:
    """Append the stats of a column batch's rows to ``values``: its stat
    columns, and the keys of a carried ``__stats__`` dict that no column
    holds (a row as :func:`repro.core.sample.stats_folder` shows it).  A row
    without a key adds no value to it."""
    cut = len(STATS_PREFIX)
    columns = {name[cut:]: column for name, column in batch.items() if name.startswith(STATS_PREFIX)}
    for key, column in columns.items():
        values.setdefault(key, []).extend(column)
    for stats in batch.get(Fields.stats) or ():
        for key, value in stats.items() if isinstance(stats, dict) else ():
            if key not in columns:
                values.setdefault(key, []).append(value)


def collect_stats_values(dataset: NestedDataset) -> dict[str, list]:
    """Gather every stats key present in the dataset with its list of values."""
    values: dict[str, list] = {}
    for batch in dataset.iter_batches():
        fold_stats_values(values, batch)
    return values


class OverallAnalysis:
    """Compute :class:`ColumnSummary` objects for every stats key of a dataset."""

    QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

    def __init__(self, num_bins: int = 20):
        self.num_bins = num_bins

    def analyze(self, dataset: NestedDataset) -> dict[str, ColumnSummary]:
        """Return a mapping of stats key -> summary."""
        return self.analyze_values(collect_stats_values(dataset))

    def analyze_values(self, values: dict[str, list]) -> dict[str, ColumnSummary]:
        """Summarise pre-collected stats values (streaming-friendly entry).

        ``values`` maps each stats key to its list of per-sample values —
        the skinny accumulation a streaming analysis holds instead of the
        corpus itself.
        """
        summaries: dict[str, ColumnSummary] = {}
        for key, raw_values in values.items():
            numeric = numeric_values(raw_values)
            if numeric and len(numeric) >= len(raw_values) / 2:
                array = np.asarray(numeric, dtype=float)
                histogram, _ = np.histogram(array, bins=self.num_bins)
                summaries[key] = ColumnSummary(
                    name=key,
                    kind="numeric",
                    count=len(numeric),
                    mean=float(array.mean()),
                    std=float(array.std()),
                    minimum=float(array.min()),
                    maximum=float(array.max()),
                    quantiles={
                        f"p{int(q * 100)}": float(np.quantile(array, q)) for q in self.QUANTILES
                    },
                    entropy=_entropy_from_counts(Counter(histogram.tolist())),
                )
            else:
                counts = Counter(str(value) for value in raw_values)
                summaries[key] = ColumnSummary(
                    name=key,
                    kind="categorical",
                    count=len(raw_values),
                    value_counts=dict(counts.most_common(20)),
                    entropy=_entropy_from_counts(counts),
                )
        return summaries
