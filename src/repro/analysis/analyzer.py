"""The Analyzer: run stats-producing filters in analysis mode and summarise results.

This is the ``analyzer`` tool of Sec. 4.2: it applies a set of Filter operators
in *compute-stats-only* mode (no sample is removed), then produces an overall
summary, per-column histograms/box plots and a diversity report — the "data
probe" that drives the feedback loop of Figure 5.

The filters run over column batches, one :class:`repro.core.fusion.FusedFilter`
per text field they read (the fused batch context is not keyed by field), and
one fold turns the batches into the probe.  Its sources are:

* :meth:`Analyzer.analyze`: a materialised :class:`NestedDataset`'s batches;
* :meth:`Analyzer.analyze_stream`: a lazy record stream, cut into chunks as it
  is read.  Only the skinny stats values and the diversity counters outlive a
  chunk — never its text — so the output of a streaming run
  (:meth:`Analyzer.analyze_run` walks a :class:`repro.core.report.RunReport`'s
  export shards) can be analyzed with bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.diversity_analysis import DiversityAnalysis, DiversityReport
from repro.analysis.histogram import BoxPlot, Histogram, build_box_plot, build_histogram
from repro.analysis.overall_analysis import ColumnSummary, OverallAnalysis, fold_stats_values, numeric_values
from repro.core.base_op import Filter
from repro.core.batch import DEFAULT_BATCH_SIZE, batch_length, rows_to_batch
from repro.core.dataset import NestedDataset
from repro.core.fusion import FusedFilter
from repro.core.sample import Fields, get_field
from repro.ops import load_ops

#: Filters whose statistics form the default 13-dimension data probe.
DEFAULT_ANALYSIS_PROCESS: list = [
    {"alphanumeric_filter": {}},
    {"average_line_length_filter": {}},
    {"character_repetition_filter": {}},
    {"flagged_words_filter": {}},
    {"language_id_score_filter": {}},
    {"maximum_line_length_filter": {}},
    {"perplexity_filter": {}},
    {"special_characters_filter": {}},
    {"stopwords_filter": {}},
    {"text_length_filter": {}},
    {"token_num_filter": {}},
    {"words_num_filter": {}},
    {"word_repetition_filter": {}},
]


@dataclass
class DataProbe:
    """The full output of one analysis pass over a dataset."""

    num_samples: int
    summaries: dict[str, ColumnSummary]
    histograms: dict[str, Histogram] = field(default_factory=dict)
    box_plots: dict[str, BoxPlot] = field(default_factory=dict)
    diversity: DiversityReport | None = None

    def render(self) -> str:
        """Human-readable multi-line rendering of the probe."""
        lines = [f"Data probe over {self.num_samples} samples"]
        for name in sorted(self.summaries):
            summary = self.summaries[name]
            if summary.kind == "numeric":
                lines.append(
                    f"  {name}: mean={summary.mean:.4f} std={summary.std:.4f} "
                    f"min={summary.minimum:.4f} max={summary.maximum:.4f}"
                )
            else:
                top = ", ".join(f"{k}={v}" for k, v in list(summary.value_counts.items())[:5])
                lines.append(f"  {name}: {top}")
        if self.diversity is not None:
            lines.append(
                f"  diversity: {self.diversity.distinct_verbs} verbs, "
                f"{self.diversity.distinct_pairs} verb-noun pairs, "
                f"score={self.diversity.diversity_score():.3f}"
            )
        return "\n".join(lines)


class Analyzer:
    """Apply stats-producing filters without dropping samples, then summarise.

    Parameters
    ----------
    analysis_process:
        Recipe-style process list of Filter operators; defaults to the
        13-dimension probe used throughout the paper's examples.
    with_diversity:
        Whether to additionally compute the verb–noun diversity report.
    """

    def __init__(
        self,
        analysis_process: Sequence | None = None,
        num_bins: int = 20,
        with_diversity: bool = True,
        text_key: str = "text",
    ):
        process = list(analysis_process) if analysis_process is not None else list(DEFAULT_ANALYSIS_PROCESS)
        self.filters = [op for op in load_ops(process) if isinstance(op, Filter)]
        by_field: dict[str, list[Filter]] = {}
        for op in self.filters:
            by_field.setdefault(op.text_key, []).append(op)
        self._passes = [FusedFilter(group) for group in by_field.values()]
        self._rows = min((fused.batch_size for fused in self._passes), default=DEFAULT_BATCH_SIZE)
        self.num_bins = num_bins
        self.with_diversity = with_diversity
        self.text_key = text_key

    def compute_stats(self, dataset: NestedDataset) -> NestedDataset:
        """Return a copy of the dataset with every probe statistic filled in."""
        return dataset.map_batches(self._with_stats, batch_size=self._batch_size(dataset))

    def _with_stats(self, batch: dict) -> dict:
        """A column batch with every filter's stat columns: one fused pass per text field."""
        for fused in self._passes:
            batch = fused.compute_stats_batched(batch)
        return batch

    def _batch_size(self, dataset: NestedDataset) -> int:
        return min((fused.effective_batch_size(dataset) for fused in self._passes), default=self._rows)

    def _fold(self, batches: Iterable[dict]) -> DataProbe:
        """The probe of a stream of column batches.

        Only the stats values and the diversity counters outlive a batch,
        never its text, so memory is bounded by what the batch source holds
        plus those values.
        """
        values: dict[str, list] = {}
        diversity = DiversityReport() if self.with_diversity else None
        observe = DiversityAnalysis(text_key=self.text_key).observe
        top = self.text_key.split(".", 1)[0]
        num_samples = 0
        for batch in batches:
            length = batch_length(batch)
            num_samples += length
            fold_stats_values(values, self._with_stats(batch))
            if diversity is not None:  # observe reads only the text's top-level cell
                for cell in batch.get(top) or [None] * length:
                    observe(diversity, {top: cell})
        summaries = OverallAnalysis(num_bins=self.num_bins).analyze_values(values)
        numeric = {key: nums for key, raw in values.items() if (nums := numeric_values(raw))}
        histograms = {key: build_histogram(key, nums, self.num_bins) for key, nums in numeric.items()}
        box_plots = {key: build_box_plot(key, nums) for key, nums in numeric.items()}
        return DataProbe(num_samples, summaries, histograms, box_plots, diversity)

    def analyze(self, dataset: NestedDataset) -> DataProbe:
        """Compute stats and return the full :class:`DataProbe`."""
        return self._fold(dataset.iter_batches(self._batch_size(dataset)))

    def analyze_stream(self, records: Iterable[dict]) -> DataProbe:
        """Analyze a lazy record stream with bounded memory.

        The records are folded like :meth:`analyze`'s batches, so the probe
        is identical to :meth:`analyze` over the materialised dataset.
        """
        return self._fold(self._chunks(records))

    def _chunks(self, records: Iterable[dict]) -> Iterator[dict]:
        """Column batches of ``records``, each closed as it is read once it
        holds the ops' row budget or ``TARGET_BATCH_CHARS`` characters of
        text, so no more than one chunk of the stream is read ahead."""
        chunk, chars = [], 0
        for record in records:
            chunk.append(record)
            text = get_field(record, self.text_key)
            chars += len(text) if isinstance(text, str) else 0
            if len(chunk) == self._rows or chars >= Filter.TARGET_BATCH_CHARS:
                yield rows_to_batch(chunk)
                chunk, chars = [], 0
        if chunk:
            yield rows_to_batch(chunk)

    def analyze_run(self, report: Mapping | str | Path) -> DataProbe:
        """Analyze the exported output of a finished run, out-of-core.

        ``report`` is a :class:`repro.core.report.RunReport` (or its dict /
        saved-JSON form, or a ``work_dir`` containing ``report.json``).  The
        run's export files — sharded or monolithic, compressed or not — are
        streamed back through :meth:`analyze_stream`, so even a streaming
        run's larger-than-memory output gets its data probe.
        """
        from repro.core.report import RunReport
        from repro.formats.load import load_formatter
        from repro.formats.sharded import open_shard

        if isinstance(report, (str, Path)):
            report = RunReport.load(report)
        export_paths = list(report.get("export_paths") or [])
        if not export_paths:
            raise ValueError(
                "run report has no export_paths; run with an export_path "
                "configured before analyzing its output"
            )

        def exported_records() -> Iterable[dict]:
            for path in export_paths:
                suffixes = [s for s in Path(path).suffixes if s != ".gz"]
                if not suffixes or suffixes[-1] != ".txt":
                    yield from load_formatter(path, text_keys=(self.text_key,)).iter_records()
                    continue
                # a .txt *export* is one document per line (the Exporter's txt
                # format), unlike raw .txt inputs where one file is one document
                # — TextFormatter would silently collapse the corpus to 1 sample
                with open_shard(Path(path)) as handle:
                    yield from ({Fields.text: line.rstrip("\n")} for line in handle)

        return self.analyze_stream(exported_records())
