"""Base classes of the standardized operator (OP) pool.

The paper organises OPs into four primary categories (Table 1): Formatters,
Mappers, Filters and Deduplicators; we additionally provide Selectors, which
the original system uses for frequency / top-k subsetting tools.  The key
design decision reproduced here is the decoupling of stats computation from
the boolean keep/drop decision in Filters (``compute_stats`` vs ``process``),
which lets the Analyzer consume statistics for the *whole* dataset and lets
fused operators share per-sample contexts.

There is one way to run an op: ``op.run(dataset, tracer=, pool=)`` is a
segment of one (:mod:`repro.core.segment`) — the operator is handed column
batches (``dict[str, list]`` slices, see :mod:`repro.core.batch`) by the same
function in the worker processes when ``pool`` holds the op and in-process
otherwise, and a tracer is handed the examples that function found (a
Deduplicator's segment is its hashing; it and a Selector then take the global
step, :func:`repro.core.stream.resolve_in_memory`).  Every batched entry
point (``process_batched`` / ``compute_stats_batched`` /
``compute_hash_batched``) defaults to mapping the per-sample method over the
batch's rows, so subclasses only implement the per-sample method unless they
have a genuinely vectorised implementation.

The per-sample methods (``process`` / ``compute_stats`` / ``compute_hash``)
are the op-authoring API, and what the Analyzer and fused execution call.
They are also the test oracle (with a Deduplicator's and a Selector's
dataset-level ``process``, which a run calls only from its global step over
the signature columns):
:func:`repro.testing.reference.run_per_row` drives a dataset through them one
row at a time, and the equivalence suite asserts ``run`` yields the same rows,
stats and fingerprint.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.batch import (
    batch_select,
    batch_to_rows,
    resolve_batch_size,
    rows_to_batch,
    stat_rows,
    unfold_rows,
)
from repro.core.dataset import NestedDataset
from repro.core.sample import Fields, get_field, set_field


class OP:
    """Common behaviour of every operator: a name, a text key and parameters."""

    _name = "op"

    #: per-parameter schema overrides (bounds, choices, docs) merged into the
    #: signature-derived :class:`repro.core.schema.OpSchema`; subclasses add
    #: entries like ``{"max_ratio": {"min_value": 0.0, "max_value": 1.0}}``
    PARAM_SPECS: dict[str, dict] = {}

    @classmethod
    def schema(cls) -> Any:
        """Typed parameter schema of this operator (see :mod:`repro.core.schema`)."""
        from repro.core.schema import schema_for

        return schema_for(cls)

    def __init__(self, text_key: str = Fields.text, **kwargs: Any):
        self.text_key = text_key
        # execution tuning, not op semantics: kept out of config() (and
        # therefore out of cache keys) via the underscore prefix; None means
        # "unset" so a recipe-level batch_size can still apply
        self._batch_size: int | None = kwargs.pop("batch_size", None)
        self.extra_params = dict(kwargs)

    @property
    def name(self) -> str:
        """Registered snake_case name of this operator."""
        return self._name

    def config(self) -> dict:
        """Return the constructor parameters of this OP (for recipes / tracing)."""
        params = {"text_key": self.text_key}
        for key, value in vars(self).items():
            if key.startswith("_") or key in ("text_key", "extra_params"):
                continue
            if isinstance(value, (bool, int, float, str, list, tuple, dict, type(None))):
                params[key] = value
        return params

    #: soft bound on text characters per batch; long-document datasets get
    #: proportionally smaller batches so batch-wide working sets (token
    #: columns, codepoint buffers) stay a few hundred KB regardless of
    #: document size.  Results are batch-boundary independent, so this is
    #: purely a memory/locality knob.
    TARGET_BATCH_CHARS = 1 << 16

    @property
    def batch_size(self) -> int:
        """Rows per batch of the batched execution path."""
        return resolve_batch_size(self._batch_size)

    def effective_batch_size(self, dataset: NestedDataset) -> int:
        """Batch size adapted to the dataset's average text length
        (:meth:`adaptive_batch_size` over its columns)."""
        return self.adaptive_batch_size(dataset._columns, len(dataset))

    def adaptive_batch_size(self, columns: dict[str, list], rows: int) -> int:
        """Rows per batch for ``rows`` rows of a dataset or column batch.

        An explicit per-op/recipe ``batch_size`` is honoured as-is; the
        default shrinks so a batch holds roughly :data:`TARGET_BATCH_CHARS`
        characters of text.  The bound is soft: under two such batches of
        rows are one batch, so a chunk that was cut by this rule is not cut
        again, raggedly, on a second estimate from its own rows.
        """
        size = self.batch_size
        if self._batch_size is not None or rows == 0:
            return size
        column = columns.get(self.text_key) if "." not in self.text_key else None
        if not column:
            return size
        probe = column[:32]
        average = sum(len(text) for text in probe if isinstance(text, str)) / len(probe)
        if average <= 0:
            return size
        adaptive = max(16, min(size, int(self.TARGET_BATCH_CHARS / average)))
        return rows if adaptive < rows < 2 * adaptive and rows <= size else adaptive

    def set_batch_size(self, batch_size: int | None, override: bool = False) -> None:
        """Apply a recipe-level batch size; per-op settings win unless ``override``."""
        if batch_size is not None and (override or self._batch_size is None):
            self._batch_size = int(batch_size)

    def get_text(self, sample: dict) -> str:
        """Return the text of a sample at this OP's text key (empty string if missing)."""
        value = get_field(sample, self.text_key, "")
        return value if isinstance(value, str) else ""

    def set_text(self, sample: dict, text: str) -> dict:
        """Write the text back to the sample at this OP's text key."""
        return set_field(sample, self.text_key, text)

    def sample_stage(
        self, dataset: NestedDataset, pool: Any = None, tracer: Any = None
    ) -> NestedDataset:
        """This op's sample-level stage over ``dataset``: a segment of one.

        The chunks run in the workers of a :class:`repro.parallel.WorkerPool`
        that holds the op, else in-process — the same function either way
        (:func:`repro.core.segment.run_segment`), and the same rows and
        fingerprint.  A failure is raised as the in-process call raised it.
        A ``tracer`` is handed the examples the segment found.
        """
        from repro.core.segment import run_dataset_segment, segment_output
        from repro.core.tracer import segment_examples

        if pool is not None and not pool.holds(self):
            pool = None
        trace_num = getattr(tracer, "show_num", 0)
        _size, outcomes = run_dataset_segment([self], dataset, pool, trace_num)
        for _batch, _records, failure in outcomes:
            if failure is not None:
                raise failure[1]
        result = segment_output([self], dataset, outcomes)[0]
        if tracer is not None:
            records = [records[0] for _batch, records, _failure in outcomes]
            tracer.add(self, len(dataset), len(result), segment_examples(self, records))
        return result

    def run(
        self, dataset: NestedDataset, tracer: Any = None, pool: Any = None, **kwargs: Any
    ) -> NestedDataset:
        """Apply the op to every sample of the dataset (Mappers and Filters).

        A Mapper transforms; a Filter computes stats and keeps the passing
        samples in one pass (the decoupled ``compute_stats`` / ``process``
        methods stay exposed for the Analyzer and for fused execution); a
        ``tracer`` is handed the examples the segment found as it ran.
        """
        return self.sample_stage(dataset, pool, tracer)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def op_category(op_or_cls: Any) -> str:
    """Category label of an operator instance or class.

    One of ``mapper`` / ``filter`` / ``deduplicator`` / ``selector`` /
    ``formatter`` / ``op`` — the vocabulary shared by execution plans, run
    reports and the generated operator catalog.  Fused filters are Filters.
    """
    cls = op_or_cls if isinstance(op_or_cls, type) else type(op_or_cls)
    for base, label in (
        (Mapper, "mapper"),
        (Filter, "filter"),
        (Deduplicator, "deduplicator"),
        (Selector, "selector"),
        (Formatter, "formatter"),
    ):
        if issubclass(cls, base):
            return label
    return "op"


class Mapper(OP):
    """In-place text editing on single samples (or batched multi-sample editing)."""

    def process(self, sample: dict) -> dict:
        """Transform one sample and return it."""
        raise NotImplementedError

    def process_batched(self, samples: dict) -> dict:
        """Transform a column batch (``dict[str, list]``) and return one.

        The default materialises rows and maps :meth:`process` over them;
        vectorised mappers override this to operate on whole columns.  The
        returned batch may have a different length (multi-sample mappers).
        """
        rows = [self.process(row) for row in batch_to_rows(samples)]
        return rows_to_batch(rows, column_order=samples)


class Filter(OP):
    """Conditional sample removal, with stats computation decoupled from the decision."""

    def __init__(self, text_key: str = Fields.text, **kwargs: Any):
        super().__init__(text_key=text_key, **kwargs)

    #: names of context entries this filter can share with other fused filters
    context_keys: tuple[str, ...] = ()

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        """Compute and store this filter's statistics on the sample."""
        raise NotImplementedError

    def process(self, sample: dict) -> bool:
        """Return True to keep the sample, False to drop it."""
        raise NotImplementedError

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        """Compute stats for a column batch, returning the annotated batch.

        ``context`` is an optional batch-level shared store (row-aligned
        column lists keyed by :class:`repro.core.context.ContextKeys`) that
        fused execution threads through its members so e.g. tokenisation
        happens once per batch.  The default maps :meth:`compute_stats` over
        the rows, each with its stats folded into a fresh ``__stats__`` dict,
        and writes the stats they gained as stat columns; vectorised filters
        override it and write their stat columns directly
        (:func:`repro.core.batch.write_stat`).
        """
        del context  # the per-row fallback cannot share batch-level values
        return unfold_rows(samples, [self.compute_stats(row) for row in stat_rows(samples)])

    def process_batched(self, samples: dict) -> list[bool]:
        """Keep/drop decision for every row of a stat-annotated column batch."""
        return [bool(self.process(row)) for row in stat_rows(samples)]

    def stats_and_flags(self, samples: dict, context: dict | None = None) -> tuple[dict, list[bool]]:
        """:meth:`compute_stats_batched`, then :meth:`process_batched` over its
        result; a filter that overrides neither folds each row once for both."""
        per_row = (
            getattr(getattr(self, name), "__func__", None) is getattr(Filter, name)
            for name in ("compute_stats_batched", "process_batched")
        )
        if all(per_row):
            rows = [self.compute_stats(row) for row in stat_rows(samples)]
            return unfold_rows(samples, rows), [bool(self.process(row)) for row in rows]
        samples = self.compute_stats_batched(samples, context=context)
        return samples, self.process_batched(samples)

    def filter_batched(self, samples: dict) -> tuple[dict, list[bool]]:
        """Stats + decision for one batch: ``(surviving_batch, keep_flags)``.

        Subclasses with short-circuit opportunities (``FusedFilter``) override
        this; rejected rows may then carry partial stats, which is invisible
        in the output because they are dropped.
        """
        samples, flags = self.stats_and_flags(samples)
        if all(flags):
            return samples, flags
        kept = batch_select(samples, [i for i, keep in enumerate(flags) if keep])
        return kept, flags


def _run_dataset_level(
    self: Any, dataset: NestedDataset, tracer: Any = None, pool: Any = None, **kwargs: Any
) -> NestedDataset:
    """``run`` of a Deduplicator and a Selector: a Deduplicator's hashing (its
    sample-level stage, :meth:`OP.sample_stage`), then the global step both
    run loops take (:func:`repro.core.stream.resolve_in_memory`)."""
    from repro.core.stream import resolve_in_memory

    if isinstance(self, Deduplicator):
        dataset = self.sample_stage(dataset, pool)
    return resolve_in_memory(self, dataset, tracer)[0]


class Deduplicator(OP):
    """Duplicate removal operating at the dataset level via per-sample hashes."""

    #: version of the hash-column cells :meth:`compute_hash` writes.  Stored
    #: streaming shards carry those cells, so their keys digest it
    #: (:func:`repro.core.stream.stage_chain_hash`): a subclass that changes
    #: its cell representation bumps this and old entries read as misses
    HASH_FORMAT = 0

    def compute_hash(self, sample: dict) -> dict:
        """Compute and store this deduplicator's hash/signature on the sample."""
        raise NotImplementedError

    def compute_hash_batched(self, samples: dict) -> dict:
        """Hash a column batch; default maps :meth:`compute_hash` over rows."""
        rows = [self.compute_hash(row) for row in batch_to_rows(samples)]
        return rows_to_batch(rows, column_order=samples)

    def process(self, dataset: NestedDataset, show_num: int = 0) -> tuple[NestedDataset, list]:
        """Return the deduplicated dataset and up to ``show_num`` duplicate pairs."""
        raise NotImplementedError

    @staticmethod
    def hash_column(dataset: NestedDataset, key: str, default: Any = None) -> list:
        """The hash values :meth:`process` clusters on, one per row.

        Reads the column instead of building a row dict per row; a dataset
        that was never hashed reads as ``default`` everywhere, like
        ``sample.get(key, default)`` did.
        """
        if key in dataset.column_names:
            return dataset.column(key)
        return [default] * len(dataset)

    run = _run_dataset_level


class Selector(OP):
    """Dataset-level sample selection (top-k, frequency buckets, random subsets)."""

    def process(self, dataset: NestedDataset) -> NestedDataset:
        """Return the selected subset of the dataset."""
        raise NotImplementedError

    run = _run_dataset_level


class Formatter:
    """Load raw files (or in-memory payloads) and unify them into a dataset."""

    _name = "formatter"
    SUFFIXES: tuple[str, ...] = ()

    def __init__(self, dataset_path: str | None = None, text_keys: Sequence[str] = (Fields.text,), **kwargs: Any):
        self.dataset_path = dataset_path
        self.text_keys = list(text_keys)
        self.extra_params = dict(kwargs)

    @property
    def name(self) -> str:
        """Registered snake_case name of this formatter."""
        return self._name

    def load_dataset(self) -> NestedDataset:
        """Load and unify the source into a :class:`NestedDataset`."""
        raise NotImplementedError

    def iter_records(self) -> "Iterable[dict]":
        """Lazily yield unified samples, one at a time.

        The streaming executor consumes this instead of :meth:`load_dataset`
        so the full corpus is never materialised.  File-backed formatters
        (see :class:`repro.formats.sharded.ShardedFileFormatter`) stream
        shard by shard; this default falls back to the materialised dataset
        for formatters that only implement :meth:`load_dataset`.
        """
        yield from self.load_dataset()

    def iter_sources(self) -> "Iterable[Any]":
        """Lazily yield the source records a streaming run signs its shards by.

        A formatter that reads lines yields them undecoded, a block at a
        time (:class:`repro.formats.source.LineShard`); this default yields
        the unified samples themselves, which sign by their JSON encoding.
        """
        return self.iter_records()

    @staticmethod
    def unify_sample(record: dict, text_keys: Sequence[str]) -> dict:
        """Unify one raw record: ensure a ``text`` field exists.

        When the configured text keys are missing, the first string field is
        promoted to ``text`` — never the ``__suffix__`` a formatter stamps;
        records without any other string field get ``""``.
        """
        sample = dict(record)
        if Fields.text not in sample:
            text_value = None
            for key in text_keys:
                value = get_field(sample, key)
                if isinstance(value, str):
                    text_value = value
                    break
            if text_value is None:
                for key, value in sample.items():
                    if isinstance(value, str) and key != Fields.suffix:
                        text_value = value
                        break
            sample[Fields.text] = text_value if text_value is not None else ""
        return sample

    @classmethod
    def unify_samples(cls, samples: Iterable[dict], text_keys: Sequence[str]) -> list[dict]:
        """Unify raw records in bulk (list view of :meth:`unify_sample`)."""
        return [cls.unify_sample(record, text_keys) for record in samples]
