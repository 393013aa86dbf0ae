"""Operator fusion and reordering (Sec. 6 of the paper, Figure 6).

Successive Filters are commutative: applying them in any order yields the same
surviving set.  Filters that share per-sample context (e.g. the tokenised word
list) can therefore be *fused* into a single operator that computes the shared
context once per sample, runs every member's stats computation against it, and
drops the sample as soon as any member rejects it.  The fused (time-consuming)
operator is additionally *reordered* to the end of its filter group so that the
cheaper filters shrink the data first.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper, Selector
from repro.core.batch import batch_length, batch_select
from repro.core.context import enable_context
from repro.core.sample import clear_context


class FusedFilter(Filter):
    """A filter combining several fusible filters behind one map/filter pass."""

    _name = "fused_filter"

    def __init__(self, fused_filters: Sequence[Filter]):
        super().__init__()
        if not fused_filters:
            raise ValueError("FusedFilter needs at least one member filter")
        self.fused_filters = list(fused_filters)
        self._name = "fused_filter(" + ",".join(op.name for op in self.fused_filters) + ")"
        # inherit the members' batch-size tuning (first explicit setting wins)
        for member in self.fused_filters:
            if member._batch_size is not None:
                self._batch_size = member._batch_size
                break

    def config(self) -> dict:
        """Constructor parameters, with every member's own config embedded.

        The generic :meth:`OP.config` would serialise the member list via
        param-less ``repr``s, making fused plans with different member
        thresholds indistinguishable to fingerprints and cache keys.
        """
        params = super().config()
        params["fused_filters"] = [
            {"name": member.name, "config": member.config()} for member in self.fused_filters
        ]
        return params

    def compute_stats(self, sample: dict, context: bool = True) -> dict:
        """Compute every member's stats, sharing the per-sample context."""
        enable_context(sample)
        for member in self.fused_filters:
            sample = member.compute_stats(sample, context=True)
        clear_context(sample)
        return sample

    def process(self, sample: dict) -> bool:
        """Keep the sample only when every member filter keeps it."""
        return all(member.process(sample) for member in self.fused_filters)

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        """Compute every member's stats for a batch, sharing a batch context.

        The shared store holds row-aligned column values (e.g. the tokenised
        word lists), so the batch is tokenised once and every member reuses
        the result — the batched analogue of the per-sample context.
        """
        shared = {} if context is None else context
        for member in self.fused_filters:
            samples = member.compute_stats_batched(samples, context=shared)
        return samples

    def process_batched(self, samples: dict) -> list[bool]:
        """AND of every member's flags over a fully stat-annotated batch."""
        flags = [True] * batch_length(samples)
        for member in self.fused_filters:
            member_flags = member.process_batched(samples)
            flags = [a and b for a, b in zip(flags, member_flags)]
        return flags

    def filter_batched(self, samples: dict) -> tuple[dict, list[bool]]:
        """Member-interleaved batch pass with early short-circuit.

        Each member computes its stats and decides on the rows still alive;
        rejected rows are removed from the working batch (and from the shared
        context columns) before the next — typically more expensive — member
        runs.  Surviving rows end up with every member's stats, identical to
        the per-sample methods; rejected rows may carry partial stats but are
        dropped from the output either way.
        """
        total = batch_length(samples)
        flags = [True] * total
        alive = list(range(total))
        context: dict = {}
        current = samples
        for member in self.fused_filters:
            if not alive:
                break
            current, member_flags = member.stats_and_flags(current, context=context)
            if not all(member_flags):
                keep_local = [i for i, keep in enumerate(member_flags) if keep]
                for local, keep in enumerate(member_flags):
                    if not keep:
                        flags[alive[local]] = False
                current = batch_select(current, keep_local)
                context = {key: [values[i] for i in keep_local] for key, values in context.items()}
                alive = [alive[i] for i in keep_local]
        return current, flags


def _share_context(left: Filter, right: Filter) -> bool:
    """Two filters are fusible together when they share at least one context key."""
    return bool(set(left.context_keys) & set(right.context_keys))


def _split_filter_group(group: list[Filter]) -> tuple[list[Filter], list[Filter]]:
    """Split a group of consecutive filters into (non-fusible, fusible) members.

    A filter is fusible when it declares context keys shared with at least one
    other filter of the group.
    """
    fusible: list[Filter] = []
    non_fusible: list[Filter] = []
    for candidate in group:
        if candidate.context_keys and any(
            other is not candidate and _share_context(candidate, other) for other in group
        ):
            fusible.append(candidate)
        else:
            non_fusible.append(candidate)
    return non_fusible, fusible


def fuse_operators(ops: Sequence) -> list:
    """Return a new operator list with fusible filter groups fused and reordered.

    The procedure follows Figure 6 of the paper:

    1. find maximal groups of consecutive Filters (other OP types break groups);
    2. within each group, fuse the >1 fusible members into one
       :class:`FusedFilter` and reorder it to the end of the group;
    3. groups with 0 or 1 fusible member keep their membership, with the single
       fusible member (if any) moved last.
    """
    fused_list: list = []
    group: list[Filter] = []

    def flush_group() -> None:
        if not group:
            return
        non_fusible, fusible = _split_filter_group(group)
        fused_list.extend(non_fusible)
        if len(fusible) > 1:
            fused_list.append(FusedFilter(fusible))
        elif fusible:
            fused_list.extend(fusible)
        group.clear()

    for op in ops:
        if isinstance(op, Filter) and not isinstance(op, FusedFilter):
            group.append(op)
        else:
            flush_group()
            fused_list.append(op)
    flush_group()
    return fused_list


def describe_plan(ops: Sequence) -> list[dict]:
    """Summarise an operator list: name, category and fused membership.

    Used by the executor's logging and by the OP-fusion benchmark to report
    which operators ended up fused.
    """
    plan = []
    for op in ops:
        if isinstance(op, FusedFilter):
            category = "fused_filter"
            members = [member.name for member in op.fused_filters]
        else:
            members = []
            if isinstance(op, Mapper):
                category = "mapper"
            elif isinstance(op, Filter):
                category = "filter"
            elif isinstance(op, Deduplicator):
                category = "deduplicator"
            elif isinstance(op, Selector):
                category = "selector"
            else:
                category = "other"
        plan.append({"name": op.name, "category": category, "members": members})
    return plan
