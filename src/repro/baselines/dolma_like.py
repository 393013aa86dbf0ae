"""A Dolma-like baseline pipeline (Sec. 7.2.1 / Appendix B.3.4).

The Dolma toolkit processes data in separate stages — attribute *tagging*,
filtering by tagged attributes, then deduplication — with the input sharded in
advance and attributes persisted between stages.  This baseline reproduces the
same staged workflow (shard → tag → persist attributes → filter → dedup),
again with identical operator semantics to the Data-Juicer recipe so the
Figure 8 comparison measures the workflow overhead rather than different
cleaning rules.
"""

from __future__ import annotations

import json
import time

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.dataset import NestedDataset
from repro.core.sample import Fields
from repro.ops import load_ops
from repro.baselines.redpajama_like import BaselineResult


def _partition_rows(rows: list[dict], num_partitions: int) -> list[list[dict]]:
    """Cut ``rows`` into ``num_partitions`` contiguous, near-equal shards."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    num_partitions = min(num_partitions, max(1, len(rows)))
    base, remainder = divmod(len(rows), num_partitions)
    result = []
    start = 0
    for index in range(num_partitions):
        size = base + (1 if index < remainder else 0)
        result.append(rows[start:start + size])
        start += size
    return result


class DolmaLikePipeline:
    """Staged tag → filter → dedup processing over pre-sharded inputs."""

    def __init__(self, process_list: list, num_shards: int = 4):
        self.process_list = list(process_list)
        self.ops = load_ops(process_list)
        self.num_shards = max(1, num_shards)

    @staticmethod
    def _persist(payload) -> object:
        """Model writing/reading the intermediate gzipped attribute files."""
        import gzip

        compressed = gzip.compress(json.dumps(payload, ensure_ascii=False, default=repr).encode("utf-8"))
        return json.loads(gzip.decompress(compressed).decode("utf-8"))

    def run(self, dataset: NestedDataset) -> BaselineResult:
        """Run the staged workflow and return the surviving rows."""
        start = time.perf_counter()
        stage_times: dict[str, float] = {}

        # stage 0: mandatory sharding of the input
        shard_start = time.perf_counter()
        shards = _partition_rows(self._persist(dataset.to_list()), self.num_shards)
        stage_times["shard"] = time.perf_counter() - shard_start

        mappers = [op for op in self.ops if isinstance(op, Mapper)]
        filters = [op for op in self.ops if isinstance(op, Filter)]
        dedups = [op for op in self.ops if isinstance(op, Deduplicator)]

        # stage 1: mapping + attribute tagging, attributes persisted separately
        tag_start = time.perf_counter()
        tagged_shards = []
        attribute_shards = []
        for shard in shards:
            rows = [dict(row) for row in shard]
            for mapper in mappers:
                rows = [mapper.process(dict(row)) for row in rows]
            attributes = []
            for row in rows:
                probe = dict(row)
                for filter_op in filters:
                    probe = filter_op.compute_stats(probe)
                attributes.append(probe.get(Fields.stats, {}))
            tagged_shards.append(self._persist(rows))
            attribute_shards.append(self._persist(attributes))
        stage_times["tag"] = time.perf_counter() - tag_start

        # stage 2: filtering by the persisted attributes
        filter_start = time.perf_counter()
        kept_rows: list[dict] = []
        for rows, attributes in zip(tagged_shards, attribute_shards):
            for row, stats in zip(rows, attributes):
                probe = dict(row)
                probe[Fields.stats] = stats
                if all(filter_op.process(probe) for filter_op in filters):
                    kept_rows.append(row)
        kept_rows = self._persist(kept_rows)
        stage_times["filter"] = time.perf_counter() - filter_start

        # stage 3: deduplication over the merged survivors
        dedup_start = time.perf_counter()
        merged = NestedDataset.from_list(kept_rows)
        for dedup in dedups:
            merged = dedup.run(merged)
        stage_times["dedup"] = time.perf_counter() - dedup_start

        rows = [
            {key: value for key, value in row.items() if key != Fields.stats}
            for row in merged.to_list()
        ]
        return BaselineResult(
            rows=rows,
            wall_time_s=time.perf_counter() - start,
            peak_copies=3,
            stage_times=stage_times,
        )
