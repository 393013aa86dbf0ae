"""Distributed processing runners: Ray-like and Beam-like back-ends (simulated).

The original system runs its single-machine pipelines unchanged on Ray (by
swapping HuggingFace-datasets for Ray-datasets) or on Apache Beam with the
Flink runner.  Here, a *node* of the simulated cluster is a worker process of
the shared :mod:`repro.parallel` engine:

* :class:`RayLikeRunner` partitions the dataset across all nodes, runs the
  sample-level operators (Mappers / Filters) on a persistent
  :class:`~repro.parallel.WorkerPool`, merges the results and applies
  dataset-level operators (Deduplicators / Selectors) globally — the same
  split the Ray adaptation uses.  Pools are obtained from
  :func:`repro.parallel.get_shared_pool`, so repeated runs (e.g. a
  scalability sweep) reuse the same initialized workers instead of forking a
  fresh pool and re-running ``load_ops`` per run.
* :class:`BeamLikeRunner` adds the behaviour the paper observed to limit Beam
  scalability: the data loading / translation component runs on a single
  worker regardless of cluster size (a full serialise + deserialise pass over
  the dataset), so total time stays nearly flat as nodes are added.

Timing model
------------
``RunResult.wall_time_s`` is the **measured host wall-clock** of the run —
never a derived or modelled quantity.  ``RunResult.simulated_time_s``
additionally reports the simulated-cluster projection: the serial coordinator
segments (partitioning, merging, dataset-level ops, Beam's loading stage)
measured directly, plus the **longest per-node CPU time** of the
partition-parallel stage, measured inside the workers with
``time.process_time``.  The projection estimates what a real cluster — where
every node owns its core, as on the paper's test platform — would measure
when the host has fewer physical cores than simulated nodes; consumers that
assert on it must independently verify that the parallel engine really ran
(see ``RunResult.worker_pids``), because the projection alone shrinks with
the node count by construction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.core.base_op import Deduplicator, Selector
from repro.core.dataset import NestedDataset
from repro.core.registry import OPERATORS
from repro.core.segment import run_chunks
from repro.distributed.partition import split_dataset
from repro.ops import load_ops, split_process_entry
from repro.ops.common import preload_assets
from repro.parallel import default_chunk_size, get_shared_pool


@dataclass
class RunResult:
    """Output of one distributed run."""

    dataset: NestedDataset
    #: measured wall-clock of the run on the host machine
    wall_time_s: float
    num_nodes: int
    load_time_s: float = 0.0
    #: projection of the processing stage: slowest node's worker-measured CPU
    #: plus the measured merge / dataset-level-op wall segment — a modelled
    #: quantity like ``simulated_time_s``, not a pure wall measurement
    process_time_s: float = 0.0
    #: simulated-cluster projection: serial coordinator segments + slowest
    #: node's worker-measured CPU time.  Typically well below ``wall_time_s``
    #: on an oversubscribed host, but not a guaranteed bound: a node's chunks
    #: may be served by several workers concurrently, so max-per-node CPU can
    #: exceed the dispatch wall window
    simulated_time_s: float = 0.0
    #: process ids of the pool workers that served the partition-parallel
    #: stage (empty when it ran inline in the coordinator process)
    worker_pids: list[int] = field(default_factory=list)


class RayLikeRunner:
    """Partition-parallel runner standing in for the Ray executor."""

    def __init__(self, num_nodes: int = 1):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes

    def _split_process_list(self, process_list: list) -> tuple[list, list]:
        """Split the recipe into sample-level entries and dataset-level entries.

        Classification goes through the ``OPERATORS`` registry *classes* —
        no operator is instantiated here, so timed runs are not skewed by a
        useless extra ``load_ops`` pass.
        """
        sample_level, dataset_level = [], []
        for entry in process_list:
            op_cls = OPERATORS.get(split_process_entry(entry)[0])
            if issubclass(op_cls, (Deduplicator, Selector)):
                dataset_level.append(entry)
            else:
                sample_level.append(entry)
        return sample_level, dataset_level

    def run(self, dataset: NestedDataset, process_list: list) -> RunResult:
        """Run the recipe over the dataset using ``num_nodes`` simulated nodes."""
        sample_level, dataset_level = self._split_process_list(process_list)
        # provisioning happens before the timed region for BOTH execution
        # paths: the paper's Figure-10 cluster is already up when a job
        # starts, and timing it would bias the comparison — the multi-node
        # points would amortise a one-off cost the single-node baseline pays
        # on every measurement (or vice versa)
        pool = None
        if self.num_nodes > 1 and sample_level:
            pool = get_shared_pool(self.num_nodes, sample_level)
        # inline ops are provisioned unconditionally: they also serve the
        # fallback taken when a provisioned pool goes unused because the
        # dataset is too small to partition (0/1 rows), which would otherwise
        # sneak load_ops + asset loading back into the timed region
        inline_ops = load_ops(sample_level)
        preload_assets()

        start = time.perf_counter()
        partitions = split_dataset(dataset, self.num_nodes)

        dispatch_start = time.perf_counter()
        pooled = pool is not None and len(partitions) > 1
        # each node's partition travels as column-batch chunks — several per
        # node when pooled, for load balancing — and one segment task drives a
        # chunk through every sample-level op
        owners: list[int] = []
        chunks: list[dict] = []
        for node_id, partition in enumerate(partitions):
            size = max(1, len(partition))
            if pooled:
                size = pool.chunk_size or default_chunk_size(size, 1)
            for chunk in partition.iter_batches(size):
                owners.append(node_id)
                chunks.append(chunk)
        if pooled:
            results = pool.run_segment(inline_ops, chunks)
        else:
            results = run_chunks(inline_ops, chunks)
        # CPU seconds are measured around the op code (inside the workers when
        # pooled), so they reflect the genuine per-node cost even when the
        # host has fewer cores than nodes
        batches = []
        node_cpu = [0.0] * len(partitions)
        for node_id, (batch, _stats, failure, cpu) in zip(owners, results):
            if failure is not None:
                raise failure[1]
            batches.append(batch)
            node_cpu[node_id] += cpu
        # pids that actually executed tasks — evidence of out-of-process
        # parallel execution, not just of a live pool object
        worker_pids = list(pool.last_served_pids) if pooled else []
        dispatch_end = time.perf_counter()

        merged = NestedDataset.from_batches(batches)
        for op in load_ops(dataset_level):
            merged = op.run(merged)
        end = time.perf_counter()

        # simulated cluster projection: serial coordinator segments + the
        # slowest node's CPU time (nodes run concurrently on a real cluster)
        parallel_span = max(node_cpu, default=0.0)
        serial_span = (dispatch_start - start) + (end - dispatch_end)
        return RunResult(
            dataset=merged,
            wall_time_s=end - start,
            num_nodes=self.num_nodes,
            process_time_s=parallel_span + (end - dispatch_end),
            simulated_time_s=serial_span + parallel_span,
            worker_pids=worker_pids,
        )


class BeamLikeRunner(RayLikeRunner):
    """Runner reproducing the Beam/Flink behaviour: single-node data loading.

    Before any distributed work happens, the whole dataset goes through a
    serialise/deserialise "translation" pass on one worker (Beam's source
    reading + PCollection construction), which the paper identified as the
    scalability bottleneck of its Beam adaptation.
    """

    #: how many serialise/deserialise passes the loading stage performs; Beam's
    #: source reading, PCollection construction and pre-translation of the
    #: pipeline all touch the full dataset on one worker before any fan-out,
    #: which the paper identified as the dominant cost of its Beam adaptation
    LOAD_PASSES = 20

    def run(self, dataset: NestedDataset, process_list: list) -> RunResult:
        load_start = time.perf_counter()
        rows = dataset.to_list()
        for _ in range(self.LOAD_PASSES):
            rows = json.loads(json.dumps(rows, ensure_ascii=False, default=repr))
        loaded = NestedDataset.from_list(rows)
        load_time = time.perf_counter() - load_start

        result = super().run(loaded, process_list)
        return RunResult(
            dataset=result.dataset,
            wall_time_s=load_time + result.wall_time_s,
            num_nodes=self.num_nodes,
            load_time_s=load_time,
            process_time_s=result.process_time_s,
            simulated_time_s=load_time + result.simulated_time_s,
            worker_pids=result.worker_pids,
        )
