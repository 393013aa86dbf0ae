"""Tests for the parallel execution engine (repro.parallel)."""

import os

import pytest

from repro.core.batch import batch_length
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.core.segment import run_segment
from repro.ops import load_ops
from repro.parallel import (
    WorkerPool,
    get_shared_pool,
    resolve_start_method,
    shutdown_shared_pools,
)
from repro.parallel.worker import default_chunk_size, run_task
from repro.synth import common_crawl_like

PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"clean_links_mapper": {}},
    {"text_length_filter": {"min_len": 50}},
    {"words_num_filter": {"min_num": 10}},
]

FULL_PROCESS = PROCESS + [{"document_deduplicator": {}}]


@pytest.fixture(scope="module")
def corpus():
    return common_crawl_like(num_samples=48, seed=7, duplicate_ratio=0.1)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


class TestStartMethodResolution:
    def test_preferred_method_honoured_when_available(self):
        assert resolve_start_method("spawn", available=("fork", "spawn")) == "spawn"

    def test_falls_back_when_preferred_unavailable(self):
        # a spawn-only platform (Windows, macOS default) must not crash
        assert resolve_start_method("fork", available=("spawn",)) == "spawn"

    def test_default_prefers_fork(self):
        assert resolve_start_method(available=("spawn", "forkserver", "fork")) == "fork"

    def test_no_method_available_raises(self):
        with pytest.raises(RuntimeError):
            resolve_start_method(available=())


class TestChunking:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(100, 4) == 7  # ~4 tasks per worker
        assert default_chunk_size(3, 16) == 1


def serial_segment(ops, dataset):
    """The in-process reference: every op over the whole dataset as one chunk."""
    batch, _stats, failure = run_segment(ops, dataset.to_dict())
    assert failure is None
    return NestedDataset.from_batches([batch]).to_list()


def pooled_segment(pool, ops, dataset, chunk_rows_=None):
    size = chunk_rows_ or pool.chunk_size_for(len(dataset))
    results = pool.run_segment(ops, list(dataset.iter_batches(size)))
    assert all(failure is None for _batch, _stats, failure in results)
    return results


def pooled_batches(pool, ops, batches):
    """The output batches of one dispatch that must not have failed."""
    results = pool.run_segment(ops, batches)
    assert all(failure is None for _batch, _stats, failure in results)
    return [batch for batch, _stats, _failure in results]


class TestWorkerPool:
    def test_pool_reuse_across_runs(self, corpus):
        ops = load_ops(PROCESS)
        with WorkerPool(2, ops=ops) as pool:
            pids_before = sorted(pool.worker_pids())
            first = pooled_batches(pool, ops, list(corpus.iter_batches(12)))
            second = pooled_batches(pool, ops, list(corpus.iter_batches(12)))
            pids_after = sorted(pool.worker_pids())
        # the same worker processes served both runs — no fork-per-run
        assert pids_before == pids_after and len(pids_before) == 2
        assert first == second

    def test_chunked_dispatch_preserves_row_order(self):
        rows = [{"text": f"word {i} " + "stable filler text for the pipeline", "idx": i} for i in range(40)]
        dataset = NestedDataset.from_list(rows)
        ops = load_ops([{"whitespace_normalization_mapper": {}}])
        serial = serial_segment(ops, dataset)
        with WorkerPool(3, ops=ops, chunk_size=4) as pool:
            results = pooled_segment(pool, ops, dataset)
        assert len(results) == 10  # the pool's chunk_size sliced the dispatch
        pooled = NestedDataset.from_batches([batch for batch, *_rest in results]).to_list()
        assert [row["idx"] for row in pooled] == list(range(40))
        assert pooled == serial

    def test_segment_reports_per_op_rows_and_worker_cpu(self, corpus):
        ops = load_ops(PROCESS)
        with WorkerPool(2, ops=ops) as pool:
            half = len(corpus) // 2
            results = pooled_segment(pool, ops, corpus, chunk_rows_=half)
            # the workers' CPU time is counted once per task
            assert pool.worker_s > 0 and pool.tasks == 2
        assert len(results) == 2 and len(corpus) == 2 * half
        for batch, stats, _failure in results:
            assert len(stats) == len(ops)
            # each op's rows_in is the previous op's rows_out
            assert [rows_in for rows_in, _out, _s, _found, _flags in stats][1:] == [
                rows_out for _in, rows_out, _s, _found, _flags in stats
            ][:-1]
            assert stats[0][0] == half and stats[-1][1] == len(batch["text"])

    def test_spawn_fallback_matches_fork_results(self, corpus):
        ops = load_ops(PROCESS)
        serial = serial_segment(ops, corpus)
        with WorkerPool(2, process_list=PROCESS, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            # workers re-instantiate the ops from the recipe inside spawn init
            results = pooled_segment(pool, ops, corpus)
        spawned = NestedDataset.from_batches([batch for batch, *_rest in results]).to_list()
        assert spawned == serial

    def test_closed_pool_rejects_work(self, corpus):
        ops = load_ops(PROCESS)
        pool = WorkerPool(2, ops=ops)
        pool.close()
        assert not pool.alive
        with pytest.raises(RuntimeError):
            pool.run_segment(ops, [corpus.to_dict()])

    def test_worker_failure_is_reported_not_raised(self, corpus):
        """An op raising inside a worker comes back as (op index, exception)
        with the stats of the ops before it and the batch the op was handed;
        ``op.run(pool=)``, which owns no fault policy, re-raises it like an
        in-process run."""
        from repro.testing import FaultPlan
        from repro.testing.chaos import ChaosFault

        ops = load_ops(PROCESS)
        FaultPlan().inject("text_length_filter").install(ops)
        with WorkerPool(2, ops=ops) as pool:
            (batch, stats, failure), = pool.run_segment(ops, [corpus.to_dict()])
            assert len(stats) == 2 and batch_length(batch) == stats[1][1]
            assert failure[0] == 2 and isinstance(failure[1], ChaosFault)
            with pytest.raises(ChaosFault):
                ops[2].run(corpus, pool=pool)
            assert pool.last_served_pids  # raised in a worker, re-raised here

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0, ops=[])


class TestDegradedMode:
    """Regression: a degraded pool re-ran ``initialize_worker`` on every
    dispatch — rebuilding ops under spawn and overwriting the process-global
    op list, so two degraded pools in one process clobbered each other."""

    def degraded_pool(self, process):
        from repro.core.faults import DegradedExecutionWarning

        pool = WorkerPool(1, process_list=process, start_method="spawn")
        with pytest.warns(DegradedExecutionWarning):
            pool._degrade(RuntimeError("simulated infrastructure failure"))
        return pool

    def test_two_degraded_pools_keep_their_own_ops(self, monkeypatch):
        import threading

        from repro.parallel import worker

        # index 0 means a different op in each pool
        lower = [{"lowercase_mapper": {}}]
        strip = [{"whitespace_normalization_mapper": {}}]
        batch = {"text": ["  Mixed   CASE  text  "] * 8}
        expected = {
            "lower": load_ops(lower)[0].process_batched(dict(batch)),
            "strip": load_ops(strip)[0].process_batched(dict(batch)),
        }
        assert expected["lower"] != expected["strip"]
        pools = {"lower": self.degraded_pool(lower), "strip": self.degraded_pool(strip)}
        installs = []
        monkeypatch.setattr(
            worker, "initialize_worker", lambda *args: installs.append(args)
        )
        failures = []

        def hammer(name):
            pool = pools[name]
            for _ in range(50):
                (out,) = pooled_batches(pool, pool._ops, [dict(batch)])
                if out != expected[name]:
                    failures.append(name)

        try:
            threads = [threading.Thread(target=hammer, args=(name,)) for name in pools]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            for pool in pools.values():
                pool.close()
        assert failures == []
        # degraded dispatch neither re-instantiates ops nor touches the
        # worker-process global of the parent
        assert installs == [] and worker._RESIDENT is None


class TestSharedPools:
    def test_same_recipe_and_size_share_one_pool(self):
        first = get_shared_pool(2, PROCESS)
        second = get_shared_pool(2, PROCESS)
        assert first is second
        assert get_shared_pool(3, PROCESS) is not first

    def test_shutdown_clears_and_recreates(self):
        pool = get_shared_pool(2, PROCESS)
        shutdown_shared_pools()
        assert not pool.alive
        fresh = get_shared_pool(2, PROCESS)
        assert fresh is not pool and fresh.alive

    def test_registry_bounded_evicts_least_recently_used(self):
        from repro.parallel.pool import MAX_SHARED_POOLS

        shutdown_shared_pools()
        recipes = [
            [{"whitespace_normalization_mapper": {}}] * (k + 1)
            for k in range(MAX_SHARED_POOLS + 1)
        ]
        pools = [get_shared_pool(1, recipe) for recipe in recipes]
        # the least-recently-used pool was closed to respect the bound …
        assert not pools[0].alive
        assert all(pool.alive for pool in pools[1:])
        # … and asking for it again builds a fresh live pool
        revived = get_shared_pool(1, recipes[0])
        assert revived is not pools[0] and revived.alive

    def test_concurrent_requests_get_one_pool(self):
        # the check-then-create is guarded by a lock: two threads racing on
        # the same key (a threaded server's concurrent submissions) must get
        # the same pool instance, never fork a second worker set
        import threading

        shutdown_shared_pools()
        results: list = []
        barrier = threading.Barrier(2)

        def request() -> None:
            barrier.wait()
            results.append(get_shared_pool(2, PROCESS))

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 2
        assert results[0] is results[1]
        assert results[0].alive

    def test_supervision_knobs_apply_per_caller(self):
        shutdown_shared_pools()
        first = get_shared_pool(2, PROCESS, task_timeout_s=5.0, max_rebuilds=1)
        assert first.task_timeout_s == 5.0 and first.max_rebuilds == 1
        # a later borrower reconfigures the same pool under its own policy
        second = get_shared_pool(2, PROCESS, task_timeout_s=9.0, rebuild_backoff_s=0.5)
        assert second is first
        assert first.task_timeout_s == 9.0 and first.rebuild_backoff_s == 0.5

    def test_is_shared_pool_tracks_registry_membership(self):
        from repro.parallel import is_shared_pool

        shutdown_shared_pools()
        shared = get_shared_pool(1, PROCESS)
        private = WorkerPool(1, ops=load_ops(PROCESS))
        try:
            assert is_shared_pool(shared)
            assert not is_shared_pool(private)
        finally:
            private.close()


class TestConfigEquivalenceDispatch:
    def test_foreign_instances_resolve_against_residents(self):
        # ops are pure functions of config(): an executor's own instances of
        # the same recipe resolve against a shared pool's residents
        with WorkerPool(2, process_list=PROCESS) as pool:
            for op in load_ops(PROCESS):
                assert pool.holds(op)

    def test_differently_configured_op_does_not_resolve(self):
        with WorkerPool(2, process_list=PROCESS) as pool:
            other = load_ops([{"text_length_filter": {"min_len": 99}}])[0]
            assert not pool.holds(other)

    def test_foreign_instance_dispatch_matches_serial(self, corpus):
        recipe = [{"whitespace_normalization_mapper": {}}]
        serial = serial_segment(load_ops(recipe), corpus)
        with WorkerPool(2, process_list=recipe) as pool:
            foreign = load_ops(recipe)[0]  # fresh instance, same config
            assert foreign is not pool._ops[0]
            pooled = pooled_batches(pool, [foreign], list(corpus.iter_batches(12)))
            assert pool.last_served_pids  # executed out of process
        assert NestedDataset.from_batches(pooled).to_list() == serial


class TestExecutorParallel:
    def test_np_serial_equivalence(self, corpus):
        serial = Executor({"process": FULL_PROCESS, "np": 1}).run(corpus)
        with Executor({"process": FULL_PROCESS, "np": 3}) as executor:
            parallel = executor.run(corpus)
            assert executor.last_report["parallel"]["np"] == 3
            assert executor.last_report["parallel"]["start_method"] is not None
        # identical rows in identical order, and identical fingerprints so
        # cache keys agree between serial and parallel execution
        assert parallel.to_list() == serial.to_list()
        assert parallel.fingerprint == serial.fingerprint

    def test_np_equivalence_with_fusion(self, corpus):
        process = FULL_PROCESS[:-1] + [
            {"stopwords_filter": {"min_ratio": 0.0}},
            {"flagged_words_filter": {"max_ratio": 1.0}},
            FULL_PROCESS[-1],
        ]
        serial = Executor({"process": process, "op_fusion": True, "np": 1}).run(corpus)
        with Executor({"process": process, "op_fusion": True, "np": 2}) as executor:
            parallel = executor.run(corpus)
        assert parallel.to_list() == serial.to_list()

    def test_pool_persists_across_executor_runs(self, corpus):
        with Executor({"process": FULL_PROCESS, "np": 2}) as executor:
            executor.run(corpus)
            pool = executor._pool
            assert pool is not None and pool.alive
            pids = sorted(pool.worker_pids())
            executor.run(corpus)
            assert executor._pool is pool
            assert sorted(pool.worker_pids()) == pids

    def test_serial_executor_has_no_pool(self, corpus):
        executor = Executor({"process": FULL_PROCESS})
        executor.run(corpus)
        assert executor._pool is None
        executor.close()


class TestNpCounts:
    """What Fig. 10's scaling rests on, counted on the engine's own ``np``:
    np=1 sends the pool nothing, np=2 sends it tasks its workers serve."""

    def test_np1_sends_no_pool_task(self, corpus):
        with Executor({"process": PROCESS, "np": 1}) as executor:
            executor.run(corpus)
            parallel = executor.last_report["parallel"]
        assert parallel["tasks"] == 0 and parallel["worker_s"] == 0
        assert parallel["worker_pids"] == [] and parallel["start_method"] is None

    def test_np2_is_served_out_of_process(self, corpus):
        with Executor({"process": PROCESS, "np": 2}) as executor:
            executor.run(corpus)
            served = executor._pool.last_served_pids
            live = executor.last_report["parallel"]["worker_pids"]
        # the pool's workers, never the coordinator, at most np of them
        assert served and os.getpid() not in served
        assert set(served) <= set(live) and len(live) == 2

    def test_np2_sends_one_task_per_chunk_of_one_segment(self, corpus):
        with Executor({"process": PROCESS, "np": 2}) as executor:
            executor.run(corpus)
            chunk = executor._pool.chunk_size_for(len(corpus))
            tasks = executor.last_report["parallel"]["tasks"]
        # mappers and filters only: one segment, so tasks == chunks
        assert tasks == -(-len(corpus) // chunk) > 1

    def test_np2_repeat_sends_as_many_tasks(self, corpus):
        with Executor({"process": FULL_PROCESS, "np": 2}) as executor:
            executor.run(corpus)
            first = executor.last_report["parallel"]["tasks"]
            executor.run(corpus)
            second = executor.last_report["parallel"]["tasks"]
        # the report counts each run's own dispatch, not the pool's total
        assert first == second > 0

    def test_np2_reports_worker_cpu(self, corpus):
        with Executor({"process": PROCESS, "np": 2}) as executor:
            executor.run(corpus)
            parallel = executor.last_report["parallel"]
        assert parallel["worker_s"] > 0 and parallel["dispatch_s"] >= 0


class TestBatchedPoolDispatch:
    def test_map_column_batches_matches_serial(self, corpus):
        ops = load_ops(PROCESS)
        mapper = ops[0]
        serial = mapper.run(corpus)
        with WorkerPool(2, ops=ops) as pool:
            pooled = mapper.run(corpus, pool=pool)
            assert pool.last_served_pids  # really executed out-of-process
        assert pooled.to_list() == serial.to_list()
        assert pooled.fingerprint == serial.fingerprint

    def test_filter_run_through_pool_matches_serial(self, corpus):
        ops = load_ops(PROCESS)
        text_filter = ops[2]
        serial = text_filter.run(corpus)
        with WorkerPool(2, ops=ops) as pool:
            pooled = text_filter.run(corpus, pool=pool)
            assert pool.last_served_pids
        assert pooled.to_list() == serial.to_list()
        assert pooled.fingerprint == serial.fingerprint

    def test_fused_filter_over_resident_members_uses_pool(self, corpus):
        """Regression: a FusedFilter assembled *after* pool construction used
        to fail the identity check in pool.holds() and silently fall back to
        in-process serial execution."""
        from repro.core.fusion import FusedFilter, fuse_operators

        ops = load_ops(
            PROCESS + [{"stopwords_filter": {"min_ratio": 0.0}}, {"flagged_words_filter": {"max_ratio": 1.0}}]
        )
        fused_plan = fuse_operators(ops)
        fused = next(op for op in fused_plan if isinstance(op, FusedFilter))
        serial = fused.run(corpus)
        with WorkerPool(2, ops=ops) as pool:  # pool holds the UNfused seed list
            assert pool.holds(fused)
            pooled = fused.run(corpus, pool=pool)
            assert pool.last_served_pids  # dispatched, not the serial fallback
        assert pooled.to_list() == serial.to_list()
        assert pooled.fingerprint == serial.fingerprint

    def test_deduplicator_sample_stage_uses_pool(self, corpus):
        ops = load_ops([{"document_minhash_deduplicator": {}}])
        dedup = ops[0]
        serial = dedup.run(corpus)
        with WorkerPool(2, ops=ops) as pool:
            pooled = dedup.run(corpus, pool=pool)
            assert pool.last_served_pids  # hashing ran in the workers
            hashed = dedup.sample_stage(corpus, pool)
        assert pooled.to_list() == serial.to_list()
        assert pooled.fingerprint == serial.fingerprint
        # the one hashing stage run() and the streaming engine share
        assert hashed.to_list() == dedup.sample_stage(corpus).to_list()
        assert hashed.fingerprint == dedup.sample_stage(corpus).fingerprint

    def test_fused_filter_with_foreign_members_not_held(self):
        from repro.core.fusion import FusedFilter

        resident = load_ops(PROCESS)
        foreign = load_ops([{"stopwords_filter": {}}, {"flagged_words_filter": {}}])
        with WorkerPool(2, ops=resident) as pool:
            assert not pool.holds(FusedFilter(foreign))

    def test_shared_pool_registers_post_fusion_plan(self):
        process = PROCESS + [
            {"stopwords_filter": {"min_ratio": 0.0}},
            {"flagged_words_filter": {"max_ratio": 1.0}},
        ]
        fused_pool = get_shared_pool(2, process, op_fusion=True)
        plain_pool = get_shared_pool(2, process, op_fusion=False)
        assert fused_pool is not plain_pool
        assert get_shared_pool(2, process, op_fusion=True) is fused_pool


def test_preload_assets_is_idempotent():
    from repro.ops.common import preload_assets

    preload_assets()
    preload_assets()


class TestRunSegment:
    def test_worker_knows_exactly_one_task_kind(self, monkeypatch):
        from repro.parallel import worker

        resident = worker.ResidentOps(load_ops([{"text_length_filter": {"min_len": 10}}]))
        monkeypatch.setattr(worker, "_RESIDENT", resident)
        batch = {"text": ["tiny", "long enough to survive the filter"]}
        (kept, _stats, failure), _cpu, _pid = run_task(("segment", (0,), dict(batch), 0))
        assert failure is None and len(kept["text"]) == 1
        for gone in ("map", "stats", "flags", "filter", "filter_cols_full"):
            with pytest.raises(ValueError, match="unknown task kind"):
                run_task((gone, (0,), dict(batch), 0))

    def test_rejects_selectors(self):
        _batch, _stats, failure = run_segment(
            load_ops([{"topk_specified_field_selector": {"field_key": "text", "topk": 1}}]),
            {"text": ["x"]},
        )
        assert failure[0] == 0 and isinstance(failure[1], TypeError)

    def test_filter_drops_rows_immediately(self):
        ops = load_ops([{"text_length_filter": {"min_len": 10}}])
        batch, stats, failure = run_segment(
            ops, {"text": ["tiny", "long enough to survive the filter"]}
        )
        assert failure is None and [stat[:2] for stat in stats] == [(2, 1)]
        assert len(batch["text"]) == 1 and "survive" in batch["text"][0]

    def test_deduplicator_runs_its_hashing_stage_only(self):
        ops = load_ops([{"document_deduplicator": {}}])
        batch, stats, failure = run_segment(ops, {"text": ["same", "same"]})
        assert failure is None and [stat[:2] for stat in stats] == [(2, 2)]
        assert len(batch) == 2  # text + the hash column; clustering is the host's
