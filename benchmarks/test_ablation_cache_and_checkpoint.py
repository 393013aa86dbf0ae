"""Ablations — cache reuse, cache compression and the checkpoint space model.

These quantify the design choices of Sec. 4.1.1 / 6 called out in DESIGN.md:
(a) re-running an identical recipe with the cache enabled skips all operator
work — counted, not timed: every op is a cache hit and no op is called,
(b) compressed store entries are substantially smaller than plain ones, and
(c) checkpoint mode bounds peak space at 3 dataset copies (Appendix A.2) —
measured on the one store, not only computed: the bytes on disk are sampled
around every write of a checkpoint-only run.  Cache mode keeps every op's
entry, but an entry stores only what the op changed, so the A.2 cache-mode
formula is an upper bound its measured bytes stay under.
"""

from conftest import print_table, run_once

from repro.core.cache import CacheManager, estimate_cache_space, estimate_checkpoint_space
from repro.core.executor import Executor
from repro.recipes import get_recipe
from repro.synth import c4_like


def reproduce_cache_ablation(tmp_dir: str) -> dict:
    corpus = c4_like(num_samples=150, seed=9)
    process = get_recipe("pretrain-c4-refine-en")["process"]

    cold_config = {"process": process, "use_cache": True, "cache_dir": f"{tmp_dir}/cache"}
    Executor(cold_config).run(corpus)
    warm_executor = Executor(cold_config)
    warm_executor.run(corpus)
    warm_report = warm_executor.last_report

    plain = CacheManager(f"{tmp_dir}/plain", compression="none")
    compressed = CacheManager(f"{tmp_dir}/zlib", compression="zlib")
    plain.put("k", corpus)
    compressed.put("k", corpus)

    # Appendix A.2, measured: checkpoint-only memory mode keeps the latest
    # entry only, so the disk holds one dataset copy at every op boundary and
    # two while the next one is being written
    checkpointed = Executor(
        {"process": process, "use_checkpoint": True, "checkpoint_dir": f"{tmp_dir}/ckpt"}
    )
    store, put = checkpointed.store, checkpointed.store.put
    boundary_bytes, peak_bytes, entry_bytes = [], [], []

    def watched_put(key, payload):
        boundary_bytes.append(store.total_bytes())
        path = put(key, payload)
        peak_bytes.append(store.total_bytes())
        entry_bytes.append(path.stat().st_size)
        return path

    store.put = watched_put
    checkpointed.run(corpus)
    boundary_bytes.append(store.total_bytes())
    copy_bytes = max(entry_bytes)  # S: one copy of the (largest intermediate) dataset

    num_mappers = sum(1 for entry in process if next(iter(entry)).endswith("mapper"))
    num_filters = sum(1 for entry in process if next(iter(entry)).endswith("filter"))
    num_dedups = sum(1 for entry in process if "deduplicator" in next(iter(entry)))
    return {
        "num_ops": len(warm_executor.ops),
        "cache_hits_on_rerun": warm_report["cache"]["hits"],
        "op_calls_on_rerun": sum(op["calls"] for op in warm_report["ops"]),
        "ops_reported_on_rerun": len(warm_report["ops"]),
        "plain_cache_bytes": plain.total_bytes(),
        "compressed_cache_bytes": compressed.total_bytes(),
        "cache_mode_space_units": estimate_cache_space(1, num_mappers, num_filters, num_dedups),
        "checkpoint_mode_space_units": estimate_checkpoint_space(1),
        "cache_mode_bytes": CacheManager(f"{tmp_dir}/cache").total_bytes(),
        "cache_mode_estimate_bytes": estimate_cache_space(
            copy_bytes, num_mappers, num_filters, num_dedups
        ),
        "checkpoint_boundary_copies": max(boundary_bytes) / copy_bytes,
        "checkpoint_peak_copies": max(peak_bytes) / copy_bytes,
        "checkpoint_writes": len(entry_bytes),
    }


def test_ablation_cache_and_checkpoint(benchmark, tmp_path):
    result = run_once(benchmark, reproduce_cache_ablation, str(tmp_path))
    print_table("Ablation: caching, compression and checkpoint space", [result])

    # a warm cache skips the operator work entirely: every op is a hit and
    # none of them is called
    assert result["cache_hits_on_rerun"] == result["num_ops"]
    assert result["ops_reported_on_rerun"] == result["num_ops"]
    assert result["op_calls_on_rerun"] == 0
    # cache compression reduces on-disk size substantially (zstd/LZ4 stand-in)
    assert result["compressed_cache_bytes"] < 0.7 * result["plain_cache_bytes"]
    # checkpoint mode bounds peak space below cache mode for this recipe (Appendix A.2)
    assert result["checkpoint_mode_space_units"] <= result["cache_mode_space_units"]
    # ... and the bound is a measurement: every op wrote its output once, the
    # disk never held more than 3 dataset copies (one at each op boundary)
    assert result["checkpoint_writes"] > 1
    assert result["checkpoint_boundary_copies"] <= 1.0
    assert result["checkpoint_peak_copies"] <= result["checkpoint_mode_space_units"]
    # cache mode keeps every op's entry, within its own A.2 estimate
    assert 0 < result["cache_mode_bytes"] <= result["cache_mode_estimate_bytes"]
