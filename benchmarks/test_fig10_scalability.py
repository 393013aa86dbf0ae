"""Figure 10 — processing with a varying number of workers, checked by counts.

Paper result: on a multi-node Ray cluster Data-Juicer's processing time falls
almost linearly with the node count (up to ~87% less at 16 nodes), while the
Beam adaptation stays nearly flat behind its single-node loading stage.

Multi-node scaling is not reproduced here: there is no cluster, and a time
projected per simulated node shrinks with the node count by construction, so
it would show nothing.  What this checks instead is the mechanism the scaling
rests on, on the engine's own ``np``: the three Figure-8 recipes run through
``Executor(shared_pool=True)`` at np 1 and 2, each point twice, and

* every point exports the same bytes;
* np=1 sends no pool task, np=2 sends some, and a repeat sends as many;
* np=2 is served by two worker processes, never the coordinator, and the
  repeat by the same two (one persistent pool, not a pool per run).

Nothing here is timed.  The speed of a pooled run is measured by the
benchmark under ``bench/``: workload ``web-short-pool2`` against
``web-short-memory``.
"""

import os

from conftest import print_table, run_once
from test_fig8_end_to_end import WORKLOADS

from repro.core.executor import Executor
from repro.parallel import shutdown_shared_pools
from repro.recipes import get_recipe

NPS = (1, 2)
REPEATS = 2


def reproduce_figure10(tmp_path) -> list[dict]:
    rows = []
    try:
        for workload, (builder, kwargs, recipe_name) in WORKLOADS.items():
            corpus = builder(**kwargs)
            process = get_recipe(recipe_name)["process"]
            for np in NPS:
                for repeat in range(REPEATS):
                    tag = f"{workload}-np{np}-{repeat}"
                    export = tmp_path / f"{tag}.jsonl"
                    config = {
                        "process": process,
                        "np": np,
                        "export_path": str(export),
                        "work_dir": str(tmp_path / f"work-{tag}"),
                    }
                    with Executor(config, shared_pool=True) as executor:
                        executor.run(corpus)
                        parallel = executor.last_report["parallel"]
                    rows.append(
                        {
                            "workload": workload,
                            "np": np,
                            "repeat": repeat,
                            "tasks": parallel["tasks"],
                            "worker_pids": list(parallel["worker_pids"]),
                            "export": export.read_bytes(),
                        }
                    )
    finally:
        shutdown_shared_pools()
    return rows


def test_fig10_scalability(benchmark, tmp_path):
    rows = run_once(benchmark, reproduce_figure10, tmp_path)
    print_table(
        "Figure 10: pool dispatch vs number of workers (counts, not times)",
        [
            {**{k: v for k, v in row.items() if k != "export"}, "export_bytes": len(row["export"])}
            for row in rows
        ],
    )

    coordinator_pid = os.getpid()
    for workload in WORKLOADS:
        points = {(row["np"], row["repeat"]): row for row in rows if row["workload"] == workload}
        # one export at every np and on every repeat
        exports = {row["export"] for row in points.values()}
        assert len(exports) == 1, workload
        assert points[(1, 0)]["export"], workload

        for np in NPS:
            first, again = points[(np, 0)], points[(np, 1)]
            # the repeat dispatches exactly what the first run did
            assert first["tasks"] == again["tasks"], (workload, np)
            if np == 1:
                assert first["tasks"] == 0, workload
                continue
            # the pool really ran: tasks went out to np worker processes
            assert first["tasks"] > 0, (workload, np)
            assert len(first["worker_pids"]) == np, (workload, first["worker_pids"])
            assert coordinator_pid not in first["worker_pids"], workload
            # and the repeat found the same warm workers, not a fresh pool
            assert again["worker_pids"] == first["worker_pids"], (workload, np)
