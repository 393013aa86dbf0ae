"""End-to-end serving smoke check: the body of ``repro serve-smoke``.

Exercises the whole serving stack the way ``make check`` can afford to —
over a real socket, unlike the tier-1 tests:

1. synthesize a small corpus and write it to disk;
2. start a ``repro serve`` server on an **ephemeral port** (a daemon
   thread running the stdlib HTTP adapter);
3. submit a fig8 refinement job over HTTP and wait for it with at most
   two status requests (``?wait=`` holds one open, so a polling client fails);
4. submit the *same* job again and require a fully cache-warm run: its
   report hits every input shard (``cache.shard_hits ==
   shards.input_shards``, no ``shard_misses``), decodes none
   (``shards.decoded_shards == 0``) — the recipe has a single stage —
   rebuilds ``meta`` alone (``shards.unpickled_columns <= input_shards``)
   and writes nothing to the store (``cache.bytes_written == 0``);
5. run the equivalent pipeline through the direct CLI code path and
   require the service export to be **byte-identical** to it.

Returns a process exit code (0 = every gate passed) and prints one line
per gate, so failures localize without a debugger.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.core.exporter import Exporter
from repro.recipes import get_recipe
from repro.service.client import HTTPClient
from repro.service.core import create_core
from repro.service.http import make_server
from repro.synth import make_corpus

#: the fig8 workload recipe the smoke run serves (small but full-stack:
#: cleaning mappers, filters and a deduplicator)
SMOKE_RECIPE = "pretrain-books-refine-en"

MAX_STATUS_REQUESTS = 2  # per waited job: the wait, plus one spare window


class RecordingHTTPClient(HTTPClient):
    """An :class:`HTTPClient` that records each request it sends, query dropped."""

    def __init__(self, base_url: str):
        super().__init__(base_url)
        self.sent: list[str] = []

    def request(self, method: str, path: str, payload: object = None):
        self.sent.append(f"{method} {path.partition('?')[0]}")
        return super().request(method, path, payload)


def _submission(input_path: Path, max_shard_rows: int) -> dict:
    """The job body submitted (twice) to the server."""
    return {
        "recipe_name": SMOKE_RECIPE,
        "mode": "streaming",
        "overrides": {
            "dataset_path": str(input_path),
            "max_shard_rows": max_shard_rows,
        },
    }


def run_smoke(
    root: str | None = None,
    num_samples: int = 120,
    max_shard_rows: int = 17,
    timeout_s: float = 180.0,
) -> int:
    """Run the serving smoke sequence; return the process exit code."""
    root_dir = Path(root) if root else Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    root_dir.mkdir(parents=True, exist_ok=True)
    dataset = make_corpus("books", num_samples=num_samples, seed=8)
    input_path = Exporter(str(root_dir / "corpus.jsonl"), keep_stats=False).export(dataset)
    print(f"[serve-smoke] corpus: {len(dataset)} samples at {input_path}")

    core = create_core(root_dir / "service")
    server = make_server(core, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-smoke", daemon=True
    )
    thread.start()
    print(f"[serve-smoke] server listening on http://{host}:{port}")
    try:
        client = RecordingHTTPClient(f"http://{host}:{port}")
        health = client.get("/health").raise_for_status().body
        print(f"[serve-smoke] health: {health['status']}, jobs={health['jobs']}")

        views = []
        for round_number in (1, 2):
            job = client.submit_job(_submission(Path(input_path), max_shard_rows))
            view = client.wait_for_job(job["id"], timeout=timeout_s)
            requests = client.sent.count(f"GET /jobs/{job['id']}")
            print(
                f"[serve-smoke] job {view['id']} ({round_number}/2) "
                f"finished: {view['state']} after {requests} status request(s)"
            )
            if view["state"] != "succeeded" or requests > MAX_STATUS_REQUESTS:
                print(
                    f"[serve-smoke] FAIL: want succeeded after <= {MAX_STATUS_REQUESTS} "
                    f"status requests (a polling client takes more): {view.get('error')}"
                )
                return 1
            views.append(view)

        warm_report = client.job_report(views[1]["id"])
        cache, shards = warm_report.get("cache", {}), warm_report.get("shards", {})
        counts = {
            "shard_hits": cache.get("shard_hits"),
            "shard_misses": cache.get("shard_misses"),
            "input_shards": shards.get("input_shards"),
            "decoded_shards": shards.get("decoded_shards"),
            "unpickled_columns": shards.get("unpickled_columns"),
            "bytes_written": cache.get("bytes_written"),
        }
        # every input shard replayed from the store, none of them decoded or
        # stored again, and each read back for the columns its reader uses alone
        if not (
            counts["shard_misses"] == counts["decoded_shards"] == counts["bytes_written"] == 0
            and counts["shard_hits"] == counts["input_shards"]
            and counts["input_shards"]
            and counts["unpickled_columns"] <= counts["input_shards"]
        ):
            print(f"[serve-smoke] FAIL: second job was not fully cache-warm ({counts})")
            return 1
        print(
            f"[serve-smoke] warm resubmission replayed all {counts['shard_hits']} "
            f"input shard(s) without decoding one ({counts['unpickled_columns']} unpickled column(s))"
        )

        # the CLI-equivalent run: same recipe, same knobs, direct code path
        from repro.api import Pipeline

        recipe = get_recipe(SMOKE_RECIPE)
        recipe.update(
            dataset_path=str(input_path),
            export_path=str(root_dir / "cli-export.jsonl"),
            work_dir=str(root_dir / "cli-work"),
            max_shard_rows=max_shard_rows,
        )
        Pipeline.from_recipe(recipe).run(mode="streaming")
        cli_bytes = (root_dir / "cli-export.jsonl").read_bytes()
        for view in views:
            service_export = Path(view["export_paths"][0])
            if service_export.read_bytes() != cli_bytes:
                print(
                    f"[serve-smoke] FAIL: {service_export} differs from the "
                    "direct CLI export"
                )
                return 1
        print("[serve-smoke] both service exports are byte-identical to the CLI export")
        print("[serve-smoke] OK")
        return 0
    finally:
        server.shutdown()
        server.server_close()
        core.shutdown()


__all__ = ["SMOKE_RECIPE", "run_smoke"]
