"""Tests for the pipeline service: typed core, job queue, warm reuse.

Everything here drives the service through the **in-process transport**
(:class:`repro.service.InProcessClient` over :meth:`ServiceCore.handle`), so
tier-1 exercises the full request surface — discovery, validation, the whole
job lifecycle — without ever binding a network port.  The HTTP adapter runs
the same core; its socket path is covered by ``repro serve-smoke``.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.core.report import RunReport
from repro.parallel import shutdown_shared_pools
from repro.service import (
    InProcessClient,
    JobSpec,
    JobState,
    ServiceError,
    catalog_payload,
    create_core,
)
from repro.synth import make_corpus

#: recipe knobs shared by every job in these tests: small shards so streaming
#: runs produce several shards (and warm reruns show shard_hits)
SHARD_ROWS = 9


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-corpus")
    dataset = make_corpus("books", num_samples=60, seed=8)
    path = root / "corpus.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for row in dataset:
            handle.write(json.dumps({"text": row["text"]}, ensure_ascii=False) + "\n")
    return path


@pytest.fixture()
def service(tmp_path):
    core = create_core(tmp_path / "service", queue_limit=4)
    try:
        yield core, InProcessClient(core)
    finally:
        core.shutdown()


def submission(corpus_path, **overrides) -> dict:
    merged = {"dataset_path": str(corpus_path), "max_shard_rows": SHARD_ROWS}
    merged.update(overrides)
    return {
        "recipe_name": "pretrain-books-refine-en",
        "mode": "streaming",
        "overrides": merged,
    }


# ----------------------------------------------------------------------
# Discovery + catalog
# ----------------------------------------------------------------------
class TestDiscovery:
    def test_health(self, service):
        _core, client = service
        body = client.get("/health").raise_for_status().body
        assert body["status"] == "ok"
        assert body["jobs"] == {state: 0 for state in JobState.ALL}

    def test_ops_listing_and_detail(self, service):
        _core, client = service
        ops = client.get("/ops").raise_for_status().body["ops"]
        names = [entry["name"] for entry in ops]
        assert "text_length_filter" in names and names == sorted(names)
        detail = client.get("/ops/text_length_filter").raise_for_status().body
        assert detail["category"] == "filter"
        assert {spec["name"] for spec in detail["params"]} == {"min_len", "max_len"}
        assert detail["effects"]["category"] == "filter"

    def test_unknown_op_404_with_suggestion(self, service):
        _core, client = service
        response = client.get("/ops/text_lenth_filter")
        assert response.status == 404
        assert "text_length_filter" in response.body["error"]["message"]

    def test_recipes_listing_and_detail(self, service):
        _core, client = service
        recipes = client.get("/recipes").raise_for_status().body["recipes"]
        assert any(entry["name"] == "pretrain-books-refine-en" for entry in recipes)
        detail = client.get("/recipes/dedup-only-exact").raise_for_status().body
        assert detail["recipe"]["process"]

    def test_schema_endpoint_matches_cli_schema_json(self, service, capsys):
        # the satellite contract: `repro schema --json` and GET /schema are
        # the same payload, verbatim
        _core, client = service
        served = client.get("/schema").raise_for_status().body
        assert main(["schema", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert served == printed
        assert served == json.loads(json.dumps(catalog_payload(), default=repr))

    def test_unknown_route_and_wrong_method(self, service):
        _core, client = service
        assert client.get("/nope").status == 404
        assert client.post("/health").status == 405
        assert client.get("/validate").status == 405


# ----------------------------------------------------------------------
# Validation endpoint
# ----------------------------------------------------------------------
class TestValidation:
    def test_valid_builtin_recipe(self, service):
        _core, client = service
        body = client.post("/validate", {"recipe_name": "dedup-only-exact"})
        assert body.raise_for_status().body == {"valid": True, "issues": []}

    def test_invalid_inline_recipe_reports_every_issue(self, service):
        _core, client = service
        recipe = {
            "process": [
                {"text_length_filter": {"min_len": -3, "max_lne": 10}},
                {"no_such_mapper": {}},
            ]
        }
        body = client.post("/validate", {"recipe": recipe}).raise_for_status().body
        assert body["valid"] is False
        messages = " ".join(issue["message"] for issue in body["issues"])
        assert "below the minimum" in messages
        assert "max_lne" in " ".join(issue["param"] for issue in body["issues"])
        assert any(issue["op"] == "no_such_mapper" for issue in body["issues"])

    def test_validation_requires_exactly_one_source(self, service):
        _core, client = service
        assert client.post("/validate", {}).status == 400
        both = {"recipe": {}, "recipe_name": "dedup-only-exact"}
        assert client.post("/validate", both).status == 400


# ----------------------------------------------------------------------
# Submission contract
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_requires_exactly_one_recipe_source(self):
        with pytest.raises(ServiceError) as excinfo:
            JobSpec.from_payload({})
        assert excinfo.value.status == 400

    def test_unknown_recipe_name_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            JobSpec.from_payload(
                {"recipe_name": "pretrain-boks-refine-en"}
            )
        assert excinfo.value.status == 404
        assert "pretrain-books-refine-en" in excinfo.value.message

    def test_requires_dataset_path(self):
        with pytest.raises(ServiceError) as excinfo:
            JobSpec.from_payload({"recipe_name": "dedup-only-exact"})
        assert excinfo.value.status == 400
        assert "dataset_path" in excinfo.value.message

    def test_rejects_unknown_mode(self, corpus_path):
        payload = submission(corpus_path)
        payload["mode"] = "warp-speed"
        with pytest.raises(ServiceError) as excinfo:
            JobSpec.from_payload(payload)
        assert excinfo.value.status == 400

    def test_overrides_merge_into_named_recipe(self, corpus_path):
        spec = JobSpec.from_payload(submission(corpus_path, np=2))
        assert spec.recipe["np"] == 2
        assert spec.recipe["dataset_path"] == str(corpus_path)
        assert spec.recipe["process"]  # the built-in op list came along


# ----------------------------------------------------------------------
# Job lifecycle through the in-process transport (no port bound)
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_submit_status_report_lifecycle(self, service, corpus_path):
        core, client = service
        accepted = client.post("/jobs", submission(corpus_path))
        assert accepted.status == 202
        job = accepted.body["job"]
        assert job["state"] in (JobState.QUEUED, JobState.RUNNING)

        view = client.wait_for_job(job["id"])
        assert view["state"] == JobState.SUCCEEDED
        assert view["started_at"] >= view["created_at"]
        assert view["finished_at"] >= view["started_at"]
        assert view["export_paths"], "a service job must export by default"

        listed = client.get("/jobs").raise_for_status().body["jobs"]
        assert [entry["id"] for entry in listed] == [job["id"]]

        report = client.job_report(job["id"])
        assert report["mode"] == "streaming"
        assert report["num_output_samples"] > 0
        trace = client.get(f"/jobs/{job['id']}/trace").raise_for_status()
        assert trace.body["job"]["id"] == job["id"]

    def test_cancel_queued_job_and_running_conflict(self, service, corpus_path):
        core, client = service
        core.jobs.pause()  # hold the worker so the job stays queued
        job = client.submit_job(submission(corpus_path))
        assert client.job(job["id"])["state"] == JobState.QUEUED

        cancelled = client.post(f"/jobs/{job['id']}/cancel").raise_for_status()
        assert cancelled.body["job"]["state"] == JobState.CANCELLED
        # cancelling again conflicts: the job is terminal
        assert client.post(f"/jobs/{job['id']}/cancel").status == 409
        # a cancelled job never produces a report
        assert client.get(f"/jobs/{job['id']}/report").status == 404
        core.jobs.resume()
        # the worker must skip the cancelled entry and stay healthy
        follow_up = client.submit_job(submission(corpus_path))
        assert client.wait_for_job(follow_up["id"])["state"] == JobState.SUCCEEDED

    def test_failed_job_captures_error(self, service, tmp_path):
        core, client = service
        job = client.submit_job(
            {
                "recipe": {
                    "dataset_path": str(tmp_path / "does-not-exist.jsonl"),
                    "process": [{"text_length_filter": {"min_len": 1}}],
                }
            }
        )
        view = client.wait_for_job(job["id"])
        assert view["state"] == JobState.FAILED
        assert view["error"]
        from repro.service.runtime import ERROR_FILE

        error_file = core.runtime.job_dir(job["id"]) / ERROR_FILE
        assert error_file.exists() and error_file.read_text(encoding="utf-8")
        assert client.get(f"/jobs/{job['id']}/report").status == 404

    def test_unknown_job_is_404(self, service):
        _core, client = service
        assert client.get("/jobs/job-999999").status == 404

    def test_bounded_queue_rejects_overflow_with_503(self, service, corpus_path):
        core, client = service
        core.jobs.pause()
        try:
            for _ in range(4):  # fixture queue_limit=4
                client.submit_job(submission(corpus_path))
            overflow = client.post("/jobs", submission(corpus_path))
            assert overflow.status == 503
            assert "queue is full" in overflow.body["error"]["message"]
        finally:
            # drain without executing four pipelines: cancel then resume
            for view in client.get("/jobs").raise_for_status().body["jobs"]:
                client.post(f"/jobs/{view['id']}/cancel")
            core.jobs.resume()


class CountingClient(InProcessClient):
    """The in-process transport, counting and announcing each request."""

    def __init__(self, core):
        super().__init__(core)
        self.paths: list[str] = []
        self.sent = threading.Event()

    def request(self, method, path, payload=None):
        self.paths.append(f"{method} {path}")
        self.sent.set()
        return super().request(method, path, payload)


class TestWaiting:
    """``wait_for_job`` is answered when the job ends; nothing here reads a clock."""

    def test_a_job_ending_inside_one_window_costs_one_status_request(
        self, service, corpus_path
    ):
        core, _client = service
        client = CountingClient(core)
        job = client.submit_job(submission(corpus_path))
        assert client.wait_for_job(job["id"])["state"] == JobState.SUCCEEDED
        status = [path for path in client.paths if path.startswith(f"GET /jobs/{job['id']}")]
        assert len(status) == 1 and "?wait=" in status[0]

    def test_a_paused_queued_job_still_times_out(self, service, corpus_path):
        core, client = service
        core.jobs.pause()
        job = client.submit_job(submission(corpus_path))
        with pytest.raises(TimeoutError, match="still 'queued'"):
            client.wait_for_job(job["id"], timeout=0.2)
        client.post(f"/jobs/{job['id']}/cancel").raise_for_status()
        core.jobs.resume()

    def test_shutdown_during_a_wait_returns_the_cancelled_view(self, service, corpus_path):
        core, _client = service
        client = CountingClient(core)
        core.jobs.pause()
        job = client.submit_job(submission(corpus_path))
        client.sent.clear()
        views = []
        waiter = threading.Thread(target=lambda: views.append(client.wait_for_job(job["id"])))
        waiter.start()
        client.sent.wait(timeout=30)
        core.jobs.shutdown()
        waiter.join(timeout=30)
        assert [view["state"] for view in views] == [JobState.CANCELLED]
        assert views[0]["id"] == job["id"]

    def test_two_waiters_each_get_their_own_job(self, service, corpus_path):
        core, client = service
        core.jobs.pause()
        runs = client.submit_job(submission(corpus_path))
        cancelled = client.submit_job(submission(corpus_path))
        views = {}

        def wait(job_id):
            views[job_id] = client.wait_for_job(job_id)

        waiters = [threading.Thread(target=wait, args=(job["id"],)) for job in (runs, cancelled)]
        for waiter in waiters:
            waiter.start()
        client.post(f"/jobs/{cancelled['id']}/cancel").raise_for_status()
        core.jobs.resume()
        for waiter in waiters:
            waiter.join(timeout=60)
        assert {job_id: view["id"] for job_id, view in views.items()} == {
            runs["id"]: runs["id"],
            cancelled["id"]: cancelled["id"],
        }
        assert views[runs["id"]]["state"] == JobState.SUCCEEDED
        assert views[cancelled["id"]]["state"] == JobState.CANCELLED

    def test_a_query_string_reaches_its_route(self, service, corpus_path):
        core, client = service
        core.jobs.pause()
        job = client.submit_job(submission(corpus_path))
        assert client.get("/health?verbose=1").status == 200
        assert client.get(f"/jobs/{job['id']}?x=1").raise_for_status().body["job"]["id"] == job["id"]
        # a zero wait answers at once with the job still queued
        assert client.job(job["id"], wait=0)["state"] == JobState.QUEUED
        for bad in ("-1", "nan", "soon", ""):
            response = client.get(f"/jobs/{job['id']}?wait={bad}")
            assert response.status == 400, bad
            assert "wait" in response.body["error"]["message"]
        client.post(f"/jobs/{job['id']}/cancel").raise_for_status()
        core.jobs.resume()


# ----------------------------------------------------------------------
# The acceptance criteria: warm cache, shared pool, CLI-identical exports
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_two_jobs_cli_identical_and_second_cache_warm(
        self, service, corpus_path, tmp_path, capsys
    ):
        core, client = service
        # two submissions enqueued concurrently from separate threads (the
        # transport is concurrent; execution is safely serialized)
        views = {}

        def submit_and_wait(slot: str) -> None:
            job = client.submit_job(submission(corpus_path))
            views[slot] = client.wait_for_job(job["id"])

        threads = [
            threading.Thread(target=submit_and_wait, args=(slot,))
            for slot in ("first", "second")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert views["first"]["state"] == JobState.SUCCEEDED
        assert views["second"]["state"] == JobState.SUCCEEDED

        # the later-finishing job ran cache-warm off the shared shard cache
        by_finish = sorted(views.values(), key=lambda view: view["finished_at"])
        warm_report = client.job_report(by_finish[1]["id"])
        assert warm_report["cache"]["shard_hits"] > 0

        # both exports are byte-identical to the equivalent CLI run
        cli_export = tmp_path / "cli-export.jsonl"
        assert (
            main(
                [
                    "process",
                    "--recipe",
                    "pretrain-books-refine-en",
                    "--dataset",
                    str(corpus_path),
                    "--export",
                    str(cli_export),
                    "--work-dir",
                    str(tmp_path / "cli-work"),
                    "--mode",
                    "streaming",
                    "--max-shard-rows",
                    str(SHARD_ROWS),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cli_bytes = cli_export.read_bytes()
        assert cli_bytes
        for view in views.values():
            (export_path,) = view["export_paths"]
            with open(export_path, "rb") as handle:
                assert handle.read() == cli_bytes

    def test_parallel_jobs_share_one_worker_pool(self, service, corpus_path):
        core, client = service
        first = client.submit_job(submission(corpus_path, np=2, use_cache=False))
        second = client.submit_job(submission(corpus_path, np=2, use_cache=False))
        assert client.wait_for_job(first["id"])["state"] == JobState.SUCCEEDED
        assert client.wait_for_job(second["id"])["state"] == JobState.SUCCEEDED
        parallel_1 = client.job_report(first["id"])["parallel"]
        parallel_2 = client.job_report(second["id"])["parallel"]
        assert parallel_1["shared"] and parallel_2["shared"]
        assert parallel_1["worker_pids"], "the pooled run must list its workers"
        # one warm WorkerPool served both jobs: identical worker processes
        assert parallel_1["worker_pids"] == parallel_2["worker_pids"]
        assert client.get("/health").raise_for_status().body["warm_pools"] >= 1

    def test_report_cli_renders_service_job(self, service, corpus_path, capsys):
        core, client = service
        job = client.submit_job(submission(corpus_path))
        assert client.wait_for_job(job["id"])["state"] == JobState.SUCCEEDED
        capsys.readouterr()
        assert (
            main(
                [
                    "report",
                    "--service-root",
                    str(core.runtime.root),
                    "--job",
                    job["id"],
                    "--json",
                ]
            )
            == 0
        )
        printed = json.loads(capsys.readouterr().out)
        assert printed == client.job_report(job["id"])
        # the same report renders through the generic work-dir path too
        loaded = RunReport.load(core.runtime.job_dir(job["id"]))
        assert loaded.as_dict() == json.loads(
            json.dumps(loaded.as_dict(), default=repr)
        )

    def test_report_cli_unknown_job_fails_cleanly(self, service):
        core, _client = service
        with pytest.raises(SystemExit):
            main(
                [
                    "report",
                    "--service-root",
                    str(core.runtime.root),
                    "--job",
                    "job-424242",
                ]
            )
