"""Smoke test of the benchmark itself (not part of tier-1).

Run with ``python -m pytest bench/tests`` from the repository root; the root
``pytest.ini`` lists only ``tests`` and ``benchmarks`` under ``testpaths``,
so a bare ``pytest`` never collects this file.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402 - importable once BENCH_DIR is on the path
import layers  # noqa: E402
from workloads import WEB_SHORT_GROUP, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IGNORED_PARTS = {"__pycache__", ".pytest_cache", ".git", ".hypothesis"}


def repo_files() -> set[str]:
    """Every file of the checkout except caches and the benchmark's own out dir."""
    return {
        str(path.relative_to(REPO_ROOT))
        for path in REPO_ROOT.rglob("*")
        if path.is_file()
        and not IGNORED_PARTS.intersection(path.parts)
        and BENCH_DIR / "out" not in path.parents
    }


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench-out")
    before = repo_files()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out-dir", str(out_dir)],
        cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = json.loads((out_dir / "results-smoke.json").read_text(encoding="utf-8"))
    return {"results": results, "stdout": done.stdout, "out_dir": out_dir,
            "written": repo_files() - before}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS]
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_metric_is_reported_with_a_unit(smoke):
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} | {"failed_frac": "ratio"}
    for number, workload in enumerate(WORKLOADS, start=1):
        outcome = smoke["results"]["workloads"][workload.name]
        for name, unit in units.items():
            assert outcome["metrics"][name]["unit"] == unit, (workload.name, name)
            assert outcome["metrics"][name]["value"] is not None
        assert outcome["metrics"]["failed_frac"]["value"] == 0, outcome["errors"]
        traced = outcome["trace"]
        assert traced["probe_unavailable"] == {}, workload.name
        expected = [m.name for m in layers.PER_LAYER if number in m.on]
        assert list(traced["metrics"]) == expected
        assert all(value is not None for value in traced["metrics"].values())
        assert (smoke["out_dir"] / f"trace-{workload.name}.jsonl").stat().st_size > 0
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["name"] in smoke["stdout"]
    stamp = smoke["results"]["environment"]
    assert {"commit", "nproc", "python", "platform", "load_1min_at_start",
            "pool_start_method", "noisy_host"} <= set(stamp)


def test_exports_agree_across_the_web_short_group(smoke):
    workloads = smoke["results"]["workloads"]
    digests = {
        workloads[w.name]["export_sha256"] for w in WORKLOADS if w.digest_group == WEB_SHORT_GROUP
    }
    assert len(digests) == 1 and None not in digests
    checks = smoke["results"]["checks"]
    assert checks["group_digest_agrees"] and checks["replay_digests_agree"]
    assert checks["digest_drift"] is False
    assert workloads["service-warm"]["trace"]["metrics"]["cache.hit_ratio"] == 1.0


def test_nothing_is_written_outside_the_out_dir(smoke):
    assert smoke["written"] == set()
    assert not list(smoke["out_dir"].glob("tmp-*")), "the run's temp dir must be removed"


def test_a_broken_probe_degrades_to_null(tmp_path, monkeypatch):
    info = corpus.write_jsonl(corpus.short_web(0, 0.01), tmp_path / "short-web.jsonl")
    real_resolve = layers.resolve

    def resolve_without_exporter(module, name):
        if name == "Exporter":
            raise AttributeError("module 'repro.core.exporter' has no attribute 'Exporter'")
        return real_resolve(module, name)

    monkeypatch.setattr(layers, "resolve", resolve_without_exporter)
    result = layers.run_traced({
        "workload": "web-short-memory", "dataset_path": info["path"],
        "input_bytes": info["bytes"], "scratch": str(tmp_path / "scratch"),
        "untraced_wall_s": 1.0, "span_file": str(tmp_path / "trace.jsonl"),
    })
    # the replay needs the missing name: everything it measures reads null
    for name in ("exporter.export_s", "ops.kernel_s", "trace.coverage"):
        assert result["metrics"][name] is None
        assert "Exporter" in result["probe_unavailable"][name]
    # the side probes do not, and still run
    assert result["metrics"]["dataset.to_list_s"] > 0
    assert result["metrics"]["batch.batches"] >= 1
    assert result["metrics"]["faults.policy_overhead_frac"] is not None


def test_compare_flags_only_real_regressions(smoke, tmp_path):
    base = smoke["results"]
    for outcome in base["workloads"].values():
        for entry in outcome["metrics"].values():
            # one repetition has no spread; give both sides a tight one
            if "median" in entry:
                entry["q1"], entry["q3"] = entry["median"] * 0.999, entry["median"] * 1.001
    slower = json.loads(json.dumps(base))
    rate = slower["workloads"]["web-short-memory"]["metrics"]["rows_per_s"]
    for key in ("value", "median", "q1", "q3"):
        rate[key] *= 0.5
    paths = []
    for name, payload in (("a.json", base), ("b.json", slower)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    run = [sys.executable, str(BENCH_DIR / "run.py"), "--compare"]
    same = subprocess.run(run + [str(paths[0])] * 2, capture_output=True, text=True)
    assert same.returncode == 0 and "regressed" not in same.stdout
    worse = subprocess.run(run + [str(p) for p in paths], capture_output=True, text=True)
    assert worse.returncode == 1
    flagged = [line for line in worse.stdout.splitlines() if "regressed" in line]
    assert len(flagged) == 1 and "web-short-memory" in flagged[0] and "rows_per_s" in flagged[0]
