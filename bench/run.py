"""The repository's benchmark: one repeatable ruler for every later speed claim.

    python bench/run.py [--seed N]                 all 7 workloads + traced pass
    python bench/run.py --smoke                    rows / 20, one repetition
    python bench/run.py --compare A.json B.json    regression table of two runs
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                   one workload, one JSON line

Each workload is timed in a fresh child process that runs only the untraced
repetitions (so ``os.wait4`` reports their memory and nothing else); a second
child replays the workload layer by layer for the per-layer numbers.  Metrics,
units, directions and regression bounds are fixed in ``BENCHMARK.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import BY_NAME, REPO_ROOT, SRC_DIR, WEB_SHORT_GROUP, WORKLOADS, Workload  # noqa: E402 - sibling module

BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"
EXPECTED_FILE = BENCH_DIR / "expected.json"
#: the one common factor every corpus is scaled by, so that a full set of
#: driver runs fits its time cap (see README, "Run length and budget")
SCALE = 0.4
SMOKE_DIVISOR = 20
#: timed repetitions: at least MIN_REPS, and until --seconds of timed work
MIN_REPS, MAX_REPS = 5, 12
#: the untraced repetitions a --trace 1 run needs for its reference wall time
TRACE_REFERENCE_REPS = 3
#: a child that has not ended by then is killed (the driver allows 180 s a run)
CHILD_TIMEOUT_S = 150
CORPUS_BUILDS = 3


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict:
    """Median with quartiles, extremes and ``n`` (n < 11: no tail percentile claimed)."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def environment_stamp() -> dict:
    load_1min = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT), capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "nproc": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_1min_at_start": load_1min,
        "noisy_host": load_1min > 0.5 * cores,
        "pool_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------
def build_corpus(name: str, gz_shards: bool, seed: int, scale: float, root: Path) -> dict:
    """Write one corpus ``CORPUS_BUILDS`` times; report the median build time.

    ``corpus.py`` runs as a subprocess: a child started by fork+exec inherits
    its parent's resident size as the floor of its own ``ru_maxrss``, so this
    process must stay small for ``peak_rss_mb`` to mean the workload's memory.
    """
    command = [
        sys.executable, str(BENCH_DIR / "corpus.py"), "--seed", str(seed),
        "--scale", repr(scale), "--name", name, "--output", str(root),
    ] + (["--gz-shards"] if gz_shards else [])
    seconds = []
    for _ in range(CORPUS_BUILDS):
        start = time.perf_counter()
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        seconds.append(time.perf_counter() - start)
    info = json.loads(done.stdout)
    info["build_s"] = statistics.median(seconds)
    return info


def pinned(expected: dict, seed: int, scale: float) -> dict | None:
    for entry in expected.get("pinned", []):
        if entry["seed"] == seed and abs(entry["scale"] - scale) < 1e-12:
            return entry
    return None


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_in_child(kind: str, spec: dict, temp: Path) -> tuple[dict | None, float, str]:
    """Run one child to its end; returns (its result, peak RSS in MiB, error text)."""
    spec_file = temp / f"{kind}-spec.json"
    result_file = temp / f"{kind}-result.json"
    log_file = temp / f"{kind}.log"
    spec = dict(spec, result_file=str(result_file))
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, TMPDIR=str(temp))
    with log_file.open("w") as log:
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), f"--{kind}-child", str(spec_file)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(REPO_ROOT),
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (child.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    # whatever the child left running (it should be nothing) ends with it
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    peak_mb = usage.ru_maxrss / 1024  # Linux reports KiB
    if child.returncode != 0 or not result_file.exists():
        tail = log_file.read_text(errors="replace")[-800:]
        return None, peak_mb, f"child exited {child.returncode}: {tail}"
    return json.loads(result_file.read_text(encoding="utf-8")), peak_mb, ""


def child_main(kind: str, spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if kind == "timed":
        from workloads import run_child as entry
    else:
        from layers import run_traced as entry
    result = entry(spec)
    Path(spec["result_file"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(workload: Workload, info: dict, temp: Path, seconds: float, min_reps: int,
            max_reps: int) -> dict:
    """The untraced repetitions of one workload, summarised into the end-to-end metrics."""
    scratch = temp / f"{workload.name}-timed"
    scratch.mkdir(parents=True)
    spec = {
        "workload": workload.name, "dataset_path": info["path"], "scratch": str(scratch),
        "seconds": seconds, "min_reps": min_reps, "max_reps": max_reps,
    }
    result, peak_mb, error = run_in_child("timed", spec, scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    outcome: dict = {"workload": workload.name, "input": info}
    if result is None:
        outcome.update(
            attempted=1, failed=1, errors=[error],
            metrics={"failed_frac": {"unit": "ratio", "value": 1.0}},
        )
        return outcome
    reps, warmup = result["reps"], result["warmup"]
    good = [rep for rep in reps if not rep["failed"]]
    digests = {rep["sha256"] for rep in good} | (
        {warmup["sha256"]} if not warmup["failed"] else set()
    )
    failed = len(reps) - len(good)
    errors = [rep["error"] for rep in [warmup, *reps] if rep["error"]]
    if len(digests) > 1:
        # repetitions of one workload must export identical bytes
        failed, errors = len(reps), errors + [f"export digest differs between repetitions: {sorted(digests)}"]
    outcome.update(
        attempted=len(reps), failed=failed, errors=errors,
        rows_out=good[0]["rows_out"] if good else None,
        export_sha256=good[0]["sha256"] if good else None,
        setup_parts_s={
            "corpus_build": info["build_s"], "import": result["import_s"],
            "warmup": warmup["wall_s"],
        },
    )
    metrics = {
        "setup_s": {"unit": "s", "value": info["build_s"] + result["import_s"] + warmup["wall_s"]},
        "peak_rss_mb": {"unit": "MiB", "value": peak_mb},
        "failed_frac": {"unit": "ratio", "value": failed / len(reps)},
    }
    if good:
        rows = info["rows"] * workload.jobs_per_rep
        walls = summarize([rep["wall_s"] for rep in good])
        rate = summarize([rows / rep["wall_s"] for rep in good])
        # the input itself is counted, so the ratio is >= 1 and a few bytes of
        # report.json cannot read as a regression (see README, "disk_amp")
        amp = summarize([(info["bytes"] + rep["disk_bytes"]) / info["bytes"] for rep in good])
        metrics["rows_per_s"] = {"unit": "rows/s", "value": rate["median"], **rate}
        metrics["disk_amp"] = {"unit": "bytes/byte", "value": amp["median"], **amp}
        outcome["wall_s"] = walls
    outcome["metrics"] = metrics
    return outcome


def trace(workload: Workload, info: dict, temp: Path, out_dir: Path, outcome: dict) -> dict:
    """The traced pass of one workload, held against its untraced wall time."""
    scratch = temp / f"{workload.name}-traced"
    scratch.mkdir(parents=True)
    spec = {
        "workload": workload.name, "dataset_path": info["path"], "input_bytes": info["bytes"],
        "scratch": str(scratch), "untraced_wall_s": outcome["wall_s"]["median"],
        "span_file": str(out_dir / f"trace-{workload.name}.jsonl"),
    }
    result, _peak, error = run_in_child("traced", spec, scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    if result is None:
        return {"metrics": {}, "probe_unavailable": {"*": error}, "layer_table": "unresolved"}
    # None when the replay could not run (a probe was unavailable): not a wrong output
    result["replay_digest_ok"] = (
        result["replay_sha256"] == outcome["export_sha256"] if result["replay_sha256"] else None
    )
    return result


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value: float | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value)}"
    return f"{value:.4g}"


def print_results(results: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["failed_frac"] = "ratio"
    print(f"\n== end to end (seed {results['seed']}, scale {results['scale']}) ==")
    print(f"{'workload':26s} " + " ".join(f"{name + ' [' + unit + ']':>22s}" for name, unit in units.items()))
    for name, outcome in results["workloads"].items():
        cells = []
        for metric in units:
            entry = outcome["metrics"].get(metric)
            cells.append(f"{_fmt(entry['value']) if entry else 'null':>22s}")
        print(f"{name:26s} " + " ".join(cells))
    for name, outcome in results["workloads"].items():
        rate = outcome["metrics"].get("rows_per_s")
        if rate:
            print(
                f"  {name}: rows_per_s median {_fmt(rate['median'])} "
                f"q1 {_fmt(rate['q1'])} q3 {_fmt(rate['q3'])} min {_fmt(rate['min'])} "
                f"max {_fmt(rate['max'])} n={rate['n']}; rows_out {outcome.get('rows_out')} "
                f"sha256 {str(outcome.get('export_sha256'))[:16]}"
            )
        for error in outcome.get("errors", []):
            print(f"  {name}: ERROR {error}")
    unit_of = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, outcome in results["workloads"].items():
        traced = outcome.get("trace")
        if not traced:
            continue
        print(f"\n== per layer: {name} (layer table {traced['layer_table']}) ==")
        for metric, value in traced["metrics"].items():
            print(f"  {metric:44s} {_fmt(value):>14s} {unit_of.get(metric, '')}")
        for metric, reason in traced["probe_unavailable"].items():
            print(f"  probe_unavailable {metric}: {reason}")
        wall = outcome["wall_s"]["median"]
        shares = sorted(traced.get("replay_layer_s", {}).items(), key=lambda item: -item[1])
        print("  replay self time by layer (share of the untraced median wall): " + ", ".join(
            f"{layer} {seconds:.3f} s ({seconds / wall:.0%})" for layer, seconds in shares
        ))
    checks = results["checks"]
    print(
        f"\nshared export sha256 across {WEB_SHORT_GROUP} workloads: "
        f"{'one' if checks['group_digest_agrees'] else 'DIFFERENT'}; "
        f"replay exports agree: {str(checks['replay_digests_agree']).lower()}; "
        f"digest_drift: {str(checks['digest_drift']).lower()}; "
        f"noisy_host: {str(results['environment']['noisy_host']).lower()}"
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_workloads(names: list[str], args: argparse.Namespace, bench: dict, traced: bool,
                  timed_reps: tuple[float, int, int]) -> dict:
    """Build the corpora, measure (and trace) the named workloads, check the outputs."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = SCALE / SMOKE_DIVISOR if args.smoke else SCALE
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    pin = pinned(expected, args.seed, scale)
    results: dict = {
        "seed": args.seed, "scale": scale, "environment": environment_stamp(), "workloads": {},
    }
    temp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        corpora: dict[tuple[str, bool], dict] = {}
        for name in names:
            workload = BY_NAME[name]
            key = (workload.corpus, workload.gz_shards)
            if key not in corpora:
                corpora[key] = build_corpus(*key, args.seed, scale, temp / "corpus")
                if pin and pin["corpus"].get(workload.corpus) != corpora[key]["sha256"]:
                    # numbers over different rows are not comparable: stop here
                    raise SystemExit(
                        f"corpus_drift: {workload.corpus} sha256 {corpora[key]['sha256']} "
                        f"differs from bench/expected.json"
                    )
            outcome = measure(workload, corpora[key], temp, *timed_reps)
            if traced and outcome.get("wall_s"):
                outcome["trace"] = trace(workload, corpora[key], temp, out_dir, outcome)
            results["workloads"][name] = outcome
    finally:
        shutil.rmtree(temp, ignore_errors=True)

    group = {
        outcome["export_sha256"]
        for name, outcome in results["workloads"].items()
        if BY_NAME[name].digest_group == WEB_SHORT_GROUP
    }
    drift = False
    for name, outcome in results["workloads"].items():
        if len(group) > 1 and BY_NAME[name].digest_group == WEB_SHORT_GROUP:
            # workloads that must agree and do not: every repetition of them failed
            outcome["failed"] = outcome["attempted"]
            outcome["metrics"]["failed_frac"]["value"] = 1.0
            outcome["errors"].append(f"export digest differs inside {WEB_SHORT_GROUP}: {sorted(map(str, group))}")
        want = (pin or {}).get("workloads", {}).get(name)
        if want and outcome.get("export_sha256") and (
            want["export_sha256"] != outcome["export_sha256"] or want["rows_out"] != outcome["rows_out"]
        ):
            drift = True
    results["checks"] = {
        "group_digest_agrees": len(group) <= 1,
        "digest_drift": drift,
        # the layer-by-layer replay must export the same bytes as the front door
        "replay_digests_agree": not any(
            outcome["trace"].get("replay_digest_ok") is False
            for outcome in results["workloads"].values() if "trace" in outcome
        ),
    }
    return results


def driver_line(outcome: dict, bench: dict, traced: bool, correct: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if traced:
        found = (outcome.get("trace") or {}).get("metrics", {})
        metrics = {
            # a metric this workload does not exercise, or whose probe is
            # unavailable, reads 0 here; the results file keeps the null
            m["name"]: {"value": found.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": outcome["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    return json.dumps({
        "correct": correct, "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics,
    })


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """One row per (end-to-end metric, workload): medians, difference, bound, verdict."""
    side_a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    side_b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    worst = 0
    print(f"{'metric':12s} {'workload':26s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for metric in bench["end_to_end"]:
        name, bound, sign = metric["name"], metric["bound"], 1 if metric["better"] == "lower" else -1
        for workload in side_a:
            a = side_a[workload]["metrics"].get(name)
            b = side_b.get(workload, {}).get("metrics", {}).get(name)
            if not a or not b:
                print(f"{name:12s} {workload:26s} {'-':>12s} {'-':>12s} {'-':>9s} {bound:6.2f}  unresolved")
                continue
            worse = sign * (b["value"] - a["value"]) / a["value"]
            spreads = [(e["q3"] - e["q1"]) / e["median"] for e in (a, b) if "median" in e]
            if any(spread > bound for spread in spreads):
                verdict = "unresolved"
            elif worse > bound:
                verdict, worst = "regressed", 1
            else:
                verdict = "ok"
            print(f"{name:12s} {workload:26s} {_fmt(a['value']):>12s} {_fmt(b['value']):>12s} "
                  f"{worse:+9.2%} {bound:6.2f}  {verdict}")
    for workload in side_a:
        a = side_a[workload]["metrics"]["failed_frac"]["value"]
        b = side_b.get(workload, {}).get("metrics", {}).get("failed_frac", {}).get("value", 1.0)
        if b > a:
            print(f"{'failed_frac':12s} {workload:26s} {_fmt(a):>12s} {_fmt(b):>12s}  higher: regressed")
            worst = 1
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print the per-layer metrics, not the end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="rows / 20, one repetition")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out-dir", default=str(BENCH_DIR / "out"),
                        help="where results, span files and the run's temp dir go")
    parser.add_argument("--timed-child", help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.timed_child or args.traced_child:
        return child_main("timed" if args.timed_child else "traced",
                          args.timed_child or args.traced_child)
    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"bench: no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, bench)
    seconds = float(bench["run_seconds"]) if args.seconds is None else args.seconds

    if args.workload:
        reps = (0.0, TRACE_REFERENCE_REPS, TRACE_REFERENCE_REPS) if args.trace else (
            seconds, MIN_REPS, MAX_REPS
        )
        results = run_workloads([args.workload], args, bench, bool(args.trace), reps)
        outcome = results["workloads"][args.workload]
        (Path(args.out_dir) / f"results-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(results, indent=1), encoding="utf-8"
        )
        for error in outcome["errors"]:
            print(f"{args.workload}: ERROR {error}", file=sys.stderr)
        if not outcome["metrics"].get("rows_per_s"):
            return 1  # nothing was measured: no result line
        if results["checks"]["digest_drift"]:
            print(f"{args.workload}: digest_drift: true (see bench/expected.json)", file=sys.stderr)
        correct = outcome["failed"] == 0 and results["checks"]["replay_digests_agree"]
        print(driver_line(outcome, bench, bool(args.trace), correct))
        return 0

    reps = (0.0, 1, 1) if args.smoke else (seconds, MIN_REPS, MAX_REPS)
    results = run_workloads([w.name for w in WORKLOADS], args, bench, True, reps)
    print_results(results, bench)
    target = Path(args.out_dir) / ("results-smoke.json" if args.smoke else "results.json")
    target.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"results written to {target}")
    failed = sum(outcome["failed"] for outcome in results["workloads"].values())
    checks = results["checks"]
    return 0 if not failed and checks["group_digest_agrees"] and checks["replay_digests_agree"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
