"""Shared helpers for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation (Sec. 7 / appendix).  Each benchmark uses the
``pytest-benchmark`` fixture with a single round — the point is to reproduce
the *rows/series* the paper reports (and assert their qualitative shape), not
to micro-benchmark the code.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_collection_modifyitems(items):
    """Mark every test in this directory so the suites can run separately.

    ``pytest -m "not benchmark_suite"`` runs only the unit tests under
    ``tests/``; ``pytest -m benchmark_suite`` (or ``pytest benchmarks``) runs
    only the paper reproductions (see the Makefile targets).  The hook
    receives the whole session's items, so mark only the ones under this
    directory.
    """
    here = Path(__file__).parent
    for item in items:
        if here in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.benchmark_suite)


@pytest.fixture(autouse=True)
def _writes_nothing_to_the_working_directory(tmp_path_factory, monkeypatch):
    """Every benchmark runs in an empty working directory, which it must leave
    empty: what it writes (an ``Executor``'s ``work_dir``, whose default is
    ``./outputs``, included) belongs under its own ``tmp_path``."""
    here = tmp_path_factory.mktemp("cwd")
    monkeypatch.chdir(here)
    yield
    written = sorted(path.name for path in here.iterdir())
    assert not written, f"the benchmark wrote {written} into its working directory"


def print_table(title: str, rows: list[dict]) -> None:
    """Print a list of row dicts as an aligned text table under a title."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def best_of_interleaved(legs: dict, seconds, repetitions: int = 3) -> dict:
    """Each leg's fastest result over ``repetitions`` interleaved rounds (A B A B …).

    A single-shot comparison of two legs reads the host's drift of the moment
    as a difference between them; interleaving exposes both legs to the same
    drift and the minimum discards the rounds it slowed.  ``legs`` maps a name
    to a zero-argument callable, ``seconds`` reads the time off its result.
    """
    best: dict = {}
    for _round in range(repetitions):
        for name, run in legs.items():
            result = run()
            if name not in best or seconds(result) < seconds(best[name]):
                best[name] = result
    return best


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the pytest-benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def report_claims(title: str, claims: dict[str, bool]) -> None:
    """Print each paper claim as measured here or not shown by the measurement."""
    print(f"\n--- {title}: paper claims ---")
    for claim, shown in claims.items():
        print(f"  [{'measured' if shown else 'NOT SHOWN'}] {claim}")
