# Test / benchmark entry points.
#
#   make smoke       tier-1 verification, exactly as ROADMAP.md specifies
#   make unit        unit tests only (tests/)
#   make benchmarks  paper figure/table reproductions only (benchmarks/)
#   make fig10       the Figure-10 check by counts: np 1 vs 2 on the engine's own
#                    pool (same export, tasks, one persistent pool; no timing)
#   make bench-batch batched-engine throughput assertions (prints the table)
#   make bench-stream streaming-engine memory assertions (prints the table)
#   make docs        regenerate docs/ops_catalog.md from the operator registry
#   make docs-check  fail when the committed catalog is out of sync (CI)
#   make validate-recipes  schema-validate every built-in recipe (no execution)
#   make lint        statically check operator contracts (repro lint)
#   make dataflow    statically verify every built-in recipe's dataflow
#   make chaos       the fault layer: deterministic fault-injection suite and policy
#                    unit tests (tests/test_chaos.py, tests/test_faults.py)
#   make ablation    the cache/checkpoint ablation: the Appendix A.2 space bound,
#                    counted in bytes on disk (no wall-clock assertion)
#   make serve-smoke end-to-end serving check: ephemeral-port server, fig8 job,
#                    warm-cache resubmission, export diff vs the CLI path
#   make loc         lines per package under src/repro + total (the number the
#                    ROADMAP's "net-negative" goal is judged by) + the engine
#                    subtotal (executor, pool, cache, checkpoint, tracer)
#   make check       docs-check + validate-recipes + lint + dataflow + unit + chaos
#                    + ablation + serve-smoke (the CI gate)

PYTEST = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest
REPRO = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro

.PHONY: smoke test unit benchmarks fig10 bench-batch bench-stream docs docs-check validate-recipes lint dataflow chaos ablation serve-smoke loc check

smoke:
	$(PYTEST) -x -q

test: smoke

unit:
	$(PYTEST) -x -q -m "not benchmark_suite" tests

benchmarks:
	$(PYTEST) -x -q -m benchmark_suite benchmarks

fig10:
	$(PYTEST) -x -q -s benchmarks/test_fig10_scalability.py

bench-batch:
	$(PYTEST) -x -q -s benchmarks/test_batch_throughput.py

bench-stream:
	$(PYTEST) -x -q -s benchmarks/test_stream_memory.py

docs:
	$(REPRO) docs-ops

docs-check:
	$(REPRO) docs-ops --check

validate-recipes:
	$(REPRO) validate-recipe --all

lint:
	$(REPRO) lint

dataflow:
	$(REPRO) dataflow --all

chaos:
	$(PYTEST) -x -q tests/test_chaos.py tests/test_faults.py

ablation:
	$(PYTEST) -x -q benchmarks/test_ablation_cache_and_checkpoint.py

serve-smoke:
	$(REPRO) serve-smoke

loc:
	@for package in src/repro/*/; do \
		printf '%7d  %s\n' $$(find $$package -name '*.py' | xargs cat | wc -l) $$package; \
	done
	@printf '%7d  %s\n' $$(cat src/repro/*.py | wc -l) 'src/repro/*.py'
	@printf '%7d  total\n' $$(find src/repro -name '*.py' | xargs cat | wc -l)
	@printf '%7d  engine subtotal: executor + pool + cache + checkpoint + tracer\n' \
		$$(cd src/repro && cat core/executor.py parallel/pool.py core/cache.py core/checkpoint.py core/tracer.py | wc -l)

check: docs-check validate-recipes lint dataflow unit chaos ablation serve-smoke
