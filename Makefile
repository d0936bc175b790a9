# Developer entry points for the Less-is-More reproduction.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test golden-check test-process test-chaos examples-smoke serve-smoke serve-smoke-uvicorn bench-pair bench-trend bench-paper bench-selftest loc loc-check

## tier-1 test suite (the CI gate)
test:
	$(PYTHON) -m pytest -x -q

## every golden episode (digests written by the parent commit's code,
## tests/data/golden_episodes_parent.json) still comes out bit for bit
golden-check:
	$(PYTHON) scripts/make_golden_episodes.py --check

## the pickling boundary the serving process backend ships runners and
## agents across, then served == sequential with an explicit 2-worker pool
test-process:
	REPRO_PROCESS_WORKERS=2 $(PYTHON) -m pytest \
		tests/test_runner_process.py tests/test_serving_equivalence.py -q

## fault-injection suite (worker kills, deadlines, degradation ladder),
## then the seeded worker-kill scenario end to end: only recoverable
## faults are injected, so `repro chaos` exits 1 if a request is lost or
## the trace artifact disagrees with telemetry about the fault hooks
test-chaos:
	REPRO_PROCESS_WORKERS=2 $(PYTHON) -m pytest \
		tests/test_serving_faults.py tests/test_serving_degrade.py -q
	$(PYTHON) -m repro chaos --process --workers 2 --seed 0 \
		--crash-rate 0.25 --exception-rate 0 --requests 64 \
		--concurrency 8 --trace-out /tmp/serving_chaos_trace.jsonl

## run the example scripts with a bounded batch (API breakage fails here)
examples-smoke:
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/quickstart.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/serving_demo.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/catalog_hotswap.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/tracing_demo.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/carbon_demo.py
	$(PYTHON) -m repro carbon --requests 16 --window 4 > /dev/null
	$(PYTHON) -m repro metrics --requests 8 > /dev/null
	$(PYTHON) -m repro catalog list
	$(PYTHON) -m repro catalog show edgehome --variant compressed > /dev/null
	$(PYTHON) -m repro catalog diff edgehome edgehome
	## variant diff exits 1 (like diff(1)) — assert exactly that
	$(PYTHON) -m repro catalog diff edgehome edgehome \
		--against-variant minimal > /dev/null; test $$? -eq 1

## boot `repro serve` on an ephemeral port, hit /healthz, /v1/call and
## /metrics over real sockets, SIGINT and assert a clean shutdown
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

## same smoke through the optional uvicorn mount (pip install uvicorn)
serve-smoke-uvicorn:
	$(PYTHON) scripts/serve_smoke.py --uvicorn

## the paper-reproduction benchmark tables/figures (26 tests, ~15 s)
bench-paper:
	$(PYTHON) -m pytest benchmarks/ -q

## the repo benchmark's own unit tests (estimator, tracer, driver form)
bench-selftest:
	$(PYTHON) -m pytest bench_e2e/tests -q

## the perf gate: paired A/B of the repo benchmark, REF's committed files
## vs the working tree, alternating order over distinct seeds; prints
## medians/quartiles/wins per metric and exits non-zero on a REGRESSION
## verdict (worse than the BENCHMARK.json bound) or an unverified run.
## No WORKLOAD = all four, in BENCHMARK.json order (CI: PAIRS=3 against
## the merge base).  A gain is claimed with the full ten pairs:
## make bench-pair REF=<sha> [WORKLOAD=http_closed_c2] [PAIRS=10]
## [SEEDS=41,42,...] — seeds default to 1..PAIRS; a claim names unused ones
PAIRS ?= 10
bench-pair:
	$(PYTHON) scripts/bench_pair.py --ref $(REF) --pairs $(PAIRS) \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEEDS),--seeds $(SEEDS))

## the kept trajectory: print BENCH_history.jsonl (one line per PR, added
## with `python3 -m bench_e2e --out report.json` then
## `scripts/bench_history.py append report.json`) and fail when the newest
## line is worse than the best of the last five comparable ones by more
## than a metric's bound
bench-trend:
	$(PYTHON) scripts/bench_history.py trend
	$(PYTHON) scripts/bench_history.py check

## lines of python per src/repro package, total last (deletion PRs
## state this before/after)
LOC_TOTAL = $$(find src/repro -name '*.py' | xargs cat | wc -l)
loc:
	@for pkg in src/repro/*/; do \
		printf '%7d %s\n' $$(find $$pkg -name '*.py' | xargs cat | wc -l) $$pkg; \
	done
	@printf '%7d %s\n' $$(cat src/repro/*.py | wc -l) 'src/repro/*.py'
	@printf '%7d total\n' $(LOC_TOTAL)

## `make loc`, failing when the src/repro total exceeds LOC_CEILING (the
## total of the last PR that moved it): growth is a visible one-line edit
## here in the PR that causes it
LOC_CEILING := 16820
loc-check: loc
	@if [ $(LOC_TOTAL) -gt $(LOC_CEILING) ]; then \
		echo "src/repro is over LOC_CEILING=$(LOC_CEILING)"; exit 1; \
	fi
