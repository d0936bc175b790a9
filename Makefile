# Developer entry points for the Less-is-More reproduction.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test golden-check test-chaos examples-smoke serve-smoke serve-smoke-uvicorn bench-pair bench-trend bench-paper bench-selftest loc loc-check reach

## tier-1 test suite (the CI gate)
test:
	$(PYTHON) -m pytest -x -q

## every golden episode (digests written by the parent commit's code,
## tests/data/golden_episodes_parent.json) still comes out bit for bit
golden-check:
	$(PYTHON) scripts/make_golden_episodes.py --check

## fault-injection suite (stalled batches, deadlines, the serving
## ladder), the gateway state machine, the bulk PCG64 seeding check,
## the Search-Level kernels against their oracles (bit-parallel ROUGE-L
## LCS, merge loop under all four linkages) and the request path's
## numpy kernels against their plain forms under the longer randomized
## `chaos` Hypothesis profile (tests/conftest.py), then the two committed chaos specs end to end
## through `repro load`.  Every load run exits 1 if telemetry does not
## account for every offered request or the trace artifact's fault spans
## disagree with telemetry about the hooks; chaos_stall.json injects only
## recoverable faults, so it also exits 1 if a request is lost;
## chaos_deadline.json arms a deadline a stalled batch outlives, so its
## last faults fire after every client has given up
test-chaos:
	$(PYTHON) -m pytest tests/test_serving_faults.py tests/test_serving_degrade.py -q
	$(PYTHON) -m pytest tests/test_serving_state_machine.py \
		tests/test_utils_rng.py tests/test_levels_kernels.py \
		tests/test_numpy_kernels.py -q \
		--hypothesis-profile=chaos
	$(PYTHON) -m repro load --spec examples/specs/chaos_stall.json \
		--requests 64 --concurrency 8
	$(PYTHON) -m repro load --spec examples/specs/chaos_deadline.json \
		--requests 64 --concurrency 8

## run the example scripts with a bounded batch (API breakage fails here)
examples-smoke:
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/quickstart.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/serving_demo.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/catalog_hotswap.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/tracing_demo.py
	REPRO_EXAMPLE_QUERIES=4 $(PYTHON) examples/carbon_demo.py
	$(PYTHON) -m repro load --carbon-budget 150 --requests 16 > /dev/null
	$(PYTHON) -m repro load --requests 8 --prometheus > /dev/null
	$(PYTHON) -m repro run --suite edgehome -n 4 > /dev/null
	$(PYTHON) -m repro grid --suite edgehome -n 4 > /dev/null
	$(PYTHON) -m repro compare --suite edgehome -n 4 > /dev/null
	$(PYTHON) -m repro levels --suite edgehome -n 4 > /dev/null
	$(PYTHON) -m repro profile > /dev/null
	$(PYTHON) -m repro catalog list
	$(PYTHON) -m repro catalog show edgehome --variant compressed > /dev/null
	$(PYTHON) -m repro catalog diff edgehome edgehome
	## variant diff exits 1 (like diff(1)) — assert exactly that
	$(PYTHON) -m repro catalog diff edgehome edgehome \
		--against-variant minimal > /dev/null; test $$? -eq 1

## boot `repro serve` on an ephemeral port with a simulated tenant and an
## openai_http one (against an in-process mock engine), hit /healthz,
## /v1/call, /metrics and the tenant routes over real sockets, SIGINT and
## assert a clean shutdown
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
## with `python3 -m bench_e2e --out report.json`, `scripts/bench_pair.py
## --ref <parent> --pairs 3 --out pair.json`, then `scripts/bench_history.py
## append report.json pair.json`) and fail when the product of the last
## five lines' tree/parent ratios is worse than a metric's bound
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
LOC_CEILING := 14470
loc-check: loc
	@if [ $(LOC_TOTAL) -gt $(LOC_CEILING) ]; then \
		echo "src/repro is over LOC_CEILING=$(LOC_CEILING)"; exit 1; \
	fi

## which src/repro functions a shipped path reaches: the examples and
## serve smokes, the chaos specs, golden-check, `bench_e2e --quick` and
## bench-paper, then tier-1, all under a profiling hook in a temporary
## copy of the tree; fails on a function only tier-1 (or nothing)
## reaches that is not on scripts/reach.py's ALLOWLIST (~5 min)
reach:
	$(PYTHON) scripts/reach.py
