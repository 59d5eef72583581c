# Convenience targets for the FRW-RR reproduction.

PYTHON ?= python3

.PHONY: install test lint lint-baseline bench bench-service bench-suite bench-micro examples experiments experiments-quick clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Determinism & cache-soundness static analysis, det-lint v2: per-file
# rules + whole-program passes, gated by the committed lint-baseline.json
# (see docs/STATIC_ANALYSIS.md).  Also emits the SARIF artifact CI uploads.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint --sarif det-lint.sarif src tests benchmarks

# Deliberately regenerate the committed baseline of accepted findings.
# Run this only when a finding has been reviewed and consciously accepted
# (or paid down) — never to make CI green.
lint-baseline:
	PYTHONPATH=src $(PYTHON) -m repro.lint --write-baseline src tests benchmarks

# Append a fresh entry to both benchmark trajectories (BENCH_engine.json,
# BENCH_extract.json): engine stage breakdown (seconds + dispatch counts,
# incl. the open_field_prefetch1 RNG-prefetch A/B baseline) + far-field
# hit rates, and the cross-master schedule comparison.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_engine.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_extract.py

# Append a fresh entry to the memoized-service trajectory
# (BENCH_service.json): load p50/p99/rps + cache hit rate + the
# interactive-vs-bulk fairness percentiles.
bench-service:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py

# Time-to-tolerance benchmark (benchmarks/suite, BENCHMARK.json): every
# workload in both modes (end-to-end metrics, then per-layer with --trace 1),
# each in a fresh interpreter; the table goes to .bench_build/suite/.
bench-suite:
	$(PYTHON) benchmarks/suite/run.py --seed 9

bench-micro:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "=== $$f ==="; $(PYTHON) $$f || exit 1; done

experiments:
	$(PYTHON) -m repro.experiments.run_all

experiments-quick:
	$(PYTHON) -m repro.experiments.run_all --quick

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks results
	find . -name __pycache__ -type d -exec rm -rf {} +
