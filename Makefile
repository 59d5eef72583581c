# Convenience targets for the FRW-RR reproduction.

PYTHON ?= python3

.PHONY: install test lint bench-suite bench-micro examples experiments experiments-quick clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Determinism & cache-soundness static analysis, det-lint v2: per-file
# rules + whole-program passes; every unsuppressed finding fails (see
# docs/STATIC_ANALYSIS.md).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tests benchmarks

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
