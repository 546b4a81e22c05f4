.PHONY: install test bench bench-kernel bench-fleet fleet-smoke table1 profile examples golden-update cache-smoke serve-smoke nightly all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-kernel:
	PYTHONPATH=src python benchmarks/bench_kernel.py --output BENCH_kernel.json

bench-fleet:
	PYTHONPATH=src python benchmarks/bench_fleet.py --output BENCH_fleet.json

fleet-smoke:
	PYTHONPATH=src python benchmarks/bench_fleet.py --short --output BENCH_fleet.json

table1:
	python -m repro table1

profile:
	PYTHONPATH=src python -m repro.bench.profile --output bench-profile.json

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

golden-update:
	PYTHONPATH=src python tests/golden/update_golden.py

cache-smoke:
	PYTHONPATH=src python -m repro.core.cache.smoke

serve-smoke:
	PYTHONPATH=src python -m repro.server.smoke

nightly:
	HYPOTHESIS_PROFILE=nightly PYTHONPATH=src python -m pytest tests/properties -q
	PYTHONPATH=src python -m repro.core.cache.smoke

all: test bench table1 examples
