.PHONY: install test bench bench-kernel bench-fleet fleet-smoke table1 profile examples golden-update serve-smoke nightly all

# Run from a checkout without installing the package: every target
# imports repro from src/ (ahead of any PYTHONPATH the caller set).
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-kernel:
	python benchmarks/bench_kernel.py --output BENCH_kernel.json

bench-fleet:
	python benchmarks/bench_fleet.py --output BENCH_fleet.json

fleet-smoke:
	python benchmarks/bench_fleet.py --short --output BENCH_fleet.json

table1:
	python -m repro table1

profile:
	python -m repro.bench.profile --output bench-profile.json

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

golden-update:
	python tests/golden/update_golden.py

serve-smoke:
	python -m repro.server.smoke

nightly:
	HYPOTHESIS_PROFILE=nightly python -m pytest tests/properties -q

all: test bench table1 examples
