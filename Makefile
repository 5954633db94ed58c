PYTHON ?= python

.PHONY: install lint test test-dataflow bench bench-smoke bench-ab chaos examples serve-smoke src-lines verify ci all

install:
	$(PYTHON) -m pip install -e .

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	$(PYTHON) -m pytest tests/ -q

# Dataflow chaining (docs/DATAFLOW.md): grammar/DAG/materializer units,
# the fused-vs-hand-composed hypothesis matrix, the socket-level derived
# stream surface, and the three-stage network pipeline's byte-identity
# gate against engines glued by hand.
test-dataflow:
	PYTHONPATH=src $(PYTHON) -m pytest \
		tests/seraph/test_dataflow.py \
		tests/seraph/test_materializer_oracle.py \
		tests/properties/test_prop_dataflow.py \
		tests/service/test_dataflow_service.py \
		tests/usecases/test_network.py \
		-q -m "not slow"

# The repo's one benchmark: five workloads, event to emission, every run
# checked against the denotational semantics (benchmarks/e2e/README.md).
bench:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e

# Correctness smoke of the benchmark: each workload through the command
# BENCHMARK.json declares, on a short stream.  A non-zero exit means
# wrong emissions; there is no timing gate.
bench-smoke:
	@for workload in $$($(PYTHON) -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
		echo "== $$workload"; \
		$(PYTHON) benchmarks/e2e/run.py --workload $$workload --seed 1 \
			--scale 0.02 --seconds 5 > /dev/null || exit 1; \
	done
	@echo "all workloads correct"

# Interleaved A/B against another revision, from outside the frozen
# benchmark directory: make bench-ab BASE=HEAD~1 WORKLOAD=net_paths
# [PAIRS=10] [SEED=7] (tools/bench_ab.py; ~25 s per pair; WORKLOAD=all
# loops every workload of BENCHMARK.json).  For a same-revision A/B under
# another engine config, call the tool directly: --change <rev>
# --config-b KEY=VALUE.
bench-ab:
	$(PYTHON) tools/bench_ab.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(or $(PAIRS),10) --seed $(or $(SEED),7)

# Seeded fault-injection smoke: every chaos test pins its ChaosConfig
# seed, so this run reproduces byte-for-byte on any machine.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q -m "chaos and not slow"

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src $(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

# End-to-end service smoke: boots the asyncio service on an ephemeral
# port, registers the paper's Listing 5 query, pushes the Figure 1
# stream over HTTP, and asserts the SSE emissions are byte-identical to
# an offline build_engine run (docs/SERVICE.md).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# Per-package and total line counts of src/repro against the committed
# ceiling (tools/src_lines.ceiling); CI runs it with --check.
src-lines:
	$(PYTHON) tools/src_lines.py

ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

verify: lint test bench-smoke examples serve-smoke

all: install verify
