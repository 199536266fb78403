# Developer entry points. Everything runs from the repository root with the
# in-tree sources on PYTHONPATH (no install step required).

PYTHON ?= python
export PYTHONPATH := src

## The one seed knob of the randomized sweeps: the same environment variable
## the tests read, so `REPRO_FUZZ_SEEDS=100 make fuzz` and `make fuzz
## REPRO_FUZZ_SEEDS=100` behave identically.
REPRO_FUZZ_SEEDS ?= 50

.PHONY: test fuzz figures docs-check examples loc reach bench-pairs all

## Tier-1 test suite (what CI gates on): everything pytest collects from
## the root — tests/, the paper-figure benchmarks/ at smoke size, and the
## benchmark contract (bench/test_bench_contract.py).
test:
	$(PYTHON) -m pytest -x -q

## Widened randomized sweep: seeds 1..$(REPRO_FUZZ_SEEDS) of every preset of
## the one fuzz harness (tests/support/harness.py: equivalence, mid-batch
## structural edits, refcount churn, sync and async crash recovery under
## fault injection, multi-session interleavings, latency chaos, and all of
## them composed), each step held to the engine-wide invariants and every
## run to a synchronous replay of its committed ledger; plus the
## read-contract and write-contract differentials over random hybrids and
## the heap's random-mix invariant sweep.  Seeded and bounded, so a failure
## replays deterministically from the seed in its assertion message.
fuzz:
	REPRO_FUZZ_SEEDS=$(REPRO_FUZZ_SEEDS) $(PYTHON) -m pytest -q \
		tests/test_equivalence_fuzz.py tests/test_durability.py tests/test_sessions.py \
		tests/test_overload.py tests/test_read_contracts.py tests/test_write_contracts.py \
		tests/test_storage.py

## Paper-figure reproductions on their own (pytest-benchmark prints each
## table; tier-1 already collects them).  Reproduction artefacts, not the
## benchmark: speed is measured by `python bench/run.py` (BENCHMARK.json,
## bench/README.md).
figures:
	$(PYTHON) -m pytest -q benchmarks

## Execute every Python snippet embedded in the docs; fails if any raises.
docs-check:
	$(PYTHON) scripts/check_docs.py README.md docs/architecture.md

## Size of the library (ROADMAP aim 2: net src/ lines go down): total
## src/ lines, then the engine facade's lines and `def` count.
loc:
	@find src -name '*.py' | xargs cat | wc -l; wc -l < src/repro/engine/dataspread.py; grep -c 'def ' src/repro/engine/dataspread.py

## Which `def`s of src/repro the system's own entry points reach (examples,
## bench/run.py smoke and traced laps, every experiment, pytest benchmarks,
## the doc snippets), which only tier-1 reaches, and which nothing does
## (~13 min; tier-1 runs under the hook).  JSON=file also writes the report.
reach:
	$(PYTHON) scripts/reach.py $(if $(JSON),--json $(JSON))

## Compare this working tree with a revision the way ROADMAP asks:
## `make bench-pairs PARENT=<rev> [WORKLOADS=a,b] [PAIRS=10] [SUMMARY=file]`
## runs alternating parent/change pairs of bench/run.py, one process at a
## time (~1 min a pair and workload), then `--compare` and per-pair ratios;
## SUMMARY also writes ratios, medians and verdicts as JSON.
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py $(PARENT) $(if $(WORKLOADS),--workloads $(WORKLOADS)) --pairs $(or $(PAIRS),10) $(if $(SUMMARY),--summary $(SUMMARY))

## Run the example walkthroughs end to end (tier-1 does not collect them;
## `make all` runs them).
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/customer_management.py
	$(PYTHON) examples/genomics_vcf.py
	$(PYTHON) examples/storage_tuning.py

all: test docs-check examples
