# Developer entry points. Everything runs from the repository root with the
# in-tree sources on PYTHONPATH (no install step required).

PYTHON ?= python
export PYTHONPATH := src

## Seed counts for the widened randomized sweeps: the REPRO_* names are the
## same environment variables the tests read, so `REPRO_FUZZ_SEEDS=100 make
## fuzz` and `make fuzz REPRO_FUZZ_SEEDS=100` behave identically.
REPRO_FUZZ_SEEDS ?= 50
REPRO_CRASH_SEEDS ?= 60
REPRO_SESSION_SEEDS ?= 100
REPRO_CHAOS_SEEDS ?= 60

.PHONY: test fuzz fuzz-sessions crash-fuzz chaos-fuzz figures docs-check \
	examples loc bench-pairs all

## Tier-1 test suite (what CI gates on): everything pytest collects from
## the root — tests/, the paper-figure benchmarks/ at smoke size, and the
## benchmark contract (bench/test_bench_contract.py).
test:
	$(PYTHON) -m pytest -x -q

## Widened randomized-equivalence sweep: seeds 1..$(REPRO_FUZZ_SEEDS) of the
## unbounded structural-edit harness (sync engine vs async engine vs Sheet
## oracle; edits beyond the stored extent, above RCV anchors, and at the
## MAX_ROWS/MAX_COLUMNS boundary), of the read-contract differential
## (dense block vs get_cells vs per-cell vs get_range_values over random
## hybrids), and of its twin, the write-contract differential
## (update_cells on one copy vs a loop of update_cell on another, every
## store, every block order; the engine's bulk writers across layouts vs
## the Sheet oracle).  Seeded and bounded, so a failure replays
## deterministically from the seed in its assertion message.
fuzz:
	REPRO_FUZZ_SEEDS=$(REPRO_FUZZ_SEEDS) $(PYTHON) -m pytest -q tests/test_equivalence_fuzz.py tests/test_read_contracts.py tests/test_write_contracts.py

## Multi-session interleaving sweep: seeds 1..$(REPRO_SESSION_SEEDS) of the
## service-layer harness (N writer sessions with batches, savepoints and
## rollbacks, M reader sessions with viewports, partial drains and snapshot
## probes, all over one shared async engine); every run must converge
## post-drain to a synchronous replay of the committed ops in commit order.
fuzz-sessions:
	REPRO_SESSION_SEEDS=$(REPRO_SESSION_SEEDS) $(PYTHON) -m pytest -q tests/test_sessions.py

## Widened crash-recovery sweep: seeds 1..$(REPRO_CRASH_SEEDS) of the
## fault-injection harness (random kills mid-write, torn final frames,
## transient IO errors) against sync edits, batches, structural edits and
## the async scheduler; every run recovers the workspace and asserts exact
## equality with an oracle replayed to the last durable commit point.
crash-fuzz:
	REPRO_CRASH_SEEDS=$(REPRO_CRASH_SEEDS) $(PYTHON) -m pytest -q tests/test_durability.py

## Latency-chaos sweep: seeds 1..$(REPRO_CHAOS_SEEDS) of the overload
## harness (admission-controlled workspace under injected slow/stuck
## evaluations and stalled sessions, all on virtual time); every run must
## keep the queue depth bounded, return every deadline read on time
## (fresh or tagged-stale), reap parked transactions with their locks
## released, and converge to a synchronous replay of the committed ops.
chaos-fuzz:
	REPRO_CHAOS_SEEDS=$(REPRO_CHAOS_SEEDS) $(PYTHON) -m pytest -q tests/test_overload.py

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

## Compare this working tree with a revision the way ROADMAP asks:
## `make bench-pairs PARENT=<rev> [WORKLOADS=a,b] [PAIRS=10] [SUMMARY=file]`
## runs alternating parent/change pairs of bench/run.py, one process at a
## time (~1 min a pair and workload), then `--compare` and per-pair ratios;
## SUMMARY also writes ratios, medians and verdicts as JSON.
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py $(PARENT) $(if $(WORKLOADS),--workloads $(WORKLOADS)) --pairs $(or $(PAIRS),10) $(if $(SUMMARY),--summary $(SUMMARY))

## Run the example walkthroughs end to end.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/customer_management.py
	$(PYTHON) examples/genomics_vcf.py
	$(PYTHON) examples/storage_tuning.py

all: test docs-check
