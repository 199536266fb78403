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

.PHONY: test fuzz fuzz-sessions crash-fuzz chaos-fuzz bench bench-async \
	bench-columnar bench-incremental bench-query bench-recovery \
	bench-sessions bench-overload docs-check examples loc all

## Tier-1 test suite (what CI gates on): everything pytest collects from
## the root — tests/, the paper-figure benchmarks/ at smoke size, and the
## benchmark contract (bench/test_bench_contract.py).
test:
	$(PYTHON) -m pytest -x -q

## Widened randomized-equivalence sweep: seeds 1..$(REPRO_FUZZ_SEEDS) of the
## unbounded structural-edit harness (sync engine vs async engine vs Sheet
## oracle; edits beyond the stored extent, above RCV anchors, and at the
## MAX_ROWS/MAX_COLUMNS boundary).  Seeded and bounded, so a failure
## replays deterministically from the seed in its assertion message.
fuzz:
	REPRO_FUZZ_SEEDS=$(REPRO_FUZZ_SEEDS) $(PYTHON) -m pytest -q tests/test_equivalence_fuzz.py

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

## Paper-figure benchmarks (slow; pytest-benchmark).
bench:
	$(PYTHON) -m pytest -q benchmarks

## Async compute scheduler benchmark on a small budget (edit-ack latency
## vs the synchronous engine; full scale runs via `make bench`).
bench-async:
	$(PYTHON) -m repro.experiments recompute-async --scale 0.2

## Incremental hot-path benchmark (PR 5): zero-rebuild interval-index
## maintenance + O(Δ) aggregate deltas vs the full-range-read baseline.
## Emits BENCH_recompute_incremental.json and fails if the steady-state
## scenario performs any index rebuild (scripts/check_bench.py guard).
bench-incremental:
	$(PYTHON) -m repro.experiments recompute-incremental --scale 0.5 \
		--json BENCH_recompute_incremental.json
	$(PYTHON) scripts/check_bench.py BENCH_recompute_incremental.json

## Columnar aggregate benchmark (PR 9): cold 1M-row SUM through the
## vectorized slab reduction vs the scalar per-cell fold (bit-identical by
## construction), plus the 10k-subscriber shared-state edit ladder with a
## mid-run storage relayout and an off-range link_table.  Runs at full
## scale — the 10x cold-build floor is only meaningful on the 1M-row
## column.  Emits BENCH_columnar.json and fails if the floor is blown,
## the builds disagree, sharing regresses, or either fallback invalidates
## a running state (scripts/check_bench.py guard).
bench-columnar:
	$(PYTHON) -m repro.experiments columnar --json BENCH_columnar.json
	$(PYTHON) scripts/check_bench.py BENCH_columnar.json

## Query subsystem benchmark: planner pushdown + streaming LIMIT vs naive
## full-region materialisation (10k/100k/1M-row ladder, scaled to 0.1
## here; full scale via `python -m repro.experiments query`), plus the
## cells a live view reads per point edit (a count; what an edit costs on
## the clock is bench/'s edit_p50_ms on query_analytics).  Emits
## BENCH_query.json and fails if the pushdown speedup floor is blown,
## either path diverges, or the live view stops refreshing reactively or
## reads more than one row of its read columns per edit
## (scripts/check_bench.py guard).
bench-query:
	$(PYTHON) -m repro.experiments query --scale 0.1 --json BENCH_query.json
	$(PYTHON) scripts/check_bench.py BENCH_query.json

## Durability benchmark: redo-replay recovery time vs log length, plus the
## checkpointed alternative.  Emits BENCH_recovery.json and fails if any
## recovered grid diverges or the checkpoint stops truncating the log.
bench-recovery:
	$(PYTHON) -m repro.experiments recovery --json BENCH_recovery.json
	$(PYTHON) scripts/check_bench.py BENCH_recovery.json

## Multi-client service benchmark: edit-ack latency and post-drain
## convergence for concurrent writer/reader sessions over one shared async
## engine, vs the synchronous single-client baseline.  Emits
## BENCH_service.json and fails if any configuration diverged from the
## committed-op replay or the ack latency ceiling is blown
## (scripts/check_bench.py guard).
bench-sessions:
	$(PYTHON) -m repro.experiments service --json BENCH_service.json
	$(PYTHON) scripts/check_bench.py BENCH_service.json

## Overload benchmark: edit-ack latency ladder under injected slow
## evaluations, with admission control on vs off.  Emits
## BENCH_overload.json and fails if the admission-on p99 ack or queue
## depth is unbounded relative to the quota, any committed edit is lost,
## or any configuration fails to converge (scripts/check_bench.py guard).
bench-overload:
	$(PYTHON) -m repro.experiments overload --json BENCH_overload.json
	$(PYTHON) scripts/check_bench.py BENCH_overload.json

## Execute every Python snippet embedded in the docs; fails if any raises.
docs-check:
	$(PYTHON) scripts/check_docs.py README.md docs/architecture.md

## Size of the library (ROADMAP aim 2: net src/ lines go down): total
## src/ lines, then the engine facade's lines and `def` count.
loc:
	@find src -name '*.py' | xargs cat | wc -l; wc -l < src/repro/engine/dataspread.py; grep -c 'def ' src/repro/engine/dataspread.py

## Run the example walkthroughs end to end.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/customer_management.py
	$(PYTHON) examples/genomics_vcf.py
	$(PYTHON) examples/storage_tuning.py

all: test docs-check
