PYTHON ?= python
PYTHONPATH := src

.PHONY: test gates census check-invariants check-dependability sweep bench bench-perf \
	bench-perf-quick bench-scale bench-scale-quick bench-layers \
	bench-layers-tsch cold-start cold-fill report demo diff-core \
	diff-core-baseline dependability-baseline diff-taxonomy \
	diff-taxonomy-baseline explain-core explain-core-baseline \
	bench-taxonomy-matrix diff-taxonomy-matrix taxonomy-matrix-baseline

# Tier-1: the fast correctness suite (must always pass).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Every byte-identity gate and nothing else (~17.5 s on two cores): what a
# PR that must not change simulated behaviour runs, with no baseline
# re-recorded.
gates: diff-core explain-core diff-taxonomy diff-taxonomy-matrix check-dependability

# The reachability census tests/core/test_reachability.py enforces: per
# definition under src/repro, who keeps it alive (another module,
# benchmarks/, examples/, its own module, or an allow-list row), then
# the totals and the size of src/.
census:
	$(PYTHON) tests/core/test_reachability.py
	@find src -name '*.py' | xargs wc -l | tail -1

# The invariant-checking suite: per-checker unit tests, determinism
# regressions, and the multi-seed fault sweeps. Kept separate from
# tier-1 so its longer scenario runs don't slow the inner loop. The CLI
# sweep runs with --jobs 2 as a standing smoke of the parallel engine
# (outcomes are identical for every jobs count); REPRO_PARALLEL_FORCE=1
# routes it through the warm worker pool even on a single-core host,
# where the executor's serial fast-path would otherwise (correctly)
# skip multiprocessing entirely.
check-invariants: check-dependability explain-core diff-taxonomy-matrix
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/checking -q
	REPRO_PARALLEL_FORCE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep --seeds 10 --jobs 2
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_scale.py --identity-only >/dev/null \
		&& echo "spatial-index identity: OK (indexed medium == full scan)"

# Dependability gate: runs the declarative fault-plan scenarios (HVAC
# safety under a fault schedule + the availability probe) at the pinned
# gate seed, asserts zero violations and a non-zero availability-axis
# score, then diffs the emitted dependability/fault metrics against the
# committed baseline (same DIFF_FAIL_ON contract as diff-core).
DEPENDABILITY_BASELINE := benchmarks/results/dependability.baseline.json
check-dependability:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro dependability --export .dependability.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro diff $(DEPENDABILITY_BASELINE) .dependability.json --fail-on $(DIFF_FAIL_ON)
	rm -f .dependability.json

dependability-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro dependability --export $(DEPENDABILITY_BASELINE)
	@echo "refreshed $(DEPENDABILITY_BASELINE) — review and commit it"

# Just the CLI sweep (SEEDS=n to widen, JOBS=n to parallelize; 0 = all
# cores).
SEEDS ?= 10
JOBS ?= 1
sweep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep --seeds $(SEEDS) --jobs $(JOBS)

# The paper's experiment suite (REPRO_BENCH_JOBS=0 uses all cores for
# benchmarks wired through benchmarks/_common.py trial helpers).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The perf baseline: kernel events/sec, medium frames/sec, serial vs
# parallel trials/sec. Writes BENCH_core.json at the repo root —
# rerun before and after optimization PRs and compare. BENCH_JOBS=0
# (the default) sizes the parallel leg to all available cores.
BENCH_JOBS ?= 0
bench-perf:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_core.py --jobs $(BENCH_JOBS)

# Same bench at tier-1 scale: every leg runs (warm pool, sampled
# observability, serial-vs-parallel sweep) with reduced counts, and
# BENCH_core.json is left untouched — a seconds-long smoke that the
# perf harness itself still works.
bench-perf-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_core.py --jobs $(BENCH_JOBS) --quick

# The scale baseline: campus deployments at N=1k/10k/50k radios —
# frames/sec, events/sec, an RSS proxy, and the indexed-vs-full-scan
# speedup at N=10k (asserted >= 5x). Writes BENCH_scale.json at the
# repo root. The identity legs (indexed medium reproduces the full scan
# of the same model with its range bound undeclared, byte-for-byte) also run standalone inside check-invariants.
bench-scale:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_scale.py

# Reduced counts, tier-1 time budget; leaves BENCH_scale.json alone.
bench-scale-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_scale.py --quick

# The layered benchmark (BENCHMARK.json; what the PR driver runs): five
# workloads, end-to-end metrics and correctness checks. bench-layers-tsch
# is the scheduled-MAC grid alone with the traced pass on — the
# per-layer host-time ledger ROADMAP.md's perf items are chosen from.
bench-layers:
	python3 benchmarks/layers/run.py

bench-layers-tsch:
	python3 benchmarks/layers/run.py --workload grid_tsch_collect --seconds 4 --trace 1

# What a process pays before its first simulated event (DESIGN.md, "Cold
# start"): the best of five fresh interpreters for `import repro`
# (seconds, modules loaded, peak RSS in MB; ru_maxrss is kB on Linux),
# then the ten largest cumulative lines of -X importtime (self us |
# cumulative us | module).
cold-start:
	@for i in 1 2 3 4 5; do PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import resource, sys, time; \
		t = time.perf_counter(); import repro; s = time.perf_counter() - t; \
		rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; \
		print(f'{s:.3f} s  {len(sys.modules)} modules  {rss:.1f} MB  (import repro, best of 5)')"; \
	done | sort -n | head -1
	@PYTHONPATH=$(PYTHONPATH) $(PYTHON) -X importtime -c "import repro" 2>&1 \
		| sort -t'|' -k2 -n -r | head -10

# What campus_medium's set-up does per sender (DESIGN.md, "Scaling the
# medium"): one seeded N=10k cold pass, then per sender the radios in its
# nine cells / inside its audible disc / evaluated by the link model /
# audible, and radio.cold_frame_us. SEED=n picks the seed.
SEED ?= 2018
cold-fill:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/cold_fill.py --seed $(SEED)

# The observability dashboard: runs an instrumented demo deployment and
# prints delivery metrics, latency percentiles, duty cycles and one
# reconstructed packet-lifecycle span tree.
# EXPORT=dir additionally writes spans.jsonl/metrics.csv/trace.jsonl.
EXPORT ?=
report:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report $(if $(EXPORT),--export $(EXPORT))

demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro

# Metrics regression gate: re-runs the deterministic dashboard demo
# (fixed seed — its snapshot is byte-identical across runs) and diffs
# the exported metrics against the committed baseline.
# Any series moving more than DIFF_FAIL_ON (relative; default exact)
# fails the target — the same net that caught the delivery regression
# of the medium's heap rework. After an *intentional* behaviour change,
# refresh with make diff-core-baseline and commit the new baseline.
DIFF_FAIL_ON ?= 0.0
DIFF_CORE_BASELINE := benchmarks/results/core_metrics.baseline.json
DIFF_CORE_ARGS := --side 3 --duration 120
diff-core:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report $(DIFF_CORE_ARGS) --export .diff-core >/dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro diff $(DIFF_CORE_BASELINE) .diff-core/metrics.json --fail-on $(DIFF_FAIL_ON)
	rm -rf .diff-core

diff-core-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report $(DIFF_CORE_ARGS) --export .diff-core >/dev/null
	cp .diff-core/metrics.json $(DIFF_CORE_BASELINE)
	rm -rf .diff-core
	@echo "refreshed $(DIFF_CORE_BASELINE) — review and commit it"

# Latency-attribution gate: re-runs the deterministic demo through
# `repro explain` (same fixed config as diff-core) and exact-diffs the
# per-layer attribution table against the committed baseline — a shift
# in any layer's share of p95 latency fails the target even when the
# aggregate metrics still match.
EXPLAIN_BASELINE := benchmarks/results/explain_core.baseline.json
explain-core:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro explain --metric net.latency_s --p 95 \
		--export .explain-core.json >/dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro explain --diff $(EXPLAIN_BASELINE) .explain-core.json \
		--fail-on $(DIFF_FAIL_ON)
	rm -f .explain-core.json

explain-core-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro explain --metric net.latency_s --p 95 \
		--export $(EXPLAIN_BASELINE) >/dev/null
	@echo "refreshed $(EXPLAIN_BASELINE) — review and commit it"

# Same gate for the taxonomy capstone: re-runs the report-card bench
# with metrics export on and diffs its row snapshot against the
# committed baseline, so a silent shift in any axis score fails CI.
TAXONOMY_BASELINE := benchmarks/results/taxonomy_report.baseline.json
TAXONOMY_EXPORT := benchmarks/results/taxonomy_report.metrics.json
diff-taxonomy:
	REPRO_BENCH_EXPORT_METRICS=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_report.py --benchmark-only -q >/dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro diff $(TAXONOMY_BASELINE) $(TAXONOMY_EXPORT) --fail-on $(DIFF_FAIL_ON)
	rm -f $(TAXONOMY_EXPORT)

diff-taxonomy-baseline:
	REPRO_BENCH_EXPORT_METRICS=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_report.py --benchmark-only -q >/dev/null
	mv $(TAXONOMY_EXPORT) $(TAXONOMY_BASELINE)
	@echo "refreshed $(TAXONOMY_BASELINE) — review and commit it"

# The MAC x Trickle comparative matrix (E15): every {csma, lpl, rimac,
# tsch} x {classic, adaptive-imin, adaptive-k} combination measured on
# one grid. bench-taxonomy-matrix prints the table (REPRO_BENCH_JOBS=0
# fans the 12 cells over all cores); diff-taxonomy-matrix re-runs it
# with metrics export on and diffs every cell against the committed
# baseline — any MAC or Trickle behaviour drift fails the gate.
TAXONOMY_MATRIX_BASELINE := benchmarks/results/taxonomy_matrix.baseline.json
TAXONOMY_MATRIX_EXPORT := benchmarks/results/taxonomy_matrix.metrics.json
bench-taxonomy-matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_matrix.py --benchmark-only -q -s

diff-taxonomy-matrix:
	REPRO_BENCH_EXPORT_METRICS=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_matrix.py --benchmark-only -q >/dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro diff $(TAXONOMY_MATRIX_BASELINE) $(TAXONOMY_MATRIX_EXPORT) --fail-on $(DIFF_FAIL_ON)
	rm -f $(TAXONOMY_MATRIX_EXPORT)

taxonomy-matrix-baseline:
	REPRO_BENCH_EXPORT_METRICS=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_matrix.py --benchmark-only -q >/dev/null
	mv $(TAXONOMY_MATRIX_EXPORT) $(TAXONOMY_MATRIX_BASELINE)
	@echo "refreshed $(TAXONOMY_MATRIX_BASELINE) — review and commit it"
