PYTHON ?= python
PYTHONPATH := src

.PHONY: test gates gates-update census check-invariants sweep bench \
	bench-layers bench-layers-tsch bench-pairs bench-taxonomy-matrix \
	cold-start cold-fill kernel-floor never-run report demo

# Tier-1: the fast correctness suite (must always pass).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Every byte-identity gate and nothing else, in one process (~7 s): what
# a PR that must not change simulated behaviour runs. Five committed
# baselines under benchmarks/results/ — the demo's metrics (core) and
# its p95 latency attribution (explain), the taxonomy report card, the
# MAC x Trickle matrix, the fault-plan dependability scenarios — each
# reproduced from a fixed seed and compared exactly; a moved series
# fails and is named (`python benchmarks/gates.py check core` runs one).
gates:
	$(PYTHON) benchmarks/gates.py check

# After an *intentional* behaviour change: prints which series of which
# gate moved, old -> new, then re-records the baselines. Review, quote
# the table in CHANGES.md, commit.
gates-update:
	$(PYTHON) benchmarks/gates.py update

# The reachability census tests/core/test_reachability.py enforces: per
# definition under src/repro, who keeps it alive (another module,
# benchmarks/, examples/, its own module, or an allow-list row), then
# the totals; then the field census: per defaulted dataclass field, the
# files under src/, benchmarks/ and examples/ that set it, or "state";
# then the keyword census: per defaulted constructor keyword, the files
# that set it (or its allow-list row), and the totals of classes,
# keywords and defaulted keywords; then the layer census
# tests/core/test_layering.py enforces:
# per package its tier and the packages it imports; then the
# constructor surface tests/core/test_option_surface.py pins: per class
# its keywords, and their total; then the size of src/.
census:
	$(PYTHON) tests/core/test_reachability.py
	$(PYTHON) tests/core/test_layering.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/core/test_option_surface.py
	@find src -name '*.py' | xargs wc -l | tail -1

# The gates, then the invariant-checking suite: per-checker unit tests,
# determinism regressions, and the multi-seed fault sweeps. Kept
# separate from tier-1 so its longer scenario runs don't slow the inner
# loop. The CLI sweep runs with --jobs 2 and prints the same lines for
# every jobs count; on a multi-core host it goes through the warm worker
# pool, on a single-core host the executor's serial fast-path runs it
# in-process (the pool itself is exercised on any host by the tests
# that take the `multicore` fixture). Last, one seed is replayed the way
# a failing bundle would be: fully observed, it must report 0 violations.
check-invariants: gates
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/checking -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep --seeds 10 --jobs 2
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro replay --scenario partition-crdt --seed 1

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

# The layered benchmark (BENCHMARK.json; what the PR driver runs): five
# workloads, end-to-end metrics and correctness checks. bench-layers-tsch
# is the scheduled-MAC grid alone with the traced pass on — the
# per-layer host-time ledger ROADMAP.md's perf items are chosen from.
bench-layers:
	python3 benchmarks/layers/run.py

bench-layers-tsch:
	python3 benchmarks/layers/run.py --workload grid_tsch_collect --seconds 4 --trace 1

# A claimed gain, judged: PAIRS (default 10) alternating parent/change
# repetitions of WORKLOAD, each in a fresh child through that tree's own
# benchmarks/layers/run.py. PARENT=<checkout of the parent commit> (e.g.
# from git archive) and WORKLOAD=<name> are required; prints each side's
# median and quartiles of every end-to-end metric of BENCHMARK.json, the
# per-pair ratios, the wins and, per metric, whether the gain is
# claimable or else unresolved / worse / within its bound; exit 1 on any
# sim_digest or check mismatch. SEED=n picks the seed.
bench-pairs:
	python3 benchmarks/pairs.py --parent "$(PARENT)" --workload "$(WORKLOAD)" \
		$(if $(PAIRS),--pairs $(PAIRS)) --seed $(SEED)

# What a fresh process pays for one short run (DESIGN.md, "Cold start"):
# two lines, each the best of five fresh interpreters building a 3x3
# grid and running it for 60 simulated seconds — on the default unit
# disk, then on a LogDistanceModel, the only code that imports numpy —
# with seconds from the first import, modules loaded and peak RSS in MB
# (ru_maxrss is kB on Linux).
cold-start:
	$(PYTHON) benchmarks/cold_start.py

# What campus_medium's set-up does per sender (DESIGN.md, "Scaling the
# medium"): one seeded N=10k cold pass, then per sender the radios in its
# nine cells / inside its audible disc / evaluated by the link model /
# audible, radio.cold_frame_us, and one neighbourhood build's time by
# stage. SEED=n picks the seed.
SEED ?= 2018
cold-fill:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/cold_fill.py --seed $(SEED)

# What one kernel event costs and how many a run makes (DESIGN.md, "Hot
# single-trial paths"): the best of five us/event of a no-op event chain
# and of a cancel/re-arm loop, the bytes a stored span, a cached link, an
# attached radio and a pending event keep (the last three over
# campus_medium's cold fill, radios and timed section at SEED), then
# WORKLOAD's (default
# grid_csma_collect; any layered workload) timed-section
# census at SEED — events, heap pushes, pushes cancelled before they
# fired, zero-delay pushes and heap compactions, the twelve most pushed
# callbacks, and the outcome digest (sim_digest's parts without events);
# then its delivery census — per frame the receivers Medium._deliver
# walked, listeners, interferers, PRR draws and each outcome, and the
# interferer probes per listener.
kernel-floor:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/kernel_floor.py --seed $(SEED) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# What no run executes (a measurement, not a gate; ~3-5.3 min on two cores):
# every repro command, the four examples, gates.py check, kernel_floor.py,
# cold_fill.py, the five layered workloads at --scale 0.2 untraced and
# traced, and each bench_* experiment, each in a fresh child under a line
# tracer, two at a time, longest first; exports and tables go to a
# temporary directory. Prints the never-run lines of src/repro per
# contiguous block (marked `refusal` when the AST shows an error path)
# with its enclosing def, then the totals per class and per file.
never-run:
	$(PYTHON) benchmarks/never_run.py

# The observability dashboard: runs an instrumented demo deployment and
# prints delivery metrics, latency percentiles, duty cycles and one
# reconstructed packet-lifecycle span tree.
# EXPORT=dir additionally writes spans.jsonl/metrics.{csv,json}/explain.txt.
EXPORT ?=
report:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report $(if $(EXPORT),--export $(EXPORT))

demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro

# The MAC x Trickle comparative matrix (E15): every {csma, lpl, rimac,
# tsch} x {classic, adaptive-imin, adaptive-k} combination measured on
# one grid, printed as a table (REPRO_BENCH_JOBS=0 fans the 12 cells
# over all cores). The taxonomy-matrix gate pins every cell.
bench-taxonomy-matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_taxonomy_matrix.py --benchmark-only -q -s
