GO ?= go

# qsmpilint is built fresh for each lint run; go vet caches results keyed
# by the tool binary's hash, so rebuilds only re-analyze what changed.
QSMPILINT := bin/qsmpilint

.PHONY: all build test check lint lint-sarif lintbench race bench figures perfbench report-par report-shards

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast-path gate: vet everything, then run the simulator
# kernel and matching-engine suites under the race detector. The kernel's
# lockstep discipline (exactly one simulated entity runs at a time) is
# what lets every pool and cache in the stack go lock-free, so these two
# packages are the ones that must stay race-clean. The experiments and
# parsweep suites run under -race too: they are where whole simulations
# execute concurrently, so any state shared between two kernels shows up
# there. The obs and trace suites carry the observability invariants:
# the golden cross-layer timelines, the proof that an attached tracer
# (or watchdog) never moves virtual time, the profiler's telescoping
# guarantee (phase durations sum exactly to end-to-end latency) and the
# watchdog's stall detection.
check: lint
	$(GO) test -race ./internal/simtime/... ./internal/pml/...
	$(GO) test -race ./internal/experiments ./internal/parsweep
	$(GO) test -race -count=1 ./internal/obs ./internal/trace

# lint runs go vet with the repo's own analyzer suite loaded on top of
# the standard checks: detclock, maporder, kernelown, pooluse, tracecorr,
# reqlife and collorder, plus the //lint:allow suppression audit (see
# internal/lint and DESIGN.md §9). The suite turns the simulator's
# determinism, ownership, pooling and MPI-protocol invariants into build
# failures; collorder's CallsCollective facts flow between compilation
# units through the vetx files.
lint:
	$(GO) vet ./...
	$(GO) build -o $(QSMPILINT) ./cmd/qsmpilint
	$(GO) vet -vettool=$(QSMPILINT) ./...

# lint-sarif writes the machine-readable report the nightly CI uploads.
# The standalone driver shards packages across GOMAXPROCS workers; output
# is byte-identical at any parallelism.
lint-sarif:
	$(GO) run ./cmd/qsmpilint -sarif -o lint.sarif ./...

# lintbench records the lint suite's serial-vs-sharded wall-clock in the
# lint section of BENCH_wallclock.json (other sections untouched).
lintbench:
	$(GO) run ./cmd/perfbench -lintbench -out BENCH_wallclock.json

# race runs the entire test suite under the race detector — the nightly
# CI gate. check covers the concurrency-critical packages on every push;
# this covers everything.
race:
	$(GO) test -race ./...

# report-par proves the parallel sweep engine's determinism invariant
# end to end: the replication report must be byte-identical at -j 1 and
# -j (one worker per core).
report-par:
	$(GO) run ./cmd/report -j 1 > /tmp/qsmpi-report-j1.md
	$(GO) run ./cmd/report > /tmp/qsmpi-report-jN.md
	diff /tmp/qsmpi-report-j1.md /tmp/qsmpi-report-jN.md
	@echo "report output identical at -j 1 and -j N"

# report-shards proves the sharded conservative kernel's identity
# contract end to end (DESIGN.md §7.2): one simulation partitioned over
# 4 PDES shards must produce the byte-identical replication report. The
# per-scenario bit-exact check, including the known drift the report's
# rounding hides, is TestScenarioIdentity in internal/experiments.
report-shards:
	$(GO) run ./cmd/report -shards 1 > /tmp/qsmpi-report-s1.md
	$(GO) run ./cmd/report -shards 4 > /tmp/qsmpi-report-s4.md
	diff /tmp/qsmpi-report-s1.md /tmp/qsmpi-report-s4.md
	@echo "report output identical at -shards 1 and -shards 4"

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

figures:
	$(GO) run ./cmd/elan4bench
	$(GO) run ./cmd/ompibench

perfbench:
	$(GO) run ./cmd/perfbench -out BENCH_wallclock.json
