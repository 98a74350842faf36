# Tier-1 check: everything builds, every test passes.
.PHONY: test
test:
	go build ./... && go test ./...

# The program's packages: everything but the benchmark harness. bench/ is
# frozen by BENCHMARK.json (a change the benchmark measures may not edit
# it), and the race pass cannot run over it as committed: its quick-plan
# test runs the four workloads concurrently over the reference kernel's
# package-level scratch (a reported race, and > 10 min under the detector).
# The analyzers' exclusion of bench (a probe's deferred Close is an errdrop
# finding) lives in the root package's TestStaticAnalysis. bench's own tests
# run in tier-1 (`go test ./...`) and `bench-e2e-smoke` drives it for real.
PROGRAM_PKGS = $$(go list ./... | grep -v '^ratel/bench$$')

# Tier-2 check: race-detector pass over the program's packages.
.PHONY: race
race:
	go test -race $(PROGRAM_PKGS)

# Portable-fallback pass: rerun the kernel-consuming suites with the SIMD
# dispatch vetoed, proving the generic reference path stays green (the
# exact code non-amd64 builds and RATEL_NOSIMD=1 deployments run).
.PHONY: test-nosimd
test-nosimd:
	RATEL_NOSIMD=1 go test -count=1 ./internal/tensor/... ./internal/nn ./internal/opt ./internal/engine

# Core-count matrix: the allocation pins (every test named *Alloc*: codec
# Into paths, cache round trip, step pins, the matmuls' packed-panel pin
# TestMatMulIntoAllocs, the GELU lookup's TestGELUAllocs, the checkpoint's
# TestSaveCheckpointAllocs: save and load independent of model size), the optimizer state
# pipeline's tests, the array's ticket tests (every test named *Ticket*:
# Start/Wait against Put/ReadInto, a fault at Wait, a span that ends with the
# transfer, a ticket across Close), the Adam wire walk's and the Adam kernel's equivalence
# tests, the causal-attention equivalence tests (the view products against
# the contiguous full products, attention against its full-square reference),
# the tier-against-tier tests (tiles, whole matmuls and a loss trace under
# every vector level the machine has), the thread-count tests of the kernels
# that fan out (*AcrossThreads, TestParallelKernelParity), the test that the
# element-wise ones never do (TestElementwiseKernelsNeverDispatch) and the step
# arena's tests (every test named *Arena*: the allocator's own, the poisoned,
# failed-step, lifetime and bound tests, the four workload shapes on arena
# tensors under every level with the heads fanned out) and the array's batch
# tests (every test named *ArrayBatch*: a batch's layout, a fault mid-batch,
# every object in flight, and the engine's checkpoint round trip through
# batched state I/O), the resident-set tests (every test named *Resident*:
# the state window's resident pieces — which pieces, their load, write-back
# and restore — and the activation ring's resident blocks), the narrow
# moments' tests (the codec against its reference on every level, every
# change of a piece's form against AdamStep, an array overwrite that keeps
# its stripes) and the 13-bit Δ's (every int16 distance through each level's
# walk body, the packers against their reference) under GOMAXPROCS 1, 2 and
# 4, uncached.
# A pin that holds on one core count only (the seed's
# TestCacheRoundTripAllocs did) is not a pin. A pattern that no longer
# matches any test fails the target instead of silently shrinking the matrix.
TEST_PROCS_PATTERNS = Alloc Pipeline Ticket Prefetcher ReadinessBitIdentical StreamingBitIdentity AdamWire AdamBitIdentical ViewProducts AttentionBitIdentical TiersBitIdentical AcrossThreads ParallelKernelParity NeverDispatch Arena ArrayBatch Resident Narrow FormFallback OverwriteKeepsStripes Delta13
TEST_PROCS_PKGS = ./internal/opt ./internal/engine ./internal/nvme ./internal/tensor/... ./internal/nn
.PHONY: test-procs
test-procs:
	@for pat in $(TEST_PROCS_PATTERNS); do \
		go test -list "$$pat" $(TEST_PROCS_PKGS) | grep -q '^Test' || \
			{ echo "test-procs: pattern '$$pat' matches no test" >&2; exit 1; }; \
	done
	@for p in 1 2 4; do \
		echo "test-procs: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p go test -count=1 \
			-run "$$(echo $(TEST_PROCS_PATTERNS) | tr ' ' '|')" \
			$(TEST_PROCS_PKGS) || exit 1; \
	done

# Static analysis over the whole module, plus the tensor packages as a
# non-amd64 build sees them: the portable dispatch file must define every
# entry point the amd64 one does (asmdecl already checks the amd64 frames).
.PHONY: vet
vet:
	go vet ./...
	GOOS=linux GOARCH=arm64 go vet ./internal/tensor/...

# Tier-2 umbrella: go vet + line-budget ratchet + race detector +
# portable-fallback pass + core-count matrix + fuzz smoke + one-iteration
# benchmark smoke (benchmarks must at least run) + the end-to-end harness's
# own smoke + snapshot-integrity gate. The repo's analyzers (errdrop, simdet,
# unitsafe) are a tier-1 test, TestStaticAnalysis, so `go test ./...` runs
# them.
.PHONY: check
check: vet loc-gate race test-nosimd test-procs fuzz-smoke bench-smoke bench-e2e-smoke bench-gate

# Fuzz smoke: ten seconds of each of the module's fuzz targets (ROADMAP item
# 6) — activation blobs of any length and content against blobArena.decode
# into arena tensors between guard words, checkpoint streams against
# LoadCheckpoint on one engine (an accepted one saves back to its bytes, a
# refused one left the engine as its twin or latched it until the good
# checkpoint is loaded), postmortem documents of any content against
# trace.ReadFlightDump, which must round-trip what it accepts, and state
# pieces of any content in any form and table counts against the optimizer's
# gather and update, which decode or refuse them the same whatever lies past
# them — on one worker;
# the committed corpus is their f.Add seeds and runs in tier-1. A failing input lands in the package's testdata/fuzz and fails
# `go test` from then on. Minimizing each coverage-widening input is capped at
# a second: at the default minute the first one found eats the whole smoke (19
# executions in 10 s against 20,000).
FUZZ_SMOKE = go test -run '^$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1
.PHONY: fuzz-smoke
fuzz-smoke:
	$(FUZZ_SMOKE) -fuzz '^FuzzDecodeTensors$$' ./internal/engine
	$(FUZZ_SMOKE) -fuzz '^FuzzLoadCheckpoint$$' ./internal/engine
	$(FUZZ_SMOKE) -fuzz '^FuzzReadFlightDump$$' ./internal/trace
	$(FUZZ_SMOKE) -fuzz '^FuzzStatePiece$$' ./internal/opt

# Snapshot-integrity gate: every committed BENCH_*.json must parse and
# self-diff clean at zero tolerance, so the diff tool and the snapshot
# schema can't drift apart. Compare a fresh run against a snapshot with
#   go run ./cmd/ratelbench -tol 0.1 diff BENCH_x.json new.json
.PHONY: bench-gate
bench-gate:
	@for f in BENCH_*.json; do \
		echo "bench-gate: $$f"; \
		go run ./cmd/ratelbench -tol 0 diff $$f $$f || exit 1; \
	done

# Kernel micro-benchmarks (BENCH_kernels.json is a committed snapshot):
# square matmuls, the three matmul variants at every BENCHMARK.json
# workload's Linear and attention shapes on 1 and NumCPU threads (and on one
# thread pinned to each vector level below the selected one), the fp16
# codec and Adam; then, on one core, the measured FMA ceiling the matmul rows
# are read against (BenchmarkFMAPeak: ymm, and zmm where the machine has it),
# the kernels that run inline at every workload's size — the GELU tables
# against the scalar formula, the Adam wire walk against decode + AdamStep +
# encode — and one attention layer's forward + backward at every workload's
# geometry.
.PHONY: bench-kernels
bench-kernels:
	go test -run '^$$' -bench 'BenchmarkMatMul_|BenchmarkGEMMShapes|BenchmarkAdamStep_|BenchmarkFP16' -benchmem ./internal/tensor ./internal/opt
	go test -run '^$$' -bench 'BenchmarkFMAPeak|BenchmarkGELU|BenchmarkAdamWire|BenchmarkAttention' -benchmem -cpu 1 ./internal/tensor/... ./internal/opt ./internal/nn

# Activation I/O overlap benchmark: no overlap (the oracleSyncIO test hook)
# vs write-behind/read-ahead at depth 1 and 3 under Table III-shaped device
# throttles, on one core (BENCH_overlap.json is a committed snapshot).
.PHONY: bench-overlap
bench-overlap:
	go test -run '^$$' -bench 'BenchmarkTrainStepOverlap' -benchtime=15x -benchmem -cpu 1 ./internal/engine

# Transfer-scheduler benchmark: the FCFS single-lane test oracle vs the
# production duplex coalescing lanes on a mixed
# activation+optimizer trace at Table III-shaped device throttles, at the
# default depth and at depth 1 (BENCH_sched.json is a committed snapshot).
.PHONY: bench-sched
bench-sched:
	go test -run '^$$' -bench 'BenchmarkTrainStepSched' -benchtime=30x -benchmem ./internal/engine

# Optimizer scheduling benchmark: the state pipeline under each gradient
# schedule — streaming (Optimized, overlapping backward), naive and
# serialized — at the same Table III-shaped device throttles, on one core;
# the timed loop starts and ends at a join, so the write-back that trails
# each step is inside it (BENCH_optimizer.json is a committed snapshot).
.PHONY: bench-optimizer
bench-optimizer:
	go test -run '^$$' -bench 'BenchmarkTrainStepOptSchedule' -benchtime=15x -benchmem -cpu 1 ./internal/engine

# Line budget of the three ratcheted groups (ROADMAP items 5 and 10): the three
# data-path packages, then the kernel stack — non-test Go lines per package
# (for internal/tensor/simd, Go and assembly) — then the analyzers that guard
# them (internal/analysis/..., testdata excluded, one figure),
# each group's sum against its baseline in loc-baseline.txt (one `group total`
# line each), then — ungated — the whole module's non-test lines, so a line
# that was moved rather than deleted shows in the same output. LOC_COUNT
# counts the package directory in the shell variable $$d.
LOC_PKGS = internal/engine internal/nvme internal/opt
LOC_KERNEL_PKGS = internal/tensor internal/tensor/simd internal/tensor/pool internal/nn
LOC_COUNT = ls $$d/*.go $$d/*.s 2>/dev/null | grep -v '_test\.go$$' | xargs cat | wc -l
LOC_UNDER = -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l
LOC_ANALYZERS = find internal/analysis $(LOC_UNDER)
LOC_MODULE = find . $(LOC_UNDER)
# LOC_GROUP prints the packages of one group ($$1 its name in
# loc-baseline.txt, the rest its directories) and fails when their total
# exceeds that baseline; LOC_GATE is the comparison alone, on $$group and
# $$total.
LOC_GROUP = group=$$1; shift; total=0; for d in "$$@"; do \
		n=$$($(LOC_COUNT)); \
		printf '%-24s %5d\n' $$d $$n; total=$$((total + n)); \
	done; $(LOC_GATE)
LOC_GATE = \
	base=$$(awk -v g=$$group '$$1 == g { print $$2 }' loc-baseline.txt); \
	printf '%-24s %5d  (baseline %s)\n' "$$group total" $$total "$$base"; \
	if [ "$$total" -gt "$${base:-0}" ]; then \
		echo "loc-gate: $$group total $$total exceeds the committed baseline $$base — delete the difference or justify raising loc-baseline.txt" >&2; \
		exit 1; \
	fi

# Line-budget ratchet: no group's total may grow past its committed
# baseline (loc-baseline.txt). Delete code freely and lower the baseline;
# raising it requires the justification in review.
.PHONY: loc-gate
loc-gate:
	@set -- datapath $(LOC_PKGS); $(LOC_GROUP)
	@set -- kernels $(LOC_KERNEL_PKGS); $(LOC_GROUP)
	@group=analyzers; total=$$($(LOC_ANALYZERS)); $(LOC_GATE)

.PHONY: loc
loc: loc-gate
	@printf '%-24s %5d  (every non-test .go file)\n' module $$($(LOC_MODULE))

# Every benchmark in the module at measurement settings.
.PHONY: bench
bench:
	go test -run '^$$' -bench . -benchmem ./...

# Smoke: run every benchmark exactly once so they can't rot. Wired into
# `make check` (and CI through it).
.PHONY: bench-smoke
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x ./...

# Smoke of the end-to-end benchmark harness (BENCHMARK.json): five steps of
# each of the four workloads with every correctness check, no probes, ~20 s.
# It measures nothing; it proves `go run ./bench` still drives the engine.
.PHONY: bench-e2e-smoke
bench-e2e-smoke:
	go run ./bench -quick -out /dev/null
