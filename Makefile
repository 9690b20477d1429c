GO ?= go

.PHONY: all build vet test race bench bench-guard bench-wallclock wallclock-guard snapshot-guard check attacks dfa explore explore-smoke explore-guard explore-record soak serve-soak throughput-guard throughput-record scale scale-record fuzz-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The bench package replays every experiment twice (shared parallel pass +
# serial determinism reruns); under the race detector that still outgrows
# go test's default 10-minute budget, but after the burst-path rework a
# 20-minute ceiling has ample slack.
race:
	$(GO) test -race -timeout 20m ./...

# Guard: a disabled tracer must stay within a few percent of the no-emit
# baseline (compare BenchmarkTracerDisabled to BenchmarkNoEmitBaseline).
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkTracerDisabled|BenchmarkNoEmitBaseline' -benchtime 2s ./internal/obs/

# Microbenchmarks: mem.Store COW, L2 fill, checkpoint/fork cost, and one
# fleet park/hydrate cycle (B/op and allocs/op are its bytes and allocations).
# A fixed iteration count (-benchtime 100x) keeps the run fast and
# deterministic in shape; read the ns/op numbers comparatively, not
# absolutely.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/mem/ ./internal/cache/ ./internal/check/ ./internal/fleet/

# Re-record the evaluation suite's wall-clock costs: one serial run (-j 1,
# comparable across machines), one worker-pool run (-j 0), and the
# model-checker campaign. All three land in BENCH_wallclock.json.
bench-wallclock:
	$(GO) run ./cmd/sentrybench -exp all -j 1 -wallclock BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -exp all -j 0 -wallclock BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -check -seeds 256 -wallclock BENCH_wallclock.json | tail -1

# Fail if a full suite run is >25% slower than the checked-in record, in
# either the serial or the worker-pool configuration.
wallclock-guard:
	$(GO) run ./cmd/sentrybench -exp all -j 1 -wallclock-guard BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -exp all -j 0 -wallclock-guard BENCH_wallclock.json | tail -1

# Fail if the model-checker campaign is >25% slower than the checked-in
# record. The budget was recorded with the checkpoint/fork engine on, so a
# regression in the snapshot fast path (or someone quietly disabling it)
# blows this guard.
snapshot-guard:
	$(GO) run ./cmd/sentrybench -check -seeds 256 -wallclock-guard BENCH_wallclock.json | tail -1

# Invariant model-checker: seeded campaigns against the defended system
# (must stay clean) plus the three positive controls (must each shrink to a
# minimal replayable reproducer).
check:
	$(GO) run ./cmd/sentrybench -check -seeds 256
	$(GO) run ./cmd/sentrybench -check -seeds 256 -faults benign

# run-twice writes the output of two invocations to $(1)-a.out and
# $(1)-b.out and fails unless they are byte-identical.
#   $(1) file stem, $(2) first invocation, $(3) second invocation
define run-twice
	$(2) > $(1)-a.out
	$(3) > $(1)-b.out
	diff $(1)-a.out $(1)-b.out
	@rm -f $(1)-a.out $(1)-b.out
endef

# Cache-timing adversary sweep: Prime+Probe, Evict+Reload, and the
# locked-way occupancy probe against every cache profile on both platforms.
# The insecure placement must lose (with a replayable one-line repro), the
# baseline/AutoLock/randomized defences must win on the same seeds, and the
# occupancy probe must expose way-locking on tegra3 only. Run twice and
# diffed — verdicts and repro lines must be byte-identical.
attacks:
	$(call run-twice,attacks,$(GO) run ./cmd/sentrybench -attacks -seeds 24 -j 0,$(GO) run ./cmd/sentrybench -attacks -seeds 24 -j 1)

# Adversarial fault-injection sweep: differential fault analysis against the
# victim AES engine. The undefended DRAM placement must lose its full key
# (with a replayable one-line repro); the iRAM placement and both
# fault-detecting countermeasures (redundant recompute, integrity tag) must
# win on the same seeds. Run twice at different worker widths and diffed —
# verdicts and repro lines must be byte-identical.
dfa:
	$(call run-twice,dfa,$(GO) run ./cmd/sentrybench -dfa -seeds 24 -j 0,$(GO) run ./cmd/sentrybench -dfa -seeds 24 -j 1)

# Prefix-sharing schedule explorer: per platform, one defended snapshot-tree
# sweep (must stay clean) plus the three positive controls (must each be
# defeated and shrink to a replayable repro). Seeds the sweep from the
# checked-in corpus of interesting prefixes; a missing corpus file is fine.
explore:
	$(GO) run ./cmd/sentrybench -explore -j 0 -explore-corpus EXPLORE_corpus.txt

# Determinism smoke: a -j 1 and a -j N sweep must print byte-identical
# "explore:" verdict lines (throughput "perf:" lines are exempt).
EXPLORE_SMOKE = $(GO) run ./cmd/sentrybench -explore -explore-budget 20000 $(if $(wildcard EXPLORE_corpus.txt),-explore-corpus EXPLORE_corpus.txt)
explore-smoke:
	$(call run-twice,explore-smoke,$(EXPLORE_SMOKE) -j 1 | grep '^explore:',$(EXPLORE_SMOKE) -j 0 | grep '^explore:')

# Fail if a fresh tree sweep fell >25% below the keyed "explore" record in
# BENCH_wallclock.json, or below 10x the recorded seed-replay baseline rate.
explore-guard:
	sh scripts/explore_guard.sh guard

# Re-record the explorer baselines: tree and seed-replay engines over the
# identical schedule set; fails unless the tree holds its 10x edge.
explore-record:
	sh scripts/explore_guard.sh record

# Fleet chaos soak: 32 devices under benign fault injection through the
# full service layer (actors, deadlines, retries, breakers, restarts,
# degradation). Run twice and diffed — the report must be byte-identical for
# a fixed seed — plus a race-detector pass over the fleet package.
soak:
	$(call run-twice,soak,$(GO) run ./cmd/sentrybench -fleet-soak -devices 32 -ops 300 -seed 1 -faults benign,$(GO) run ./cmd/sentrybench -fleet-soak -devices 32 -ops 300 -seed 1 -faults benign)
	$(GO) test -race -count=1 ./internal/fleet/...

# HTTP determinism: the soak workload through sentryd + sentryload, run with
# a resident cap forcing park/hydrate cycles and again unbounded; the two
# client-visible JSON reports must be byte-identical.
serve-soak:
	sh scripts/serve_soak.sh

# Open-loop serving throughput: fail if achieved ops/sec against a capped
# sentryd fell >25% below the keyed "serve" record in BENCH_wallclock.json.
# Latencies are measured from scheduled arrivals (no coordinated omission).
throughput-guard:
	sh scripts/throughput_guard.sh guard

# Re-record the serving-throughput baseline after an intentional change.
throughput-record:
	sh scripts/throughput_guard.sh record

# Fleet capacity smoke + memory guard: a mid-reshard soak must report
# byte-identically to the plain soak, two runs must print identical
# "scale:" lines (so a nondeterministic park encoding cannot slip past the
# guard on a lucky run), and the measured bytes per delta-parked device must
# stay within 25% of the keyed "scale" record in BENCH_wallclock.json. (The
# >=5x delta-vs-full floor is TestDeltaParkingShrinksParkedBytes, run by
# `test`.)
FLEET_SCALE = $(GO) run ./cmd/sentrybench -fleet-scale -devices 24 -ops 40 -seed 1
scale:
	$(call run-twice,scale,$(FLEET_SCALE) | grep '^scale:',$(FLEET_SCALE) | grep '^scale:')
	sh scripts/scale_guard.sh guard

# Re-record the parked-footprint baseline after an intentional change to
# the snapshot or delta encoding.
scale-record:
	sh scripts/scale_guard.sh record

# Short native-fuzzing burst over the PIN state machine, the cold-boot dump
# scanners, and the DFA pair classifier.
fuzz-smoke:
	$(GO) test -fuzz FuzzUnlockPIN -fuzztime 30s ./internal/kernel/
	$(GO) test -fuzz FuzzColdbootScan -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzEvictionSet -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzDFAFaultMask -fuzztime 30s ./internal/attack/

ci: vet build race bench-guard wallclock-guard snapshot-guard check attacks dfa explore-smoke explore-guard soak serve-soak throughput-guard scale
