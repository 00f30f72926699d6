GO ?= go
FUZZTIME ?= 10s
STATICCHECK ?= staticcheck

.PHONY: all build test bench-test fmt vet staticcheck race check-race bench ledger bench-snapshot bench-wire bench-shard bench-reconfig bench-pairs benchstat fuzz chaos conform conform-sessions store health health-exp cover loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the tests of the two-clock benchmark. benchmark/ is a
# module of its own (the root `go test ./...` skips it), and its tests are
# the only place the same-seed byte-identity of the virtual clock is pinned.
# TestFigurePointsMatchPR8 is skipped since PR 13 ("one write per pump"): it
# pins fig9/fig10 to BENCH_PR8's 9.07 / 2.12 ops/µs. PR 13 moved them to
# 9.63 / 2.40 and PR 17 ("one round per sync group") moved fig10 on to 3.06,
# both on purpose and both with benchmark/ frozen (PR 18, which builds no F
# buffers for a class without an irreducible conflict-free method, moved fig10
# to 3.12 and left fig9 at 9.62; PR 19, one write per δ-run, moved neither;
# PR 20, one broadcast record per round trip, moved fig9 to 13.44). The next
# benchmark PR re-pins the test to BENCH_PR20.json and drops the skip.
bench-test:
	cd benchmark && $(GO) test -skip TestFigurePointsMatchPR8 ./...

# fmt fails when any file is not gofmt-clean, and names the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available and degrades to a notice
# otherwise (the gate must not require network access to install tools).
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck not installed; skipping (go vet still gates)"; \
	fi

race:
	$(GO) test -race ./...

# check-race is the standalone race-detector lane CI runs in parallel with
# the main gate: build plus the full test suite under -race, uncached so
# every run actually exercises the detector.
check-race: build
	$(GO) test -race -count=1 ./...

# chaos replays the committed fixed-seed plan corpus (including the three
# join/leave reconfiguration plans) and the randomized acceptance sweep
# through the nemesis runner, plus the membership-change acceptance tests
# (round-trip convergence, a leader kill mid-epoch-transition, pair-aware
# shrinking). Failing plans are shrunk and dumped as replayable JSON next
# to the test binary's working dir (see `hambench -exp chaos -plan-json`).
# TestFingerprints compares every one of those plans' trace hash and counts
# with testdata/chaos/fingerprints.golden, i.e. with earlier commits.
chaos:
	$(GO) test -run 'TestCorpus|TestRandomizedPlans|TestShardMixConverges|TestShardFaultIsolation|TestReconfig|TestFingerprints' -count=1 -v ./internal/chaos

# conform runs the refinement conformance gate: the fixed-seed corpus
# (fault-free and fault-plan workloads across the counter/orset/bankmap
# classes, checked deterministic) plus the harness's own mutation test (an
# injected apply-order bug must be caught and shrunk to <= 8 calls), the
# sharded plans checked per shard with their cross-wire mutation control,
# and the corpus fingerprints (hashes and report counts pinned across
# commits). See `hambench -exp conform` for the exploratory version.
conform:
	$(GO) test -run 'TestConformCorpus|TestMutated|TestSharded|TestCrossWire|TestRunChecks|TestShrinkSharded|TestFingerprints' -count=1 -v ./internal/conform

# conform-sessions runs the client-session gate: the session-guarantee
# checker's unit histories, live sessions across an epoch change (monotonic
# reads, read-your-writes, writes-follow-reads spanning replica switches),
# the stale-read mutation control (must be caught and shrunk to <= 6
# events), and sessions dealt over the shards of a shard_mix fault plan
# with its own stale-read control.
conform-sessions:
	$(GO) test -run 'TestSession|TestStaleRead' -count=1 -v ./internal/conform

# store runs the sharded multi-object store gate: exact footprint
# accounting against the per-node arena, typed budget errors, freed-memory
# reuse under concurrent open/close, cross-shard doorbell coalescing and
# shard-tagged trace decomposition.
store:
	$(GO) test -count=1 -v ./internal/store

# health runs the introspection gate: the watchdog rule unit tests and the
# zero-alloc snapshot guarantee (internal/health), the fault-plan
# cross-check over the chaos corpus (every firing predicted by an injected
# fault, fault-free runs silent, schedules unperturbed), the metrics-export
# completeness pin, and the fixed-seed `-exp health` run itself (health-exp:
# nonzero exit on unexpected firings, an unobserved fault run, or a noisy
# control — the one step of the named gates that no test covers).
health: health-exp
	$(GO) test -count=1 -v ./internal/health
	$(GO) test -run 'TestWatchdog|TestKindRules' -count=1 -v ./internal/chaos
	$(GO) test -run 'TestMetricsExportCompleteness' -count=1 -v ./internal/bench

health-exp:
	$(GO) run ./cmd/hambench -exp health -ops 600

# cover prints per-package statement coverage so test gaps stay visible.
cover:
	$(GO) test -cover ./... | grep -v 'no test files'

# loc is the ruler simplicity PRs share: non-test Go lines (blank and comment
# lines included) per package of the root package, internal/ and cmd/, and
# their total — 21 802 at commit 38555bf. Files a build constraint excludes
# are not counted.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' . ./internal/... ./cmd/... | \
		while read pkg dir files; do echo "$$(cd $$dir && cat $$files | wc -l) $$pkg"; done | \
		awk '{ printf "%6d %s\n", $$1, $$2; t += $$1 } END { printf "%6d total\n", t }'

# check is the full pre-merge gate: tier-1 build + tests (the benchmark
# module's included), the gofmt gate, static analysis, the race detector, a
# short fuzz budget over the wire-format parsers and the fixed-seed health
# experiment. The chaos, conform, conform-sessions, store and health targets
# are selections of the tests `test` and `race` already run (the plan
# corpora included), so check does not run them a third time; they stay as
# the entry points of the CI lanes and for running one gate alone.
check: build fmt vet staticcheck test bench-test race fuzz health-exp

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/metrics ./internal/ring

# ledger prints the virtual-CPU ledgers: µs of simulated CPU per call by call
# site (post, CQE, deliver, apply, polls, accept, head and heartbeat reads).
# TestLeaderLedger is the Fig. 10 point, for the group-0 leader and for a node
# that leads nothing, under Hamband and under the SMR baseline; TestStoreLedger
# is one node of a 16-shard store under the store-zipf shape, for counter
# shards (no polls row: no F or L buffers) and for OR-set shards at 4 and 16
# (the per-shard pollers that are left); TestReduceLedger is one node on the
# reducible path, gset with all updates and counter with a quarter, with the
# WRs, chains and δ-records per summary write; TestFreeLedger is one node on
# the buffered path (orset, a quarter updates), with the calls per broadcast
# message and the ring records per write. The rows are checked against
# sim.CPU.BusyTotal.
ledger:
	$(GO) test -run 'Test(Leader|Store|Reduce|Free)Ledger' -count=1 -v ./internal/bench

# bench-snapshot regenerates the canonical benchmark snapshot committed at
# the repo root (deterministic: same ops+seed give identical bytes).
SNAPSHOT ?= BENCH_PR22.json
bench-snapshot:
	$(GO) run ./cmd/hambench -exp snapshot -snapshot-out $(SNAPSHOT)

# bench-wire runs the wire-efficiency study: δ bytes on the wire per op,
# throughput and wire-stage latency share per class.
bench-wire:
	$(GO) run ./cmd/hambench -exp wire

# bench-shard runs the sharded-store experiment: object-count and Zipfian
# skew sweeps with hot-key reporting and cross-shard chained-WR counts.
SHARDS ?= 16
bench-shard:
	$(GO) run ./cmd/hambench -exp shard -shards $(SHARDS)

# bench-reconfig runs the membership-change experiment: windowed throughput
# around a leave/join round-trip with dip and recovery-time reporting.
bench-reconfig:
	$(GO) run ./cmd/hambench -exp reconfig

# bench-pairs is the paired measurement a host-time claim needs
# (benchmark/README.md, "Host time on the sandbox"): it exports REF with git
# archive under .bench_build/, runs `bash benchmark/run.sh --trace 0` there and
# in the working tree in alternating order, PAIRS times each on the same SEED,
# and prints per end-to-end metric both medians and quartiles, the pairs the
# working tree won, and whether the virtual values are byte-identical.
REF ?= HEAD
WORKLOAD ?= reduce-gset-write
PAIRS ?= 10
SEED ?= 42
bench-pairs:
	$(GO) run ./scripts/benchpairs -ref $(REF) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# benchstat compares two snapshots: make benchstat OLD=a.json NEW=b.json.
# MAXREGRESS, when nonzero, fails the target if any matched point's throughput
# drops, or its p99 rises, by more than that percentage — the CI regression gate.
OLD ?= BENCH_PR22.json
NEW ?= BENCH_PR22.json
MAXREGRESS ?= 0
benchstat:
	$(GO) run ./cmd/hambench -exp benchstat -old $(OLD) -new $(NEW) -max-regress $(MAXREGRESS)

# Each fuzz target gets a short fixed budget; go test only allows one
# -fuzz pattern per package invocation.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReaderPoll -fuzztime=$(FUZZTIME) ./internal/ring
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRaw -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDeltaEntry -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzPlanJSON -fuzztime=$(FUZZTIME) ./internal/chaos
