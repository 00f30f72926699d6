GO ?= go
FUZZTIME ?= 10s
STATICCHECK ?= staticcheck

.PHONY: all build test bench-test fmt vet staticcheck race check-race bench allocs ledger bench-snapshot bench-same bench-wire bench-shard bench-reconfig bench-pairs benchstat fuzz relations chaos conform conform-sessions mutants store health health-exp torn cover loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the tests of the two-clock benchmark. benchmark/ is a
# module of its own (the root `go test ./...` skips it), and its tests are
# the only place the same-seed byte-identity of the virtual clock is pinned.
# TestFigurePointsMatchPR8 is skipped: it pins three workloads to BENCH_PR8's
# throughputs, which later perf changes moved on purpose (ROADMAP item 2).
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

# relations runs wrdtcheck over every bundled class with 5000 relation-checker
# iterations — more samples than the unit tests afford — so each declared
# relation, and each method Guard against the definition P(σ, c) the runtime
# no longer evaluates, meets thousands of generated states and calls; the
# abstract-semantics, refinement and exhaustive checks run alongside. The
# exhaustive scopes are rdmawrdt.Scenarios, whose state counts
# rdmawrdt's TestScenarios pins: rga 199, account 415, bankmap 69,
# projectmgmt 169, courseware 169, movie 199.
relations:
	$(GO) run ./cmd/wrdtcheck -iters 5000

# chaos replays the committed fixed-seed plan corpus (including the three
# join/leave reconfiguration plans, the recovery sweep across the backup
# wrap, and the courseware and movie plans) and the randomized acceptance
# sweeps through the nemesis runner, whose explorer checks every history as
# well as every probe: TestRandomizedPlans over counter, orset and bankmap,
# and TestBundledSweep over every class of schema.Bundled (8 plans of 200 ops
# a class, about 3 s; 3 of 120 under -short) — the one runner a plan may name
# any bundled class in. Plus the membership-change acceptance tests
# (round-trip convergence, a leader kill mid-epoch-transition, pair-aware
# shrinking). Failing plans are shrunk and dumped as replayable JSON next to
# the test binary's working dir (see `hambench -exp chaos -plan-json`).
# TestFingerprints compares every one of those plans' trace hash and counts
# with testdata/chaos/fingerprints.golden, i.e. with earlier commits.
chaos:
	$(GO) test -run 'TestCorpus|TestRandomizedPlans|TestBundledSweep|TestShardMixConverges|TestShardFaultIsolation|TestReconfig|TestFingerprints' -count=1 -v ./internal/chaos

# conform runs the refinement conformance gate. Every history is replayed
# through rdmawrdt's Fig. 7 rule steps (Exec, Install, Query), each failed
# premise reported by its rule, plus the trace-only checks. The gate: the
# fixed-seed corpus (fault-free and fault-plan workloads across the
# counter/orset/bankmap classes, checked deterministic; every other bundled
# class's histories are replayed by make chaos's TestBundledSweep), the catch matrix
# (see mutants; among its rows, the injected apply-order bug must fail its
# run and shrink to <= 8 calls, and cross-wired shards must fail the
# per-shard identity check), the tampered-trace table (one tampered event
# per premise and check), the sharded plans checked per shard, and the
# corpus fingerprints (hashes and report counts pinned across commits).
# Every run is a chaos run that checks its own history; `hambench -exp
# chaos` is the exploratory version.
conform:
	$(GO) test -run 'TestConformCorpus|TestMutated|TestTampered|TestSharded|TestCatchMatrix|TestRunChecks|TestShrinkSharded|TestFingerprints' -count=1 -v ./internal/conform

# conform-sessions runs the client-session gate: the session-guarantee
# checker's unit histories, live sessions across an epoch change (monotonic
# reads, read-your-writes, writes-follow-reads spanning replica switches),
# the catch matrix, whose stale-reads row must fail its run through the
# session check alone and shrink to <= 6 events, and sessions dealt over the
# shards of a shard_mix fault plan with their own stale-reads control.
conform-sessions:
	$(GO) test -run 'TestSession|TestCatchMatrix' -count=1 -v ./internal/conform

# mutants runs the catch matrix: each mutant of the catalogue (chaos.Mutants)
# on its control-plan family, and for each checker — probes and history — the
# runs it caught, the checks that fired and the shrunk counterexample's size,
# printed and compared with internal/conform/testdata/mutants.golden.
mutants:
	$(GO) test -run 'TestCatchMatrix' -count=1 -v ./internal/conform

# store runs the sharded multi-object store gate: admission by the charge
# (every registered byte charged to the per-node arena, refusals that leave
# every arena untouched over a seeded open/close sequence), typed budget
# errors, freed-memory reuse under concurrent open/close, closed shards deaf
# to their nodes' failure detection, which the last closed shard stops and
# the next opened one restarts, a shard opened after a suspicion hearing it,
# a registry flat under shard churn, set-up
# allocating only carved bytes, two shards' δ-records riding one write per
# peer per flush, the node's δ-logs charged once per node and
# shard-tagged trace decomposition —
# plus the arena's own tests (first-fit carving, coalescing, all-or-none
# charging in name order, carved regions serving verbs), which live in
# internal/rdma and all match -run Arena.
store:
	$(GO) test -count=1 -v ./internal/store
	$(GO) test -run Arena -count=1 -v ./internal/rdma

# health runs the introspection gate: the watchdog rule unit tests and the
# zero-alloc snapshot guarantee (internal/health), the node-liveness tests
# (the heartbeat and detector every object on a node subscribes to, in
# internal/rdma, two clusters sharing one node's, in internal/core, and a
# cluster or shard built after a suspicion hearing it), the
# fault-plan cross-check over the chaos corpus (every firing predicted by an
# injected fault, fault-free runs silent, schedules unperturbed), the
# fabric's one registry (the nodes' detectors count a store's suspicions, a
# registry attached to the fabric alone reaches every layer), the metrics-export
# completeness pin, the one-count pin (every exported counter equals the
# layer's own count), and the fixed-seed `-exp health` run itself (health-exp:
# nonzero exit on unexpected firings, an unobserved fault run, or a noisy
# control — the one step of the named gates that no test covers).
health: health-exp
	$(GO) test -count=1 -v ./internal/health
	$(GO) test -run 'Subscribe|Suspect|Suspicion|Restore|Forget|Beating|CheckRound' -count=1 -v ./internal/rdma
	$(GO) test -run 'TestTwoClustersShareTheNode|TestNodeServicesLifecycle|TestLateClusterHearsEarlierSuspicion' -count=1 -v ./internal/core
	$(GO) test -run 'TestLateShardHearsEarlierSuspicion' -count=1 -v ./internal/store
	$(GO) test -run 'TestWatchdog|TestKindRules|TestFabricRegistry' -count=1 -v ./internal/chaos
	$(GO) test -run 'TestMetricsExportCompleteness|TestEachEventCountedOnce' -count=1 -v ./internal/bench

health-exp:
	$(GO) run ./cmd/hambench -exp health -ops 600

# torn runs every torn-read test in one command: the one bound
# (rdma.TornLooks) and the one validated read (rdma.QP.ReadValid), the ring
# reader's park and heal, the recovery slots' re-read (ring.Slots, which
# broadcast's backup and Mu's journal read through), the codec's trailer
# check, the summary scan's park and slot re-read, the recovery sweep's and a
# journal catch-up's re-read, and the torn chaos corpus.
torn:
	$(GO) test -count=1 -run 'Torn|Park|Reread|ReadValid|RecoverRetry|StaleBackup' ./internal/rdma ./internal/ring ./internal/codec ./internal/core ./internal/broadcast ./internal/mu ./internal/chaos

# cover prints per-package statement coverage so test gaps stay visible.
cover:
	$(GO) test -cover ./... | grep -v 'no test files'

# loc is the ruler simplicity PRs share: non-test Go lines (blank and comment
# lines included) per package of the root package, internal/ and cmd/, and
# their total — 22 240 at commit 8589353, 22 195 once backup and journal
# slots held ring records, 22 359 once OR-set and cart adds were stored by
# tag, 22 308 once the summary anchor became a call record, 22 410 once
# broadcast and Mu received through one ring in-channel, 22 409 once both
# wrote and read back their recovery slots through one ring.Slots, and
# 22 603 once each node owned its heartbeat, detector and write coalescer
# (internal/heartbeat folded into internal/rdma), 22 568 once the
# detector's timing and Mu's catch-up period were fields of the cost model,
# 23 105 (from 23 106) once each node owned one delivery queue, its
# handoff, for every Mu group and broadcast receiver on it, 23 104 once
# every ring.Sender posted through the rdma.Batch it is built with, and
# 23 087 once chaos plans took their classes from schema.Bundled.
# Files a build constraint excludes are not counted.
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

# bench runs the package micro-benchmarks: the metrics registry, the
# effectors whose cost must not grow with the state — OR-set and cart remove,
# and the referential deleteLeft cascade — each at 1 k and at 64 k live tags
# or rows, and the issuer's reducible call on a gset summary of 64 and of
# 2 048 keys.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/metrics ./internal/crdt ./internal/schema ./internal/core

# allocs runs every allocation pin under internal/, uncached and verbose, so a
# host-cost change prints its counts with one command. The pins are found in
# the test files — a Test function that calls testing.AllocsPerRun, or reads
# runtime.ReadMemStats around its window, is one — so a new pin joins without
# an edit here.
allocs:
	@for dir in $$(grep -rlE --include='*_test.go' 'testing\.AllocsPerRun|runtime\.ReadMemStats' internal | xargs -n1 dirname | sort -u); do \
		run=$$(awk 'FNR == 1 || /^func / { name = "" } /^func Test/ { name = $$2; sub(/\(.*/, "", name) } \
			/testing\.AllocsPerRun|runtime\.ReadMemStats/ && name != "" { print name }' $$dir/*_test.go | sort -u | paste -sd'|'); \
		$(GO) test -count=1 -v -run "^($$run)$$" ./$$dir || exit 1; \
	done

# ledger prints the virtual-CPU ledgers: µs of simulated CPU per call by call
# site (post, CQ polls, deliver, apply, sweeps, intake, accept, head and
# heartbeat reads). TestLeaderLedger is the Fig. 10 point, for the group-0 leader and for
# a node that leads nothing, under Hamband and under the SMR baseline (Hamband
# p0's deliver row at most 0.025 µs/op and its CQ polls row at most 0.015, with
# the polls per quorum batch — the quorum batch's post items, not every Mu
# Sender's — and its intake row, the request-ring drain at each round's
# decision, at most 0.006; p3's deliver row at most 0.013, both p0 post rows
# side by side), and TestLeaderLedgerCatchesSignAll and
# TestLeaderLedgerCatchesPerEntry its controls; TestStoreLedger
# is one node of a 16-shard store under the store-zipf shape, for counter
# shards (no sweeps row: no F or L buffers) and for OR-set shards at 4 and 16
# (one poll loop a node: the sweeps share must not depend on the shard
# count; one handoff a node: the 16-shard deliver row at most 0.007 µs/op;
# one broadcast post batch a node; with the 16 ÷ 4 throughput ratios, counter
# and OR-set; one δ-log per peer: the 16-counter-shard "post: summary writes"
# row at most 0.020 µs/op, with summary WRs per peer per flush), and
# TestStoreLedgerCatchesPerEntry and TestStoreLedgerCatchesSlotLogs (a
# coalescer that merges only within a shard) its controls; TestReduceLedger is one node on the reducible path, gset with all
# updates and counter with a quarter, with the WRs, chains and δ-records per
# summary write; TestFreeLedger is one node on the buffered path (orset, a quarter updates), with the calls per broadcast
# message, the ring records per write, and the node's post items (at most one)
# and CQ polls a message, and TestFreeLedgerCatchesPerPeer its control (a post
# item per peer). TestReduceLedger (both points), TestFreeLedger and
# TestStoreLedger (16 counter shards) bound the "heartbeat reads" row at
# 0.0004 µs/op: a peer whose records p0 consumes is not read (at most 0.0002;
# 0.0010–0.0012 with a read of every peer at every check), and
# TestLedgersCatchReadAll is its control on all three (p0's detector reads
# every check, rdma.Detector.MutateReadAll). The rows are checked against
# sim.CPU.BusyTotal.
ledger:
	$(GO) test -run 'Test(Leader|Store|Reduce|Free)Ledger|TestLedgersCatchReadAll' -count=1 -v ./internal/bench

# bench-snapshot regenerates the canonical benchmark snapshot committed at
# the repo root (deterministic: same ops+seed give identical bytes). It holds
# every figure of the table (the Figure 8–13 grids, the use-case overview,
# the ablations, the coordination costs, the wire and the sharded store) and
# a misses point per claim, and takes 14–19 s on a 2-core host; bench-same
# and CI's benchstat lane take as long.
# SNAPSHOT is the one place the baseline is named: OLD, NEW and CI's
# benchstat lane follow it, and internal/bench's paper_test.go renders
# EXPERIMENTS.md's generated tables from the same file. PREV_SNAPSHOT is the
# baseline SNAPSHOT re-recorded: CI's benchstat lane gates the re-record with
# make benchstat OLD=$(PREV_SNAPSHOT) NEW=$(SNAPSHOT), so every metric that
# moved stays within its bound.
SNAPSHOT ?= BENCH_PR73.json
PREV_SNAPSHOT ?= BENCH_PR72.json
bench-snapshot:
	$(GO) run ./cmd/hambench -exp snapshot -json $(SNAPSHOT)

# bench-same regenerates the snapshot into a temporary file and fails unless
# it is byte-identical to $(SNAPSHOT): the check for a change that must move
# no virtual number (a refactor, a host-cost change). It is not in check; CI's
# benchstat lane makes the same comparison with cmp after its report, so a
# change that moves these bytes on purpose re-records the snapshot
# (bench-snapshot) under a new name and points SNAPSHOT and paper_test.go's
# baselineSnapshot at it.
bench-same:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/hambench -exp snapshot -json "$$tmp" > /dev/null && \
	cmp "$$tmp" $(SNAPSHOT) && echo "snapshot identical to $(SNAPSHOT)"

# bench-wire runs the wire figure: δ bytes on the wire per op, throughput,
# the wire stage's latency share and response times per class.
bench-wire:
	$(GO) run ./cmd/hambench -exp wire

# bench-shard runs the shard figure: a keyed counter workload over 4, 8 and
# 16 shards of a store, uniform and Zipf keys, with throughput, writes and
# doorbells per call and response times.
bench-shard:
	$(GO) run ./cmd/hambench -exp shard

# bench-reconfig runs the membership-change experiment: windowed throughput
# around a leave/join round-trip with dip and recovery-time reporting.
bench-reconfig:
	$(GO) run ./cmd/hambench -exp reconfig

# bench-pairs is the paired measurement a host-time claim needs
# (benchmark/README.md, "Host time on the sandbox"): it exports REF with git
# archive under .bench_build/, runs `bash benchmark/run.sh --trace 0` there and
# in the working tree in alternating order, PAIRS times each on the same SEED,
# and prints per workload and end-to-end metric both medians and quartiles,
# the pairs the working tree won, and whether the virtual values are
# byte-identical, then one verdict line per workload. WORKLOAD is one
# workload, a comma-separated list, or all (BENCHMARK.json's six): a refactor
# proves "all six identical" with WORKLOAD=all PAIRS=1.
REF ?= HEAD
WORKLOAD ?= reduce-gset-write
PAIRS ?= 10
SEED ?= 42
bench-pairs:
	$(GO) run ./scripts/benchpairs -ref $(REF) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# benchstat compares two snapshots: make benchstat OLD=a.json NEW=b.json. It
# fails if any metric is worse in NEW by more than the bound its definition
# gives (internal/bench/snapshot.go). Run it with OLD at the previous
# snapshot when re-recording one; CI runs it against the committed snapshot
# as a report before its byte-for-byte cmp.
OLD ?= $(SNAPSHOT)
NEW ?= $(SNAPSHOT)
benchstat:
	$(GO) run ./cmd/hambench -exp benchstat -old $(OLD) -new $(NEW)

# Each fuzz target gets a short fixed budget; go test only allows one
# -fuzz pattern per package invocation.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReaderPoll -fuzztime=$(FUZZTIME) ./internal/ring
	$(GO) test -run=^$$ -fuzz=FuzzSlots -fuzztime=$(FUZZTIME) ./internal/ring
	$(GO) test -run=^$$ -fuzz=FuzzLogWalk -fuzztime=$(FUZZTIME) ./internal/ring
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzSlot -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRaw -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzDeltaEntry -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzCall -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=^$$ -fuzz=FuzzPlanJSON -fuzztime=$(FUZZTIME) ./internal/chaos
	$(GO) test -run=^$$ -fuzz=FuzzCallBuffer -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzLogEntry -fuzztime=$(FUZZTIME) ./internal/mu
	$(GO) test -run=^$$ -fuzz=FuzzMessage -fuzztime=$(FUZZTIME) ./internal/broadcast
