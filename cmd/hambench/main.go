// Command hambench regenerates the paper's evaluation (Figures 8–13) on
// the simulated RDMA fabric, plus the use-case overview and the ablation
// studies from DESIGN.md. fig8 … fig13, overview and ablations select a
// figure of internal/bench's figure table: each prints the figure's tables
// and its claims checked against them. The ablations compare summarized
// against buffered G-sets, two Mu leaders against one, summary-scan periods
// (dependency gating), closed-loop depths, and inline against DMA posts.
//
// Usage:
//
//	hambench [-exp all|fig8|fig9|fig10|fig11|fig12|fig13|overview|ablations|costs|trace|
//	               metrics|latency|wire|shard|reconfig|snapshot|benchstat|chaos|health|hamtop]
//	         [-ops N] [-seed N] [-json FILE] [-chrome-trace FILE]
//	         [-old FILE -new FILE] [-shards N]
//	         [-plans N] [-plan-json FILE] [-chaos-dir DIR] [-frames N]
//
// Every fixed-op point, the sharded store's included, is driven by
// bench.Run's closed loop and ends when every update is applied at every live
// node (the paper's throughput: calls over that makespan). -json FILE is the
// one export: snapshot, latency, wire, shard and health write their points
// there as one benchmark snapshot of keyed points and named metrics (-exp
// snapshot, the canonical set committed at the repository root, needs it),
// and metrics writes its registry snapshot. -exp benchstat compares two
// snapshots and exits 1 if a metric is worse than in -old by more than the
// bound its definition in internal/bench gives.
//
// The shard experiment drives a keyed counter workload against the sharded
// multi-object store: object-count and Zipfian-skew sweeps with per-shard
// (hot-key) throughput reporting and cross-shard chained-WR counts on the
// shared per-peer QPs. -shards sets the largest object count.
//
// The chaos experiment explores -plans randomized, seed-reproducible fault
// plans (node suspensions, link partitions, latency spikes, torn-write
// windows, leader kills) against live clusters. Each run gets one verdict:
// its probes check convergence, integrity and exactly-once delivery after
// heal, and its recorded history is replayed through the abstract WRDT
// semantics (local permissibility, conflict-synchronization, dependency
// preservation, exactly-once delivery, query explainability and, with client
// sessions, the session guarantees). Failing plans are shrunk and dumped
// under -chaos-dir; -plan-json replays one plan's JSON artifact the same way,
// printing both evidence lists. Torn windows ("kind": "torn"/"tornheal")
// land each write's interior bytes after its boundary bytes — the
// out-of-order delivery NICs permit within one work request — which the
// CRC-validated slot and record frames must reject and retry rather than
// false-accept.
//
// The health experiment runs one fixed-seed fault plan with the anomaly
// watchdog attached: every firing is classified against the injected
// faults (unexpected firings fail the run), a per-fault coverage table
// shows each fault was observed, and a fault-free control run must stay
// silent; its export holds the firing counts. The hamtop experiment renders -frames
// top-style snapshots of a live sharded store — per-node progress and
// suspicion sets, arena headroom, hottest shards, watchdog firings — all
// in deterministic virtual time.
//
// The metrics experiment runs one fully instrumented workload and prints
// the percentile report; its export is the raw registry snapshot, and
// -chrome-trace writes a chrome://tracing file of the recorded call
// lifecycles.
//
// The latency experiment runs one fully traced workload, reconstructs a
// causal span per call and prints per-stage p50/p95/p99 tables plus a
// tail-attribution report (which protocol stage the p95/p99-slowest calls
// spent their time in); its export holds the same data.
//
// The -ops flag plays the role of the paper's 4 M operations per
// experiment point; the default (20000) keeps `-exp all` to about 20 s of
// wall-clock on a 2-core host while preserving the figures' shapes. Results are
// measured in deterministic virtual time, so a given (-ops, -seed) pair
// always reproduces the same numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hamband/internal/bench"
	"hamband/internal/chaos"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig8, fig9, fig10, fig11, fig12, fig13, overview, ablations (figures of the table), costs, trace, metrics, latency, wire, shard, reconfig, snapshot, benchstat (compare -old and -new, gating each metric at its own bound), chaos, health, hamtop")
	ops := flag.Int("ops", bench.DefaultOps, "operations per experiment point")
	seed := flag.Int64("seed", 42, "deterministic random seed")
	jsonOut := flag.String("json", "", "write the experiment's points as JSON to FILE (snapshot, latency, wire, shard, health: a snapshot of keyed points and named metrics that -exp benchstat compares; metrics: the registry snapshot)")
	chromeTrace := flag.String("chrome-trace", "", "write a chrome://tracing event file for the metrics experiment to FILE")
	oldSnap := flag.String("old", "", "benchstat: baseline snapshot file")
	newSnap := flag.String("new", "", "benchstat: current snapshot file")
	plans := flag.Int("plans", 30, "chaos: number of randomized fault plans to explore")
	planJSON := flag.String("plan-json", "", "chaos: replay one fault plan from FILE instead of exploring")
	chaosDir := flag.String("chaos-dir", ".", "chaos: directory for failing-plan JSON dumps")
	shards := flag.Int("shards", 16, "shard: objects hosted by the sharded store at the largest sweep point")
	topFrames := flag.Int("frames", 6, "hamtop: snapshot frames to render")
	flag.Parse()

	cfg := bench.Config{Ops: *ops, Seed: *seed, Out: os.Stdout,
		JSON: fileWriter(*jsonOut), ChromeTrace: fileWriter(*chromeTrace)}
	switch *exp {
	case "all":
		cfg.All()
		cfg.Costs()
	case "snapshot":
		if cfg.JSON == nil {
			fmt.Fprintln(os.Stderr, "hambench: -exp snapshot needs -json FILE")
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmark points to %s\n", len(cfg.Snapshot().Points), *jsonOut)
	case "benchstat":
		benchstat(*oldSnap, *newSnap)
	case "costs":
		cfg.Costs()
	case "trace":
		cfg.Trace()
	case "metrics":
		cfg.Metrics()
	case "latency":
		cfg.Latency()
	case "wire":
		cfg.Wire()
	case "shard":
		cfg.Shard(*shards)
	case "reconfig":
		cfg.Reconfig()
	case "health":
		if cfg.Health() > 0 {
			os.Exit(1)
		}
	case "hamtop":
		runHamtop(cfg, *topFrames)
	case "chaos":
		runChaos(cfg, *plans, *planJSON, *chaosDir)
	default:
		if !cfg.Figure(*exp) {
			fmt.Fprintf(os.Stderr, "hambench: unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
	}
}

// runChaos runs the chaos experiment: randomized seed-reproducible fault
// plans by default, or a single-plan replay when -plan-json is given, run as
// exploration runs it. A nonzero exit reports that at least one plan
// violated a probe or recorded a history that does not conform.
func runChaos(cfg bench.Config, plans int, planJSON, dumpDir string) {
	if planJSON != "" {
		f, err := os.Open(planJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		plan, err := chaos.ReadPlan(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		v, err := chaos.Run(plan, chaos.Options{}.Checked())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay %s\n", v.Summary())
		fmt.Print(chaos.FormatViolations(v))
		if !v.Passed {
			os.Exit(1)
		}
		return
	}
	if cfg.Chaos(plans, dumpDir) > 0 {
		os.Exit(1)
	}
}

// benchstat compares two snapshot files (bench.Compare) and exits 1 if any
// metric regressed past its bound: the CI regression check.
func benchstat(oldPath, newPath string) {
	if oldPath == "" || newPath == "" {
		fmt.Fprintln(os.Stderr, "hambench: -exp benchstat needs -old FILE and -new FILE")
		os.Exit(2)
	}
	read := func(path string) bench.Snapshot {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		s, err := bench.ReadSnapshot(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %s: %v\n", path, err)
			os.Exit(1)
		}
		return s
	}
	bad := bench.Compare(os.Stdout, read(oldPath), read(newPath))
	for _, msg := range bad {
		fmt.Fprintf(os.Stderr, "hambench: regression: %s\n", msg)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// fileWriter opens path for writing, or returns nil when no path was given
// so the corresponding export is skipped. The file is closed on exit.
func fileWriter(path string) io.Writer {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
		os.Exit(1)
	}
	return f
}
