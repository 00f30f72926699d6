// Command hambench regenerates the paper's evaluation (Figures 8–13) on
// the simulated RDMA fabric, plus the ablation studies from DESIGN.md.
//
// Usage:
//
//	hambench [-exp all|fig8|fig9|fig10|fig11|fig12|fig13|ablations|analysis|metrics|latency|shard|reconfig|chaos|conform|health|hamtop]
//	         [-ops N] [-seed N] [-metrics-json FILE] [-chrome-trace FILE]
//	         [-latency-json FILE] [-shards N] [-shard-json FILE]
//	         [-plans N] [-plan-json FILE] [-chaos-dir DIR]
//	         [-conform-seeds N] [-conform-dump DIR]
//	         [-health-json FILE] [-frames N]
//
// The shard experiment drives a keyed counter workload against the sharded
// multi-object store: object-count and Zipfian-skew sweeps with per-shard
// (hot-key) throughput reporting and cross-shard chained-WR counts on the
// shared per-peer QPs. -shards sets the largest object count; -shard-json
// dumps every measured point.
//
// The chaos experiment explores -plans randomized, seed-reproducible fault
// plans (node suspensions, link partitions, latency spikes, torn-write
// windows, leader kills) against live clusters and checks convergence,
// integrity, and exactly-once delivery after heal; -plan-json replays one
// failing plan's JSON artifact. Torn windows ("kind": "torn"/"tornheal")
// land each write's interior bytes after its boundary bytes — the
// out-of-order delivery NICs permit within one work request — which the
// CRC-validated slot and record frames must reject and retry rather than
// false-accept.
//
// The conform experiment runs -conform-seeds seeded random workloads (with
// and without fault plans) with lifecycle tracing on and replays every
// history through the abstract WRDT semantics, checking local
// permissibility, conflict-synchronization, dependency preservation,
// exactly-once delivery and query explainability; non-conforming histories
// are shrunk and dumped under -conform-dump. -plan-json replays a single
// dumped plan through the checker instead.
//
// The health experiment runs one fixed-seed fault plan with the anomaly
// watchdog attached: every firing is classified against the injected
// faults (unexpected firings fail the run), a per-fault coverage table
// shows each fault was observed, and a fault-free control run must stay
// silent; -health-json writes the firing counts as a benchmark snapshot
// that -exp benchstat can diff. The hamtop experiment renders -frames
// top-style snapshots of a live sharded store — per-node progress and
// suspicion sets, arena headroom, hottest shards, watchdog firings — all
// in deterministic virtual time.
//
// The metrics experiment runs one fully instrumented workload and prints
// the percentile report; -metrics-json additionally dumps the raw registry
// snapshot as JSON, and -chrome-trace writes a chrome://tracing file of the
// recorded call lifecycles.
//
// The latency experiment runs one fully traced workload, reconstructs a
// causal span per call and prints per-stage p50/p95/p99 tables plus a
// tail-attribution report (which protocol stage the p95/p99-slowest calls
// spent their time in); -latency-json writes the same data as a benchmark
// snapshot that -exp benchstat can diff.
//
// The -ops flag plays the role of the paper's 4 M operations per
// experiment point; the default (20000) keeps a full-suite run to roughly a
// minute of wall-clock while preserving the figures' shapes. Results are
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
	"hamband/internal/conform"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig8, fig9, fig10, fig11, fig12, fig13, ablations, doorbell, costs, trace, overview, analysis, metrics, latency, wire, shard, reconfig, snapshot, benchstat, chaos, conform, health, hamtop")
	ops := flag.Int("ops", bench.DefaultOps, "operations per experiment point")
	seed := flag.Int64("seed", 42, "deterministic random seed")
	metricsJSON := flag.String("metrics-json", "", "write the metrics experiment's registry snapshot as JSON to FILE")
	latencyJSON := flag.String("latency-json", "", "write the latency experiment's per-stage snapshot as JSON to FILE (compare with -exp benchstat)")
	wireJSON := flag.String("wire-json", "", "write the wire experiment's per-class snapshot as JSON to FILE (compare with -exp benchstat)")
	maxRegress := flag.Float64("max-regress", 0, "benchstat: exit 1 if any point's throughput drops, or its p99 rises, by more than this percentage (0 disables)")
	chromeTrace := flag.String("chrome-trace", "", "write a chrome://tracing event file for the metrics experiment to FILE")
	snapshotOut := flag.String("snapshot-out", "BENCH.json", "output file for the snapshot experiment")
	oldSnap := flag.String("old", "", "benchstat: baseline snapshot file")
	newSnap := flag.String("new", "", "benchstat: current snapshot file")
	plans := flag.Int("plans", 30, "chaos: number of randomized fault plans to explore")
	planJSON := flag.String("plan-json", "", "chaos: replay one fault plan from FILE instead of exploring")
	chaosDir := flag.String("chaos-dir", ".", "chaos: directory for failing-plan JSON dumps")
	conformSeeds := flag.Int("conform-seeds", 12, "conform: number of seeded workloads to check")
	conformDump := flag.String("conform-dump", ".", "conform: directory for shrunk counterexample dumps")
	shards := flag.Int("shards", 16, "shard: objects hosted by the sharded store at the largest sweep point")
	shardJSON := flag.String("shard-json", "", "shard: write every measured point as JSON to FILE")
	healthJSON := flag.String("health-json", "", "health: write the watchdog firing counts as JSON to FILE (compare with -exp benchstat)")
	topFrames := flag.Int("frames", 6, "hamtop: snapshot frames to render")
	flag.Parse()

	cfg := bench.Config{Ops: *ops, Seed: *seed, Out: os.Stdout}
	switch *exp {
	case "all":
		cfg.All()
		cfg.Costs()
	case "fig8":
		cfg.Fig8()
	case "fig9":
		cfg.Fig9()
	case "fig10":
		cfg.Fig10()
	case "fig11":
		cfg.Fig11()
	case "fig12":
		cfg.Fig12()
	case "fig13":
		cfg.Fig13()
	case "ablations":
		cfg.Ablations()
	case "doorbell":
		cfg.Doorbell()
	case "snapshot":
		writeSnapshot(cfg, *snapshotOut)
	case "benchstat":
		compareSnapshots(*oldSnap, *newSnap, *maxRegress)
	case "costs":
		cfg.Costs()
	case "trace":
		cfg.Trace()
	case "overview":
		cfg.Overview()
	case "metrics":
		cfg.Metrics(fileWriter(*metricsJSON), fileWriter(*chromeTrace))
	case "latency":
		cfg.Latency(fileWriter(*latencyJSON))
	case "wire":
		cfg.Wire(fileWriter(*wireJSON))
	case "shard":
		cfg.Shard(*shards, *shardJSON)
	case "reconfig":
		cfg.Reconfig()
	case "health":
		if cfg.Health(fileWriter(*healthJSON)) > 0 {
			os.Exit(1)
		}
	case "hamtop":
		runHamtop(cfg, *topFrames)
	case "analysis":
		printAnalyses()
	case "chaos":
		runChaos(cfg, *plans, *planJSON, *chaosDir)
	case "conform":
		runConform(cfg, *conformSeeds, *planJSON, *conformDump)
	default:
		fmt.Fprintf(os.Stderr, "hambench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// runChaos runs the chaos experiment: randomized seed-reproducible fault
// plans by default, or a single-plan replay when -plan-json is given. A
// nonzero exit reports that at least one plan violated an invariant probe.
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
		v, err := chaos.Run(plan, chaos.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay %s\n", v.Summary())
		if !v.Passed {
			fmt.Print(chaos.FormatViolations(v))
			os.Exit(1)
		}
		return
	}
	if cfg.Chaos(plans, dumpDir) > 0 {
		os.Exit(1)
	}
}

// runConform runs the refinement conformance experiment: seeded random
// workloads replayed through the abstract semantics, or a single-plan
// replay when -plan-json is given. A nonzero exit reports at least one
// non-conforming history.
func runConform(cfg bench.Config, seeds int, planJSON, dumpDir string) {
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
		res, err := conform.Run(plan, chaos.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay %s\n", res.Verdict.Summary())
		fmt.Println(res)
		if !res.Conforms() {
			os.Exit(1)
		}
		return
	}
	if cfg.Conform(seeds, dumpDir) > 0 {
		os.Exit(1)
	}
}

// writeSnapshot runs the canonical benchmark set and writes it to path.
func writeSnapshot(cfg bench.Config, path string) {
	s := cfg.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := s.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d benchmark points to %s\n", len(s.Points), path)
}

// compareSnapshots prints throughput and p99 deltas between two snapshots.
// With a nonzero maxRegress it additionally gates every point: any matched
// point whose throughput dropped, or whose p99 rose, by more than that
// percentage makes the command exit nonzero — the CI regression check.
func compareSnapshots(oldPath, newPath string, maxRegress float64) {
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
	old, cur := read(oldPath), read(newPath)
	bench.CompareSnapshots(os.Stdout, old, cur)
	if maxRegress > 0 {
		bad := bench.RegressionCheck(old, cur, maxRegress)
		for _, msg := range bad {
			fmt.Fprintf(os.Stderr, "hambench: regression: %s\n", msg)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
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

// printAnalyses prints the coordination analysis of every use-case: the
// method categories, synchronization groups and dependency sets the runtime
// consumes.
func printAnalyses() {
	for _, cls := range schema.Bundled() {
		an, err := spec.Analyze(cls)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(an.Summary())
		fmt.Println()
	}
}
