// Command hambench regenerates the paper's evaluation (Figures 8–13) on the
// simulated RDMA fabric, plus the studies beyond it from DESIGN.md. A
// selector that names a figure of internal/bench's figure table — fig8 …
// fig13, overview, ablations, costs, wire, shard — prints the figure's
// tables and its claims checked against them; all prints every figure.
//
// Usage:
//
//	hambench [-exp all|fig8|fig9|fig10|fig11|fig12|fig13|overview|ablations|costs|wire|shard|
//	               trace|metrics|latency|reconfig|snapshot|benchstat|chaos|health|hamtop]
//	         [-ops N] [-seed N] [-json FILE] [-chrome-trace FILE]
//	         [-old FILE -new FILE]
//	         [-plans N] [-plan-json FILE] [-chaos-dir DIR] [-frames N]
//
// Every fixed-op point, the sharded store's included, is driven by
// bench.Run's closed loop and ends when every update is applied at every live
// node (the paper's throughput: calls over that makespan), in deterministic
// virtual time: a given (-ops, -seed) pair always reproduces the same
// numbers. -ops plays the role of the paper's 4 M operations per point; the
// default (20000) keeps `-exp all` to about 20 s on a 2-core host.
//
// -json FILE is the one export: a figure, all, snapshot, latency and health
// write their points there as one benchmark snapshot of keyed points and
// named metrics (-exp snapshot, the canonical set committed at the
// repository root, needs it); metrics writes its registry snapshot, and
// -chrome-trace a chrome://tracing file of its call lifecycles. -exp
// benchstat compares two snapshots and exits 1 if a metric is worse than in
// -old by more than the bound its definition in internal/bench gives.
//
// The other modes: trace prints a few calls' lifecycles; metrics the
// registry's percentile report; latency a causal span per call, per-stage
// percentiles and the stages the slowest calls spent their time in; reconfig
// the throughput dip around a leave and a rejoin. chaos explores -plans
// randomized fault plans dealt over the bundled classes (suspensions,
// partitions, latency spikes, torn writes, leader kills), each judged by its
// probes and by replaying its history through the abstract WRDT semantics,
// and shrinks and dumps a failing one under -chaos-dir; -plan-json replays
// one. health runs one fault plan under the anomaly watchdog and a
// fault-free control, and exits 1 on an unexpected firing, an unobserved
// fault or a noisy control. hamtop renders -frames top-style frames of a
// live sharded store.
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
	exp := flag.String("exp", "all", "experiment: all, fig8, fig9, fig10, fig11, fig12, fig13, overview, ablations, costs, wire, shard (figures of the table), trace, metrics, latency, reconfig, snapshot, benchstat (compare -old and -new, gating each metric at its own bound), chaos, health, hamtop")
	ops := flag.Int("ops", bench.DefaultOps, "operations per experiment point")
	seed := flag.Int64("seed", 42, "deterministic random seed")
	jsonOut := flag.String("json", "", "write the experiment's points as JSON to FILE (a figure, all, snapshot, latency, health: a snapshot of keyed points and named metrics that -exp benchstat compares; metrics: the registry snapshot)")
	chromeTrace := flag.String("chrome-trace", "", "write a chrome://tracing event file for the metrics experiment to FILE")
	oldSnap := flag.String("old", "", "benchstat: baseline snapshot file")
	newSnap := flag.String("new", "", "benchstat: current snapshot file")
	plans := flag.Int("plans", 30, "chaos: number of randomized fault plans to explore")
	planJSON := flag.String("plan-json", "", "chaos: replay one fault plan from FILE instead of exploring")
	chaosDir := flag.String("chaos-dir", ".", "chaos: directory for failing-plan JSON dumps")
	topFrames := flag.Int("frames", 6, "hamtop: snapshot frames to render")
	flag.Parse()

	cfg := bench.Config{Ops: *ops, Seed: *seed, Out: os.Stdout,
		JSON: fileWriter(*jsonOut), ChromeTrace: fileWriter(*chromeTrace)}
	switch *exp {
	case "all":
		cfg.All()
	case "snapshot":
		if cfg.JSON == nil {
			fmt.Fprintln(os.Stderr, "hambench: -exp snapshot needs -json FILE")
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmark points to %s\n", len(cfg.Snapshot().Points), *jsonOut)
	case "benchstat":
		benchstat(*oldSnap, *newSnap)
	case "trace":
		cfg.Trace()
	case "metrics":
		cfg.Metrics()
	case "latency":
		cfg.Latency()
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
