package main

import (
	"fmt"
	"os"
	"strings"

	"hamband/internal/bench"
	"hamband/internal/crdt"
	"hamband/internal/health"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// runHamtop drives a self-contained sharded workload — skewed traffic over
// six counters on four nodes, with one node suspended mid-run — and
// renders `frames` top-style snapshots of the live cluster: per-node
// progress and suspicion sets, arena budgets, the hottest shards, and
// every watchdog firing as it happens. Everything is virtual time off the
// deterministic engine, so a given (-ops, -seed) pair always renders the
// same frames.
func runHamtop(cfg bench.Config, frames int) {
	const (
		nodes    = 4
		shardN   = 6
		hotShard = 0 // receives the skewed share of the traffic
	)
	if frames < 1 {
		frames = 1
	}

	eng := sim.NewEngine(cfg.Seed)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	an := spec.MustAnalyze(crdt.NewCounter())

	sopts := store.DefaultOptions()
	// Budget with ~25% slack over the shards' exact footprint so the arena
	// table shows live headroom rather than full commitment.
	sopts.MemoryBudget = shardN * store.Footprint(an, nodes, sopts.Core) * 5 / 4
	st := store.New(fab, sopts)
	defer st.Stop()

	var keys []string
	for i := 0; i < shardN; i++ {
		key := fmt.Sprintf("s%02d", i)
		if _, err := st.Open(key, an, store.ShardOptions{}); err != nil {
			fmt.Fprintf(os.Stderr, "hambench: opening shard %s: %v\n", key, err)
			os.Exit(1)
		}
		keys = append(keys, key)
	}

	// The watchdog rides the workload ticker's cadence. A lowered hot-shard
	// arming floor lets the skew show up within a short demo run.
	wd := health.NewWatchdog(health.Config{HotShardMinOps: 100})

	// Skewed workload: the hot shard takes ~85% of the traffic, the rest
	// spreads evenly; node 3 is suspended for the middle third of the run.
	down := -1
	rng := newSplitMix(uint64(cfg.Seed))
	issue := eng.NewTicker(20*sim.Microsecond, func() {
		for b := 0; b < 4; b++ {
			si := hotShard
			if rng()%5 == 0 {
				si = int(rng() % shardN)
			}
			origin := int(rng() % nodes)
			if origin == down {
				origin = (origin + 1) % nodes
			}
			st.Invoke(keys[si], spec.ProcID(origin), crdt.CounterAdd, spec.ArgsI(1), nil)
		}
	})
	defer issue.Cancel()

	framePeriod := 400 * sim.Microsecond
	suspendAt := sim.Time(framePeriod) * sim.Time(frames) / 3
	resumeAt := suspendAt * 2
	eng.At(suspendAt, func() {
		down = 3
		fab.Node(3).Suspend()
	})
	eng.At(resumeAt, func() {
		down = -1
		fab.Node(3).Resume()
	})

	// The watchdog observes on a 50µs sub-cadence (its thresholds are
	// denominated in observations); frames render every 8th snapshot.
	const obsPerFrame = 8
	for frame := 1; frame <= frames; frame++ {
		before := len(wd.Firings())
		var s *health.Snapshot
		for i := 0; i < obsPerFrame; i++ {
			eng.RunFor(framePeriod / obsPerFrame)
			s = health.CollectStore(eng.Now(), st)
			wd.Observe(s)
		}
		renderFrame(cfg, frame, frames, s, wd.Firings(), before)
	}
}

// renderFrame prints one hamtop snapshot: header, node table, arena table,
// hottest shards, and any watchdog firings (new ones flagged).
func renderFrame(cfg bench.Config, frame, frames int, s *health.Snapshot, firings []health.Firing, newFrom int) {
	p := func(format string, args ...any) { fmt.Fprintf(cfg.Out, format, args...) }

	p("─── hamtop ─ frame %d/%d ─ t=%v ─ epoch %d %s\n",
		frame, frames, sim.Duration(s.At), s.Epoch, strings.Repeat("─", 20))

	// Node table: progress aggregated across every shard's replica on the
	// node, plus the node-level failure-detection view.
	p("%-5s %-6s %-8s %-8s %-8s %-9s %s\n", "node", "state", "issued", "applied", "rejected", "anchorage", "suspects")
	for _, nh := range s.Nodes {
		var issued, applied, rejected uint64
		age := 0
		for _, sh := range s.Shards {
			r := sh.Nodes[nh.Node]
			issued += r.Issued
			applied += r.Applied
			rejected += r.Rejected
			if r.AnchorAge > age {
				age = r.AnchorAge
			}
		}
		state := "up"
		if nh.Down {
			state = "DOWN"
		}
		sus := "-"
		if len(nh.Suspects) > 0 {
			var parts []string
			for _, sp := range nh.Suspects {
				parts = append(parts, fmt.Sprintf("n%d", sp))
			}
			sus = strings.Join(parts, ",")
		}
		p("n%-4d %-6s %-8d %-8d %-8d %-9d %s\n", nh.Node, state, issued, applied, rejected, age, sus)
	}

	// Arena table: admission headroom per node.
	p("%-5s %-10s %-10s %-10s %s\n", "arena", "size", "used", "headroom", "largest-extent")
	for _, a := range s.Arenas {
		pct := 0
		if a.Size > 0 {
			pct = a.Available * 100 / a.Size
		}
		p("n%-4d %-10d %-10d %3d%%%6s %d\n", a.Node, a.Size, a.Used, pct, "", a.Largest)
	}

	// Hottest shards by issued-op share.
	var total uint64
	for _, sh := range s.Shards {
		total += sh.Ops
	}
	p("%-6s %-8s %-8s %s\n", "shard", "ops", "applied", "share")
	for _, sh := range health.TopShards(s, 3) {
		share := uint64(0)
		if total > 0 {
			share = sh.Ops * 100 / total
		}
		p("%-6s %-8d %-8d %d%%\n", sh.Key, sh.Ops, sh.Applied, share)
	}

	if len(firings) == 0 {
		p("watchdog: quiet\n\n")
		return
	}
	p("watchdog: %d firing(s)\n", len(firings))
	for i, f := range firings {
		flag := " "
		if i >= newFrom {
			flag = "*" // fired this frame
		}
		where := fmt.Sprintf("n%d", f.Node)
		if f.Node < 0 {
			where = "-"
		}
		if f.Shard != "" {
			where += "/" + f.Shard
		}
		p(" %s [%v] %-14s %-8s %s\n", flag, sim.Duration(f.At), f.Rule, where, f.Detail)
	}
	p("\n")
}

// newSplitMix returns a tiny deterministic PRNG for the demo workload
// (independent of the engine's scheduling randomness).
func newSplitMix(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}
