package bench

import (
	"hamband/internal/crdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// The reconfiguration experiment: a closed-loop counter workload over five
// nodes with one node leaving a third of the way through the horizon and
// rejoining at two thirds. Throughput is sampled in fixed windows so the
// transition cost shows as a dip, and the report quantifies it: steady-state
// ops/µs, the worst window around each epoch change, and how long each
// change takes to climb back to 90% of the appropriate steady state
// ((n-1)/n of baseline while the node is out, the full baseline after the
// rejoin). Stale-epoch rejections across the run are reported alongside —
// the permission revocation actually firing, not just the dip.

const (
	reconfigNodes  = 5
	reconfigDepth  = 4 // closed-loop pipeline depth per node
	reconfigWindow = 25 * sim.Microsecond
)

// reconfigReport is one transition's cost summary.
type reconfigReport struct {
	label    string
	commitAt sim.Time     // when the epoch committed
	dip      float64      // worst windowed ops/µs in the transition span
	recovery sim.Duration // commit → first window at 90% of the target rate
	regained bool
}

// Reconfig runs the membership-change experiment and prints the windowed
// throughput trace plus the per-transition cost summary.
func (cfg Config) Reconfig() {
	eng := sim.NewEngine(cfg.Seed)
	an := spec.MustAnalyze(crdt.NewCounter())
	sys, err := Build(Hamband, eng, reconfigNodes, an, Variant{})
	if err != nil {
		panic(err)
	}
	cl := sys.(*hambandSystem).c

	horizon := 1800 * sim.Microsecond
	leaveAt := sim.Time(horizon / 3)
	joinAt := sim.Time(2 * horizon / 3)
	target := reconfigNodes - 1

	// Closed loop: each node keeps reconfigDepth calls in flight; a node
	// parks while out of the configuration and is re-seeded on its join.
	completed := 0
	member := make([]bool, reconfigNodes)
	var issue func(p spec.ProcID)
	issue = func(p spec.ProcID) {
		if !member[p] {
			return
		}
		sys.Invoke(p, crdt.CounterAdd, spec.ArgsI(1), func(any, error) {
			completed++
			issue(p)
		})
	}
	for p := 0; p < reconfigNodes; p++ {
		member[p] = true
		for s := 0; s < reconfigDepth; s++ {
			issue(spec.ProcID(p))
		}
	}

	// Windowed throughput samples.
	type window struct {
		end sim.Time
		ops int
	}
	var windows []window
	last := 0
	tick := eng.NewTicker(reconfigWindow, func() {
		windows = append(windows, window{eng.Now(), completed - last})
		last = completed
	})

	var leaveCommit, joinCommit sim.Time
	// The leaver quiesces its own pipeline just before initiating, as a
	// clean leave requires; its in-flight tail drains during the agreement
	// rounds.
	eng.At(leaveAt-sim.Time(2*reconfigWindow), func() { member[target] = false })
	eng.At(leaveAt, func() {
		cl.Leave(target, func(err error) {
			if err != nil {
				panic(err)
			}
			leaveCommit = eng.Now()
		})
	})
	eng.At(joinAt, func() {
		cl.Join(target, func(err error) {
			if err != nil {
				panic(err)
			}
			joinCommit = eng.Now()
			member[target] = true
			for s := 0; s < reconfigDepth; s++ {
				issue(spec.ProcID(target))
			}
		})
	})

	eng.RunFor(horizon)
	tick.Cancel()

	perWin := func(w window) float64 { return float64(w.ops) / reconfigWindow.Micros() }
	// Steady state: the windows fully before the leaver quiesced.
	steady, n := 0.0, 0
	for _, w := range windows {
		if w.end <= leaveAt-sim.Time(2*reconfigWindow) {
			steady += perWin(w)
			n++
		}
	}
	if n > 0 {
		steady /= float64(n)
	}
	outTarget := steady * float64(reconfigNodes-1) / float64(reconfigNodes)

	summarize := func(label string, commit sim.Time, until sim.Time, targetRate float64) reconfigReport {
		rep := reconfigReport{label: label, commitAt: commit, dip: -1}
		for _, w := range windows {
			if w.end <= commit || w.end > until {
				continue
			}
			r := perWin(w)
			if rep.dip < 0 || r < rep.dip {
				rep.dip = r
			}
			if !rep.regained && r >= 0.9*targetRate {
				rep.recovery = sim.Duration(w.end - commit)
				rep.regained = true
			}
		}
		return rep
	}
	leaveRep := summarize("leave", leaveCommit, joinAt, outTarget)
	joinRep := summarize("join", joinCommit, sim.Time(horizon), steady)

	cfg.printf("Reconfiguration: %d-node counter, node %d leaves at %v, rejoins at %v (window %v)\n",
		reconfigNodes, target, sim.Duration(leaveAt), sim.Duration(joinAt), reconfigWindow)
	cfg.printf("%10s  %s\n", "t(end)", "ops/µs")
	for _, w := range windows {
		mark := ""
		switch {
		case leaveCommit != 0 && w.end >= leaveCommit && w.end < leaveCommit+sim.Time(reconfigWindow):
			mark = "  <- leave committed"
		case joinCommit != 0 && w.end >= joinCommit && w.end < joinCommit+sim.Time(reconfigWindow):
			mark = "  <- join committed"
		}
		cfg.printf("%10v  %6.2f%s\n", sim.Duration(w.end), perWin(w), mark)
	}
	cfg.printf("\nsteady state: %.2f ops/µs (%d windows)\n", steady, n)
	for _, rep := range []reconfigReport{leaveRep, joinRep} {
		if !rep.regained {
			cfg.printf("%-5s commit %v: dip %.2f ops/µs, did not regain 90%% in its span\n",
				rep.label, sim.Duration(rep.commitAt), rep.dip)
			continue
		}
		cfg.printf("%-5s commit %v: dip %.2f ops/µs, regained 90%% of target in %v\n",
			rep.label, sim.Duration(rep.commitAt), rep.dip, rep.recovery)
	}
	cfg.printf("final epoch %d, stale-epoch rejects %d\n", cl.Epoch(), cl.StaleRejects())
}
