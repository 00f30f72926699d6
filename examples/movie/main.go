// Movie: two independent synchronization groups ordered by two independent
// leaders (the mechanism behind the paper's Figure 10 speedup), compared
// head-to-head against the single-leader SMR baseline on the same workload.
//
// The movie schema's customer and movie relations never interact, so the
// conflict graph has two connected components. Hamband gives each component
// its own Mu instance with its own leader; the SMR baseline — the same runtime
// over spec.Serialized, the analysis in which every pair of updates conflicts —
// funnels every update through one leader. The theoretical gain is 2×; under
// this repo's cost model, where every replica pays to deliver and apply every
// call whichever group ordered it, it is a few percent (EXPERIMENTS.md,
// Figure 10).
//
// Run with: go run ./examples/movie
package main

import (
	"fmt"

	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

const ops = 4000

// run executes `ops` alternating addCustomer/addMovie updates on a 4-node
// cluster with a closed loop of 8 per node, and returns the virtual-time
// makespan.
func run(name string, invoke func(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)),
	eng *sim.Engine) sim.Duration {
	remaining := ops
	inflight := 0
	var finished sim.Time
	var issue func(p spec.ProcID, i int)
	issue = func(p spec.ProcID, i int) {
		if remaining == 0 {
			return
		}
		remaining--
		inflight++
		u := schema.MovieAddCustomer
		if i%2 == 1 {
			u = schema.MovieAddMovie
		}
		invoke(p, u, spec.ArgsI(int64(i%256)), func(any, error) {
			inflight--
			if remaining == 0 && inflight == 0 {
				finished = eng.Now()
				eng.Stop()
			}
			issue(p, i+2)
		})
	}
	eng.At(0, func() {
		for p := spec.ProcID(0); p < 4; p++ {
			for s := 0; s < 8; s++ {
				issue(p, int(p)*97+s)
			}
		}
	})
	eng.Run()
	d := sim.Duration(finished)
	fmt.Printf("%-22s %6d updates in %10v  ->  %.2f ops/µs\n",
		name, ops, d, float64(ops)/d.Micros())
	return d
}

func main() {
	cls := schema.NewMovie()
	an := spec.MustAnalyze(cls)
	fmt.Print(an.Summary())

	// Hamband: two groups, two leaders.
	engH := sim.NewEngine(3)
	fabH := rdma.NewFabric(engH, 4, rdma.DefaultLatency())
	ham := core.NewCluster(fabH, an, core.DefaultOptions())
	fmt.Printf("Hamband leaders: group0 -> p%d, group1 -> p%d\n\n",
		ham.Leader(0, 0), ham.Leader(0, 1))
	dh := run("Hamband (2 leaders)", func(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
		ham.Replica(p).Invoke(u, a, cb)
	}, engH)

	// SMR: the same runtime with every pair of updates declared conflicting,
	// so one group and one leader for everything.
	engS := sim.NewEngine(3)
	fabS := rdma.NewFabric(engS, 4, rdma.DefaultLatency())
	single := core.NewCluster(fabS, spec.MustAnalyze(spec.Serialized(cls)), core.DefaultOptions())
	ds := run("Mu SMR (1 leader)", func(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
		single.Replica(p).Invoke(u, a, cb)
	}, engS)

	fmt.Printf("\nspeedup from separate synchronization groups: %.2f× (theoretical limit 2×)\n",
		float64(ds)/float64(dh))
}
