package bench

import (
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// doorbellVariant is one cell of the verb-chain ablation grid.
type doorbellVariant struct {
	name   string
	chain  bool
	inline bool
}

func doorbellVariants() []doorbellVariant {
	return []doorbellVariant{
		{"baseline", false, false},
		{"chain", true, false},
		{"inline", false, true},
		{"chain+inline", true, true},
	}
}

// latency builds the variant's cost model. Chaining off means every WR pays
// a full doorbell (ChainedPostCost = PostCost) and every WR in a chain is
// signaled — the one-fully-signaled-verb-per-write model the runtime used
// before the chain API. Inline off disables IBV_SEND_INLINE entirely.
func (v doorbellVariant) latency() rdma.LatencyModel {
	lat := rdma.DefaultLatency()
	if !v.chain {
		lat.ChainedPostCost = lat.PostCost
		lat.ChainSignalAll = true
	}
	if !v.inline {
		lat.InlineThreshold = 0
		lat.InlineCost = 0
	}
	return lat
}

// doorbellPoint runs one Hamband point under lat and returns the result
// together with the fabric's verb stats and the cluster-wide CPU busy time
// (the simulated sender/receiver CPU occupancy the ablation is about).
func (cfg Config) doorbellPoint(cls *spec.Class, nodes int, ratio float64, lat rdma.LatencyModel) (*Result, rdma.Stats, sim.Duration) {
	res, fab := cfg.run(Hamband, cls, nodes, cfg.Ops, ratio, variant{lat: &lat})
	var busy sim.Duration
	for i := 0; i < fab.Size(); i++ {
		busy += fab.Node(rdma.NodeID(i)).CPU.BusyTotal()
	}
	return res, fab.Stats(), busy
}

// Doorbell runs the verb-chain ablation: doorbell batching and inline sends
// swept independently over the three replication paths (reduce fan-out,
// reliable broadcast, consensus log), reporting throughput, tail latency
// and sender CPU occupancy per variant.
func (cfg Config) Doorbell() {
	type target struct {
		name  string
		cls   func() *spec.Class
		ratio float64
	}
	targets := []target{
		{"counter (reduce)", crdt.NewCounter, 0.25},
		{"orset (broadcast)", crdt.NewORSet, 0.25},
		{"movie (consensus)", schema.NewMovie, 1.0},
	}
	cfg.printf("Ablation — doorbell batching, inline sends, unsignaled completions (4 nodes)\n")
	for _, tg := range targets {
		cfg.printf("\n%s, %.0f%% updates\n", tg.name, tg.ratio*100)
		cfg.printf("%-13s %8s %9s %9s %9s %8s %9s %8s\n",
			"variant", "ops/µs", "p50", "p99", "CPUns/op", "chains", "chainedWR", "inline")
		var base, full struct {
			thr, cpu float64
			p99      sim.Duration
		}
		for _, v := range doorbellVariants() {
			res, st, busy := cfg.doorbellPoint(tg.cls(), 4, tg.ratio, v.latency())
			done := float64(res.Completed - res.Rejected)
			cpuPerOp := 0.0
			if done > 0 {
				cpuPerOp = float64(busy) / done
			}
			cfg.printf("%-13s %8.2f %9s %9s %9.0f %8d %9d %8d\n",
				v.name, res.Throughput(),
				fmtRT(res.Percentile(50)), fmtRT(res.Percentile(99)),
				cpuPerOp, st.Chains, st.ChainedWRs, st.InlineWrites)
			switch v.name {
			case "baseline":
				base.thr, base.cpu, base.p99 = res.Throughput(), cpuPerOp, res.Percentile(99)
			case "chain+inline":
				full.thr, full.cpu, full.p99 = res.Throughput(), cpuPerOp, res.Percentile(99)
			}
		}
		if base.thr > 0 && base.cpu > 0 {
			cfg.printf("chain+inline vs baseline: throughput %+.1f%%, p99 %+.1f%%, CPU/op %+.1f%%\n",
				100*(full.thr-base.thr)/base.thr,
				100*(full.p99-base.p99).Micros()/base.p99.Micros(),
				100*(full.cpu-base.cpu)/base.cpu)
		}
	}
	cfg.printf("\n")
}
