package core

import (
	"fmt"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// BenchmarkReduceCall is the issuer's host cost of one reducible call against
// the size of its summary: a gset call that re-adds a key its summary of 64
// or 2 048 keys already holds, and the flush that writes it to the one peer.
// The peer's scan is stopped, so only the issuer's side is timed.
func BenchmarkReduceCall(b *testing.B) {
	for _, keys := range []int{64, 2048} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			eng := sim.NewEngine(1)
			opts := DefaultOptions()
			opts.DisableFailureHandling = true
			c := NewCluster(rdma.NewFabric(eng, 2, rdma.DefaultLatency()), spec.MustAnalyze(crdt.NewGSet()), opts)
			r0 := c.Replica(0)
			pauseScan(c.Replica(1))
			all := make([]int64, keys)
			for i := range all {
				all[i] = int64(i)
			}
			r0.invokeReduce(crdt.GSetAdd, spec.Args{I: all}, 0, nil)
			args := spec.ArgsI(int64(keys / 2))
			now := eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r0.invokeReduce(crdt.GSetAdd, args, now, nil)
				now += sim.Time(10 * sim.Microsecond)
				eng.RunUntil(now)
			}
		})
	}
}
