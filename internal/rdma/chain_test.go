package rdma

import (
	"errors"
	"testing"

	"hamband/internal/sim"
)

// chainLatency is a cost model with inline CPU cost zeroed so the chain
// doorbell identity (PostCost + (k-1)·ChainedPostCost) can be asserted
// exactly from CPU busy time.
func chainLatency() LatencyModel {
	lat := DefaultLatency()
	lat.InlineCost = 0
	return lat
}

func chainFabric(t *testing.T, lat LatencyModel) (*sim.Engine, *Fabric, *Region) {
	t.Helper()
	eng := sim.NewEngine(7)
	f := NewFabric(eng, 2, lat)
	r := f.Node(1).Register("buf", 4096)
	r.AllowWrite(0)
	return eng, f, r
}

// TestChainPostCostIdentity pins the doorbell-batching cost law: a chain of
// k small WRs charges the sender CPU exactly
// PostCost + (k-1)·ChainedPostCost, plus one PollCost for the tail CQE.
func TestChainPostCostIdentity(t *testing.T) {
	const k = 5
	lat := chainLatency()
	eng, f, _ := chainFabric(t, lat)
	var done bool
	eng.At(0, func() {
		wrs := make([]WR, k)
		for i := range wrs {
			wrs[i] = WR{Region: "buf", Off: i * 8, Data: []byte{byte(i + 1)}}
		}
		f.Node(0).QP(1).PostChain(wrs, func(err error) {
			if err != nil {
				t.Errorf("chain completion error: %v", err)
			}
			done = true
		})
	})
	eng.Run()
	if !done {
		t.Fatal("chain never completed")
	}
	want := lat.PostCost + (k-1)*lat.ChainedPostCost + lat.PollCost
	if got := f.Node(0).CPU.BusyTotal(); got != want {
		t.Fatalf("sender CPU busy = %v, want PostCost + (k-1)·ChainedPostCost + PollCost = %v", got, want)
	}
}

// TestChainVsIndividualPostsCPU is the headline saving: the same k writes
// cost strictly less sender CPU as one chain than as k signaled posts.
func TestChainVsIndividualPostsCPU(t *testing.T) {
	const k = 8
	run := func(chained bool) sim.Duration {
		eng, f, _ := chainFabric(t, chainLatency())
		eng.At(0, func() {
			qp := f.Node(0).QP(1)
			if chained {
				wrs := make([]WR, k)
				for i := range wrs {
					wrs[i] = WR{Region: "buf", Off: i * 8, Data: []byte{1}}
				}
				qp.PostChain(wrs, func(error) {})
			} else {
				for i := 0; i < k; i++ {
					qp.Write("buf", i*8, []byte{1}, func(error) {})
				}
			}
		})
		eng.Run()
		return f.Node(0).CPU.BusyTotal()
	}
	chain, individual := run(true), run(false)
	if chain >= individual {
		t.Fatalf("chained CPU %v ≥ individual CPU %v; chaining must reduce sender occupancy", chain, individual)
	}
}

// TestInlineSkipsDMARead pins the inline-send landing time: a payload at or
// under InlineThreshold becomes visible in remote memory InlineDMASaving
// earlier than the plain wire latency, because the NIC never DMA-reads the
// payload from registered memory.
func TestInlineSkipsDMARead(t *testing.T) {
	lat := DefaultLatency()
	eng, f, r := chainFabric(t, lat)
	var landAt sim.Time
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{5}, nil)
	})
	var probe *sim.Ticker
	probe = eng.NewTicker(1, func() {
		if landAt == 0 && r.Bytes()[0] == 5 {
			landAt = eng.Now()
		}
		if eng.Now() > 10_000 {
			probe.Cancel()
		}
	})
	eng.Run()
	if landAt == 0 {
		t.Fatal("inline write never landed")
	}
	// Fires after PostCost+InlineCost; lands one reduced wire latency later
	// (+1 probe granularity).
	want := sim.Time(lat.PostCost+lat.InlineCost+lat.WireLatency-lat.InlineDMASaving) + 1
	if landAt > want {
		t.Fatalf("inline write landed at %v, want ≤ %v (DMA-read leg must be skipped)", landAt, want)
	}
}

// TestInlineThresholdBoundary: a payload one byte over the threshold takes
// the full wire latency.
func TestInlineThresholdBoundary(t *testing.T) {
	lat := DefaultLatency()
	eng, f, r := chainFabric(t, lat)
	big := make([]byte, lat.InlineThreshold+1)
	big[0] = 9
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, big, nil)
	})
	var landAt sim.Time
	var probe *sim.Ticker
	probe = eng.NewTicker(1, func() {
		if landAt == 0 && r.Bytes()[0] == 9 {
			landAt = eng.Now()
		}
		if eng.Now() > 10_000 {
			probe.Cancel()
		}
	})
	eng.Run()
	min := sim.Time(lat.PostCost + lat.WireLatency + lat.transfer(len(big)))
	if landAt < min {
		t.Fatalf("non-inline write landed at %v, before the full wire path (%v)", landAt, min)
	}
	if got := f.Stats().InlineWrites; got != 0 {
		t.Fatalf("InlineWrites = %d for an over-threshold payload, want 0", got)
	}
}

// TestChainIntermediatesUnsignaled: only the tail of a chain is reaped. CPU
// busy time shows exactly one PollCost, and the Unsignaled counter records
// the suppressed completions.
func TestChainIntermediatesUnsignaled(t *testing.T) {
	const k = 6
	lat := chainLatency()
	eng, f, _ := chainFabric(t, lat)
	polls := 0
	eng.At(0, func() {
		wrs := make([]WR, k)
		for i := range wrs {
			wrs[i] = WR{Region: "buf", Off: i * 4, Data: []byte{1}}
		}
		f.Node(0).QP(1).PostChain(wrs, func(error) { polls++ })
	})
	eng.Run()
	if polls != 1 {
		t.Fatalf("tail completion fired %d times, want 1", polls)
	}
	busy := f.Node(0).CPU.BusyTotal()
	postBusy := lat.PostCost + (k-1)*lat.ChainedPostCost
	if got := busy - postBusy; got != lat.PollCost {
		t.Fatalf("completion CPU = %v, want exactly one PollCost (%v): intermediates must be unsignaled", got, lat.PollCost)
	}
	if got := f.Stats().Unsignaled; got != k-1 {
		t.Fatalf("Unsignaled = %d, want %d", got, k-1)
	}
}

// TestChainSignalAllAblation: with the ablation knob set, every WR in the
// chain pays PollCost — the selective-signaling baseline.
func TestChainSignalAllAblation(t *testing.T) {
	const k = 4
	lat := chainLatency()
	lat.ChainSignalAll = true
	eng, f, _ := chainFabric(t, lat)
	eng.At(0, func() {
		wrs := make([]WR, k)
		for i := range wrs {
			wrs[i] = WR{Region: "buf", Off: i * 4, Data: []byte{1}}
		}
		f.Node(0).QP(1).PostChain(wrs, func(error) {})
	})
	eng.Run()
	busy := f.Node(0).CPU.BusyTotal()
	postBusy := lat.PostCost + (k-1)*lat.ChainedPostCost
	if got := busy - postBusy; got != sim.Duration(k)*lat.PollCost {
		t.Fatalf("completion CPU = %v, want k·PollCost (%v) with ChainSignalAll", got, sim.Duration(k)*lat.PollCost)
	}
	if got := f.Stats().Unsignaled; got != 0 {
		t.Fatalf("Unsignaled = %d with ChainSignalAll, want 0", got)
	}
}

// TestChainLandsInOrderAndCompletes: all WRs of a chain are applied, in
// posting order, and the tail completion implies every write is visible.
func TestChainLandsInOrderAndCompletes(t *testing.T) {
	eng, f, r := chainFabric(t, DefaultLatency())
	var doneAt sim.Time
	var atDone []byte
	eng.At(0, func() {
		f.Node(0).QP(1).PostChain([]WR{
			{Region: "buf", Off: 0, Data: []byte{1, 1}},
			{Region: "buf", Off: 0, Data: []byte{2}}, // overlaps: must apply after the first
			{Region: "buf", Off: 8, Data: []byte{3}},
		}, func(err error) {
			if err != nil {
				t.Errorf("chain error: %v", err)
			}
			doneAt = eng.Now()
			atDone = append([]byte(nil), r.Bytes()[:9]...)
		})
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("chain never completed")
	}
	if atDone[0] != 2 || atDone[1] != 1 || atDone[8] != 3 {
		t.Fatalf("memory at tail completion = %v; RC order or completeness violated", atDone[:9])
	}
}

// TestChainPreservesCQEOrderWithLaterVerbs: a signaled write posted after a
// chain completes after the chain's tail (lastCQE horizon intact).
func TestChainPreservesCQEOrderWithLaterVerbs(t *testing.T) {
	eng, f, _ := chainFabric(t, DefaultLatency())
	var order []int
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		qp.PostChain([]WR{
			{Region: "buf", Off: 0, Data: make([]byte, 1024)}, // slow, non-inline
			{Region: "buf", Off: 1024, Data: make([]byte, 1024)},
		}, func(error) { order = append(order, 1) })
		qp.Write("buf", 2048, []byte{1}, func(error) { order = append(order, 2) })
	})
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v, want [1 2]: chain tail CQE must precede later verbs'", order)
	}
}

// TestChainErrorFlushesRemainder: the first failing WR puts the chain in
// the error state — later WRs are flushed without touching remote memory,
// and the tail completion carries the first error.
func TestChainErrorFlushesRemainder(t *testing.T) {
	eng, f, r := chainFabric(t, DefaultLatency())
	var got error
	eng.At(0, func() {
		f.Node(0).QP(1).PostChain([]WR{
			{Region: "buf", Off: 0, Data: []byte{1}},
			{Region: "nope", Off: 0, Data: []byte{2}}, // fails: no such region
			{Region: "buf", Off: 8, Data: []byte{3}},  // must be flushed
		}, func(err error) { got = err })
	})
	eng.Run()
	if !errors.Is(got, ErrNoRegion) {
		t.Fatalf("tail err = %v, want ErrNoRegion (first failure wins)", got)
	}
	if r.Bytes()[0] != 1 {
		t.Fatal("WR before the failure did not land")
	}
	if r.Bytes()[8] != 0 {
		t.Fatal("WR after the failure landed; the chain must flush after an error")
	}
}

// TestChainCrashedTargetFails: a chain posted at a crashed target reports
// ErrCrashed through the usual failure-timeout path.
func TestChainCrashedTargetFails(t *testing.T) {
	eng, f, _ := chainFabric(t, DefaultLatency())
	f.Node(1).Crash()
	var got error
	var at sim.Time
	eng.At(0, func() {
		f.Node(0).QP(1).PostChain([]WR{
			{Region: "buf", Off: 0, Data: []byte{1}},
			{Region: "buf", Off: 8, Data: []byte{2}},
		}, func(err error) { got, at = err, eng.Now() })
	})
	eng.Run()
	if !errors.Is(got, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", got)
	}
	if want := sim.Time(DefaultLatency().FailTimeout); at < want {
		t.Fatalf("chain failure at %v, before the failure timeout %v", at, want)
	}
}

// TestChainStatsAndDegenerateForms: counters for chains, chained WRs and
// inline posts; single-WR chains degenerate to Write and empty chains are
// no-ops.
func TestChainStatsAndDegenerateForms(t *testing.T) {
	eng, f, _ := chainFabric(t, DefaultLatency())
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		qp.PostChain([]WR{
			{Region: "buf", Off: 0, Data: []byte{1}},
			{Region: "buf", Off: 8, Data: []byte{2}},
			{Region: "buf", Off: 16, Data: make([]byte, 1024)}, // non-inline tail
		}, nil)
		qp.PostChain([]WR{{Region: "buf", Off: 32, Data: []byte{4}}}, nil) // = Write
		qp.PostChain(nil, nil)                                             // no-op
	})
	eng.Run()
	s := f.Stats()
	if s.Chains != 1 || s.ChainedWRs != 2 {
		t.Fatalf("Chains=%d ChainedWRs=%d, want 1 and 2", s.Chains, s.ChainedWRs)
	}
	if s.Writes != 4 {
		t.Fatalf("Writes = %d, want 4 (3 chained + 1 degenerate)", s.Writes)
	}
	if s.InlineWrites != 3 {
		t.Fatalf("InlineWrites = %d, want 3 (the 1 KiB tail is over threshold)", s.InlineWrites)
	}
	// Whole first chain unsignaled (nil onDone) + the degenerate write.
	if s.Unsignaled != 4 {
		t.Fatalf("Unsignaled = %d, want 4", s.Unsignaled)
	}
}

// TestZeroChainFieldsReproduceSeedModel: a LatencyModel with the chain
// refinements zeroed behaves exactly like the pre-chain model — PostChain
// charges full PostCost per WR and nothing inlines.
func TestZeroChainFieldsReproduceSeedModel(t *testing.T) {
	lat := DefaultLatency()
	lat.ChainedPostCost = lat.PostCost // no doorbell sharing
	lat.InlineThreshold = 0            // no inlining
	lat.InlineCost = 0
	eng, f, r := chainFabric(t, lat)
	const k = 3
	eng.At(0, func() {
		wrs := make([]WR, k)
		for i := range wrs {
			wrs[i] = WR{Region: "buf", Off: i * 8, Data: []byte{byte(i + 1)}}
		}
		f.Node(0).QP(1).PostChain(wrs, func(error) {})
	})
	eng.Run()
	want := sim.Duration(k)*lat.PostCost + lat.PollCost
	if got := f.Node(0).CPU.BusyTotal(); got != want {
		t.Fatalf("sender CPU = %v, want %v (ablation baseline must cost like k posts)", got, want)
	}
	if s := f.Stats(); s.InlineWrites != 0 {
		t.Fatalf("InlineWrites = %d with inlining disabled", s.InlineWrites)
	}
	if r.Bytes()[0] != 1 || r.Bytes()[8] != 2 || r.Bytes()[16] != 3 {
		t.Fatal("chain writes did not land under the baseline model")
	}
}
