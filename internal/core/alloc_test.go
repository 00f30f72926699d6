package core

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// TestTracerDisabledZeroAlloc pins the cost of conformance instrumentation
// at zero when no tracer is attached: the exact guard pattern used on the
// invoke/apply hot paths — trace, traceData, and a tracing()-gated payload
// build — must not allocate. Payload construction (callID strings,
// CallRecord boxing) happens only behind the guard, so a disabled tracer
// can never tax production runs.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 1, 1, func(o *Options) { o.CheckIntegrity = false })
	r := h.cluster.Replica(0)
	if r.tracing() {
		t.Fatal("harness attached a tracer unexpectedly")
	}
	c := spec.Call{Method: crdt.CounterAdd, Proc: 0, Seq: 7, Args: spec.Args{I: []int64{1}}}
	allocs := testing.AllocsPerRun(1000, func() {
		r.trace(trace.Issue, c, "enter")
		if r.tracing() {
			r.traceData(trace.Apply, c, "", trace.CallRecord{C: c})
		}
		r.traceData(trace.Complete, c, "", nil)
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer hot path allocates %.1f objects per call, want 0", allocs)
	}
}

// TestTracerCostVanishesWhenDisabled drives real reducible invokes through
// a live single-node cluster and compares per-cycle allocations with the
// tracer detached and attached. The attached run must allocate strictly
// more — proving the lifecycle events a conformance run records are work
// the tracing() guards genuinely skip, not merely defer, when disabled.
func TestTracerCostVanishesWhenDisabled(t *testing.T) {
	measure := func(attach bool) float64 {
		h := newHarness(t, crdt.NewCounter(), 1, 1, func(o *Options) { o.CheckIntegrity = false })
		r := h.cluster.Replica(0)
		if attach {
			r.opts.Tracer = trace.New(h.eng, 1<<16)
		}
		now := h.eng.Now()
		return testing.AllocsPerRun(200, func() {
			r.Invoke(crdt.CounterAdd, spec.Args{I: []int64{1}}, nil)
			now += sim.Time(100 * sim.Microsecond)
			h.eng.RunUntil(now)
		})
	}
	off, on := measure(false), measure(true)
	if on <= off {
		t.Errorf("tracer-attached invoke allocates %.1f/op, detached %.1f/op; want attached > detached", on, off)
	}
	t.Logf("allocs per invoke cycle: detached %.1f, attached %.1f", off, on)
}

// TestQuiescentScanZeroAlloc pins the cost of the poll that runs most: a
// full scanSummaries pass over a 4-node counter cluster at rest. Every peer
// slot's δ-log holds records the replica folded long ago; the pass must
// re-validate each of them (length, canary, CRC, kind, version) and decode
// none, which is what keeps it free of allocations — a body decode
// materialises Counts and Args per record, and the garbage tail that ends
// every walk must not cost an error message.
func TestQuiescentScanZeroAlloc(t *testing.T) {
	const perNode = 10
	h := newHarness(t, crdt.NewCounter(), 4, 81, func(o *Options) { o.CheckIntegrity = false })
	h.eng.At(0, func() {
		for i := 0; i < perNode; i++ {
			for p := 0; p < 4; p++ {
				h.invoke(spec.ProcID(p), crdt.CounterAdd, spec.ArgsI(int64(i+1)))
			}
		}
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()

	r := h.cluster.Replica(0)
	region := r.node.Region(r.opts.Namespace + sumRegionBase).Bytes()
	for p := 1; p < 4; p++ {
		off := r.slotOffset(0, spec.ProcID(p))
		log := region[off+r.anchorCap() : off+r.opts.SumSlotSize]
		records := 0
		for {
			hd, err := codec.PeekDeltaRecord(log)
			if err != nil {
				break
			}
			if hd.Version > r.sums[0][p].version {
				t.Fatalf("p%d's log holds an unfolded record v%d: the cluster is not at rest", p, hd.Version)
			}
			records++
			log = log[hd.Total:]
		}
		if records < 8 {
			t.Fatalf("p%d's δ-log holds %d folded records, want at least 8 for the pin to mean anything", p, records)
		}
	}

	applied := r.statApplied
	if allocs := testing.AllocsPerRun(200, r.scanSummaries); allocs != 0 {
		t.Errorf("a quiescent scanSummaries pass allocates %.1f objects, want 0", allocs)
	}
	if r.statApplied != applied {
		t.Fatalf("the scan adopted something (%d → %d applied): the cluster was not at rest", applied, r.statApplied)
	}
}
