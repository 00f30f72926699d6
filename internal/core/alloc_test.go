package core

import (
	"runtime"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
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

// TestReduceCycleAllocsIndependentOfSummary pins the O(δ) reduce path: one
// warm reducible gset invoke plus its fold at the peer allocates the same
// number of objects whether the summary holds 16 keys or 512, and no buffer
// that grows with it. The adds draw from keys the summary already holds, as
// most do once a key space is saturated, so Summarize returns its first
// argument; the frame is encoded in place; only a ~100 B δ-record travels.
// What remains of the summary's size is the anchor every AnchorInterval
// calls — one private copy at the writer, one decode at the reader — which
// stays far below the 1 KiB a cycle allowed here (the rebuild-per-call path
// spent over 20 KiB a cycle at 512 keys).
func TestReduceCycleAllocsIndependentOfSummary(t *testing.T) {
	const cycles = 320 // ten anchor intervals
	measure := func(keys int) (allocs, bytes uint64) {
		h := newHarness(t, crdt.NewGSet(), 2, 91, func(o *Options) { o.CheckIntegrity = false })
		all := make([]int64, keys)
		for i := range all {
			all[i] = int64(i)
		}
		r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
		r0.Invoke(crdt.GSetAdd, spec.Args{I: all}, nil)
		args := spec.ArgsI(11, 3)
		now := h.eng.Now()
		cycle := func() {
			r0.Invoke(crdt.GSetAdd, args, nil)
			now += sim.Time(10 * sim.Microsecond)
			h.eng.RunUntil(now)
		}
		for i := 0; i < 64; i++ { // warm: queues, batches and the heartbeat path reach their sizes
			cycle()
		}
		folded := r1.sums[0][0].version
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if got := r1.sums[0][0].version - folded; got != cycles {
			t.Fatalf("the peer folded %d of %d calls", got, cycles)
		}
		if got := len(r1.sums[0][0].call.Args.I); got != keys {
			t.Fatalf("the peer's summary holds %d keys, want %d", got, keys)
		}
		return (after.Mallocs - before.Mallocs) / cycles, (after.TotalAlloc - before.TotalAlloc) / cycles
	}
	smallAllocs, smallBytes := measure(16)
	bigAllocs, bigBytes := measure(512)
	t.Logf("per invoke+fold cycle: 16 keys %d objects %d B, 512 keys %d objects %d B", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("a cycle allocates %d objects on a 512-key summary, %d on a 16-key one; want the same", bigAllocs, smallAllocs)
	}
	if bigBytes > 1024 {
		t.Errorf("a cycle on a 512-key summary allocates %d B, want at most 1 KiB: some buffer grows with the summary", bigBytes)
	}
}

// TestSummaryOutChannelAllocatesNothing pins what the copy at enqueue bought:
// with the tracer detached, picking a call's δ-record, handing it to the
// coalescer for three peers and flushing it allocates nothing once the verb
// free list is warm — the record is encoded into the replica's scratch buffer,
// the coalescer stages it in a buffer it reuses, and the verb copies it into a
// recycled record. The δ-record carries the version the peers already hold, so
// their scans skip it undecoded and the engine can be drained inside the
// measured function.
func TestSummaryOutChannelAllocatesNothing(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 4, 92, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true // heartbeat reads allocate, and are not this path
	})
	h.eng.At(0, func() {
		for i := 0; i < 4; i++ {
			h.invoke(0, crdt.CounterAdd, spec.ArgsI(int64(i+1)))
		}
	})
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	r := h.cluster.Replica(0)
	if r.tracing() {
		t.Fatal("harness attached a tracer unexpectedly")
	}
	slot := r.sums[0][0]
	c := spec.Call{Method: crdt.CounterAdd, Proc: 0, Seq: 4, Args: spec.ArgsI(4)}
	logOff := r.slotOffset(0, 0) + r.anchorCap()
	now := h.eng.Now()
	var recLen int
	cycle := func() {
		r.deltaW[0] = deltaWriter{} // the same log bytes every cycle, never an anchor
		rec, at := r.nextDelta(0, slot, c)
		recLen = len(rec)
		wr := rdma.WR{Region: sumRegionBase, Off: logOff + at, Data: rec}
		for p := 1; p < 4; p++ {
			r.coal.Enqueue(rdma.NodeID(p), "", wr)
		}
		now += sim.Time(10 * sim.Microsecond)
		h.eng.RunUntil(now) // flush, post, land, release
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("nextDelta, three enqueues and the flush allocate %.2f objects, want 0", allocs)
	}
	for p := 1; p < 4; p++ {
		log := h.cluster.Replica(spec.ProcID(p)).node.Region(sumRegionBase).Bytes()[logOff:]
		if hd, err := codec.PeekDeltaRecord(log); err != nil || hd.Version != slot.version || hd.Total != recLen {
			t.Fatalf("p%d's log does not hold the record the cycles wrote: %+v, %v", p, hd, err)
		}
	}
}

// TestFreeBurstAllocsBelowMessagePerCall pins what one message per round trip
// does to the host clock: a warm burst of eight OR-set adds at one replica of
// four, tracer detached, allocates per call under half of what it did when
// every call was its own broadcast message (22.9 objects a call at commit
// c6f5281: a message, its framed record, backup frame and completion closure
// at the source, a payload copy and a handler closure at each of three
// receivers — all now per burst). The batch buffer is reused from flush to
// flush: dropping it at every flush, as the old knob's path did, costs four
// more objects a burst and trips the pin. What is left is per call by nature:
// the argument slices, the Invoke closures, the framed record each staging of
// the open batch writes to its backup slot, the decoded call at each peer and
// the OR-set's own state.
func TestFreeBurstAllocsBelowMessagePerCall(t *testing.T) {
	const burst = 8
	h := newHarness(t, crdt.NewORSet(), 4, 93, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true // heartbeat reads allocate, and are not this path
	})
	r := h.cluster.Replica(0)
	if r.tracing() {
		t.Fatal("harness attached a tracer unexpectedly")
	}
	now := h.eng.Now()
	tag := uint64(0)
	cycle := func() {
		for i := 0; i < burst; i++ {
			tag++
			r.Invoke(crdt.ORSetAdd, spec.ArgsI(int64(i), crdt.Tag(0, tag)), nil)
		}
		now += sim.Time(20 * sim.Microsecond)
		h.eng.RunUntil(now) // flush, post, land, deliver, apply
	}
	for i := 0; i < 64; i++ { // warm: queues, the batch and the verb free list reach their sizes
		cycle()
	}
	sent := h.fab.Stats().Writes
	perCall := testing.AllocsPerRun(200, cycle) / burst
	if writes := h.fab.Stats().Writes - sent; writes != 201*3 {
		t.Fatalf("201 bursts left in %d writes, want one message of three writes each", writes)
	}
	if got := h.cluster.Replica(3).applied.Get(0, crdt.ORSetAdd); got != uint32(tag) {
		t.Fatalf("p3 applied %d of %d adds", got, tag)
	}
	if perCall > 10.5 {
		t.Errorf("a warm burst allocates %.2f objects per call, want at most 10.5 (10.38 measured; 22.9 with a message per call)", perCall)
	}
	t.Logf("allocs per call: %.2f", perCall)
}

// TestConfCallAllocs pins rule CONF end to end: on a warm 4-node movie
// cluster, tracer and metrics detached, one conflicting call issued at a
// follower of its group — forwarded, ordered at the leader, replicated,
// committed, delivered into four L buffers and applied — allocates exactly
// mu's 16 buffers (mu.TestWarmCommitAllocs has the list) and, in this package:
//
//	1  Invoke's closure, the issue item on the origin's CPU
//	1  the origin's payload (encodeConf), which mu.Submit keeps uncopied
//	1  the leader's decode of it (leaderTransform)
//	1  the payload with the dependency record attached (encodeConf again)
//	4  each replica's decode of that into its L buffer (onConfDelivery)
//
// and nothing for the hops between them: the L buffers reuse their storage,
// and a delivery is a slice of the copy ring.Reader.Poll made.
func TestConfCallAllocs(t *testing.T) {
	h := newHarness(t, schema.NewMovie(), 4, 94, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true // heartbeat reads allocate, and are not this path
		o.Mu.CatchUpAfter = sim.Second  // so does the idle group's staleness probe of its leader
	})
	r := h.cluster.Replica(1)
	if r.tracing() || r.mConfLat != nil {
		t.Fatal("harness attached a tracer or a metrics registry unexpectedly")
	}
	if leader := h.cluster.Leader(1, r.an.SyncGroupOf[schema.MovieAddCustomer]); leader == r.id {
		t.Fatalf("p%d leads addCustomer's group: the call would skip the forward hop", r.id)
	}
	args := spec.ArgsI(7) // the same customer every time: the state stops growing after the first call
	done := 0
	onDone := func(_ any, err error) {
		if err != nil {
			t.Errorf("call failed: %v", err)
		}
		done++
	}
	now := h.eng.Now()
	cycle := func() {
		r.Invoke(schema.MovieAddCustomer, args, onDone)
		now += sim.Time(30 * sim.Microsecond)
		h.eng.RunUntil(now)
	}
	const warm, runs = 64, 200
	for i := 0; i < warm; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 24 {
		t.Errorf("a warm conflicting call allocates %.0f times from Invoke to its last apply, want 24", allocs)
	}
	if want := warm + runs + 1; done != want {
		t.Fatalf("%d of %d calls completed", done, want)
	}
	for _, p := range h.cluster.Replicas {
		if got := p.applied.Get(r.id, schema.MovieAddCustomer); got != uint32(done) {
			t.Fatalf("p%d applied %d of %d calls", p.id, got, done)
		}
		if free, conf := p.QueueDepths(); free+conf != 0 {
			t.Fatalf("p%d still buffers %d calls at rest", p.id, free+conf)
		}
	}
}
