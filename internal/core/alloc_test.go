package core

import (
	"runtime"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/ring"
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
// the tracing() guards genuinely skip, not merely defer, when disabled. The
// detached cycle is pinned exactly at one object, the caller's argument
// slice: the call rides a record in the replica's call queue to its issue
// item, bound once, so Invoke allocates no closure, and the counter's
// Summarize adds into the slot's own summary.
//
// A tracing-only use of the call that takes its address (SlotRecord.C) must
// take it of a copy made under the guard, or every call moves to the heap.
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
	if off != 1 {
		t.Errorf("a detached reducible invoke cycle allocates %.0f objects, want 1", off)
	}
	if on <= off {
		t.Errorf("tracer-attached invoke allocates %.1f/op, detached %.1f/op; want attached > detached", on, off)
	}
	t.Logf("allocs per invoke cycle: detached %.1f, attached %.1f", off, on)
}

// TestQueryCycleZeroAlloc pins the local read path at nothing: on a detached
// one-node counter, a query issued with a callback bound beforehand rides a
// record in the replica's call queue to its issue item and another in its
// query queue to the QueryCost item, both bound once, and is answered from the
// maintained state. The counter's value stays below 256, so boxing the answer
// takes the runtime's static small-integer table, not the heap.
func TestQueryCycleZeroAlloc(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 1, 1, func(o *Options) { o.CheckIntegrity = false })
	r := h.cluster.Replica(0)
	if r.tracing() || r.mQueryLat != nil {
		t.Fatal("harness attached a tracer or a metrics registry unexpectedly")
	}
	r.Invoke(crdt.CounterAdd, spec.ArgsI(5), nil)
	answered := 0
	var got any
	onDone := func(v any, err error) {
		if err != nil {
			t.Errorf("query failed: %v", err)
		}
		got = v
		answered++
	}
	args := spec.Args{}
	now := h.eng.Now()
	cycle := func() {
		r.Invoke(crdt.CounterValue, args, onDone)
		now += sim.Time(10 * sim.Microsecond)
		h.eng.RunUntil(now)
	}
	cycle() // warm: the two queues reach their size
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a detached query cycle allocates %.2f objects, want 0", allocs)
	}
	if answered != 202 || got != any(int64(5)) {
		t.Fatalf("%d of 202 queries answered, last with %v; want 5", answered, got)
	}
}

// TestQuiescentScanZeroAlloc pins the cost of the poll that runs most: a
// full scanSummaries pass over a 4-node counter cluster at rest. Every peer's
// δ-log holds records the replica folded long ago; the pass reads each log's
// head and the empty bytes behind the walk's position, decoding into the
// node's scratch record, which is what keeps it free of allocations — and the
// empty tail that ends every walk must not cost an error message.
func TestQuiescentScanZeroAlloc(t *testing.T) {
	const perNode = 10
	h := newHarness(t, crdt.NewCounter(), 4, 81, func(o *Options) { o.CheckIntegrity = false })
	for i := 0; i < perNode; i++ {
		// One round a flush apart: each call ships its own δ-record.
		h.eng.At(sim.Time(i)*sim.Time(5*sim.Microsecond), func() {
			for p := 0; p < 4; p++ {
				h.invoke(spec.ProcID(p), crdt.CounterAdd, spec.ArgsI(int64(i+1)))
			}
		})
	}
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()

	r := h.cluster.Replica(0)
	for p := 1; p < 4; p++ {
		log := nodeLogOfWriter(r, spec.ProcID(p))
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
// warm reducible gset invoke plus its fold at the peer allocates nothing
// whether the summary holds 16 keys or 512, and no buffer that grows with it.
// The adds draw from keys the summary already holds, as most do once a key
// space is saturated, so Summarize returns its first argument; the frame is
// encoded in place; only a ~100 B δ-record travels, and the peer decodes it,
// and the anchor each time the δ-log fills, into its scratch records. The
// failure detector runs alongside, and its heartbeat reads ride recycled verb
// records like the writes, so a cycle allocates nothing: 0 objects and 0 B (5
// and 243 B when each heartbeat read built closures and copied its response;
// 6 and 262 B when each check built a closure per peer; 8 and 410 B when each
// peer fold decoded into fresh counts and arguments; over 20 KiB when
// Summarize rebuilt the union).
//
// The warm-up runs until the δ-log has wrapped seven times. The heartbeat
// reads hold verb records while the writes go on, so three records take
// turns carrying the writes, and each grows its buffer to anchor size the
// first time it carries an anchor: three anchors after the first, not one.
// Two windows of cycles follow back to back, and only the second is gated:
// the first may still see a one-time growth that depends on the schedule,
// not on the cycle (the engine's event heap reaching its peak depth: 384 B
// once, read as 2 B a cycle, when node 1's heartbeat checks against node 0's
// δ-records moved), and the test logs it.
func TestReduceCycleAllocsIndependentOfSummary(t *testing.T) {
	// As testing.AllocsPerRun does: another goroutine's objects would
	// count toward this one's (under -race, once 17 B a cycle).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, keys := range []int{16, 512} {
		run := warmReduceCycles(t, keys, false)
		var ms [3]runtime.MemStats
		runtime.ReadMemStats(&ms[0])
		run()
		runtime.ReadMemStats(&ms[1])
		run()
		runtime.ReadMemStats(&ms[2])
		first, second := allocsBetween(&ms[0], &ms[1]), allocsBetween(&ms[1], &ms[2])
		t.Logf("%d keys, %d cycles a window: first %d objects %d B, second %d objects %d B",
			keys, reduceCycles, first.allocs, first.bytes, second.allocs, second.bytes)
		if second.allocs != 0 || second.bytes != 0 {
			t.Errorf("%d invoke+fold cycles on a %d-key summary allocate %d objects and %d B, want 0 and 0",
				reduceCycles, keys, second.allocs, second.bytes)
		}
	}
}

// TestReduceCycleAllocsCatchesLeak is the control of the gated window: a
// cycle that allocates one object more fails it.
func TestReduceCycleAllocsCatchesLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := warmReduceCycles(t, 16, true)
	var ms [3]runtime.MemStats
	runtime.ReadMemStats(&ms[0])
	run()
	runtime.ReadMemStats(&ms[1])
	run()
	runtime.ReadMemStats(&ms[2])
	second := allocsBetween(&ms[1], &ms[2])
	if second.allocs < reduceCycles || second.bytes == 0 {
		t.Fatalf("a cycle leaking an object reads %d objects and %d B in %d cycles", second.allocs, second.bytes, reduceCycles)
	}
	t.Logf("caught: %d objects, %d B in %d cycles", second.allocs, second.bytes, reduceCycles)
}

// reduceCycles is a window's length: more than a δ-log of records, so each
// window holds an anchor.
const reduceCycles = 320

type allocWindow struct{ allocs, bytes uint64 }

func allocsBetween(before, after *runtime.MemStats) allocWindow {
	return allocWindow{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// leaked keeps the control's extra object on the heap.
var leaked *[4]int64

// warmReduceCycles warms a two-node gset cluster whose summary holds keys
// keys and returns a window: reduceCycles invoke+fold cycles, checked to
// fold every call. leak is the mutation: each cycle allocates one object
// more.
func warmReduceCycles(t *testing.T, keys int, leak bool) (window func()) {
	t.Helper()
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
		if leak {
			leaked = new([4]int64)
		}
	}
	for r0.statAnchors < 8 { // warm: queues, batches, the heartbeat path and every verb record's buffer
		cycle()
	}
	return func() {
		folded := r1.sums[0][0].version
		for i := 0; i < reduceCycles; i++ {
			cycle()
		}
		if got := r1.sums[0][0].version - folded; got != reduceCycles {
			t.Fatalf("the peer folded %d of %d calls", got, reduceCycles)
		}
		if got := len(r1.sums[0][0].call.Args.I); got != keys {
			t.Fatalf("the peer's summary holds %d keys, want %d", got, keys)
		}
	}
}

// TestPeerFoldAllocatesNothing pins rule REDUCE at zero on the host clock:
// with the tracer detached and the failure detector running, a warm reducible
// call on a two-node cluster — issued, folded into the issuer's summary, written as a
// δ-record or an anchor, and folded or adopted at the peer — allocates
// nothing, for the counter and for a gset whose adds it already holds. The
// issuer's Summarize folds into the slot it owns; the peer decodes each
// δ-record into its scratch record, which Summarize and the views only borrow,
// and each anchor into a second one whose arrays it swaps with the slot's.
func TestPeerFoldAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		cls  *spec.Class
		u    spec.MethodID
		fill spec.Args // a first call, outside the measured cycles
		args spec.Args // every measured call's arguments
	}{
		{crdt.NewCounter(), crdt.CounterAdd, spec.ArgsI(1), spec.ArgsI(3)},
		{crdt.NewGSet(), crdt.GSetAdd, spec.ArgsI(3, 5, 8, 11, 13), spec.ArgsI(11, 3)},
	} {
		h := newHarness(t, tc.cls, 2, 96, func(o *Options) {
			o.CheckIntegrity = false
		})
		r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
		if r0.tracing() {
			t.Fatal("harness attached a tracer unexpectedly")
		}
		r0.Invoke(tc.u, tc.fill, nil)
		now := h.eng.Now()
		cycle := func() {
			r0.Invoke(tc.u, tc.args, nil)
			now += sim.Time(10 * sim.Microsecond)
			h.eng.RunUntil(now)
		}
		for i := 0; i < 64; i++ { // warm: queues, batches, both scratch records
			cycle()
		}
		deltas, anchors := r0.statDeltas, r0.statAnchors
		allocs := testing.AllocsPerRun(200, cycle)
		if got, want := r1.sums[0][0].version, r0.sums[0][0].version; got != want || got != 266 {
			t.Fatalf("%s: the peer holds v%d of the issuer's v%d, want v266", tc.cls.Name, got, want)
		}
		if r0.statDeltas-deltas < 190 || r0.statAnchors == anchors {
			t.Fatalf("%s: the cycles wrote %d δ-records and %d anchors, want both kinds", tc.cls.Name,
				r0.statDeltas-deltas, r0.statAnchors-anchors)
		}
		if allocs != 0 {
			t.Errorf("%s: a warm reducible call, its write and the peer's fold allocate %.2f objects, want 0", tc.cls.Name, allocs)
		}
	}
}

// TestSummaryGrowthAllocs pins ownership on a summary that grows: 512 gset
// calls that each add a new key take the summary from 0 to 512 keys, and
// allocate under 16 KiB at the issuer and under 16 KiB at the peer. Each side
// grows its summary's array by doubling, and the peer's anchor scratch is
// sized like its slot; a Summarize that returned a fresh union copied the
// whole summary for every new key, about 1 MiB at each. The peer's scans run
// by hand after each call, so their bytes are counted apart from the issuer's
// call, write and flush.
func TestSummaryGrowthAllocs(t *testing.T) {
	const keys = 512
	h := newHarness(t, crdt.NewGSet(), 2, 97, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true
	})
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	pauseScan(r1) // no periodic scan: the measured one below is the only one
	args := make([]spec.Args, keys)
	for k := range args {
		args[k] = spec.ArgsI(int64(k))
	}
	var ms runtime.MemStats
	total := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	// As testing.AllocsPerRun does: another goroutine's objects would count
	// toward this one's (about one run in fifty put 5 KB more on the peer).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var issuer, peer uint64
	now := h.eng.Now()
	for k := range args {
		start := total()
		r0.Invoke(crdt.GSetAdd, args[k], nil)
		now += sim.Time(10 * sim.Microsecond)
		h.eng.RunUntil(now)
		mid := total()
		r1.scanSummaries()
		issuer += mid - start
		peer += total() - mid
	}
	for _, r := range []*Replica{r0, r1} {
		if slot := r.sums[0][0]; slot.version != keys || len(slot.call.Args.I) != keys {
			t.Fatalf("p%d holds v%d with %d keys, want v%d with %d", r.id, slot.version, len(slot.call.Args.I), keys, keys)
		}
	}
	t.Logf("0 → %d keys: issuer %d B, peer %d B (%d δ-records, %d anchors)", keys, issuer, peer, r0.statDeltas, r0.statAnchors)
	if issuer >= 16<<10 || peer >= 16<<10 {
		t.Errorf("growing the summary to %d keys allocates %d B at the issuer and %d B at the peer, want under 16 KiB each", keys, issuer, peer)
	}
}

// TestSummaryOutChannelAllocatesNothing pins what the copy at enqueue bought:
// with the tracer detached, picking a call's δ-record, handing it to the
// coalescer for three peers and flushing it allocates nothing once the verb
// free list is warm — the record is encoded into the replica's scratch buffer,
// the coalescer stages it in a buffer it reuses, and the verb copies it into a
// recycled record. The second cycle is a burst of calls on the slot between
// two flushes: each folds into the open run's call, which the writer keeps in
// arrays it reuses from run to run, and re-encodes the one record in place,
// which the coalescer writes over the staged bytes of the pending write —
// nothing allocated either. The δ-records carry versions the peers already
// hold, so their scans skip them undecoded and the engine can be drained
// inside the measured function.
func TestSummaryOutChannelAllocatesNothing(t *testing.T) {
	const burst = 6
	h := newHarness(t, crdt.NewCounter(), 4, 92, func(o *Options) {
		o.CheckIntegrity = false
	})
	h.eng.At(0, func() {
		for i := 0; i < burst; i++ {
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
	top := slot.version
	c := spec.Call{Method: crdt.CounterAdd, Proc: 0, Seq: 4, Args: spec.ArgsI(4)}
	logOff := int(r.id) * r.nlog.size
	origin := *ring.NewLogWriter(nodeLogOfWriter(r, r.id), passes) // the node log's writer at its start
	now := h.eng.Now()
	var recLen int
	ship := func() {
		slot.version++ // the call's version; a cycle ends at top
		rec, _, at, _ := r.nextDelta(0, slot, c)
		recLen = len(rec)
		r.propagate(0, rdma.WR{Region: NodeLogRegion, Off: logOff + at, Data: rec})
	}
	cycle := func(calls int) func() {
		return func() {
			// The same log bytes every cycle, never an anchor.
			dw := &r.deltaW[0]
			dw.logOff, dw.sinceAnchor, dw.open, *r.nlog.w = 0, 0, false, origin
			slot.version = top - uint32(calls)
			for i := 0; i < calls; i++ {
				ship()
			}
			now += sim.Time(10 * sim.Microsecond)
			h.eng.RunUntil(now) // flush, post, land, release
		}
	}
	for _, calls := range []int{1, burst} {
		writes := h.fab.Stats().Writes
		cycle(calls)()
		if w := h.fab.Stats().Writes - writes; w != 3 {
			t.Fatalf("a %d-call cycle posted %d writes, want one per peer", calls, w)
		}
		if span := r.deltaW[0].call.Args.I[0] / c.Args.I[0]; span != int64(calls) {
			t.Fatalf("the run folded %d calls, want %d", span, calls)
		}
		if allocs := testing.AllocsPerRun(200, cycle(calls)); allocs != 0 {
			t.Errorf("%d× nextDelta, three enqueues each and the flush allocate %.2f objects, want 0", calls, allocs)
		}
	}
	for p := 1; p < 4; p++ {
		log := h.cluster.Replica(spec.ProcID(p)).node.Region(NodeLogRegion).Bytes()[logOff:]
		if hd, err := codec.PeekDeltaRecord(log); err != nil || hd.Version != top || hd.Span != burst || hd.Total != recLen {
			t.Fatalf("p%d's log does not hold the run the cycles wrote: %+v, %v", p, hd, err)
		}
	}
}

// TestFreeBurstAllocsBelowMessagePerCall pins what one message per round trip
// does to the host clock: a warm burst of eight OR-set adds at one replica of
// four, tracer detached, allocates per call under a fifth of what it did when
// every call was its own broadcast message (22.9 objects a call at commit
// c6f5281: a message, its framed record, backup frame and completion closure
// at the source, a payload copy and a handler closure at each of three
// receivers). The batch buffer is reused from flush to flush: dropping it at
// every flush, as the old knob's path did, costs four more objects a burst and
// trips the pin. What is left is 1.0 object a call, the test's own argument
// slice: the source's pendingMsg comes off the broadcaster's free list with its
// written func bound (broadcast.TestWarmDeliveryAllocs; 1.25 a call when each
// burst made both). Each staging of the open batch frames
// into the broadcaster's scratch buffer, a message's record reaches the rings
// through copying ring.Senders, and a receiver hands its handler a recycled
// buffer; a call reaches its issue and accept items, and a message its
// handler, as a queued record, not a closure; and each peer's F buffer copies
// the call's record into storage it reuses and decodes it into its scratch
// record (4.25 a call when every peer decoded each call into an argument
// array of its own).
func TestFreeBurstAllocsBelowMessagePerCall(t *testing.T) {
	const burst = 8
	h := newHarness(t, crdt.NewORSet(), 4, 93, func(o *Options) {
		o.CheckIntegrity = false
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
	if perCall > 1.0 {
		t.Errorf("a warm burst allocates %.2f objects per call, want at most 1.0 (1.25 with a fresh pendingMsg per burst; 4.25 with a decoded call per peer; 6.88 with a fresh record per staging, per message and per poll, and a closure per pump; 9.25 with a closure per item, 22.9 with a message per call)", perCall)
	}
	t.Logf("allocs per call: %.2f", perCall)
}

// TestConfCallAllocs pins rule CONF end to end at nothing: on a warm 4-node
// movie cluster, tracer and metrics detached, one conflicting call issued at a
// follower of its group — forwarded, ordered at the leader, replicated,
// committed, delivered into four L buffers and applied — allocates no object
// (mu.TestWarmCommitAllocs has mu's hops):
//
//   - the call reaches its issue item as a queued record;
//   - the origin encodes its payload in its scratch buffer, which mu.Submit
//     copies into a buffer from the instance's free list;
//   - the leader decodes the call into its scratch record and encodes the
//     entry's payload, with the dependency record attached (none for movie),
//     into its scratch buffer, which mu copies into the entry;
//   - every Deliver borrows a buffer from mu's free list, and each replica
//     validates the call record into its scratch record, copies its bytes
//     into its L buffer's storage and applies the buffer's decoded head.
//
// It read 5 when mu kept the origin's payload uncopied, a clone of the scratch
// buffer, and each L buffer kept its calls decoded, one argument array each;
// 23 before one copy per ring record, 24 before the call path's queues.
func TestConfCallAllocs(t *testing.T) {
	lat := rdma.DefaultLatency()
	lat.CatchUpAfter = sim.Second // the idle group's staleness probe of its leader builds callbacks, and is not this path
	h := newHarnessOn(t, lat, schema.NewMovie(), 4, 94, func(o *Options) { o.CheckIntegrity = false })
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
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a warm conflicting call allocates %.0f times from Invoke to its last apply, want 0", allocs)
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

// TestViewRebuildAllocatesNothing pins the rebuild an adopted anchor forces:
// on a warm one-node courseware replica holding 256 courses, 300 students
// (its own registerStudent summary) and 300 enrollments, marking both views
// dirty and then reading each — a hasCourse query for the live view, the
// leader's check of an enroll for the speculative one — allocates nothing.
// Each rebuild copies σ into the image's own maps and re-applies the
// students' union there. A rebuild that clones σ instead allocates the
// clone's three sets and grows them to size: 48 objects a cycle here, 52 at
// twice the students and enrollments.
func TestViewRebuildAllocatesNothing(t *testing.T) {
	const courses, students, links = 256, 300, 300
	h := newHarness(t, schema.NewCourseware(), 1, 5, func(o *Options) { o.CheckIntegrity = false })
	r := h.cluster.Replica(0)
	h.eng.At(0, func() {
		for k := int64(0); k < courses; k++ {
			h.invoke(0, schema.RefAddLeft, spec.ArgsI(k))
		}
		for s := int64(0); s < students; s += 3 {
			h.invoke(0, schema.RefAddRight, spec.ArgsI(s, s+1, s+2))
		}
		for i := int64(0); i < links; i++ {
			h.invoke(0, schema.RefLink, spec.ArgsI(i%courses, (7*i)%students))
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("state was not built")
	}
	st := r.CurrentState().(*schema.RefState)
	if len(st.Left) != courses || len(st.Right) != students || len(st.Links) != links {
		t.Fatalf("state holds %d courses, %d students, %d links; want %d, %d, %d",
			len(st.Left), len(st.Right), len(st.Links), courses, students, links)
	}
	enroll := spec.Call{Method: schema.RefLink, Args: spec.ArgsI(5, 7)}
	answered := 0
	onDone := func(v any, err error) {
		if err != nil || v != any(true) {
			t.Errorf("hasCourse(5) = %v, %v; want true", v, err)
		}
		answered++
	}
	args := spec.ArgsI(5)
	now := h.eng.Now()
	cycle := func() {
		r.dirtyViews()
		r.Invoke(schema.RefHasLeft, args, onDone)
		now += sim.Time(10 * sim.Microsecond)
		h.eng.RunUntil(now)
		if !r.specPermissible(enroll) {
			t.Error("the speculative view refused a permissible enroll")
		}
	}
	cycle() // warm: each image reaches its size
	if r.spec == nil || r.live.dirty || r.spec.dirty {
		t.Fatal("the cycle did not rebuild both views")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a dirty-view rebuild and its read allocate %.2f objects, want 0", allocs)
	}
	if answered != 102 {
		t.Fatalf("%d of 102 queries answered", answered)
	}
}
