package core

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// deltaStats sums the delta pipeline counters across a cluster.
func deltaStats(c *Cluster) (deltas, anchors, fetches uint64) {
	for _, r := range c.Replicas {
		d, a, f := r.DeltaStats()
		deltas += d
		anchors += a
		fetches += f
	}
	return
}

// TestDeltaSummariesConverge drives random reducible traffic from every
// node with a small anchor interval: the cluster must converge, with the
// wire carrying mostly δ-records.
func TestDeltaSummariesConverge(t *testing.T) {
	h := newHarness(t, crdt.NewPNCounter(), 4, 71, func(o *Options) {
		o.AnchorInterval = 4
	})
	h.eng.At(0, func() {
		for i := 0; i < 40; i++ {
			p := spec.ProcID(h.rng.Intn(4))
			if h.rng.Intn(2) == 0 {
				h.invoke(p, crdt.PNInc, spec.ArgsI(int64(h.rng.Intn(50))))
			} else {
				h.invoke(p, crdt.PNDec, spec.ArgsI(int64(h.rng.Intn(50))))
			}
		}
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	deltas, anchors, _ := deltaStats(h.cluster)
	if deltas == 0 || anchors == 0 {
		t.Fatalf("delta pipeline idle: deltas=%d anchors=%d", deltas, anchors)
	}
	if deltas < anchors {
		t.Fatalf("anchors dominate (%d anchors vs %d deltas); interval 4 should fold more", anchors, deltas)
	}
}

// TestDeltaLogWrapReanchors fills a deliberately tiny δ-log so the writer
// re-anchors on wraparound; readers must skip the stale records left from
// earlier rounds and stay convergent.
func TestDeltaLogWrapReanchors(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 72, func(o *Options) {
		o.AnchorInterval = 1 << 20 // anchors only when the log wraps
		o.DeltaLogBytes = 96       // two-ish records per round
	})
	h.eng.At(0, func() {
		for i := 0; i < 30; i++ {
			h.invoke(spec.ProcID(i%3), crdt.CounterAdd, spec.ArgsI(int64(i)))
		}
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	_, anchors, _ := deltaStats(h.cluster)
	if anchors < 6 {
		t.Fatalf("log wrap produced only %d anchors; want several rounds", anchors)
	}
}

// TestAnchorIntervalInvariant runs the same workload re-anchoring after every
// δ-record (interval 1: every other write ships the full summarized state)
// and at the default interval of 32: how often the full state travels must
// not show in the final states, and folding more δ-records must move fewer
// bytes.
func TestAnchorIntervalInvariant(t *testing.T) {
	run := func(interval int) (spec.State, uint64) {
		h := newHarness(t, crdt.NewGSet(), 3, 73, func(o *Options) {
			o.AnchorInterval = interval
		})
		h.eng.At(0, func() {
			for i := 0; i < 24; i++ {
				h.invoke(spec.ProcID(i%3), crdt.GSetAdd, spec.ArgsI(int64(i%7)))
			}
		})
		if !h.drain(100 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		h.checkConvergence()
		return h.cluster.Replica(0).CurrentState(), h.fab.Stats().BytesWritten
	}
	dState, dBytes := run(32)
	fState, fBytes := run(1)
	if !dState.Equal(fState) {
		t.Fatalf("anchor intervals 32 and 1 diverged:\n 32 %v\n 1  %v", dState, fState)
	}
	if dBytes >= fBytes {
		t.Fatalf("interval 32 moved %d bytes, interval 1 %d; want a reduction", dBytes, fBytes)
	}
}

// TestDeltaTornParkFetchesFullState installs a long-lived torn-write fault
// on the writer→reader link: the reader's scans reject the torn frame, and
// after tornParkScans stuck scans it must stop waiting and recover through a
// one-sided full-state fetch of the writer's own (clean) slot.
func TestDeltaTornParkFetchesFullState(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 74, func(o *Options) {
		o.DisableFailureHandling = true
	})
	h.eng.At(0, func() {
		h.fab.SetLinkTorn(0, 1, 200*sim.Microsecond, 0)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(5))
	})
	h.eng.RunUntil(sim.Time(100 * sim.Microsecond))
	r1 := h.cluster.Replica(1)
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 5 {
		t.Fatalf("reader state = %d before the tear heals, want 5 via fetch", got)
	}
	if _, _, fetches := deltaStats(h.cluster); fetches == 0 {
		t.Fatal("no gap fetch recorded; the reader must not wait out a parked frame")
	}
	if r1.TornRejects() < tornParkScans {
		t.Fatalf("only %d torn rejects; the park threshold never engaged", r1.TornRejects())
	}
}

// TestDeltaGapFetchesFullState forges the failure the gap rule exists for:
// the reader's log jumps versions because intermediate δ-records were lost.
// The reader must not fold across the hole; it recovers the writer's
// authoritative full state with a one-sided read instead.
func TestDeltaGapFetchesFullState(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 75, func(o *Options) {
		o.DisableFailureHandling = true
		o.AnchorInterval = 1 << 20
	})
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(5)) })
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("seed write did not replicate")
	}

	// Writer advances to v3 while its link to the reader is cut, so the
	// reader's log misses v2 and v3.
	h.eng.At(h.eng.Now(), func() {
		h.fab.PartitionLink(0, 1)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(7))
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(9))
	})
	h.eng.RunFor(5 * sim.Millisecond)

	// The writer's crash drops its parked verbs; a later v4 record reaching
	// the reader over a healed path is the gap. Forge that record directly
	// in the reader's log (contents match the writer's real v3 state plus
	// one more call the reader also never saw applied elsewhere).
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	rec, err := codec.EncodeDeltaRecord(codec.DeltaRecord{
		Kind: codec.FrameDelta, Version: 4, Counts: []uint32{4},
		C: spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(0), Proc: 0, Seq: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.At(h.eng.Now(), func() {
		off := r1.slotOffset(0, 0)
		copy(r1.node.Region(sumRegionBase).Bytes()[off+r1.anchorCap():], rec)
	})
	h.eng.RunFor(5 * sim.Millisecond)

	if _, _, fetches := deltaStats(h.cluster); fetches == 0 {
		t.Fatal("version gap did not trigger a full-state fetch")
	}
	// The fetch adopted the writer's authoritative v3 state (5+7+9); the
	// forged v4 was left behind by the version gate, not folded blindly.
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 21 {
		t.Fatalf("reader state = %d after gap recovery, want 21", got)
	}
	if got := r0.CurrentState().(*crdt.CounterState).V; got != 21 {
		t.Fatalf("writer state = %d, want 21", got)
	}
}

// TestStrayFreeRecordDropped feeds the delivery path a record that is not a
// buffered call — a summary δ-record — alone and in the middle of a batch: it
// must be dropped together with whatever follows it in the payload, never
// delivered, while the records ahead of it land in the source's F buffer.
func TestStrayFreeRecordDropped(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 2, 76, nil)
	r := h.cluster.Replica(1)
	record := func(kind byte, seq uint64) []byte {
		b, err := codec.EncodeDeltaRecord(codec.DeltaRecord{Kind: kind, Version: 1,
			C: spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(2, 101), Proc: 0, Seq: seq}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	r.onFreeDelivery(0, 1, record(codec.FrameDelta, 1))
	if got := r.fQueues[0].Len(); got != 0 {
		t.Fatalf("a FrameDelta record reached the F buffer: %d queued, head %+v", got, r.fQueues[0].Head())
	}
	batch := append(append(record(codec.FrameFull, 2), record(codec.FrameDelta, 3)...), record(codec.FrameFull, 4)...)
	r.onFreeDelivery(0, 2, batch)
	if got := &r.fQueues[0]; got.Len() != 1 || got.Head().c.Seq != 2 {
		t.Fatalf("mixed batch delivered %d records, want only the record ahead of the stray one", got.Len())
	}
}

// burstOf issues n calls of u at replica 0, with arguments first, first+1, …,
// inside one engine event, so they queue on its CPU back to back and their
// summary writes meet in one flush of the coalescer.
func burstOf(h *harness, u spec.MethodID, first, n int) {
	h.eng.At(h.eng.Now(), func() {
		for i := 0; i < n; i++ {
			h.invoke(0, u, spec.ArgsI(int64(first+i)))
		}
	})
}

// TestBurstTravelsAsOneWrite is the out-channel rule seen from the protocol:
// the δ-records of eight reducible calls issued in one burst sit at
// consecutive offsets of one slot's log, so each peer receives them as ONE
// write — no chain — and folds all eight versions in the scan that finds it,
// with no gap fetch.
func TestBurstTravelsAsOneWrite(t *testing.T) {
	h := newHarness(t, crdt.NewGSet(), 4, 77, func(o *Options) {
		o.DisableFailureHandling = true // no heartbeat writes: every write counted is a summary write
	})
	burstOf(h, crdt.GSetAdd, 0, 1) // the first call anchors; δ-records follow
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the anchor did not replicate")
	}
	before := h.fab.Stats()
	burstOf(h, crdt.GSetAdd, 1, 8)
	seen := [4]map[uint32]bool{{}, {}, {}, {}} // per peer: versions of p0's slot observed between scans
	probe := h.eng.NewTicker(100*sim.Nanosecond, func() {
		for p := 1; p < 4; p++ {
			seen[p][h.cluster.Replica(spec.ProcID(p)).sums[0][0].version] = true
		}
	})
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the burst did not replicate")
	}
	probe.Cancel()
	h.checkConvergence()

	after := h.fab.Stats()
	if w, c := after.Writes-before.Writes, after.Chains-before.Chains; w != 3 || c != 0 {
		t.Fatalf("the burst cost %d writes and %d chains, want one write per peer and no chain", w, c)
	}
	for p := 1; p < 4; p++ {
		if len(seen[p]) != 2 || !seen[p][1] || !seen[p][9] {
			t.Errorf("p%d saw versions %v of p0's slot, want v1 then v9: the run folds in one scan", p, seen[p])
		}
	}
	if deltas, _, fetches := deltaStats(h.cluster); deltas != 8 || fetches != 0 {
		t.Fatalf("deltas=%d gap fetches=%d, want 8 and 0", deltas, fetches)
	}
}

// TestBurstAcrossAnchorKeepsOrder: a burst that crosses AnchorInterval is
// run | anchor | run on each peer's QP, in that order — the anchor resets the
// log cursor, so the δ-record after it is not adjacent to the one before it —
// and the peers converge without a gap fetch.
func TestBurstAcrossAnchorKeepsOrder(t *testing.T) {
	h := newHarness(t, crdt.NewGSet(), 4, 78, func(o *Options) {
		o.DisableFailureHandling = true
		o.AnchorInterval = 4
	})
	burstOf(h, crdt.GSetAdd, 0, 1)
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the anchor did not replicate")
	}
	before := h.fab.Stats()
	burstOf(h, crdt.GSetAdd, 1, 8) // δ δ δ δ | anchor | δ δ δ
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the burst did not replicate")
	}
	h.checkConvergence()
	after := h.fab.Stats()
	if w, c := after.Writes-before.Writes, after.Chains-before.Chains; w != 9 || c != 3 {
		t.Fatalf("the burst cost %d writes in %d chains, want three WRs on one doorbell per peer", w, c)
	}
	if got := h.cluster.Replica(3).sums[0][0].version; got != 9 {
		t.Fatalf("p3 holds v%d of p0's slot, want v9", got)
	}
	if deltas, anchors, fetches := deltaStats(h.cluster); deltas != 7 || anchors != 2 || fetches != 0 {
		t.Fatalf("deltas=%d anchors=%d gap fetches=%d, want 7, 2 and 0", deltas, anchors, fetches)
	}
}

// TestTornRunNeverFoldsEarly tears a merged run. The boundary fragment of one
// write is its first and last four bytes, which for a run is the length word
// of its first record and the CRC tail of its last: the log below is in its
// second round, so behind that length word sits a stale record of the same
// size, and the walk reaches the last record and rejects it as torn. Sampling
// the reader between scans, in the TestTornSlotHeadToHead pattern: while any
// byte of the run is missing no record of it is folded, whatever is folded
// belongs to its version (zero false accepts), the torn counter sees the run,
// and once the interior lands the run folds whole, with no gap fetch.
func TestTornRunNeverFoldsEarly(t *testing.T) {
	const interval = 8
	h := newHarness(t, crdt.NewCounter(), 2, 79, func(o *Options) {
		o.DisableFailureHandling = true
		o.AnchorInterval = interval
	})
	sum := func(v uint32) int64 { return int64(v) * int64(v+1) / 2 } // call i adds i
	// Round one: anchor v1, δ-records v2..v9 fill the log's first bytes.
	burstOf(h, crdt.CounterAdd, 1, 1+interval)
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("round one did not replicate")
	}

	r1 := h.cluster.Replica(1)
	off := r1.slotOffset(0, 0) + r1.anchorCap()
	log := r1.node.Region(sumRegionBase).Bytes()[off : off+r1.opts.DeltaLogBytes]
	type sample struct {
		ver   uint32
		torn  uint64
		bytes string
	}
	var samples []sample
	probe := h.eng.NewTicker(100*sim.Nanosecond, func() {
		slot := r1.sums[0][0]
		if got := slot.call.Args.I[0]; got != sum(slot.version) {
			t.Errorf("false accept: p1 holds %d at v%d, want %d", got, slot.version, sum(slot.version))
		}
		samples = append(samples, sample{slot.version, r1.TornRejects(), string(log[:512])})
	})
	// Three scans fit no tear, so the reader never gives up and fetches.
	h.fab.SetLinkTorn(0, 1, 3*sim.Microsecond, 0)
	before := h.fab.Stats().Writes
	// Round two: anchor v10, then v11..v18 over v2..v9 as one write.
	burstOf(h, crdt.CounterAdd, 2+interval, 1+interval)
	h.eng.RunFor(100 * sim.Microsecond)
	probe.Cancel()
	if w := h.fab.Stats().Writes - before; w != 2 {
		t.Fatalf("round two cost %d writes, want the anchor and one merged run", w)
	}

	start, final := samples[0], samples[len(samples)-1]
	if final.ver != 2+2*interval {
		t.Fatalf("p1 ended at v%d, want v%d", final.ver, 2+2*interval)
	}
	var window int
	var tornBefore, tornAfter uint64
	for _, s := range samples {
		if s.bytes == start.bytes || s.bytes == final.bytes {
			continue
		}
		// Part of the run has landed and part has not.
		if window++; window == 1 {
			tornBefore = s.torn
		}
		tornAfter = s.torn
		if s.ver > 2+interval {
			t.Fatalf("p1 folded to v%d while the run's interior was in flight, want at most the anchor v%d", s.ver, 2+interval)
		}
	}
	if window == 0 {
		t.Fatal("the sampler never saw the run half-landed: the link is not tearing")
	}
	if tornAfter == tornBefore {
		t.Fatalf("torn rejects stayed at %d while the run was half-landed", tornBefore)
	}

	h.fab.SetLinkTorn(0, 1, 0, 0)
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete after the tear healed")
	}
	h.checkConvergence()
	if _, _, fetches := deltaStats(h.cluster); fetches != 0 {
		t.Fatalf("%d gap fetches, want 0: the run folds from the log once it has landed", fetches)
	}
}
