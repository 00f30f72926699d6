package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// pauseScan cancels the periodic summary scan of r's node: the test's own
// scanSummaries calls are then the only passes.
func pauseScan(r *Replica) { r.nlog.ticker.Cancel() }

// nodeLogOfWriter returns r's node's copy of writer w's δ-log.
func nodeLogOfWriter(r *Replica, w spec.ProcID) []byte {
	return r.node.Region(NodeLogRegion).Bytes()[int(w)*r.nlog.size : int(w+1)*r.nlog.size]
}

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
// node with the smallest δ-log, which a few records fill: the cluster must
// converge, with δ-records carrying most calls.
func TestDeltaSummariesConverge(t *testing.T) {
	h := newHarness(t, crdt.NewPNCounter(), 4, 71, func(o *Options) {
		o.DeltaLogBytes = MinDeltaLogBytes
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
	if 40-anchors < anchors {
		t.Fatalf("anchors dominate (%d anchors vs %d calls in %d δ-records); a %d-byte log should fold more", anchors, 40-anchors, deltas, MinDeltaLogBytes)
	}
}

// TestDeltaLogWrapReanchors fills a deliberately tiny δ-log so the writer
// re-anchors on wraparound; readers must skip the stale records left from
// earlier rounds and stay convergent. Two inputs wrap it: counter calls a
// flush apart, one record each, over many flushes; and one burst of gset
// adds in a single flush, whose folded run outgrows the log, so the fold that
// does not fit ends the run there and the call re-anchors. The run the
// overflow closes must keep the versions it already shipped, and no reader
// may need a gap fetch.
func TestDeltaLogWrapReanchors(t *testing.T) {
	t.Run("rounds", func(t *testing.T) {
		h := newHarness(t, crdt.NewCounter(), 3, 72, func(o *Options) {
			o.DeltaLogBytes = 96 // two-ish records per round
		})
		for i := 0; i < 30; i++ {
			// A flush apart: calls that shared one would fold into one record.
			h.eng.At(sim.Time(i)*sim.Time(5*sim.Microsecond), func() {
				h.invoke(spec.ProcID(i%3), crdt.CounterAdd, spec.ArgsI(int64(i)))
			})
		}
		if !h.drain(100 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		h.checkConvergence()
		_, anchors, _ := deltaStats(h.cluster)
		if anchors < 6 {
			t.Fatalf("log wrap produced only %d anchors; want several rounds", anchors)
		}
	})
	t.Run("burst", func(t *testing.T) {
		const calls = 150
		h := newHarness(t, crdt.NewGSet(), 3, 72, func(o *Options) {
			o.DeltaLogBytes = 64 // a run of a few dozen keys fills it
		})
		r := h.cluster.Replica(0)
		var (
			shipped    []byte // the open run's record as last enqueued
			first      uint32 // the open run's first version
			anchors    uint64
			overflows  int
			flushes    uint64
			checkAfter func()
		)
		checkAfter = func() {
			v := r.sums[0][0].version
			if r.statAnchors > anchors { // the call at v re-anchored
				anchors = r.statAnchors
				if len(shipped) == 0 {
					return // the slot's first call: no run open yet
				}
				overflows++ // the fold of the call at v did not fit
				hd, err := codec.PeekDeltaRecord(shipped)
				if err != nil || hd.Version != v-1 || hd.First() != first {
					t.Fatalf("at v%d the run before the overflow reads %+v (%v), want v%d…v%d", v, hd, err, first, v-1)
				}
				shipped = shipped[:0]
				return
			}
			if len(shipped) == 0 { // the call opened a run
				first = v
			}
			shipped = append(shipped[:0], r.recBuf...)
		}
		h.eng.At(0, func() {
			flushes, anchors = r.coal.Stats().Flushes, r.statAnchors
			for i := 0; i < calls; i++ {
				h.invoke(0, crdt.GSetAdd, spec.ArgsI(int64(i)))
				r.node.CPU.Submit(0, checkAfter) // runs right after the call's issue item
			}
		})
		if !h.drain(100 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		if f := r.coal.Stats().Flushes - flushes; f != 1 {
			t.Fatalf("the burst went out in %d flushes, want one", f)
		}
		t.Logf("%d calls in one flush; %d runs closed on an overflow", calls, overflows)
		if overflows < 2 {
			t.Fatalf("the burst's runs overflowed the log %d times, want several", overflows)
		}
		h.checkConvergence()
		if _, _, fetches := deltaStats(h.cluster); fetches != 0 {
			t.Fatalf("%d gap fetches; a run closed by an overflow must fold whole", fetches)
		}
	})
}

// TestDeltaLogBytesInvariant runs the same workload over δ-logs from the
// smallest (64 B, a few records between anchors) to the default 4096 B, the
// writer re-anchoring each time its log fills: how often the full state
// travels must not show in the final states, and a log that folds more
// δ-records between anchors must move fewer bytes.
func TestDeltaLogBytesInvariant(t *testing.T) {
	run := func(logBytes int) (spec.State, uint64, uint64) {
		h := newHarness(t, crdt.NewGSet(), 3, 73, func(o *Options) {
			o.DeltaLogBytes = logBytes
		})
		for i := 0; i < 48; i++ {
			// Rounds a flush apart, so the calls travel as many records.
			h.eng.At(sim.Time(i/3)*sim.Time(5*sim.Microsecond), func() {
				h.invoke(spec.ProcID(i%3), crdt.GSetAdd, spec.ArgsI(int64(i%7)))
			})
		}
		if !h.drain(100 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		h.checkConvergence()
		_, anchors, _ := deltaStats(h.cluster)
		return h.cluster.Replica(0).CurrentState(), h.fab.Stats().BytesWritten, anchors
	}
	wantState, wantBytes, wantAnchors := run(4096)
	if wantAnchors != 3 {
		t.Fatalf("a 4096-byte log anchored %d times, want each writer's first call only", wantAnchors)
	}
	lastBytes := uint64(0)
	for _, logBytes := range []int{2048, 1024, 512, 256, 128, MinDeltaLogBytes} {
		state, bytes, anchors := run(logBytes)
		if !state.Equal(wantState) {
			t.Fatalf("δ-logs of %d and 4096 bytes diverged:\n %4d %v\n 4096 %v", logBytes, logBytes, state, wantState)
		}
		if bytes < wantBytes || bytes < lastBytes {
			t.Fatalf("a %d-byte log moved %d bytes (%d anchors), fewer than a longer one (4096: %d)", logBytes, bytes, anchors, wantBytes)
		}
		lastBytes = bytes
	}
	if lastBytes <= wantBytes {
		t.Fatalf("a %d-byte log moved %d bytes, the 4096-byte one %d; want a reduction", MinDeltaLogBytes, lastBytes, wantBytes)
	}
}

// TestDeltaTornParkFetchesFullState installs a long-lived torn-write fault
// on the writer→reader link: the reader's scans reject the torn frame, and
// after rdma.TornLooks stuck scans it must stop waiting and recover through a
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
	if r1.TornRejects() < rdma.TornLooks {
		t.Fatalf("only %d torn rejects; the park threshold never engaged", r1.TornRejects())
	}
}

// TestTornAnchorOverwriteParksAndFetches: a re-anchor that lands torn over
// the anchor a reader holds — boundary first, its length word and last four
// bytes ahead of the interior, the way a torn link lands a write — is
// rejected whether the new anchor is longer or shorter than the old. Each
// scan counts it in core.torn_rejects, and after rdma.TornLooks stuck scans
// the reader fetches the writer's own slot, whose anchor it adopts and
// installs over the torn bytes. The writer's log is the smallest, filled by
// add(0) calls a flush apart, so the second add is the re-anchor. The
// reader's scans run by hand, and its log is wiped, as if the δ-records
// before the re-anchor had been lost.
func TestTornAnchorOverwriteParksAndFetches(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b int64
	}{{"growing", 1, 1 << 40}, {"shrinking", 1 << 40, 1 - 1<<40}} {
		reg := metrics.New(nil)
		h := newHarness(t, crdt.NewCounter(), 2, 76, func(o *Options) {
			o.DisableFailureHandling = true
			o.Metrics = reg
			o.DeltaLogBytes = MinDeltaLogBytes
		})
		r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
		pauseScan(r1)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(tc.a))
		h.eng.RunFor(100 * sim.Microsecond)
		r1.scanSummaries()
		if v := r1.sums[0][0].version; v != 1 {
			t.Fatalf("%s: p1 holds v%d of p0's slot, want the first anchor", tc.name, v)
		}
		off := r0.slotOffset(0, 0)
		mine := r1.node.Region(r1.sumRegion)
		held := bytes.Clone(mine.Bytes()[off : off+r1.anchorCap()])
		old, err := codec.PeekDeltaRecord(held)
		if err != nil {
			t.Fatal(err)
		}
		for dw := &r0.deltaW[0]; ; { // until the log has no room for one more record like the last
			at := dw.logOff
			h.invoke(0, crdt.CounterAdd, spec.ArgsI(0))
			h.eng.RunFor(100 * sim.Microsecond)
			if dw.logOff+(dw.logOff-at) > r0.opts.DeltaLogBytes {
				break
			}
		}
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(tc.b))
		h.eng.RunFor(100 * sim.Microsecond)
		ver := r0.sums[0][0].version

		theirs := r0.node.Region(r0.sumRegion).Bytes()[off:]
		hd, err := codec.PeekDeltaRecord(theirs)
		if err != nil || hd.Kind != codec.FrameAnchor || hd.Version != ver || r0.statAnchors != 2 {
			t.Fatalf("%s: p0's own slot holds %+v (%v) after %d anchors, want its second, v%d", tc.name, hd, err, r0.statAnchors, ver)
		}
		if grows := hd.Total > old.Total; grows != (tc.name == "growing") {
			t.Fatalf("%s: the new anchor is %d bytes, the old %d", tc.name, hd.Total, old.Total)
		}
		// The re-anchor landed whole at p1: put back the anchor area p1 held,
		// and land the re-anchor again, torn.
		next := bytes.Clone(theirs[:hd.Total])
		mine.Write(off, held)
		copy(nodeLogOfWriter(r1, 0), make([]byte, r1.nlog.size))
		mine.Write(off, next[:4])
		mine.Write(off+len(next)-4, next[len(next)-4:])

		torn := func() uint64 { return reg.Snapshot().Counters["core.torn_rejects"] }
		for i := 1; i <= rdma.TornLooks; i++ {
			r1.scanSummaries()
			_, _, fetches := deltaStats(h.cluster)
			if got := torn(); got != uint64(i) {
				t.Fatalf("%s: %d torn rejects after %d scans, want one a scan", tc.name, got, i)
			}
			if want := uint64(i / rdma.TornLooks); fetches != want {
				t.Fatalf("%s: %d fetches after %d stuck scans, want %d", tc.name, fetches, i, want)
			}
			if v := r1.sums[0][0].version; v != 1 {
				t.Fatalf("%s: p1 moved to v%d on a torn anchor", tc.name, v)
			}
		}
		h.eng.RunFor(100 * sim.Microsecond)
		if v, st := r1.sums[0][0].version, r1.CurrentState().(*crdt.CounterState); v != ver || st.V != tc.a+tc.b {
			t.Fatalf("%s: after the fetch p1 holds v%d, counter %d; want v%d, %d", tc.name, v, st.V, ver, tc.a+tc.b)
		}
		if !bytes.Equal(mine.Bytes()[off:off+len(next)], next) {
			t.Fatalf("%s: the fetched anchor was not installed over the torn bytes", tc.name)
		}
		r1.scanSummaries()
		if got := torn(); got != rdma.TornLooks {
			t.Fatalf("%s: %d torn rejects after the install, want %d", tc.name, got, rdma.TornLooks)
		}
	}
}

// TestDeltaGapFetchesFullState forges the failure the gap rule exists for:
// the reader's log jumps versions because intermediate δ-records were lost.
// The reader must not fold across the hole; it recovers the writer's
// authoritative full state with a one-sided read instead: the writer's own
// anchor, v1, with the run v2..v3 its log holds folded on.
//
// The no-local-delta mutant (Cluster.MutateNoLocalDelta) is the control: a
// writer that leaves its δ-records out of its own slot serves the fetch its
// v1 anchor alone, and the reader must be caught short of v3.
func TestDeltaGapFetchesFullState(t *testing.T) {
	if err := deltaGap(t, false); err != nil {
		t.Fatal(err)
	}
	err := deltaGap(t, true)
	if err == nil {
		t.Fatal("a fetch of a writer that skips its own δ installs recovered the full state")
	}
	t.Logf("no-local-delta mutant caught: %v", err)
}

func deltaGap(t *testing.T, noLocalDelta bool) error {
	h := newHarness(t, crdt.NewCounter(), 2, 75, func(o *Options) {
		o.DisableFailureHandling = true
	})
	if noLocalDelta {
		h.cluster.MutateNoLocalDelta()
	}
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(5)) })
	if !h.drain(20 * sim.Millisecond) {
		return fmt.Errorf("seed write did not replicate")
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
		r1.node.Region(NodeLogRegion).Write(0, rec) // p0's log, as p0's first record
	})
	h.eng.RunFor(5 * sim.Millisecond)

	if _, _, fetches := deltaStats(h.cluster); fetches == 0 {
		return fmt.Errorf("version gap did not trigger a full-state fetch")
	}
	// The fetch adopted the writer's authoritative v3 state (5+7+9); the
	// forged v4 was left behind by the version gate, not folded blindly.
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 21 {
		return fmt.Errorf("reader state = %d after gap recovery, want 21", got)
	}
	if got := r0.CurrentState().(*crdt.CounterState).V; got != 21 {
		return fmt.Errorf("writer state = %d, want 21", got)
	}
	return nil
}

// TestIssuerSlotMatchesEveryCopy pins the slot layout: the issuer's own slot
// is written by the writes it ships and nothing else. On a counter and a
// gset with the smallest δ-log, bursts of one to four calls a flush apart
// fold into runs and re-anchor at least twice. Between two re-anchors the
// issuer's anchor area does not change, and at quiescence its anchor area
// equals each peer's copy of it byte for byte, and — the node hosting one
// object of one summarization group — its log, the stale bytes of earlier
// rounds included, equals each peer's copy of the node's δ-log: the same
// records at the same offsets, restarted at the same points.
func TestIssuerSlotMatchesEveryCopy(t *testing.T) {
	for _, tc := range []struct {
		cls *spec.Class
		u   spec.MethodID
	}{{crdt.NewCounter(), crdt.CounterAdd}, {crdt.NewGSet(), crdt.GSetAdd}} {
		h := newHarness(t, tc.cls, 3, 81, func(o *Options) {
			o.DisableFailureHandling = true
			o.DeltaLogBytes = MinDeltaLogBytes
		})
		r0 := h.cluster.Replica(0)
		off := r0.slotOffset(0, 0)
		own := r0.node.Region(r0.sumRegion).Bytes()[off : off+r0.opts.SumSlotSize]
		var anchor []byte
		anchors, runs := r0.statAnchors, 0
		for r0.statAnchors < 3 || runs < 8 {
			burstOf(h, tc.u, 3*runs, 1+runs%4)
			h.eng.RunFor(20 * sim.Microsecond)
			if r0.statAnchors != anchors {
				anchors, anchor = r0.statAnchors, bytes.Clone(own[:r0.anchorCap()])
			} else if !bytes.Equal(own[:r0.anchorCap()], anchor) {
				t.Fatalf("%s: the issuer's anchor area moved between anchors, after run %d", tc.cls.Name, runs)
			}
			runs++
		}
		if !h.drain(20 * sim.Millisecond) {
			t.Fatalf("%s: the runs did not replicate", tc.cls.Name)
		}
		for _, r := range h.cluster.Replicas[1:] {
			if !bytes.Equal(r.node.Region(r.sumRegion).Bytes()[off:off+r.anchorCap()], own[:r0.anchorCap()]) ||
				!bytes.Equal(nodeLogOfWriter(r, 0), own[r0.anchorCap():]) {
				t.Fatalf("%s: p%d's copy of p0's slot differs from p0's own after %d runs and %d anchors",
					tc.cls.Name, r.id, runs, anchors)
			}
		}
	}
}

// TestSummaryOverflowPanicsAtReanchor pins where a summary that outgrows its
// anchor area fails: the issuer encodes its anchor only when nextDelta
// re-anchors, so the calls after the summary outgrew the area keep shipping
// δ-records, which every peer folds, and the configuration panic fires at the
// first re-anchor after that, not at the call that outgrew the area.
func TestSummaryOverflowPanicsAtReanchor(t *testing.T) {
	h := newHarness(t, crdt.NewGSet(), 3, 83, func(o *Options) {
		o.DisableFailureHandling = true
		o.SumSlotSize, o.DeltaLogBytes = 2*MinDeltaLogBytes, MinDeltaLogBytes
	})
	r0 := h.cluster.Replica(0)
	slot := r0.sums[0][0]
	over := func() bool { // the summary's anchor is wider than the anchor area
		b, err := codec.EncodeDeltaRecord(codec.DeltaRecord{Kind: codec.FrameAnchor, Version: slot.version,
			Epoch: uint32(h.cluster.Epoch()), Counts: slot.counts, C: slot.call})
		return err != nil || len(b) > r0.anchorCap()
	}
	outgrew := 0 // calls that left the summary wider than the area without a panic
	for i := 0; i < 200; i++ {
		anchors := r0.statAnchors
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			// Keys 2^40 apart: the summary's sorted union packs each as a
			// six-byte delta, so it outgrows the area within a few δ-logs.
			h.eng.At(h.eng.Now(), func() { h.invoke(0, crdt.GSetAdd, spec.ArgsI(int64(i+1)<<40)) })
			h.eng.RunFor(20 * sim.Microsecond)
			return ""
		}()
		reanchored := r0.statAnchors != anchors
		if msg != "" {
			if !reanchored || !over() || !strings.Contains(msg, "summary slot overflow") {
				t.Fatalf("call %d (re-anchor %v, summary over the area %v) panicked: %q, want the overflow panic at a re-anchor",
					i, reanchored, over(), msg)
			}
			if outgrew == 0 {
				t.Fatalf("the overflow panic fired at call %d, the one that outgrew the area; want it at a later re-anchor", i)
			}
			t.Logf("overflow panic at call %d, the re-anchor %d calls after the summary outgrew the area", i, outgrew)
			return
		}
		if reanchored && over() {
			t.Fatalf("call %d re-anchored a summary wider than the area without a panic", i)
		}
		if !h.drain(20 * sim.Millisecond) {
			t.Fatalf("call %d did not replicate", i)
		}
		h.checkConvergence()
		if over() {
			outgrew++
		}
	}
	t.Fatalf("200 calls and no overflow panic; %d of them left the summary wider than the area", outgrew)
}

// TestStrayFreeRecordDropped feeds the delivery path a record that is not a
// buffered call — a framed summary δ-record — alone and in the middle of a
// batch of bare calls: it must be dropped together with whatever follows it in
// the payload, never delivered, while the calls ahead of it land in the
// source's F buffer. Read as a bare call, the frame's length word is a method
// the class does not have.
func TestStrayFreeRecordDropped(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 2, 76, nil)
	r := h.cluster.Replica(1)
	add := func(seq uint64) spec.Call {
		return spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(2, 101), Proc: 0, Seq: seq}
	}
	delta := func(seq uint64) []byte {
		b, err := codec.EncodeDeltaRecord(codec.DeltaRecord{Kind: codec.FrameDelta, Version: 1, C: add(seq)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	r.onFreeDelivery(0, 1, delta(1))
	if got := r.fQueues[0].Len(); got != 0 {
		t.Fatalf("a FrameDelta record reached the F buffer: %d queued, head %+v", got, r.fQueues[0].Head())
	}
	batch := codec.AppendCall(append(codec.AppendCall(nil, add(2), nil), delta(3)...), add(4), nil)
	r.onFreeDelivery(0, 2, batch)
	if got := &r.fQueues[0]; got.Len() != 1 || got.Head().C.Seq != 2 {
		t.Fatalf("mixed batch delivered %d records, want only the call ahead of the stray record", got.Len())
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
// eight reducible calls issued in one burst fold into ONE δ-record spanning
// eight versions, rewritten at one offset of the slot's log as each call
// joins, so each peer receives it as one write — no chain — and folds all
// eight versions in the scan that finds it, with no gap fetch.
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
	if deltas, _, fetches := deltaStats(h.cluster); deltas != 1 || fetches != 0 {
		t.Fatalf("deltas=%d gap fetches=%d, want 1 and 0", deltas, fetches)
	}
}

// TestBurstAcrossAnchorKeepsOrder: a burst that fills the δ-log is
// run | anchor | run on each peer's QP, in that order — the call whose fold
// no longer fits the log anchors, closing the first run and resetting the log
// cursor, so the δ-record after it is a second run, written over the first at
// the log's head — and the peers converge without a gap fetch.
func TestBurstAcrossAnchorKeepsOrder(t *testing.T) {
	h := newHarness(t, crdt.NewGSet(), 4, 78, func(o *Options) {
		o.DisableFailureHandling = true
		o.DeltaLogBytes = MinDeltaLogBytes
	})
	// Keys 2^50 apart: a run's sorted union packs each as an eight-byte
	// delta, and six fit one run in the log, seven do not.
	const key = 1 << 50
	burstOf(h, crdt.GSetAdd, key, 1)
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the anchor did not replicate")
	}
	before := h.fab.Stats()
	h.eng.At(h.eng.Now(), func() { // δ…δ | anchor | δ
		for i := 1; i <= 8; i++ {
			h.invoke(0, crdt.GSetAdd, spec.ArgsI(int64(key+i*key)))
		}
	})
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
	if deltas, anchors, fetches := deltaStats(h.cluster); deltas != 2 || anchors != 2 || fetches != 0 {
		t.Fatalf("deltas=%d anchors=%d gap fetches=%d, want 2 runs, 2 anchors and 0", deltas, anchors, fetches)
	}
}

// TestTornRunNeverFoldsEarly tears a run. A burst's calls fold into one
// δ-record, and the boundary fragment of a write is its first and last four
// bytes: the record's length word, and its CRC tail and canary. The log below
// is in its second round, so behind that length word sits round one's run at
// the same offset, and the walk rejects the half-landed record as torn.
// Sampling the reader between scans, in the TestTornSlotHeadToHead pattern:
// while any byte of the run is missing nothing of it is folded, whatever is
// folded belongs to its version (zero false accepts), the torn counter sees
// the run, and once the interior lands the run folds whole, in one step from
// the anchor to its last version, with no gap fetch.
//
// The stale-scan mutant (Cluster.MutateStaleScan) is the control: a reader
// that trusts what it validated in round one after round two's writes
// landed over it must fail.
func TestTornRunNeverFoldsEarly(t *testing.T) {
	if err := tornRun(t, false); err != nil {
		t.Fatal(err)
	}
	err := tornRun(t, true)
	if err == nil {
		t.Fatal("a reader trusting round one's anchor and run after round two landed passed")
	}
	t.Logf("stale-scan mutant caught: %v", err)
}

func tornRun(t *testing.T, staleScan bool) error {
	const run = 8 // calls in each round's run
	h := newHarness(t, crdt.NewCounter(), 2, 79, func(o *Options) {
		o.DisableFailureHandling = true
		o.DeltaLogBytes = MinDeltaLogBytes
	})
	if staleScan {
		h.cluster.MutateStaleScan()
	}
	sum := func(v uint32) int64 { return int64(v) * int64(v+1) / 2 } // call i adds i
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	// Round one: anchor v1, then the run v2..v9 as one δ-record at the log's
	// head, then single-call records a flush apart until the log has no room
	// for one more: round two's first call re-anchors.
	burstOf(h, crdt.CounterAdd, 1, 1+run)
	if !h.drain(20 * sim.Millisecond) {
		return fmt.Errorf("round one did not replicate")
	}
	dw := &r0.deltaW[0]
	for v := 2 + run; ; v++ {
		at := dw.logOff
		burstOf(h, crdt.CounterAdd, v, 1)
		if !h.drain(20 * sim.Millisecond) {
			return fmt.Errorf("filler v%d did not replicate", v)
		}
		if r0.statAnchors != 1 {
			return fmt.Errorf("filler v%d re-anchored: the log has no room for round two's anchor to be the one", v)
		}
		if dw.logOff+(dw.logOff-at) > r0.opts.DeltaLogBytes {
			break
		}
	}
	anchor := r0.sums[0][0].version + 1 // round two's first call
	final := anchor + run

	log := nodeLogOfWriter(r1, 0)
	type sample struct {
		ver   uint32
		torn  uint64
		bytes string
	}
	var samples []sample
	var falseAccept error
	probe := h.eng.NewTicker(100*sim.Nanosecond, func() {
		slot := r1.sums[0][0]
		if got := slot.call.Args.I[0]; got != sum(slot.version) && falseAccept == nil {
			falseAccept = fmt.Errorf("false accept: p1 holds %d at v%d, want %d", got, slot.version, sum(slot.version))
		}
		samples = append(samples, sample{slot.version, r1.TornRejects(), string(log)})
	})
	// Three scans fit no tear, so the reader never gives up and fetches.
	h.fab.SetLinkTorn(0, 1, 3*sim.Microsecond, 0)
	before := h.fab.Stats().Writes
	// Round two: the anchor, then a run of the next eight calls over round
	// one's, one write each.
	burstOf(h, crdt.CounterAdd, int(anchor), 1+run)
	h.eng.RunFor(100 * sim.Microsecond)
	probe.Cancel()
	if falseAccept != nil {
		return falseAccept
	}
	if w := h.fab.Stats().Writes - before; w != 2 {
		return fmt.Errorf("round two cost %d writes, want the anchor and one merged run", w)
	}

	start, last := samples[0], samples[len(samples)-1]
	if last.ver != final {
		return fmt.Errorf("p1 ended at v%d, want v%d", last.ver, final)
	}
	var window int
	var tornBefore, tornAfter uint64
	for _, s := range samples {
		if s.bytes == start.bytes || s.bytes == last.bytes {
			continue
		}
		// Part of the run has landed and part has not.
		if window++; window == 1 {
			tornBefore = s.torn
		}
		tornAfter = s.torn
		if s.ver > anchor {
			return fmt.Errorf("p1 folded to v%d while the run's interior was in flight, want at most the anchor v%d", s.ver, anchor)
		}
	}
	if window == 0 {
		return fmt.Errorf("the sampler never saw the run half-landed: the link is not tearing")
	}
	for _, s := range samples {
		if s.ver > anchor && s.ver < final {
			return fmt.Errorf("p1 passed through v%d: the run folds in one step from the anchor v%d to v%d", s.ver, anchor, final)
		}
	}
	if hd, err := codec.PeekDeltaRecord(log); err != nil || hd.Version != final || hd.Span != run {
		return fmt.Errorf("p1's log head is %+v (%v), want one record spanning v%d..v%d", hd, err, anchor+1, final)
	}
	if tornAfter == tornBefore {
		return fmt.Errorf("torn rejects stayed at %d while the run was half-landed", tornBefore)
	}

	h.fab.SetLinkTorn(0, 1, 0, 0)
	if !h.drain(20 * sim.Millisecond) {
		return fmt.Errorf("replication did not complete after the tear healed")
	}
	h.checkConvergence()
	if _, _, fetches := deltaStats(h.cluster); fetches != 0 {
		return fmt.Errorf("%d gap fetches, want 0: the run folds from the log once it has landed", fetches)
	}
	return nil
}

// TestScanValidatesOnlyNews pins the scan's host cost to what landed: once a
// peer's slot has been read, scans that find no new landing validate nothing
// (no CRC pass), and the scans after one more δ-record lands validate exactly
// that record — not the anchor, and not the records ahead of it in the log.
func TestScanValidatesOnlyNews(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 81, func(o *Options) {
		o.DisableFailureHandling = true
	})
	r1 := h.cluster.Replica(1)
	add := func(v int64) {
		burstOf(h, crdt.CounterAdd, int(v), 1)
		if !h.drain(20 * sim.Millisecond) {
			t.Fatalf("add(%d) did not replicate", v)
		}
	}
	add(1) // the anchor
	add(2) // the log's first record
	add(3) // its second

	before := r1.statValidated
	for i := 0; i < 3; i++ {
		r1.scanSummaries()
	}
	h.eng.RunFor(50 * sim.Microsecond) // and 25 periodic scans
	if n := r1.statValidated - before; n != 0 {
		t.Fatalf("scans with no new landing validated %d frames or records, want 0", n)
	}

	add(4)
	if n := r1.statValidated - before; n != 1 {
		t.Fatalf("the scans after one landed record validated %d frames or records, want exactly that record", n)
	}
	if v := r1.sums[0][0].version; v != 4 {
		t.Fatalf("p1 holds v%d of p0's slot, want v4", v)
	}
}

// TestTornSlotReadIsReread: readSlot re-reads a peer slot that fails
// its CRC. p0's own copy of its slot is forged torn through Region.Write (an
// interior byte of the anchor flipped, its length word and trailer intact). Left torn, it is read
// rdma.TornLooks times, each counted in core.torn_rejects, and dropped;
// healed between reads, it is adopted on the re-read. p1's scan is stopped,
// so it holds an older version of the slot than p0's copy.
func TestTornSlotReadIsReread(t *testing.T) {
	for _, heal := range []bool{false, true} {
		reg := metrics.New(nil)
		h := newHarness(t, crdt.NewCounter(), 3, 37, func(o *Options) {
			o.DisableFailureHandling = true
			o.Metrics = reg
		})
		r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
		pauseScan(r1)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(5))
		h.eng.RunFor(100 * sim.Microsecond)

		own := r0.node.Region(r0.sumRegion)
		off := r0.slotOffset(0, 0)
		good := bytes.Clone(own.Bytes()[off : off+r0.opts.SumSlotSize])
		hd, err := codec.PeekDeltaRecord(good)
		ver := hd.Version
		if err != nil || hd.Kind != codec.FrameAnchor || ver <= r1.sums[0][0].version {
			t.Fatalf("p0's slot reads %+v (%v), p1 holds version %d: want a newer valid anchor", hd, err, r1.sums[0][0].version)
		}
		torn := bytes.Clone(good)
		torn[10] ^= 0xFF
		own.Write(off, torn)

		got, done := false, false
		h.eng.At(h.eng.Now()+1, func() {
			r1.readSlot(0, 0, 0, func(adopted bool) { got, done = adopted, true })
		})
		if heal {
			var probe *sim.Ticker
			probe = h.eng.NewTicker(10*sim.Nanosecond, func() {
				if r1.TornRejects() == 1 {
					own.Write(off, good)
					probe.Cancel()
				}
			})
		}
		h.eng.RunFor(100 * sim.Microsecond)

		torns := reg.Snapshot().Counters["core.torn_rejects"]
		switch {
		case !done:
			t.Fatalf("heal %v: the read never finished", heal)
		case heal && (torns != 1 || !got || r1.sums[0][0].version != ver):
			t.Fatalf("healed slot: %d torn reads, adopted %v, p1 at version %d; want 1, true, %d", torns, got, r1.sums[0][0].version, ver)
		case !heal && (torns != rdma.TornLooks || got):
			t.Fatalf("torn slot: %d torn reads, adopted %v; want %d and nothing", torns, got, rdma.TornLooks)
		}
	}
}
