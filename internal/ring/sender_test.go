package ring

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

const rigRetry = 5 * sim.Microsecond

// senderRig is node 0 sending into a ring on node 1.
type senderRig struct {
	eng *sim.Engine
	fab *rdma.Fabric
	reg *rdma.Region
	s   *Sender
	rd  *Reader
}

func newSenderRig(capacity int) *senderRig {
	eng := sim.NewEngine(3)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	reg := fab.Node(1).Register("ring", RegionSize(capacity))
	reg.AllowWrite(0)
	return &senderRig{
		eng: eng, fab: fab, reg: reg,
		s:  NewSender(fab, fab.Node(0), 1, "ring", capacity, rigRetry),
		rd: NewReader(reg.Bytes()),
	}
}

// wantRecords fails unless got holds exactly the records of want, in order.
func wantRecords(t *testing.T, context string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d records, want %d", context, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d differs: % x, want % x", context, i, got[i], want[i])
		}
	}
}

// TestSenderOneWritePerPump sweeps record sizes so that pumps of four
// records start at every kind of ring position: each pump must post one
// write — two only when it crosses the wrap boundary (behind a skip marker,
// an unmarked remainder under four bytes, or a record that ends exactly at
// the boundary) — and the reader must poll back the same records in order.
func TestSenderOneWritePerPump(t *testing.T) {
	const capacity, perPump = 128, 4
	twoRuns := 0
	for size := codec.RawOverhead + 1; size <= 24; size++ {
		rig := newSenderRig(capacity)
		for pump := 0; pump < 30; pump++ {
			var want [][]byte
			for i := 0; i < perPump; i++ {
				want = append(want, rec(t, size+(pump+i)%3, byte('a'+(pump*perPump+i)%26)))
			}
			// Two writes when the pump crosses the boundary with something to
			// leave before it: a record, or a marker (remainder of four bytes
			// or more).
			wantWrites := uint64(1)
			left := capacity - int(rig.s.w.Tail()%capacity)
			if len(bytes.Join(want, nil)) > left && (len(want[0]) <= left || left >= 4) {
				wantWrites = 2
				twoRuns++
			}
			before := rig.fab.Stats()
			for _, r := range want {
				rig.s.Send(r, "", nil)
			}
			rig.eng.Run()
			after := rig.fab.Stats()
			writes := after.Writes - before.Writes
			if doorbells := writes - (after.ChainedWRs - before.ChainedWRs); writes != wantWrites || doorbells != 1 {
				t.Fatalf("size %d pump %d: %d writes on %d doorbells for %d queued records, want %d on 1",
					size, pump, writes, doorbells, perPump, wantWrites)
			}
			if after.Reads != before.Reads {
				t.Fatalf("size %d pump %d: a ring with room needed a head read", size, pump)
			}
			wantRecords(t, "poll", drain(t, rig.rd), want)
			rig.s.w.NoteHead(rig.rd.Head())
		}
	}
	if twoRuns == 0 {
		t.Fatal("no pump crossed the wrap boundary: the sweep does not cover two-run posts")
	}
}

// TestSenderWrapAtFirstRecord pins the degenerate first run: when the
// pump's first record is the one that wraps, run 0 is a bare skip marker
// (or nothing at all under four bytes of remainder).
func TestSenderWrapAtFirstRecord(t *testing.T) {
	for _, remainder := range []int{2, 6} {
		const capacity = 64
		rig := newSenderRig(capacity)
		for _, n := range []int{20, 20, capacity - remainder - 40} {
			rig.s.Send(rec(t, n, 'x'), "", nil)
		}
		rig.eng.Run()
		drain(t, rig.rd)
		rig.s.w.NoteHead(rig.rd.Head())

		want := [][]byte{rec(t, 12, 'p'), rec(t, 13, 'q')}
		before := rig.fab.Stats().Writes
		for _, r := range want {
			rig.s.Send(r, "", nil)
		}
		rig.eng.Run()
		wantWrites := uint64(2) // marker, then the records at offset zero
		if remainder < 4 {
			wantWrites = 1
		}
		if got := rig.fab.Stats().Writes - before; got != wantWrites {
			t.Fatalf("remainder %d: %d writes, want %d", remainder, got, wantWrites)
		}
		wantRecords(t, "poll", drain(t, rig.rd), want)
	}
}

// TestSenderBacksOffStalledReader fills a ring nobody reads and keeps
// sending: head reads must follow the doubling schedule, capped at
// maxBackoff times the base, however many sends arrive; once the reader
// drains, delivery resumes within the cap and nothing is lost.
func TestSenderBacksOffStalledReader(t *testing.T) {
	const capacity, sends = 256, 400
	rig := newSenderRig(capacity)
	var want [][]byte
	for i := 0; i < sends; i++ {
		r := rec(t, 40, byte(i))
		want = append(want, r)
		rig.eng.At(sim.Time(i)*sim.Time(sim.Microsecond), func() { rig.s.Send(r, "", nil) })
	}
	// Sample the read counter finely enough to timestamp every head read.
	var readAt []sim.Time
	probe := rig.eng.NewTicker(100*sim.Nanosecond, func() {
		for uint64(len(readAt)) < rig.fab.Stats().Reads {
			readAt = append(readAt, rig.eng.Now())
		}
	})
	const stall = 1200 * sim.Microsecond
	rig.eng.RunUntil(sim.Time(stall))
	if len(readAt) < 8 {
		t.Fatalf("%d head reads during the stall, want the back-off schedule to reach its cap", len(readAt))
	}
	delay := rigRetry
	for i := 1; i < len(readAt); i++ {
		gap := sim.Duration(readAt[i] - readAt[i-1])
		// A gap is the retry delay plus one read round trip (~2 µs).
		if gap < delay || gap > delay+3*sim.Microsecond {
			t.Fatalf("head read %d came %v after the previous one, want %v plus a round trip", i, gap, delay)
		}
		if delay < maxBackoff*rigRetry {
			delay *= 2
		}
	}
	if delay != maxBackoff*rigRetry {
		t.Fatalf("back-off stopped at %v, want the cap %v", delay, maxBackoff*rigRetry)
	}

	// The reader wakes up and polls from here on.
	var got [][]byte
	var firstNew sim.Time
	held := capacity / 40 // records that fit the ring before it filled
	poll := rig.eng.NewTicker(sim.Microsecond, func() {
		got = append(got, drain(t, rig.rd)...)
		if firstNew == 0 && len(got) > held {
			firstNew = rig.eng.Now()
		}
	})
	rig.eng.RunUntil(sim.Time(stall + 2*sim.Millisecond))
	poll.Cancel()
	probe.Cancel()
	rig.eng.Run()
	if firstNew == 0 || sim.Duration(firstNew)-stall > maxBackoff*rigRetry+5*sim.Microsecond {
		t.Fatalf("delivery resumed at %v, want within the %v cap of the drain at %v", firstNew, maxBackoff*rigRetry, stall)
	}
	wantRecords(t, "after the stall", got, want)
}

// TestSenderMergedWriteOnTornLink sends bursts over a link that lands each
// write's first and last four bytes ahead of its interior. A merged write's
// early fragments are the first record's length word and the last record's
// canary, so the reader must hold every record back until the interior
// lands, then deliver each exactly once, in order.
func TestSenderMergedWriteOnTornLink(t *testing.T) {
	rig := newSenderRig(1024)
	rig.fab.SetLinkTorn(0, 1, 2*sim.Microsecond, 500*sim.Nanosecond)
	var want, got [][]byte
	for burst := 0; burst < 60; burst++ {
		n := 1 + burst%4 // single records tear too: the CRC rejects those
		for i := 0; i < n; i++ {
			r := rec(t, 30+burst%7, byte(len(want)+1))
			want = append(want, r)
			rig.eng.At(sim.Time(burst+1)*6000, func() { rig.s.Send(r, "", nil) })
		}
	}
	poll := rig.eng.NewTicker(sim.Microsecond, func() {
		got = append(got, drain(t, rig.rd)...)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d delivered torn or out of order: % x", i, got[i])
			}
		}
	})
	rig.eng.RunUntil(sim.Time(500 * sim.Microsecond))
	poll.Cancel()
	rig.eng.Run()
	got = append(got, drain(t, rig.rd)...)
	wantRecords(t, "torn link", got, want)
	if rig.fab.Stats().TornWrites == 0 || rig.rd.TornRejects() == 0 {
		t.Fatalf("%d torn writes, %d CRC rejects: the fault injection is not tearing",
			rig.fab.Stats().TornWrites, rig.rd.TornRejects())
	}
	// One write per burst, one more at each wrap, and one more doorbell each
	// time the cached head made the ring look full mid-burst.
	st := rig.fab.Stats()
	if laps := rig.s.w.Tail() / 1024; st.Writes-st.ChainedWRs > 60+st.Reads || st.ChainedWRs > laps {
		t.Fatalf("%d writes (%d chained) and %d head reads over %d laps: the 60 bursts were not merged",
			st.Writes, st.ChainedWRs, st.Reads, laps)
	}
}

// TestSenderWarmPumpReusesStaging pins the staging buffer: once the queue and
// the staging buffer have grown, queueing a burst, pumping it as one write and
// fanning the completion out allocate only the completion callback and its
// list of onDones — no fresh buffer for the merged payload, whatever its size.
func TestSenderWarmPumpReusesStaging(t *testing.T) {
	rig := newSenderRig(1 << 20) // room for every run without a reader
	records := [][]byte{rec(t, 200, 1), rec(t, 3000, 2), rec(t, 250, 3), rec(t, 180, 4)}
	done := 0
	onDone := func(error) { done++ }
	burst := func() {
		for _, r := range records {
			rig.s.Send(r, "", onDone)
		}
		rig.eng.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(200, burst); allocs != 2 {
		t.Fatalf("a warm pump allocates %.1f times per burst, want 2", allocs)
	}
	if want := 202 * len(records); done != want {
		t.Fatalf("%d completions, want %d", done, want)
	}
}

// TestSenderErrorReachesEveryDone covers the two ways a record loses its
// place. A write refused at the target (the deposed-leader case: permission
// revoked) must fail every record the merged write carried, so none can be
// counted toward a majority. A peer that crashes behind a full ring must
// fail every record still queued, exactly once.
func TestSenderErrorReachesEveryDone(t *testing.T) {
	rig := newSenderRig(256)
	rig.reg.RevokeWrite(0)
	var errs []error
	for i := 0; i < 5; i++ {
		rig.s.Send(rec(t, 20, byte(i)), "", func(err error) { errs = append(errs, err) })
	}
	rig.eng.Run()
	if len(errs) != 5 {
		t.Fatalf("%d of 5 completions fired", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, rdma.ErrPermission) {
			t.Fatalf("completion %d = %v, want %v", i, err, rdma.ErrPermission)
		}
	}
	if rig.fab.Stats().Writes != 1 {
		t.Fatalf("%d writes, want the five records in one", rig.fab.Stats().Writes)
	}

	rig = newSenderRig(64)
	landed, failed := 0, 0
	for i := 0; i < 6; i++ { // two fit, four queue behind the full ring
		rig.s.Send(rec(t, 30, byte(i)), "", func(err error) {
			if err == nil {
				landed++
			} else {
				failed++
			}
		})
	}
	rig.eng.RunUntil(sim.Time(20 * sim.Microsecond))
	rig.fab.Node(1).Crash()
	rig.eng.Run()
	if landed != 2 || failed != 4 {
		t.Fatalf("%d landed, %d failed; want 2 and 4", landed, failed)
	}
}

// TestSenderCompletesInSendOrder pins what a caller that keeps its
// outstanding completions in a FIFO relies on: across a pumped write and the
// failed head read that fails everything still queued behind a full ring,
// every record's onDone runs exactly once and in the order the records were
// sent.
func TestSenderCompletesInSendOrder(t *testing.T) {
	rig := newSenderRig(64)
	var order []int
	var errs []error
	for i := 0; i < 6; i++ { // two fit, four queue behind the full ring
		i := i
		rig.s.Send(rec(t, 30, byte(i)), "", func(err error) {
			order = append(order, i)
			errs = append(errs, err)
		})
	}
	rig.eng.RunUntil(sim.Time(20 * sim.Microsecond))
	if len(order) != 2 {
		t.Fatalf("%d completions before the crash, want the two records that fit", len(order))
	}
	rig.fab.Node(1).Crash()
	rig.eng.Run()
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("completions ran in order %v, want %v", order, want)
	}
	for i, err := range errs {
		if failed := err != nil; failed != (i >= 2) {
			t.Fatalf("completion %d = %v; want the first two to land and the rest to fail", i, err)
		}
	}
}

// TestSenderDropReportsCallbacks queues records with and without an onDone
// behind a write in flight: Drop must report the queued callbacks it
// discarded — two — and run none of them, while the write in flight still
// completes.
func TestSenderDropReportsCallbacks(t *testing.T) {
	rig := newSenderRig(1 << 10)
	var done []int
	note := func(i int) func(error) { return func(error) { done = append(done, i) } }
	rig.s.Send(rec(t, 30, 0), "", note(0))
	rig.eng.RunUntil(sim.Time(300 * sim.Nanosecond)) // pumped and posted, not yet complete
	if len(done) != 0 || rig.fab.Stats().Writes != 1 {
		t.Fatalf("%d completions and %d writes at 300 ns, want a write in flight", len(done), rig.fab.Stats().Writes)
	}
	rig.s.Send(rec(t, 30, 1), "", note(1))
	rig.s.Send(rec(t, 30, 2), "", nil)
	rig.s.Send(rec(t, 30, 3), "", note(3))
	if got := rig.s.Drop(); got != 2 {
		t.Fatalf("Drop reported %d callbacks, want 2", got)
	}
	if got := rig.s.Drop(); got != 0 {
		t.Fatalf("a second Drop reported %d callbacks, want 0", got)
	}
	rig.eng.Run()
	if !slices.Equal(done, []int{0}) || rig.fab.Stats().Writes != 1 {
		t.Fatalf("completions %v over %d writes, want only the write in flight to complete", done, rig.fab.Stats().Writes)
	}
}
