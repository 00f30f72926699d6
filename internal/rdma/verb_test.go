package rdma

import (
	"bytes"
	"testing"

	"hamband/internal/sim"
)

// freeVerbCount walks the fabric's free list.
func freeVerbCount(f *Fabric) int {
	n := 0
	for v := f.freeVerbs; v != nil; v = v.nextFree {
		n++
	}
	return n
}

// TestWriteAllocCeiling pins the host cost of the verb the protocols post
// most: one signaled 64 B write, from Write to its completion callback, on a
// fabric that has posted one before. The record, its payload buffer and its
// stage funcs are all recycled, so the ceiling is one object of slack.
func TestWriteAllocCeiling(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, 2, DefaultLatency())
	f.Node(1).Register("m", 4096).AllowAllWrites()
	qp := f.Node(0).QP(1)
	buf := bytes.Repeat([]byte{7}, 64)
	completions := 0
	done := func(err error) {
		if err != nil {
			t.Fatalf("write failed: %v", err)
		}
		completions++
	}
	qp.Write("m", 0, buf, done)
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		qp.Write("m", 0, buf, done)
		eng.Run()
	})
	if allocs > 1 {
		t.Errorf("one 64 B write to completion allocates %.2f objects, want at most 1", allocs)
	}
	if completions != 1002 {
		t.Fatalf("%d completions, want 1002", completions)
	}
	if n := freeVerbCount(f); n != 1 {
		t.Errorf("free list holds %d records after sequential writes, want the one that was reused", n)
	}

	chain := []WR{{Region: "m", Off: 0, Data: buf}, {Region: "m", Off: 64, Data: buf},
		{Region: "m", Off: 128, Data: buf}, {Region: "m", Off: 192, Data: buf}}
	qp.PostChain(chain, done)
	eng.Run()
	allocs = testing.AllocsPerRun(1000, func() {
		qp.PostChain(chain, done)
		eng.Run()
	})
	if allocs > 4 {
		t.Errorf("a 4-WR chain to completion allocates %.2f objects, want at most 1 per WR", allocs)
	}
}

// TestNewFabricPreallocatesNoVerbs pins the other half of the free-list
// contract: set-up cost does not move, records exist only once posted.
func TestNewFabricPreallocatesNoVerbs(t *testing.T) {
	f := NewFabric(sim.NewEngine(1), 4, DefaultLatency())
	if n := freeVerbCount(f); n != 0 {
		t.Fatalf("a new fabric holds %d verb records, want 0", n)
	}
}

// TestRecycledVerbKeepsInFlightBytes is the hazard a recycled payload buffer
// creates. On a torn link an unsignaled write is finished — and its record
// back on the free list — when its boundary bytes land, while its interior
// bytes are still in flight. A second write posted in that window reuses the
// record and overwrites the buffer; the first write's interior must still
// land with its own bytes.
func TestRecycledVerbKeepsInFlightBytes(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, 2, DefaultLatency())
	reg := f.Node(1).Register("m", 256)
	reg.AllowAllWrites()
	const tear = 5 * sim.Microsecond
	f.SetLinkTorn(0, 1, tear, 0)
	qp := f.Node(0).QP(1)
	a := bytes.Repeat([]byte{0xAA}, 64)
	b := bytes.Repeat([]byte{0xBB}, 64)

	qp.Write("m", 0, a, nil)
	// Wait for A's boundary to land (and its record to be released) ...
	eng.RunFor(2 * sim.Microsecond)
	if got := reg.Bytes()[:64]; got[0] != 0xAA || got[63] != 0xAA || got[32] != 0 {
		t.Fatalf("expected A torn at this point (boundary landed, interior not): % x", got)
	}
	if n := freeVerbCount(f); n != 1 {
		t.Fatalf("A's record not yet recycled (%d free): the test no longer exercises reuse", n)
	}
	// ... then post B, which takes A's record and buffer.
	qp.Write("m", 128, b, nil)
	eng.Run()
	if !bytes.Equal(reg.Bytes()[:64], a) {
		t.Errorf("A's interior landed with recycled bytes: % x", reg.Bytes()[:64])
	}
	if !bytes.Equal(reg.Bytes()[128:192], b) {
		t.Errorf("B landed wrong: % x", reg.Bytes()[128:192])
	}
}

// TestOverlappingVerbsKeepTheirCallbacks posts more verbs than the free
// list holds, of every shape, before any completes: each callback must fire
// exactly once with its own verb's outcome, and every record must come back.
func TestOverlappingVerbsKeepTheirCallbacks(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, 3, DefaultLatency())
	for p := 1; p <= 2; p++ {
		f.Node(NodeID(p)).Register("m", 4096).AllowAllWrites()
		f.Node(NodeID(p)).Register("ro", 64) // no write permission
		f.Node(NodeID(p)).Register("w", 8*50).AllowAllWrites()
	}
	const rounds, shapes = 50, 6
	fired := make([]int, shapes*rounds)
	for i := 0; i < rounds; i++ {
		i := i
		qp := f.Node(0).QP(NodeID(1 + i%2))
		payload := bytes.Repeat([]byte{byte(i + 1)}, 32)
		expect := func(slot int, wantErr error) func(error) {
			return func(err error) {
				fired[slot]++
				if err != wantErr {
					t.Errorf("verb %d completed with %v, want %v", slot, err, wantErr)
				}
			}
		}
		qp.Write("m", 32*i, payload, expect(shapes*i, nil))
		qp.Write("ro", 0, payload, expect(shapes*i+1, ErrPermission))
		qp.PostChain([]WR{{Region: "m", Off: 2048 + 32*i, Data: payload}, {Region: "ro", Off: 0, Data: payload},
			{Region: "m", Off: 0, Data: payload}}, expect(shapes*i+2, ErrPermission))
		qp.Write("m", 32*i, payload, nil) // unsignaled
		fired[shapes*i+3] = 1
		// RC order: the read sees this round's writes, which landed before it.
		qp.Read("m", 32*i, 32, func(data []byte, err error) {
			fired[shapes*i+4]++
			if err != nil || !bytes.Equal(data, payload) {
				t.Errorf("read %d returned % x, %v", i, data, err)
			}
		})
		qp.CAS("w", 8*i, 0, uint64(i+1), func(old uint64, err error) {
			fired[shapes*i+5]++
			if err != nil || old != 0 {
				t.Errorf("CAS %d returned %d, %v", i, old, err)
			}
		})
	}
	eng.Run()
	for slot, n := range fired {
		if n != 1 {
			t.Errorf("callback %d fired %d times", slot, n)
		}
	}
	for i := 0; i < rounds; i++ {
		node := f.Node(NodeID(1 + i%2))
		if got := node.Region("m").Bytes()[32*i : 32*i+32]; !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 32)) {
			t.Errorf("write %d landed as % x", i, got)
		}
		if got := readU64(node.Region("w").Bytes()[8*i:]); got != uint64(i+1) {
			t.Errorf("CAS %d left %d", i, got)
		}
	}
	if free := freeVerbCount(f); free != shapes*rounds {
		t.Errorf("%d records on the free list after %d verbs drained, want all of them", free, shapes*rounds)
	}
}

// TestReadAndCASAllocNothing pins READ and CAS on the recycled record: a
// warm 8 B READ, from Read to its callback, and a warm CAS allocate nothing.
// The response lands in the record's own buffer and the callback borrows it;
// every stage is a func bound to the record when it was first allocated.
func TestReadAndCASAllocNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, 2, DefaultLatency())
	reg := f.Node(1).Register("m", 64)
	reg.AllowAllWrites()
	putU64(reg.Bytes(), 42)
	qp := f.Node(0).QP(1)
	var got uint64
	reads := 0
	onRead := func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		got = readU64(data)
		reads++
	}
	qp.Read("m", 0, 8, onRead)
	eng.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		qp.Read("m", 0, 8, onRead)
		eng.Run()
	}); allocs != 0 {
		t.Errorf("a warm 8 B read to its callback allocates %.2f objects, want 0", allocs)
	}
	if got != 42 || reads != 1002 {
		t.Fatalf("%d reads, the last returned %d; want 1002 returning 42", reads, got)
	}

	swaps := 0
	onCAS := func(old uint64, err error) {
		if err != nil || old != uint64(swaps) {
			t.Fatalf("CAS %d returned old %d, %v", swaps, old, err)
		}
		swaps++
	}
	next := func() { qp.CAS("m", 8, uint64(swaps), uint64(swaps)+1, onCAS) }
	next()
	eng.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		next()
		eng.Run()
	}); allocs != 0 {
		t.Errorf("a warm CAS to its callback allocates %.2f objects, want 0", allocs)
	}
	if v := readU64(reg.Bytes()[8:]); v != 1002 || swaps != 1002 {
		t.Fatalf("%d CASes left the word at %d, want 1002 of each", swaps, v)
	}
	if n := freeVerbCount(f); n != 1 {
		t.Errorf("the free list holds %d records after sequential reads and CASes, want the one they all reused", n)
	}
}

// TestReadCallbackKeepsItsBytes is the hazard the borrow rule creates. A READ
// callback that posts more verbs on the same QP before it returns — a WRITE,
// whose payload is copied into a record at once, and another READ — must
// still see its own response: its record goes back to the free list only
// after the callback returns, so neither post can take it.
func TestReadCallbackKeepsItsBytes(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, 2, DefaultLatency())
	reg := f.Node(1).Register("m", 64)
	reg.AllowAllWrites()
	copy(reg.Bytes(), "first read")
	copy(reg.Bytes()[32:], "second one")
	qp := f.Node(0).QP(1)
	// Warm the free list, so a record released too early would be reused.
	qp.Write("m", 48, []byte("warm"), func(error) {})
	eng.Run()
	var second string
	qp.Read("m", 0, 10, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		qp.Write("m", 48, []byte("overwrite!"), nil)
		qp.Read("m", 32, 10, func(data []byte, err error) { second = string(data) })
		if string(data) != "first read" {
			t.Errorf("after posting a WRITE and a READ, the callback's bytes read %q", data)
		}
	})
	eng.Run()
	if second != "second one" {
		t.Errorf("the nested read returned %q", second)
	}
	if n := freeVerbCount(f); n != 3 {
		t.Errorf("%d records on the free list, want the three verbs that were in flight at once", n)
	}
}

// TestReadAndCASToCrashedTarget: a READ and a CAS whose target is dead fail
// with ErrCrashed and return their records. Posted at a target already
// crashed, they fail FailTimeout after reaching the wire; posted to a target
// that crashes while the request is in flight, they fail at its landing, a
// round trip later. Each failure counts once in Stats.Failed.
func TestReadAndCASToCrashedTarget(t *testing.T) {
	lat := DefaultLatency()
	for _, tc := range []struct {
		name    string
		crashAt sim.Time
		readAt  sim.Duration // completion times, from the cost model
		casAt   sim.Duration
	}{
		// Crashed before the doorbells: post, FailTimeout, poll; the CAS posts
		// right behind the READ on the same CPU.
		{"at the doorbell", 0, lat.PostCost + lat.FailTimeout + lat.PollCost,
			2*lat.PostCost + lat.FailTimeout + lat.PollCost},
		// Crashed after them: the READ's request lands at PostCost+WireLatency
		// and its error completes an ack later; the CAS's 8 B operand lands 1 ns
		// after that (RC order) and answers CASExtra later.
		{"in flight", 500, lat.PostCost + lat.WireLatency + lat.AckLatency + lat.PollCost,
			2*lat.PostCost + lat.WireLatency + 1 + lat.CASExtra + lat.AckLatency + lat.PollCost},
	} {
		eng := sim.NewEngine(1)
		f := NewFabric(eng, 2, lat)
		f.Node(1).Register("m", 64).AllowAllWrites()
		qp := f.Node(0).QP(1)
		eng.At(tc.crashAt, f.Node(1).Crash)
		var readAt, casAt sim.Time
		var readErr, casErr error
		var readData []byte
		var old uint64 = 7
		qp.Read("m", 0, 8, func(data []byte, err error) { readAt, readData, readErr = eng.Now(), data, err })
		qp.CAS("m", 8, 0, 1, func(o uint64, err error) { casAt, old, casErr = eng.Now(), o, err })
		eng.Run()
		if readErr != ErrCrashed || readData != nil || casErr != ErrCrashed || old != 0 {
			t.Errorf("%s: read (%v, %v), CAS (%d, %v); want nil and 0 with ErrCrashed", tc.name, readData, readErr, old, casErr)
		}
		if readAt != sim.Time(tc.readAt) || casAt != sim.Time(tc.casAt) {
			t.Errorf("%s: the read failed at %v and the CAS at %v, want %v and %v", tc.name, readAt, casAt, tc.readAt, tc.casAt)
		}
		if st := f.Stats(); st.Reads != 1 || st.CASes != 1 || st.Failed != 2 {
			t.Errorf("%s: stats %+v, want one read, one CAS, two failures", tc.name, st)
		}
		if n := freeVerbCount(f); n != 2 {
			t.Errorf("%s: %d records on the free list, want both back", tc.name, n)
		}
	}
}
