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
	}
	const rounds = 50
	fired := make([]int, 4*rounds)
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
		qp.Write("m", 32*i, payload, expect(4*i, nil))
		qp.Write("ro", 0, payload, expect(4*i+1, ErrPermission))
		qp.PostChain([]WR{{Region: "m", Off: 2048 + 32*i, Data: payload}, {Region: "ro", Off: 0, Data: payload},
			{Region: "m", Off: 0, Data: payload}}, expect(4*i+2, ErrPermission))
		qp.Write("m", 32*i, payload, nil) // unsignaled
		fired[4*i+3] = 1
	}
	eng.Run()
	for slot, n := range fired {
		if n != 1 {
			t.Errorf("callback %d fired %d times", slot, n)
		}
	}
	for i := 0; i < rounds; i++ {
		got := f.Node(NodeID(1 + i%2)).Region("m").Bytes()[32*i : 32*i+32]
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 32)) {
			t.Errorf("write %d landed as % x", i, got)
		}
	}
	if free := freeVerbCount(f); free != 4*rounds {
		t.Errorf("%d records on the free list after %d verbs drained, want all of them", free, 4*rounds)
	}
}
