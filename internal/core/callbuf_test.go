package core

import (
	"runtime"
	"slices"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/fifo"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// orsetAdd is source 0's seq-th OR-set add of element e as a broadcast
// message carries it: a bare call.
func orsetAdd(seq uint64, e int64) []byte {
	return codec.AppendCall(nil, spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(e, crdt.Tag(0, seq)), Proc: 0, Seq: seq}, nil)
}

// heapInUse returns the bytes of live heap objects after two full
// collections: the second frees what sync.Pools held on to through the first.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBufferedBacklogBytes pins what a backlogged call costs an F buffer: with
// the apply pump held, 4 096 OR-set adds delivered through onFreeDelivery keep
// at most 48 B of heap each — here 20 B: the bare call's 10 wire bytes and its
// 4-byte length, in storage that doubles. Kept decoded, each call held 112 B:
// a 96 B queue slot and a 16 B argument array of its own. Draining the backlog
// through the pump then allocates nothing: each head is decoded into the
// buffer's scratch record, and the OR-set already holds every tag, so applying
// one adds none.
func TestBufferedBacklogBytes(t *testing.T) {
	const calls = 4096
	h := newHarness(t, crdt.NewORSet(), 2, 71, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true
	})
	r := h.cluster.Replica(1)
	payloads := make([][]byte, calls)
	for i := range payloads {
		seq := uint64(i + 1)
		payloads[i] = orsetAdd(seq, int64(i%64))
		r.live.apply(spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(int64(i%64), crdt.Tag(0, seq)), Proc: 0, Seq: seq})
	}
	q := &r.fQueues[0]
	q.Push(payloads[0]) // warm the scratch record
	q.Pop()

	r.applying = true // hold the pump: deliveries only queue
	before := heapInUse()
	for _, p := range payloads {
		r.onFreeDelivery(0, 0, p)
	}
	held := heapInUse() - before
	runtime.KeepAlive(payloads) // live across both measurements, so neither counts them
	runtime.KeepAlive(h)
	if q.Len() != calls {
		t.Fatalf("the F buffer holds %d calls, want %d", q.Len(), calls)
	}
	perCall := float64(held) / calls
	t.Logf("%d buffered calls hold %d B of heap, %.1f B a call (%d B of records in %d B of storage)", calls, held, perCall, len(q.recs)-q.off, cap(q.recs))
	if perCall > 48 {
		t.Errorf("a buffered call holds %.1f B, want at most 48", perCall)
	}

	r.applying = false
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: no other goroutine's objects
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	applied := 0
	for r.applyOne() {
		applied++
	}
	runtime.ReadMemStats(&ms)
	if applied != calls || r.applied.Get(0, crdt.ORSetAdd) != calls {
		t.Fatalf("the pump applied %d calls, %d counted; want %d", applied, r.applied.Get(0, crdt.ORSetAdd), calls)
	}
	if n := ms.Mallocs - mallocs; n != 0 {
		t.Errorf("draining %d buffered calls allocates %d objects, want 0", calls, n)
	}
}

// TestOverwrittenPayloadAppliesItsCalls: a delivered payload belongs to the
// deliverer, which reuses its buffer once the handler returns. Overwriting a
// two-call payload with two other valid calls right after onFreeDelivery must
// not change what applies: the F buffer holds copies of the records it
// accepted.
func TestOverwrittenPayloadAppliesItsCalls(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 2, 72, nil)
	r := h.cluster.Replica(1)
	payload := append(orsetAdd(1, 5), orsetAdd(2, 6)...)
	other := append(orsetAdd(3, 7), orsetAdd(4, 8)...)
	if len(other) != len(payload) {
		t.Fatalf("test premise: the overwriting payload is %d bytes, the delivered one %d", len(other), len(payload))
	}
	h.eng.At(h.eng.Now(), func() {
		r.onFreeDelivery(0, 0, payload)
		copy(payload, other)
	})
	h.eng.RunFor(100 * sim.Microsecond)
	st, contains := r.CurrentState(), r.cls.Methods[crdt.ORSetContains].Eval
	for e, want := range map[int64]bool{5: true, 6: true, 7: false, 8: false} {
		if got := contains(st, spec.ArgsI(e)); got != want {
			t.Errorf("contains(%d) = %v, want %v: the set must hold elements 5 and 6 only", e, got, want)
		}
	}
}

// TestTracedAppliesKeepTheirCalls: the apply pump borrows each buffered call
// from the buffer's scratch record, whose arrays the next decode reuses, so
// the Apply trace record must hold a copy. Two calls buffered back to back
// must show their own arguments in the trace once both have applied.
func TestTracedAppliesKeepTheirCalls(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 2, 73, nil)
	r := h.cluster.Replica(1)
	r.opts.Tracer = trace.New(h.eng, 1<<10)
	h.eng.At(h.eng.Now(), func() { r.onFreeDelivery(0, 0, append(orsetAdd(1, 5), orsetAdd(2, 6)...)) })
	h.eng.RunFor(100 * sim.Microsecond)
	var got []spec.Args
	for _, ev := range r.opts.Tracer.ByKind(trace.Apply) {
		if rec, ok := ev.Data.(trace.CallRecord); ok && ev.Node == 1 {
			got = append(got, rec.C.Args)
		}
	}
	want := []spec.Args{spec.ArgsI(5, crdt.Tag(0, 1)), spec.ArgsI(6, crdt.Tag(0, 2))}
	if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("traced applies carry %v, want %v", got, want)
	}
}

// FuzzCallBuffer runs a callBuffer against a FIFO of decoded calls through
// the operation sequence the input spells out: pushes of bare calls whose length
// varies with their argument count, pops from either end and head reads, so
// the storage grows, wraps into compactions and empties. Every call read
// must be the model's, and the storage must hold exactly the queued calls.
func FuzzCallBuffer(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3, 2, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{0x20, 0x20, 0x20, 2, 2, 0x20, 0x42, 0x42}) // 18-byte calls: the fourth push compacts 64 bytes of storage in place
	f.Add([]byte{0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 2, 2, 2, 2, 0x46, 3, 0x47, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b callBuffer
		var model fifo.Queue[codec.DeltaRecord]
		check := func(op string, got *codec.DeltaRecord, want codec.DeltaRecord) {
			t.Helper()
			if got.C.Method != want.C.Method || got.C.Proc != want.C.Proc || got.C.Seq != want.C.Seq ||
				!got.C.Args.Equal(want.C.Args) || !slices.Equal(got.D, want.D) {
				t.Fatalf("%s returned %v D=%v, want %v D=%v", op, got.C, got.D, want.C, want.D)
			}
		}
		seq := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				seq++
				n := int(op >> 2) // 0..63 arguments, so calls of 6 to ~190 bytes
				args := make([]int64, n)
				for i := range args {
					args[i] = int64(seq)<<8 | int64(i)
				}
				d := make(spec.DepVec, n%5)
				for i := range d {
					d[i] = uint32(seq) + uint32(i)
				}
				rec := codec.DeltaRecord{D: d,
					C: spec.Call{Method: spec.MethodID(op % 3), Args: spec.Args{I: args}, Proc: spec.ProcID(n % 4), Seq: seq}}
				enc := codec.AppendCall(nil, rec.C, rec.D)
				b.Push(enc)
				clear(enc) // the buffer keeps a copy
				rec.C = rec.C.Clone()
				model.Push(rec)
			case 2:
				if model.Len() > 0 {
					check("Pop", b.Pop(), model.Pop())
				}
			case 3:
				if model.Len() > 0 {
					check("PopBack", b.PopBack(), model.PopBack())
				}
			}
			if b.Len() != model.Len() {
				t.Fatalf("Len %d, model %d", b.Len(), model.Len())
			}
			total := 0
			for i := 0; i < b.lens.Len(); i++ {
				l := b.lens.Pop()
				total += int(l)
				b.lens.Push(l)
			}
			if len(b.recs)-b.off != total {
				t.Fatalf("the storage holds %d bytes past the consumed prefix, the queued records %d", len(b.recs)-b.off, total)
			}
			if model.Len() > 0 && op&0x40 != 0 { // and otherwise the next Pop decodes the head itself
				check("Head", b.Head(), model.Head())
			}
		}
	})
}
