package rdma

import (
	"bytes"
	"slices"
	"testing"

	"hamband/internal/sim"
	callspan "hamband/internal/span" // the arena has a span type of its own
	"hamband/internal/trace"
)

// coalescePair is a two-node fabric with a coalescer posting from node 0 into
// node 1's writable regions "slots" (returned) and "other".
func coalescePair(t *testing.T) (*sim.Engine, *Fabric, *Coalescer, *Region) {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	reg := fab.Node(1).Register("slots", 1024)
	reg.AllowAllWrites()
	fab.Node(1).Register("other", 1024).AllowAllWrites()
	return eng, fab, NewCoalescer(fab.Node(0)), reg
}

// TestCoalescerMergesContiguousRun is the rule: WRs enqueued in one CPU burst
// at consecutive offsets of one region are adjacent remote bytes, and land as
// ONE write carrying their concatenation at the first offset.
func TestCoalescerMergesContiguousRun(t *testing.T) {
	eng, fab, co, reg := coalescePair(t)
	var want []byte
	fab.Node(0).CPU.Exec(0, func() {
		off := 100
		for k := 0; k < 8; k++ {
			rec := bytes.Repeat([]byte{byte(k + 1)}, 3+k) // records of different lengths
			co.Enqueue(1, "s", WR{Region: "slots", Off: off, Data: rec})
			off += len(rec)
			want = append(want, rec...)
		}
	})
	eng.Run()

	if fs := fab.Stats(); fs.Writes != 1 || fs.Chains != 0 || fs.BytesWritten != uint64(len(want)) {
		t.Fatalf("fabric writes=%d chains=%d bytes=%d, want one %d-byte write and no chain",
			fs.Writes, fs.Chains, fs.BytesWritten, len(want))
	}
	if got := reg.Bytes()[100 : 100+len(want)]; !bytes.Equal(got, want) {
		t.Fatalf("landed %v, want the concatenation %v", got, want)
	}
	if reg.Bytes()[99] != 0 || reg.Bytes()[100+len(want)] != 0 {
		t.Fatal("the merged write touched bytes outside the run")
	}
	if st := co.Stats(); st.Merged != 7 || st.Flushes != 1 || st.Chains != 0 {
		t.Fatalf("stats %+v, want 7 merged enqueues in one flush and no multi-WR chain", st)
	}
}

// TestCoalescerRunEndsAndKeepsOrder: only the tail merges. Another region or a
// non-adjacent offset ends the run, and the chain keeps enqueue order — run,
// anchor, run is three WRs in that order — so a later write to bytes an
// earlier one covers still wins.
func TestCoalescerRunEndsAndKeepsOrder(t *testing.T) {
	eng, fab, co, reg := coalescePair(t)
	tr := trace.New(eng, 0)
	fab.EnableTracing(tr)
	fab.Node(0).CPU.Exec(0, func() {
		co.Enqueue(1, "s", WR{Region: "slots", Off: 200, Data: []byte{1, 1}, Label: "a"})
		co.Enqueue(1, "s", WR{Region: "slots", Off: 202, Data: []byte{2, 2}, Label: "b"})
		// The anchor at the slot head: not adjacent, and it overwrites 200..201.
		co.Enqueue(1, "s", WR{Region: "slots", Off: 0, Data: bytes.Repeat([]byte{9}, 202), Label: "c"})
		// The offset the first run stopped at, but no longer the tail's end.
		co.Enqueue(1, "s", WR{Region: "slots", Off: 204, Data: []byte{3, 3}, Label: "d"})
		co.Enqueue(1, "s", WR{Region: "slots", Off: 206, Data: []byte{4, 4}, Label: "e"})
		// Adjacent offset in another region: a new WR.
		co.Enqueue(1, "s", WR{Region: "other", Off: 208, Data: []byte{5}, Label: "f"})
		// A gap of one byte: a new WR.
		co.Enqueue(1, "s", WR{Region: "other", Off: 210, Data: []byte{6}, Label: "g"})
	})
	eng.Run()

	if fs := fab.Stats(); fs.Writes != 5 || fs.Chains != 1 || fs.ChainedWRs != 4 {
		t.Fatalf("fabric writes=%d chains=%d chainedWRs=%d, want 5 WRs on one doorbell", fs.Writes, fs.Chains, fs.ChainedWRs)
	}
	if st := co.Stats(); st.Merged != 2 || st.Chains != 1 {
		t.Fatalf("stats %+v, want 2 merged enqueues and one chain", st)
	}
	var posted []string
	for _, e := range tr.ByKind(trace.Post) {
		posted = append(posted, e.Call)
	}
	if got, want := posted, []string{"a,b", "c", "d,e", "f", "g"}; !slices.Equal(got, want) {
		t.Fatalf("chain posted as %q, want %q", got, want)
	}
	b := reg.Bytes()
	if b[200] != 9 || b[201] != 9 || b[202] != 2 || b[204] != 3 || b[206] != 4 {
		t.Fatalf("bytes 200..207 = %v: the anchor did not land between the two runs", b[200:208])
	}
	if o := fab.Node(1).Region("other").Bytes(); o[208] != 5 || o[210] != 6 || b[208] != 0 {
		t.Fatalf("other[208..210] = %v, slots[208] = %d: a WR for another region joined the run", o[208:211], b[208])
	}
}

// TestCoalescerMergedCallsKeepTheirEvents: each call merged into a write still
// gets the write's post and wire events, through the comma-joined label the
// span layer splits.
func TestCoalescerMergedCallsKeepTheirEvents(t *testing.T) {
	eng, fab, co, _ := coalescePair(t)
	tr := trace.New(eng, 0)
	fab.EnableTracing(tr)
	labels := []string{"p0#1", "p0#2", "p0#3", "p0#4"}
	fab.Node(0).CPU.Exec(0, func() {
		for k, l := range labels {
			co.Enqueue(1, "s", WR{Region: "slots", Off: 8 * k, Data: make([]byte, 8), Label: l})
		}
	})
	eng.Run()

	if n := len(tr.ByKind(trace.Post)); n != 1 {
		t.Fatalf("%d post events, want 1: a merged WR is one verb event", n)
	}
	spans := callspan.Build(tr.Events())
	if len(spans) != len(labels) {
		t.Fatalf("%d spans, want one per merged call", len(spans))
	}
	for i, s := range spans {
		if s.Call != labels[i] {
			t.Fatalf("span %d is %q, want %q", i, s.Call, labels[i])
		}
		var post, wire int
		for _, e := range s.Events {
			switch e.Kind {
			case trace.Post:
				post++
			case trace.Wire:
				wire++
			}
		}
		if post != 1 || wire != 1 {
			t.Errorf("call %s has %d post and %d wire events, want 1 and 1", s.Call, post, wire)
		}
	}
}

// TestCoalescerOwnsItsBytes: Enqueue copies, so a caller that rewrites its
// buffer right after — the reducible path encodes every record into one
// scratch buffer — does not change what lands.
func TestCoalescerOwnsItsBytes(t *testing.T) {
	eng, fab, co, reg := coalescePair(t)
	fab.Node(0).CPU.Exec(0, func() {
		buf := []byte{1, 2, 3, 4}
		co.Enqueue(1, "s", WR{Region: "slots", Off: 0, Data: buf})
		copy(buf, []byte{5, 6, 7, 8})
		co.Enqueue(1, "s", WR{Region: "slots", Off: 4, Data: buf})
		copy(buf, []byte{0xff, 0xff, 0xff, 0xff})
		co.Enqueue(1, "s", WR{Region: "slots", Off: 64, Data: buf[:2]})
		copy(buf, []byte{0, 0, 0, 0})
	})
	eng.Run()
	if got, want := reg.Bytes()[:8], []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(got, want) {
		t.Fatalf("run landed %v, want %v", got, want)
	}
	if got := reg.Bytes()[64:66]; got[0] != 0xff || got[1] != 0xff {
		t.Fatalf("third write landed %v, want the bytes it was enqueued with", got)
	}
}

// TestCoalescerSteadyStateAllocatesNothing: the staging buffer and the WR list
// are reused from flush to flush, so with no tracer a warm coalescer costs no
// allocation per enqueue or flush.
func TestCoalescerSteadyStateAllocatesNothing(t *testing.T) {
	eng, fab, co, _ := coalescePair(t)
	rec := make([]byte, 24)
	burst := func() {
		for k := 0; k < 8; k++ {
			co.Enqueue(1, "s", WR{Region: "slots", Off: 24 * k, Data: rec})
		}
		co.Enqueue(1, "s", WR{Region: "slots", Off: 512, Data: rec})
	}
	fab.Node(0).CPU.Exec(0, burst)
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		fab.Node(0).CPU.Exec(0, burst)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("a warm enqueue burst and its flush allocate %.2f objects, want 0", allocs)
	}
}
