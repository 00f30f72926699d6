package ring

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"hamband/internal/codec"
)

// apply lands the writer's remote writes directly in the region, emulating
// the RDMA fabric.
func apply(region []byte, writes []Write) {
	for _, w := range writes {
		copy(region[w.Off:], w.Data)
	}
}

// record frames a raw ring record whose payload is seq followed by words,
// each eight bytes: 17 + 8·len(words) bytes in all.
func record(t *testing.T, seq uint64, words ...int64) []byte {
	t.Helper()
	payload := binary.LittleEndian.AppendUint64(nil, seq)
	for _, w := range words {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(w))
	}
	b, err := codec.EncodeRaw(payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seqOf reads the sequence number of a payload Poll returned for a record.
func seqOf(payload []byte) uint64 { return binary.LittleEndian.Uint64(payload) }

// payloadOf strips a framed record down to what Poll returns for it: the
// bytes between its length word and its CRC trailer.
func payloadOf(rec []byte) []byte { return rec[4 : len(rec)-codec.RecordTrailer] }

func TestAppendPollRoundTrip(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)

	rec := record(t, 7, 42)
	writes, ok := w.Append(rec)
	if !ok {
		t.Fatal("append refused on an empty ring")
	}
	apply(region, writes)
	got, ok, err := r.Poll()
	if err != nil || !ok {
		t.Fatalf("poll = (%v, %v)", ok, err)
	}
	if !bytes.Equal(got, payloadOf(rec)) {
		t.Fatal("record corrupted in transit")
	}
	if _, ok, _ := r.Poll(); ok {
		t.Fatal("second poll returned a phantom record")
	}
}

func TestEmptyRingPollsNothing(t *testing.T) {
	r := NewReader(make([]byte, RegionSize(128)))
	if _, ok, err := r.Poll(); ok || err != nil {
		t.Fatalf("poll on empty ring = (%v, %v)", ok, err)
	}
}

func TestCanaryGuardsInFlightRecord(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)
	rec := record(t, 1, 5)
	writes, _ := w.Append(rec)
	// Land the record without its final canary byte (in-flight write).
	partial := append([]byte(nil), writes[0].Data...)
	partial[len(partial)-1] = 0
	apply(region, []Write{{Off: writes[0].Off, Data: partial}})
	if _, ok, err := r.Poll(); ok || err != nil {
		t.Fatalf("poll consumed an in-flight record: (%v, %v)", ok, err)
	}
	// Canary lands: record becomes visible.
	apply(region, writes)
	if _, ok, _ := r.Poll(); !ok {
		t.Fatal("completed record not visible")
	}
}

func TestFlowControlAndNoteHead(t *testing.T) {
	region := make([]byte, RegionSize(128))
	w := NewWriter(128)
	r := NewReader(region)
	rec := record(t, 1, 1) // 25 bytes
	n := 0
	for {
		writes, ok := w.Append(rec)
		if !ok {
			break
		}
		apply(region, writes)
		n++
		if n > 100 {
			t.Fatal("writer never reported a full ring")
		}
	}
	if n == 0 {
		t.Fatal("no record fit at all")
	}
	// Drain the reader; the writer still thinks the ring is full until it
	// refreshes its cached head.
	for {
		if _, ok, err := r.Poll(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if _, ok := w.Append(rec); ok {
		t.Fatal("writer appended despite a stale cached head")
	}
	w.NoteHead(DecodeHead(region))
	if _, ok := w.Append(rec); !ok {
		t.Fatal("writer still refuses after refreshing the head")
	}
}

func TestNoteHeadIgnoresStale(t *testing.T) {
	w := NewWriter(64)
	w.NoteHead(40)
	w.NoteHead(20) // stale
	if w.Free() != 64 && w.free() != 64 {
		// free = cap - (tail-head) = 64 - (0-40): head>tail can't happen in
		// real use; this test only pins monotonicity.
		_ = w
	}
	if w.cachedHead != 40 {
		t.Fatalf("cachedHead = %d, want 40", w.cachedHead)
	}
}

func TestWraparoundTorture(t *testing.T) {
	const capacity = 512
	region := make([]byte, RegionSize(capacity))
	w := NewWriter(capacity)
	r := NewReader(region)
	rng := rand.New(rand.NewSource(4))

	var sent, got []uint64
	seq := uint64(0)
	for round := 0; round < 5000; round++ {
		if rng.Intn(2) == 0 {
			payload := make([]int64, rng.Intn(12))
			for i := range payload {
				payload[i] = rng.Int63()
			}
			seq++
			rec := record(t, seq, payload...)
			writes, ok := w.Append(rec)
			if !ok {
				w.NoteHead(DecodeHead(region))
				writes, ok = w.Append(rec)
			}
			if ok {
				apply(region, writes)
				sent = append(sent, seq)
			} else {
				seq--
			}
		} else {
			msg, ok, err := r.Poll()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if ok {
				got = append(got, seqOf(msg))
			}
		}
	}
	// Drain.
	for {
		msg, ok, err := r.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, seqOf(msg))
	}
	if len(got) != len(sent) {
		t.Fatalf("received %d records, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("record %d: got seq %d, want %d (FIFO violated)", i, got[i], sent[i])
		}
	}
	if w.Tail() < uint64(capacity) {
		t.Fatal("torture test never wrapped the ring")
	}
}

func TestSkipMarkerPath(t *testing.T) {
	// Force a wrap: fill most of the ring, drain, then append a record that
	// cannot fit before the boundary.
	const capacity = 256
	region := make([]byte, RegionSize(capacity))
	w := NewWriter(capacity)
	r := NewReader(region)

	first := record(t, 1, 1, 2, 3, 4) // 49 bytes: offsets the tail
	writes, ok := w.Append(first)
	if !ok {
		t.Fatal("first append refused")
	}
	apply(region, writes)
	if _, ok, _ := r.Poll(); !ok {
		t.Fatal("first record lost")
	}
	w.NoteHead(DecodeHead(region))

	// Now the tail sits mid-ring; append 65-byte records until one must
	// wrap with a marker (boundary 12 ≥ 4 at the fourth append).
	wrapped := false
	for i := uint64(2); i < 20; i++ {
		rec := record(t, i, 9, 9, 9, 9, 9, 9)
		writes, ok := w.Append(rec)
		if !ok {
			w.NoteHead(DecodeHead(region))
			writes, ok = w.Append(rec)
			if !ok {
				t.Fatalf("append %d refused after head refresh", i)
			}
		}
		if len(writes) == 2 {
			wrapped = true
		}
		apply(region, writes)
		got, ok, err := r.Poll()
		if err != nil || !ok {
			t.Fatalf("poll %d = (%v, %v)", i, ok, err)
		}
		if seq := seqOf(got); seq != i {
			t.Fatalf("got seq %d, want %d", seq, i)
		}
	}
	if !wrapped {
		t.Fatal("test never exercised the skip-marker path")
	}
}

func TestCorruptLengthDetected(t *testing.T) {
	region := make([]byte, RegionSize(64))
	r := NewReader(region)
	binary.LittleEndian.PutUint32(region[HeaderSize:], 60) // > capacity/2
	region[HeaderSize+59] = codec.Canary
	if _, _, err := r.Poll(); err == nil {
		t.Fatal("corrupt record length not detected")
	}
}

func TestWriterPanicsOnOversizedRecord(t *testing.T) {
	w := NewWriter(64)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized append did not panic")
		}
	}()
	w.Append(make([]byte, 40))
}

func TestNewWriterAtContinuesAtReaderHead(t *testing.T) {
	// A writer taking over an existing (drained) ring must place its first
	// record exactly where the reader will look next — the new-consensus-
	// leader handover.
	region := make([]byte, RegionSize(256))
	w1 := NewWriter(256)
	r := NewReader(region)
	for i := uint64(1); i <= 3; i++ {
		writes, ok := w1.Append(record(t, i, 7))
		if !ok {
			t.Fatal("append refused")
		}
		apply(region, writes)
		if _, ok, err := r.Poll(); !ok || err != nil {
			t.Fatalf("poll %d failed: %v", i, err)
		}
	}
	head := DecodeHead(region)
	if head == 0 {
		t.Fatal("head never advanced")
	}
	// Simulate the takeover: zero the data area, position at the head.
	for i := HeaderSize; i < len(region); i++ {
		region[i] = 0
	}
	w2 := NewWriterAt(256, head)
	rec := record(t, 99, 1)
	writes, ok := w2.Append(rec)
	if !ok {
		t.Fatal("takeover append refused")
	}
	apply(region, writes)
	got, ok, err := r.Poll()
	if err != nil || !ok {
		t.Fatalf("reader missed the takeover record: (%v, %v)", ok, err)
	}
	if !bytes.Equal(got, payloadOf(rec)) {
		t.Fatalf("takeover record = % x, want % x", got, payloadOf(rec))
	}
}
