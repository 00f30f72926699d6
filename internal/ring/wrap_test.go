package ring

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hamband/internal/codec"
)

// rec builds a codec-framed record whose total framed size is n bytes
// (codec raw framing adds RawOverhead bytes: u32 length + u32 crc +
// canary). The payload is stamped with tag so consumed records can be
// matched byte-for-byte.
func rec(t *testing.T, n int, tag byte) []byte {
	t.Helper()
	if n <= codec.RawOverhead {
		t.Fatalf("record size %d below framing minimum", n)
	}
	payload := make([]byte, n-codec.RawOverhead)
	for i := range payload {
		payload[i] = tag
	}
	r, err := codec.EncodeRaw(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != n {
		t.Fatalf("framed record is %d bytes, want %d", len(r), n)
	}
	return r
}

// land applies the writer's returned remote writes to the shared region,
// in order — the simulated equivalent of the QP's in-order delivery.
func land(region []byte, writes []Write) {
	for _, w := range writes {
		copy(region[w.Off:], w.Data)
	}
}

// drain polls until empty, returning copies of the consumed records'
// payloads: a polled payload is valid only until the next Poll.
func drain(t *testing.T, r *Reader) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		rec, ok, err := r.Poll()
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, bytes.Clone(rec))
	}
}

// TestWrapBoundaryPlacement pins the three wrap-boundary behaviours the
// writer and reader must agree on: a record exactly filling the lap (no
// skip), a remainder of >= 4 bytes (explicit skip marker), and a remainder
// in [1,4) (implicit skip — too small for a marker's length word).
func TestWrapBoundaryPlacement(t *testing.T) {
	const capacity = 32

	t.Run("exact fit", func(t *testing.T) {
		region := make([]byte, RegionSize(capacity))
		w := NewWriter(capacity)
		r := NewReader(region)
		a, b := rec(t, 16, 'a'), rec(t, 16, 'b')
		for i, record := range [][]byte{a, b} {
			writes, ok := w.Append(record)
			if !ok {
				t.Fatalf("append %d refused", i)
			}
			if len(writes) != 1 || writes[0].Off != HeaderSize+16*i {
				t.Fatalf("append %d placed %+v, want one write at offset %d", i, writes, HeaderSize+16*i)
			}
			land(region, writes)
		}
		got := drain(t, r)
		if len(got) != 2 || !bytes.Equal(got[0], payloadOf(a)) || !bytes.Equal(got[1], payloadOf(b)) {
			t.Fatalf("first lap mismatch: %v", got)
		}
		w.NoteHead(r.Head())

		// The second record ended exactly at the boundary: no skip, and the
		// third record starts back at offset zero.
		c := rec(t, 12, 'c')
		writes, ok := w.Append(c)
		if !ok || writes[0].Off != HeaderSize {
			t.Fatalf("post-boundary append placed %+v, want offset %d", writes, HeaderSize)
		}
		land(region, writes)
		if got := drain(t, r); len(got) != 1 || !bytes.Equal(got[0], payloadOf(c)) {
			t.Fatalf("post-boundary record mismatch: %v", got)
		}
		if r.Head() != w.Tail() {
			t.Fatalf("drained ring out of sync: head %d, tail %d", r.Head(), w.Tail())
		}
	})

	t.Run("remainder >= 4 uses a skip marker", func(t *testing.T) {
		// Records are capped at capacity/2, so a wider ring is needed to
		// leave a marker-sized remainder the next record cannot fit in.
		const wide = 64
		region := make([]byte, RegionSize(wide))
		w := NewWriter(wide)
		r := NewReader(region)
		a, fill := rec(t, 20, 'a'), rec(t, 32, 'f')
		for _, record := range [][]byte{a, fill} {
			writes, ok := w.Append(record)
			if !ok {
				t.Fatal("fill append refused")
			}
			land(region, writes)
		}
		if got := drain(t, r); len(got) != 2 || !bytes.Equal(got[0], payloadOf(a)) {
			t.Fatalf("fill records mismatch: %v", got)
		}
		w.NoteHead(r.Head())

		// pos 52, boundary 12 >= 4: the writer must emit an explicit marker
		// write at the boundary, then the record at offset zero.
		b := rec(t, 16, 'b')
		writes, ok := w.Append(b)
		if !ok {
			t.Fatal("append refused with the lap free")
		}
		if len(writes) != 2 {
			t.Fatalf("got %d writes, want marker + record", len(writes))
		}
		if writes[0].Off != HeaderSize+52 || binary.LittleEndian.Uint32(writes[0].Data) != skipMarker {
			t.Fatalf("marker write = %+v, want skip marker at offset %d", writes[0], HeaderSize+52)
		}
		if writes[1].Off != HeaderSize {
			t.Fatalf("record write at %d, want wrap to %d", writes[1].Off, HeaderSize)
		}
		land(region, writes)
		if got := drain(t, r); len(got) != 1 || !bytes.Equal(got[0], payloadOf(b)) {
			t.Fatalf("wrapped record mismatch: %v", got)
		}
		if r.Head() != w.Tail() {
			t.Fatalf("head %d != tail %d after marker wrap", r.Head(), w.Tail())
		}
	})

	for _, remainder := range []int{1, 2, 3} {
		remainder := remainder
		t.Run("implicit skip", func(t *testing.T) {
			region := make([]byte, RegionSize(capacity))
			w := NewWriter(capacity)
			r := NewReader(region)
			// Fill the lap to capacity-remainder with two records.
			first := rec(t, 15, 'a')
			second := rec(t, capacity-remainder-15, 'b')
			for _, record := range [][]byte{first, second} {
				writes, ok := w.Append(record)
				if !ok {
					t.Fatal("fill append refused")
				}
				land(region, writes)
			}
			if got := drain(t, r); len(got) != 2 {
				t.Fatalf("consumed %d fill records, want 2", len(got))
			}
			w.NoteHead(r.Head())

			// The remainder is too small for a marker's length word: the
			// writer skips it without any extra write, and the reader skips
			// it implicitly (zero bytes below the 4-byte minimum).
			c := rec(t, 10, 'c')
			writes, ok := w.Append(c)
			if !ok {
				t.Fatal("wrap append refused")
			}
			if len(writes) != 1 || writes[0].Off != HeaderSize {
				t.Fatalf("remainder %d: writes = %+v, want a single write at offset %d",
					remainder, writes, HeaderSize)
			}
			land(region, writes)
			got := drain(t, r)
			if len(got) != 1 || !bytes.Equal(got[0], payloadOf(c)) {
				t.Fatalf("remainder %d: wrapped record mismatch: %v", remainder, got)
			}
			if r.Head() != w.Tail() {
				t.Fatalf("remainder %d: head %d != tail %d", remainder, r.Head(), w.Tail())
			}
		})
	}
}

// TestWrapBoundarySweep drives many record-size patterns through a small
// ring, interleaving production and consumption, so the wrap boundary is
// crossed at every remainder class; writer placement and reader consumption
// must agree byte-for-byte throughout, and the head/tail counters must
// match whenever the ring drains.
func TestWrapBoundarySweep(t *testing.T) {
	const capacity = 64
	for size := codec.RawOverhead + 1; size <= 30; size++ {
		region := make([]byte, RegionSize(capacity))
		w := NewWriter(capacity)
		r := NewReader(region)
		var produced, consumed [][]byte
		for i := 0; i < 40; i++ {
			record := rec(t, size+(i%3), byte('a'+i%26))
			writes, ok := w.Append(record)
			if !ok {
				// Ring full under the cached head: consume and retry, as the
				// protocol layers do after a head refresh.
				consumed = append(consumed, drain(t, r)...)
				w.NoteHead(r.Head())
				writes, ok = w.Append(record)
				if !ok {
					t.Fatalf("size %d: append still refused after full drain (free %d)", size, w.Free())
				}
			}
			land(region, writes)
			produced = append(produced, record)
		}
		consumed = append(consumed, drain(t, r)...)
		if len(consumed) != len(produced) {
			t.Fatalf("size %d: consumed %d records, produced %d", size, len(consumed), len(produced))
		}
		for i := range produced {
			if !bytes.Equal(consumed[i], payloadOf(produced[i])) {
				t.Fatalf("size %d: record %d differs: % x vs % x", size, i, consumed[i], produced[i])
			}
		}
		// The reader may pre-skip a dead remainder (< 4 bytes, below the
		// length-word minimum) at the lap end before the writer crosses it;
		// any other divergence is a placement bug.
		if head, tail := r.Head(), w.Tail(); head != tail &&
			(head < tail || head-tail >= 4 || head%capacity != 0) {
			t.Fatalf("size %d: drained ring out of sync: head %d, tail %d", size, head, tail)
		}
	}
}

// TestQuiescentDistinguishesWrapInFlight pins the drain proof the
// FloorAfterDrain promotion relies on: an idle poll after consuming an
// explicit wrap skip marker is NOT quiescent — the marker promises a record
// at offset zero whose write is still landing, and a zero length word there
// is indistinguishable from an empty ring without that memory. Quiescent
// turns true again only once the promised record has been consumed.
func TestQuiescentDistinguishesWrapInFlight(t *testing.T) {
	const capacity = 128
	region := make([]byte, RegionSize(capacity))
	w := NewWriter(capacity)
	r := NewReader(region)

	if _, ok, _ := r.Poll(); ok {
		t.Fatal("record on an empty ring")
	}
	if !r.Quiescent() {
		t.Fatal("empty ring not quiescent")
	}

	// Two 49-byte records fill the lap to offset 98 (remainder 30 >= 4, so
	// the next append leaves an explicit skip marker).
	for _, tag := range []byte{0xA1, 0xA2} {
		writes, ok := w.Append(rec(t, 49, tag))
		if !ok {
			t.Fatal("append refused with an empty ring")
		}
		land(region, writes)
	}
	if got := drain(t, r); len(got) != 2 {
		t.Fatalf("drained %d records, want 2", len(got))
	}
	if !r.Quiescent() {
		t.Fatal("drained ring not quiescent")
	}

	// The wrapping record: a skip marker at offset 98 plus the record at
	// offset 0, two separate writes landing in order. Land only the marker —
	// the instant a poll can fall into.
	w.NoteHead(r.Head())
	writes, ok := w.Append(rec(t, 49, 0xA3))
	if !ok || len(writes) != 2 {
		t.Fatalf("wrap append = (%d writes, %v), want marker + record", len(writes), ok)
	}
	land(region, writes[:1])
	if _, ok, err := r.Poll(); ok || err != nil {
		t.Fatalf("poll between marker and record = (%v, %v)", ok, err)
	}
	if r.Quiescent() {
		t.Fatal("quiescent with the wrapped record still in flight")
	}

	// The record lands: delivered, and idleness is provable again.
	land(region, writes[1:])
	if got := drain(t, r); len(got) != 1 || got[0][0] != 0xA3 {
		t.Fatalf("wrapped record not delivered: %d records", len(got))
	}
	if !r.Quiescent() {
		t.Fatal("ring not quiescent after the wrapped record delivered")
	}
}
