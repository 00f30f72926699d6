package ring

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/rdma"
)

// admitted is what one Admit let through: the bytes from `from` on, or "-".
func admitted(w *Watermark, seq uint64, payload string, all bool) string {
	from, fresh := w.Admit(seq, len(payload), all)
	if !fresh {
		return "-"
	}
	return payload[from:]
}

// TestWatermarkRefusesDuplicates: a message delivered whole is delivered
// once, below the watermark and above it.
func TestWatermarkRefusesDuplicates(t *testing.T) {
	var w Watermark
	for _, step := range []struct {
		seq  uint64
		want string
	}{{1, "m"}, {1, "-"}, {3, "m"}, {3, "-"}, {2, "m"}, {2, "-"}, {1, "-"}} {
		if got := admitted(&w, step.seq, "m", true); got != step.want {
			t.Fatalf("seq %d admitted %q, want %q", step.seq, got, step.want)
		}
	}
	for seq := uint64(0); seq <= 4; seq++ {
		if got, want := w.Delivered(seq), seq <= 3; got != want {
			t.Errorf("Delivered(%d) = %v, want %v", seq, got, want)
		}
	}
}

// TestWatermarkFoldsOutOfOrder: numbers delivered above a gap wait in the
// set, and fold into the watermark, leaving the set empty, once it fills.
func TestWatermarkFoldsOutOfOrder(t *testing.T) {
	var w Watermark
	for _, seq := range []uint64{2, 5, 4, 1} {
		w.Admit(seq, 1, true)
	}
	if w.Low() != 2 || w.Above() != 2 {
		t.Fatalf("watermark %d with %d above it, want 2 with 4 and 5 above", w.Low(), w.Above())
	}
	w.Admit(3, 1, true)
	if w.Low() != 5 || w.Above() != 0 {
		t.Fatalf("watermark %d with %d above it once the gap filled, want 5 with none", w.Low(), w.Above())
	}
}

// TestWatermarkPrefixGrowth: a staged prefix, then a longer one, delivers
// only the tail; a whole record after a prefix delivers the rest and moves
// the watermark; a backup slot after a whole record delivers nothing.
func TestWatermarkPrefixGrowth(t *testing.T) {
	var w Watermark
	for i, step := range []struct {
		payload string
		all     bool
		want    string
	}{
		{"ab", false, "ab"},
		{"ab", false, "-"},      // the same prefix recovered again
		{"abcd", false, "cd"},   // a longer prefix: its tail
		{"abc", false, "-"},     // a shorter one: nothing
		{"abcdef", true, "ef"},  // the ring record: the rest
		{"abcdefg", false, "-"}, // a backup slot after the whole message
		{"abcdef", true, "-"},   // the ring record again
	} {
		if got := admitted(&w, 1, step.payload, step.all); got != step.want {
			t.Fatalf("step %d: %q (whole %v) admitted %q, want %q", i, step.payload, step.all, got, step.want)
		}
	}
	if w.Low() != 1 || w.Above() != 0 {
		t.Fatalf("watermark %d with %d above it, want the whole message folded in", w.Low(), w.Above())
	}
	// A whole record of a length a prefix already reached delivers nothing,
	// and still completes the message.
	w.Admit(2, 3, false)
	if _, fresh := w.Admit(2, 3, true); fresh || !w.Delivered(2) || w.Above() != 0 {
		t.Fatalf("whole record after an equal prefix: fresh %v, delivered %v, %d above", fresh, w.Delivered(2), w.Above())
	}
}

// TestDrainAndTornRejects: Drain hands records sender by sender in
// ascending order and stops a ring's drain at the record its handler
// refuses; TornRejects totals the CRC rejects of every reader of every set.
func TestDrainAndTornRejects(t *testing.T) {
	const capacity = 256
	regions := make([][]byte, 3)
	readers := make([]*Reader, 3) // sender 1 has no ring
	for _, p := range []int{0, 2} {
		regions[p] = make([]byte, RegionSize(capacity))
		readers[p] = NewReader(regions[p])
		w := NewWriter(capacity)
		for i := 0; i < 3; i++ {
			writes, ok := w.Append(record(t, uint64(10*p+i)))
			if !ok {
				t.Fatal("ring full")
			}
			apply(regions[p], writes)
		}
	}
	var got []string
	handle := func(from rdma.NodeID, msg []byte) error {
		got = append(got, fmt.Sprintf("%d:%d", from, seqOf(msg)))
		if seqOf(msg) == 1 {
			return fmt.Errorf("refused")
		}
		return nil
	}
	Drain(readers, handle)
	if want := []string{"0:0", "0:1", "2:20", "2:21", "2:22"}; !slices.Equal(got, want) {
		t.Fatalf("first sweep handled %q, want %q", got, want)
	}
	got = got[:0]
	Drain(readers, handle)
	if want := []string{"0:2"}; !slices.Equal(got, want) {
		t.Fatalf("second sweep handled %q, want %q", got, want)
	}

	// Tear the next record on ring 2's interior and sweep twice.
	writes, _ := NewWriterAt(capacity, readers[2].Head()).Append(record(t, 23))
	torn := slices.Clone(writes[0].Data)
	torn[5] ^= 0xFF
	apply(regions[2], []Write{{writes[0].Off, torn}})
	Drain(readers, handle)
	Drain(readers, handle)
	if n := TornRejects(readers[:1], readers[1:], nil); n != 2 || len(got) != 1 {
		t.Fatalf("TornRejects = %d with %q handled, want ring 2's 2 rejects and nothing more", n, got)
	}
}
