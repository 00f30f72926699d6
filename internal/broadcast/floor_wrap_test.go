package broadcast

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// TestFloorAfterDrainWrapAtPollBoundary pins the promotion edge where the
// drained source's ring wraps exactly at a poll boundary: the poll falls
// between the wrap skip marker landing and the wrapped record landing, so
// the reader observes a zero length word at offset zero — byte-identical to
// an empty ring. A parked floor must NOT promote on that poll (the wrapped
// record was legitimately posted before the source's write permission was
// revoked; promoting first would stale-reject it — a lost update). It must
// promote on the next poll, after the record has landed and been delivered.
//
// The test lands the writer's remote writes directly in the receiver's
// region between poll ticks, the deterministic equivalent of the QP's
// in-order delivery, so the poll/landing interleaving is exact.
func TestFloorAfterDrainWrapAtPollBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 128
	eng := sim.NewEngine(17)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	Setup(fab, cfg)

	var got []string
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, string(payload))
	})
	defer rx.Stop()

	region := fab.Node(1).Region(cfg.inRegion(0)).Bytes()
	w := ring.NewWriter(cfg.RingCapacity)
	land := func(writes []ring.Write) {
		for _, wr := range writes {
			copy(region[wr.Off:], wr.Data)
		}
	}
	// frame builds the wire record for one message, padded so the framed
	// size is exactly 49 bytes: two fill the 128-byte lap to offset 98,
	// leaving a 30-byte remainder that forces an explicit skip marker. The
	// raw framing takes 9 bytes and epoch 0 and a seq below 128 one each.
	frame := func(seq uint64, tag string) []byte {
		payload := append([]byte(tag), make([]byte, 49-codec.RawOverhead-2-len(tag))...)
		rec, err := codec.EncodeRaw(appendMessage(nil, 0, seq, payload))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != 49 {
			t.Fatalf("framed record is %d bytes, want 49", len(rec))
		}
		return rec
	}

	// Two records fill the first lap; the receiver drains them.
	eng.At(0, func() {
		for seq, tag := range []string{"m1", "m2"} {
			writes, ok := w.Append(frame(uint64(seq+1), tag))
			if !ok {
				t.Fatal("append refused on an empty ring")
			}
			land(writes)
		}
	})
	// t=10µs (between polls, all drained): the membership layer parks an
	// epoch floor for source 0, and the wrapping record's skip marker lands —
	// but not the record itself. The next poll sees marker + zeroes.
	var wrapWrites []ring.Write
	eng.At(sim.Time(10*sim.Microsecond)+sim.Time(sim.Microsecond/2), func() {
		rx.FloorAfterDrain(0, 2)
		w.NoteHead(ring.DecodeHead(region))
		var ok bool
		wrapWrites, ok = w.Append(frame(3, "m3"))
		if !ok || len(wrapWrites) != 2 {
			t.Fatalf("wrap append = (%d writes, %v), want marker + record", len(wrapWrites), ok)
		}
		land(wrapWrites[:1]) // marker only: the record write is in flight
	})
	// t=13µs: at least one poll has run between marker and record. The
	// floor must still be parked — an un-quiescent idle is not a drain.
	eng.At(sim.Time(13*sim.Microsecond), func() {
		h, ok := rx.SourceRing(0)
		if !ok {
			t.Fatal("no ring for source 0")
		}
		if !h.HasPending || h.PendingMin != 2 {
			t.Errorf("floor not parked across the wrap gap: %+v", h)
		}
		if h.MinEpoch != 0 {
			t.Errorf("floor promoted with the wrapped record in flight: MinEpoch %d", h.MinEpoch)
		}
		land(wrapWrites[1:]) // the wrapped record lands
	})
	eng.RunUntil(sim.Time(40 * sim.Microsecond))

	// The wrapped record — stamped epoch 0, below the parked floor — must
	// have been delivered, not stale-rejected, and only then the floor
	// promoted on the genuine drain.
	if len(got) != 3 || got[2][:2] != "m3" {
		t.Fatalf("deliveries = %v, want m1 m2 m3", got)
	}
	h, _ := rx.SourceRing(0)
	if h.MinEpoch != 2 || h.HasPending {
		t.Fatalf("floor not promoted after the drain: %+v", h)
	}
	if n := rx.StaleRejects(); n != 0 {
		t.Fatalf("StaleRejects = %d: the pre-revocation record was rejected", n)
	}
}
